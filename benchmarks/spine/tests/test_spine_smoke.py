"""Smoke tests for the bench spine (not tier-1):

    python -m pytest benchmarks/spine/tests -q
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.datasets import favorita
from repro.serve import PredictionService

import compare
import workloads
from run import ROOT, SPINE, load_contract
from tracing import TimingConnector, Tracer

RUN = os.path.join(SPINE, "run.py")
CONTRACT = load_contract()
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def run_py(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, RUN, *args], cwd=cwd, capture_output=True, text=True
    )


@pytest.fixture(scope="module")
def quick_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("spine") / "quick.json"
    done = run_py("--quick", "--trace", "1", "--aa", "1", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    with open(out) as f:
        return json.load(f)


def test_every_contract_metric_is_reported_with_its_unit(quick_result):
    assert list(quick_result["workloads"]) == WORKLOADS
    assert quick_result["claim"] is None
    for record in quick_result["workloads"].values():
        for spec in CONTRACT["end_to_end"]:
            assert record["end_to_end"][spec["name"]]["unit"] == spec["unit"]
            assert record["end_to_end"][spec["name"]]["value"] > 0
        for spec in CONTRACT["per_layer"]:
            assert record["layers"][spec["name"]]["unit"] == spec["unit"]
        assert "trace_overhead_ratio" in record["layers"]


def test_nothing_fails_and_layers_cover_the_wall(quick_result):
    for name, record in quick_result["workloads"].items():
        assert record["ops_failed"] == 0, record["errors"]
        assert record["ops_attempted"] >= 1
        for metric, m in record["layers"].items():
            if metric.endswith("_s"):
                assert m["value"] >= 0, (name, metric)
        assert 0.9 <= record["layers"]["layer_coverage"]["value"] <= 1.1, name


def test_layers_marked_no_effect_are_idle(quick_result):
    sqlite = quick_result["workloads"]["train_sqlite"]["layers"]
    embedded = quick_result["workloads"]["train_embedded_strkeys"]["layers"]
    assert sqlite["engine.encode_s"]["value"] == 0
    assert sqlite["sql.parse_n"]["value"] == 0
    assert embedded["engine.encode_passes"]["value"] > 0
    assert embedded["sql.parse_n"]["value"] > 0
    for name in ("serve_point", "serve_bulk"):
        layers = quick_result["workloads"][name]["layers"]
        assert layers["backends.message_n"]["value"] == 0
        assert layers["core.client_s"]["value"] == 0


def _shape(value):
    """Key structure with the leaves dropped."""
    if isinstance(value, dict):
        return {k: _shape(v) for k, v in value.items()}
    return None


def test_quick_schema_matches_the_committed_full_baseline(quick_result):
    with open(os.path.join(SPINE, "baseline.json")) as f:
        baseline = json.load(f)
    assert quick_result["quick"] and not baseline["quick"]
    assert _shape(baseline) == _shape(quick_result)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_contract_last_line(trace):
    done = run_py("--workload", "serve_bulk", "--seed", "3", "--seconds", "10",
                  "--trace", trace, "--quick")
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    wanted = CONTRACT["per_layer" if trace == "1" else "end_to_end"]
    assert list(last["metrics"]) == [m["name"] for m in wanted]
    for spec in wanted:
        assert last["metrics"][spec["name"]]["unit"] == spec["unit"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(SPINE, tmp_path / "benchmarks" / "spine",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/spine/run.py", "--workload", "serve_bulk",
         "--seed", "1", "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_wrong_scores_are_counted_not_fatal(monkeypatch):
    honest = workloads.reference_scores
    monkeypatch.setattr(
        workloads, "reference_scores", lambda model, frame: honest(model, frame) + 1.0
    )
    record = workloads.run_workload("serve_point", seed=7, seconds=10, traced=False, quick=True)
    assert record["ops_attempted"] == 40
    # every answer with at least one row now disagrees with the reference
    assert 20 < record["ops_failed"] <= 40
    assert record["errors"]


@pytest.mark.parametrize("backend", ["plain", "sqlite"])
def test_timing_connector_changes_no_bits(backend):
    def deployed(wrap):
        conn = repro.connect(backend=backend)
        tracer = Tracer()
        if wrap:
            conn = TimingConnector(conn, tracer)
        _, graph = favorita(db=conn, num_fact_rows=2_000, seed=5)
        model = repro.train_gradient_boosting(
            conn, graph, {"num_iterations": 3, "num_leaves": 8, "num_workers": 1}
        )
        service = PredictionService(conn, graph)
        service.deploy(model)
        scores = (
            service.score_all(),
            service.score_sql(),
            service.score_key({"item_id": 3}).column("jb_score").as_float(),
        )
        return conn, tracer, repro.model_digest(model), scores

    plain_conn, _, plain_digest, plain_scores = deployed(wrap=False)
    conn, tracer, digest, scores = deployed(wrap=True)
    try:
        assert digest == plain_digest
        for got, want in zip(scores, plain_scores):
            assert np.array_equal(got, want)
        # explicit forwards, not the Connector base-class defaults
        assert conn.unwrapped is conn._inner.unwrapped
        assert conn.profiles is conn._inner.profiles
        assert len(conn.profiles) == len(plain_conn.profiles)
        sql = "SELECT COUNT(*) FROM sales"
        assert (conn.process_task_payload(sql) is None) == (
            conn._inner.process_task_payload(sql) is None
        )
        assert conn.capabilities is conn._inner.capabilities
        tags = {s["tag"] for s in tracer.spans}
        assert {"message", "feature", "serve_sql", "serve_key"} <= tags
        assert conn.table_names() == plain_conn.table_names()  # no temp leaked
    finally:
        conn.close()
        plain_conn.close()


def test_compare_verdicts(quick_result, tmp_path, capsys):
    base = copy.deepcopy(quick_result)
    for record in base["workloads"].values():
        for m in record["end_to_end"].values():
            m["aa_spread"] = 0.01

    def write(name, result):
        path = tmp_path / name
        path.write_text(json.dumps(result))
        return str(path)

    a = write("a.json", base)
    assert compare.main([a, a]) == 0
    assert "regressed" not in capsys.readouterr().out

    slower = copy.deepcopy(base)
    slower["workloads"]["serve_point"]["end_to_end"]["primary_p50_ms"]["value"] *= 1.5
    slower["workloads"]["serve_bulk"]["end_to_end"]["primary_p50_ms"]["value"] *= 0.5
    assert compare.main([a, write("slower.json", slower)]) == 1
    out = capsys.readouterr().out
    assert "regressed" in out and "improved" in out

    noisy = copy.deepcopy(slower)
    noisy["workloads"]["serve_point"]["end_to_end"]["primary_p50_ms"]["aa_spread"] = 0.4
    assert compare.main([a, write("noisy.json", noisy)]) == 0
    assert "unresolved" in capsys.readouterr().out

    failing = copy.deepcopy(base)
    failing["workloads"]["train_sqlite"]["ops_failed"] = 1
    failing["workloads"]["train_sqlite"]["model_digest"] = "0" * 64
    assert compare.main([a, write("failing.json", failing)]) == 1
    assert "CHANGED" in capsys.readouterr().out
