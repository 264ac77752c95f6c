"""Statement logs as the refactor oracle.

Eight small seeded trainings run on sqlite and on the embedded engine
behind a connector proxy that logs every ``execute`` / ``execute_read``
as ``(tag, sql)`` and every ``drop_table`` as ``("drop_table", name)``.
The SQL a training issues is a pure function of its data, parameters
and backend, so each log is pinned by sha256:

* at ``num_workers=1`` the log in issue order;
* at ``num_workers=4`` the sorted multiset, with the ordinal of every
  ``jb_tmp_*`` name masked — with several workers, relation chains mint
  temp names in a run-dependent order, but issue the same statements.

A change that alters SQL text or order restates these pins and says why
in CHANGES.md, the same contract as the ``model_digest`` pins.  A
refactor that claims "same behaviour" restates none.

Each config also trains to one ``model_digest`` on both backends at one
worker — except the one fenced as a strict xfail (``DIGESTS_DIFFER``),
which must start failing loudly once its digests agree.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pytest

import repro
from repro.backends.chaos import _ConnectorProxy
from repro.backends.sqlite3_backend import SQLiteConnector
from repro.core.histogram import train_boosting_on_cuboid
from repro.datasets import favorita, imdb
from repro.distributed import SimulatedCluster
from repro.engine.database import Database
from repro.joingraph.graph import JoinGraph

BACKENDS = ("sqlite", "embedded")

PARAMS = {"num_iterations": 2, "num_leaves": 4, "min_data_in_leaf": 3}

#: sha256 prefix of the ``num_workers=1`` log, by (config, backend)
PINNED_SERIAL = {
    ("gbm_auto", "sqlite"): "6c947b48d86060c0",
    ("gbm_auto", "embedded"): "fa42ecd8b4dc6f27",
    ("gbm_off", "sqlite"): "081346e4040ce8e5",
    ("gbm_off", "embedded"): "eeb58dc3c728b9aa",
    ("huber", "sqlite"): "76a29cc450239765",
    ("huber", "embedded"): "8eb8dde4e18fa646",
    ("multiclass", "sqlite"): "e63564fafd853905",
    ("multiclass", "embedded"): "2fa6583752a63b6d",
    ("forest", "sqlite"): "e0e6faffbf05fba4",
    ("forest", "embedded"): "8a577a8ca4ddbc71",
    ("shards", "sqlite"): "19d951c2515110f6",
    ("shards", "embedded"): "19d951c2515110f6",
    ("galaxy", "sqlite"): "076b1fa0c12c4846",
    ("galaxy", "embedded"): "cc1bd5906a91b9c4",
    ("cuboid", "sqlite"): "80522885f5ef567e",
    ("cuboid", "embedded"): "bb3b3b20405a03be",
}

#: sha256 prefix of the ``num_workers=4`` masked multiset
PINNED_PARALLEL = {
    ("gbm_auto", "sqlite"): "48d4be1a8c9a00ce",
    ("gbm_auto", "embedded"): "c83802228a3e10f3",
    ("gbm_off", "sqlite"): "a3982b6a09e2a9c1",
    ("gbm_off", "embedded"): "1b316888c72468cb",
    ("huber", "sqlite"): "6011cf6c2ebe4680",
    ("huber", "embedded"): "95b3863e3f95b9b5",
    ("multiclass", "sqlite"): "4dbb9de8ccc95eea",
    ("multiclass", "embedded"): "0c4c7bf5af9b127e",
    ("forest", "sqlite"): "4e32337abb7e4a4b",
    ("forest", "embedded"): "764591bbc6016c83",
    ("shards", "sqlite"): "7afdd4e9185196ad",
    ("shards", "embedded"): "7afdd4e9185196ad",
    ("galaxy", "sqlite"): "bf9688a1999b1862",
    ("galaxy", "embedded"): "d94786681d47fb14",
    ("cuboid", "sqlite"): "b33dbde1e94b80c4",
    ("cuboid", "embedded"): "5045ff83580242a8",
}

_TEMP_ORDINAL = re.compile(r"\b(jb_tmp_\w*?)_\d+\b")


class StatementLog(_ConnectorProxy):
    """Logs what a training issues; ``log`` may be shared by proxies."""

    def __init__(self, inner, log=None):
        super().__init__(inner)
        self.log = [] if log is None else log

    def execute(self, sql, tag=None):
        self.log.append((tag, sql))
        return self._inner.execute(sql, tag=tag)

    def execute_read(self, sql, tag=None):
        self.log.append((tag, sql))
        return self._inner.execute_read(sql, tag=tag)

    def drop_table(self, name, if_exists=False):
        self.log.append(("drop_table", name))
        self._inner.drop_table(name, if_exists=if_exists)


def _connector(backend):
    return SQLiteConnector() if backend == "sqlite" else Database()


def _favorita(db):
    return favorita(db=db, num_fact_rows=1500, num_extra_features=1, seed=3)[1]


def _classes(db):
    """A two-dimension star with a 3-class target."""
    rng = np.random.default_rng(11)
    rows, size = 600, 12
    keys = [rng.integers(0, size, rows) for _ in range(2)]
    feats = [rng.normal(size=size) for _ in range(2)]
    local = rng.integers(0, 20, rows).astype(np.float64)
    score = feats[0][keys[0]] + 0.5 * feats[1][keys[1]] + 0.02 * local
    target = np.digitize(score, np.quantile(score, [0.33, 0.66]))
    db.create_table("fact", {"local_feat": local, "target": target,
                             "k0": keys[0], "k1": keys[1]})
    graph = JoinGraph(db)
    graph.add_relation("fact", features=["local_feat"], y="target",
                       is_fact=True)
    for j in range(2):
        db.create_table(f"dim{j}", {f"k{j}": np.arange(size),
                                    f"dfeat{j}": feats[j]})
        graph.add_relation(f"dim{j}", features=[f"dfeat{j}"])
        graph.add_edge("fact", f"dim{j}", [f"k{j}"])
    return graph


def _galaxy(db):
    return imdb(db=db, rows_per_fact=600, num_movies=40, num_persons=60,
                seed=6)[1]


def _gbm(**extra):
    def train(db, graph, workers):
        return repro.train_gradient_boosting(
            db, graph, dict(PARAMS, num_workers=workers, **extra)
        )
    return train


def _forest(db, graph, workers):
    return repro.train_random_forest(
        db, graph,
        dict(PARAMS, num_iterations=3, subsample=0.5, num_workers=workers),
    )


def _cuboid(db, graph, workers):
    return train_boosting_on_cuboid(
        db, graph, dict(PARAMS, max_bin=6, num_workers=workers)
    )


def _shards(db, graph, workers):
    cluster = SimulatedCluster(db, graph, "item_id", num_machines=2)
    # Each shard is its own connector: log them all into one list.
    cluster.workers = [StatementLog(w, db.log) for w in cluster.workers]
    for worker, shard_graph in zip(cluster.workers, cluster.worker_graphs):
        shard_graph.db = worker
    return cluster.train_gradient_boosting(dict(PARAMS, num_workers=workers))


#: config -> (``make(db) -> graph``, ``train(db, graph, workers) -> model``)
CONFIGS = {
    "gbm_auto": (_favorita, _gbm()),
    "gbm_off": (_favorita, _gbm(split_batching="off")),
    "huber": (_favorita, _gbm(objective="huber")),
    "multiclass": (_classes, _gbm(objective="multiclass", num_class=3)),
    "forest": (_favorita, _forest),
    "shards": (_favorita, _shards),
    "galaxy": (_galaxy, _gbm()),
    "cuboid": (_favorita, _cuboid),
}


def logged_training(config, backend, workers):
    """``(log, model)`` of one training behind a :class:`StatementLog`."""
    make, train = CONFIGS[config]
    db = StatementLog(_connector(backend))
    model = train(db, make(db), workers)
    return db.log, model


def statement_log(config, backend, workers):
    return logged_training(config, backend, workers)[0]


def serial_digest(log):
    return hashlib.sha256(repr(log).encode()).hexdigest()[:16]


def parallel_digest(log):
    masked = sorted(_TEMP_ORDINAL.sub(r"\1_#", repr(entry)) for entry in log)
    return hashlib.sha256(repr(masked).encode()).hexdigest()[:16]


CASES = [(config, backend) for config in CONFIGS for backend in BACKENDS]


@pytest.mark.parametrize("config, backend", CASES)
def test_serial_log_matches_pin(config, backend):
    log = statement_log(config, backend, workers=1)
    assert serial_digest(log) == PINNED_SERIAL[(config, backend)]


@pytest.mark.parametrize("config, backend", CASES)
def test_parallel_log_multiset_matches_pin(config, backend):
    log = statement_log(config, backend, workers=4)
    assert parallel_digest(log) == PINNED_PARALLEL[(config, backend)]


@pytest.mark.parametrize("config, backend", CASES)
def test_training_issues_no_window_function(config, backend):
    """Every split, batched or per-leaf, is scored by the client-side
    prefix scan: no training statement asks the engine for a window."""
    log = statement_log(config, backend, workers=1)
    assert [sql for _, sql in log if "OVER (" in sql.upper()] == []


#: configs whose two backends train different bits today: every split
#: and count matches, but float sums differ in the last bits (summation
#: order).  ROADMAP item 3 (exact integer aggregates) closes this.
DIGESTS_DIFFER = {"galaxy"}


@pytest.mark.parametrize(
    "config",
    [
        pytest.param(
            config,
            marks=pytest.mark.xfail(
                strict=True,
                reason="float sums differ across backends (ROADMAP item 3)",
            ),
        )
        if config in DIGESTS_DIFFER
        else config
        for config in CONFIGS
    ],
)
def test_digest_agrees_across_backends(config):
    sqlite, embedded = (
        repro.model_digest(logged_training(config, backend, workers=1)[1])
        for backend in BACKENDS
    )
    assert sqlite == embedded


@pytest.mark.parametrize("backend", BACKENDS)
def test_identical_trainings_issue_identical_logs(backend):
    """Nothing per-process leaks into the SQL text: the persistent label
    column is named from the lifted table, not a process counter."""
    first = statement_log("gbm_auto", backend, workers=1)
    second = statement_log("gbm_auto", backend, workers=1)
    assert first == second
    assert any("jb_leaf_s1" in sql for _, sql in first)


def test_multiclass_chains_keep_distinct_label_columns():
    """Three class chains share one lifted fact, each with its own
    label column."""
    log = statement_log("multiclass", "sqlite", workers=1)
    added = {
        match
        for _, sql in log
        for match in re.findall(r"ADD COLUMN (jb_leaf_s\d+)", sql)
    }
    assert added == {"jb_leaf_s1", "jb_leaf_s2", "jb_leaf_s3"}
