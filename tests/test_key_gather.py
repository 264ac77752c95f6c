"""Key scoring as a gather: differential, invalidation and semantics tests.

:func:`repro.core.predict.gather_frame` must be ``feature_frame`` masked
by the key predicate — column for column, NULL for NULL — on generated
snowflake schemas with everything evaluation data can throw at an N-to-1
join: int and string keys, NULL and dangling fact keys, NULL, dangling
and duplicate dimension keys, an empty dimension, a composite edge, a
two-hop snowflake arm, composite and zero-match request keys.  On top of
the frame, every way of answering a key request must return the same
bits: the embedded gather, sqlite's pushed-down SQL, and the gateway's
compiled and recursive rungs on both backends.

One carve-out, asserted rather than hidden: with *duplicate* dimension
keys a SQL ``LEFT JOIN`` multiplies fact rows while the evaluation frame
keeps one row per fact row (the last match wins), so the SQL leg is
compared only on scenarios whose dimensions are N-to-1.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.predict import check_key_request, feature_frame, gather_frame
from repro.exceptions import TrainingError
from repro.joingraph.graph import JoinGraph
from repro.serve import BreakerPolicy, PredictionService, ServingGateway

FEATURES = ["xf", "xa", "xs", "xb", "xc"]
TRAIN_PARAMS = {"num_iterations": 4, "num_leaves": 6, "seed": 3}


def rung_answers(service, keys, extra_columns=()):
    """``{rung: Relation}``: one key request answered by each rung of the
    gateway ladder in turn, every rung above it held open by its breaker."""
    gateway = ServingGateway(
        service,
        breaker_policy=BreakerPolicy(failure_threshold=1, recovery_seconds=3600.0),
    )
    answers = {}
    for rung in ("key", "compiled", "recursive"):
        response = gateway.score_key(keys, extra_columns=extra_columns)
        assert response.served_by == rung
        answers[rung] = response.relation
        gateway.breaker(rung).record_failure()
    return answers


def snowflake(seed, messy=True, duplicates=True):
    """Tables of ``fact -> dim_a -> sub_a``, ``fact -> dim_b`` and
    ``fact -(c1, c2)-> dim_c``; the seed picks int or string keys, the
    sizes and — when ``messy`` — where the NULL, dangling and duplicate
    keys land and whether ``dim_b`` is empty."""
    rng = np.random.default_rng(seed)
    text = bool(seed % 2)
    n = int(rng.integers(120, 320))
    sizes = {"a": 12, "s": 5, "b": 8}

    def keyed(values, null=None):
        """Key column from ints; ``null`` marks NULL positions."""
        null = np.zeros(len(values), dtype=bool) if null is None else null
        if text:
            out = np.array([f"k{v:03d}" for v in values], dtype=object)
            out[null] = None
            return out
        if null.any():
            return np.where(null, np.nan, values.astype(np.float64))
        return values

    def holes(size, share):
        return rng.random(size) < share if messy else np.zeros(size, dtype=bool)

    fact_a = rng.integers(0, sizes["a"], n)
    fact_b = rng.integers(0, sizes["b"], n)
    fact_a[holes(n, 0.06)] = 99  # dangling: no such dim_a row
    dim_a_keys = np.arange(sizes["a"])
    dim_a_s = rng.integers(0, sizes["s"], sizes["a"])
    dim_a_s[holes(sizes["a"], 0.15)] = 77  # dangling second hop
    xa = rng.normal(size=sizes["a"]) * 4
    a_null = holes(sizes["a"], 0.1)
    if messy and duplicates:
        # A repeated dimension key: the later row must win.
        dup = rng.integers(0, sizes["a"], 3)
        dim_a_keys = np.concatenate([dim_a_keys, dup])
        dim_a_s = np.concatenate([dim_a_s, rng.integers(0, sizes["s"], 3)])
        xa = np.concatenate([xa, rng.normal(size=3) * 4])
        a_null = np.concatenate([a_null, np.zeros(3, dtype=bool)])
    b_rows = 0 if messy and seed % 3 == 0 else sizes["b"]
    c1, c2 = np.meshgrid(np.arange(4), np.arange(3), indexing="ij")
    tables = {
        "fact": {
            "rid": np.arange(n),
            "a": keyed(fact_a, holes(n, 0.05)),
            "b": keyed(fact_b, holes(n, 0.05)),
            "c1": rng.integers(0, 5, n),  # 4 dangles on the composite edge
            "c2": rng.integers(0, 3, n),
            "xf": rng.normal(size=n),
            "y": rng.normal(size=n),
        },
        "dim_a": {
            "a": keyed(dim_a_keys, a_null),
            "s": keyed(dim_a_s, holes(len(dim_a_s), 0.1)),
            "xa": xa,
        },
        "sub_a": {
            "s": keyed(np.arange(sizes["s"])),
            "xs": rng.normal(size=sizes["s"]) * 3,
        },
        "dim_b": {
            "b": keyed(np.arange(b_rows)),
            "xb": np.where(
                rng.random(b_rows) < (0.2 if messy else 0.0),
                np.nan,
                rng.normal(size=b_rows) * 2,
            ),
        },
        "dim_c": {
            "c1": c1.ravel(),
            "c2": c2.ravel(),
            "xc": rng.normal(size=12) * 2,
        },
    }
    if not messy:
        # A learnable target so trained trees split on every relation.
        fact = tables["fact"]
        fact["y"] = (
            fact["xf"]
            + xa[fact_a]
            + tables["sub_a"]["xs"][dim_a_s[fact_a]]
            + tables["dim_b"]["xb"][fact_b]
            + tables["dim_c"]["xc"][np.minimum(fact["c1"], 3) * 3 + fact["c2"]]
        )
    return tables


def load(tables, backend="embedded", composite_feature=True):
    """``composite_feature=False`` hides ``xc`` from training, whose
    residual updates cannot move predicates over a composite edge."""
    conn = repro.connect(backend=backend)
    for name, data in tables.items():
        conn.create_table(name, data)
    graph = JoinGraph(conn)
    graph.add_relation("fact", features=["xf"], y="y", is_fact=True)
    graph.add_relation("dim_a", features=["xa"])
    graph.add_relation("sub_a", features=["xs"])
    graph.add_relation("dim_b", features=["xb"])
    graph.add_relation("dim_c", features=["xc"] if composite_feature else [])
    graph.add_edge("fact", "dim_a", ["a"])
    graph.add_edge("dim_a", "sub_a", ["s"])
    graph.add_edge("fact", "dim_b", ["b"])
    graph.add_edge("fact", "dim_c", ["c1", "c2"])
    return conn, graph


def requests(tables, seed):
    """Key requests covering present, dangling-in-the-dimension,
    zero-match and composite keys, typed like the scenario's keys."""
    fact = tables["fact"]
    rng = np.random.default_rng([seed, 1])
    present = [v for v in fact["a"] if v is not None and v == v]
    some_a = present[int(rng.integers(len(present)))]
    some_b = [v for v in fact["b"] if v is not None and v == v][0]
    text = isinstance(some_a, str)
    return [
        {"a": some_a},
        {"a": "k099" if text else 99},  # fact rows whose dim_a row is missing
        {"a": "nope" if text else 12345},  # matches nothing
        {"a": some_a, "b": some_b},
        {"c1": int(fact["c1"][0]), "c2": int(fact["c2"][0])},
        {"c1": 4},  # every match dangles on the composite edge
    ]


def predicate_mask(table, keys):
    mask = np.ones(len(table["rid"]), dtype=bool)
    for column, value in keys.items():
        mask &= np.asarray(table[column] == value, dtype=bool)
    return mask


def same_values(left, right):
    if left.dtype == object or right.dtype == object:
        return list(left) == list(right)
    return np.array_equal(left, right, equal_nan=True)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_gather_frame_is_feature_frame_masked_by_the_key(seed):
    tables = snowflake(seed)
    conn, graph = load(tables)
    columns = FEATURES + ["a", "s", "c2"]  # features and a few raw keys
    full = feature_frame(conn, graph, columns=columns, include_target=False)
    for keys in requests(tables, seed):
        mask = predicate_mask(tables["fact"], keys)
        rows, frame = gather_frame(
            conn, graph, columns, check_key_request(conn, "fact", keys)
        )
        assert np.array_equal(rows, np.flatnonzero(mask)), keys
        assert list(frame) == columns
        for column in columns:
            assert same_values(frame[column], full[column][mask]), (keys, column)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
@pytest.mark.parametrize("duplicates", [False, True])
def test_every_key_path_returns_the_same_bits(seed, duplicates):
    clean_conn, clean_graph = load(
        snowflake(seed, messy=False), composite_feature=False
    )
    model = repro.train_gradient_boosting(clean_conn, clean_graph, TRAIN_PARAMS)
    assert len(model.required_features) >= 2  # the trees do cross relations

    tables = snowflake(seed, duplicates=duplicates)
    services = {}
    for backend in ("embedded", "sqlite"):
        conn, graph = load(tables, backend)
        services[backend] = PredictionService(conn, graph)
        services[backend].deploy(model)
    embedded = services["embedded"]
    reference = model.predict_arrays(
        feature_frame(embedded.db, embedded.graph, include_target=False)
    )
    for keys in requests(tables, seed):
        mask = predicate_mask(tables["fact"], keys)
        expected = reference[mask]
        answers = {
            f"{backend}-{rung}": relation
            for backend, service in services.items()
            for rung, relation in rung_answers(service, keys, ["rid"]).items()
        }
        if duplicates:
            del answers["sqlite-key"]  # the SQL LEFT JOIN multiplies rows
        for path, relation in answers.items():
            assert relation.names == [*keys, "rid", "jb_score"], path
            assert np.array_equal(
                relation["rid"], tables["fact"]["rid"][mask]
            ), (path, keys)
            assert np.array_equal(
                relation.column("jb_score").as_float(), expected
            ), (path, keys)


class TestInvalidation:
    """Staleness is the (uid, column, version) stamps' job: a write
    between two requests must show in the second one."""

    def test_mutated_fact_key_and_dimension_feature_give_fresh_answers(
        self, tiny_star
    ):
        db, graph = tiny_star
        model = repro.train_gradient_boosting(
            db, graph, {"num_iterations": 3, "num_leaves": 4, "seed": 5}
        )
        service = PredictionService(db, graph)
        service.deploy(model)

        def reference(key):
            frame = feature_frame(db, graph, include_target=False)
            k0 = db.table("fact").column("k0").values
            return model.predict_arrays(frame)[k0 == key]

        before = service.score_key({"k0": 3})["jb_score"]
        assert np.array_equal(before, reference(3))

        # Move every k0 = 3 row to key 4, and change a dimension feature.
        db.execute("UPDATE fact SET k0 = 4 WHERE k0 = 3")
        dfeat = db.table("dim0").column("dfeat0").values.copy()
        dfeat[4] = dfeat[4] + 1000.0
        db.replace_column("dim0", "dfeat0", dfeat)

        assert service.score_key({"k0": 3}).num_rows == 0
        after = service.score_key({"k0": 4})["jb_score"]
        assert len(after) > len(before) > 0
        assert np.array_equal(after, reference(4))

    def test_healthy_embedded_key_request_executes_no_statement(self, tiny_star):
        db, graph = tiny_star
        model = repro.train_gradient_boosting(
            db, graph, {"num_iterations": 3, "num_leaves": 4, "seed": 5}
        )
        service = PredictionService(db, graph)
        service.deploy(model)
        gateway = ServingGateway(service)
        statements = len(db.profiles)
        response = gateway.score_key({"k0": 3}, extra_columns=["k1"])
        assert response.served_by == "key" and not response.degraded
        assert response.relation.names == ["k0", "k1", "jb_score"]
        assert len(response.scores) > 0
        assert len(db.profiles) == statements


def test_encoding_hook_resolves_through_proxies():
    """Chaos and retry wrappers inherit the backend's answer: the hook
    runs no statement, so there is nothing for them to intercept."""
    plan = "tag=serve_key:nth=1:times=100:kind=permanent"
    conn = repro.connect("plain", chaos=plan, retry=True)
    assert conn.unwrapped is not conn
    conn.create_table("f", {"k": np.array([2, 1, 2])})
    encoding = conn.encoding_for("f", "k")
    assert encoding is conn.unwrapped.encoding_for("f", "k")
    assert list(encoding.uniques) == [1, 2]
    external = repro.connect("sqlite", chaos=plan, retry=True)
    external.create_table("f", {"k": np.array([2, 1, 2])})
    assert external.encoding_for("f", "k") is None


class TestKeySemantics:
    """One definition of "key = value" for every rung and backend."""

    @pytest.fixture(params=["embedded", "sqlite"])
    def gateway(self, request):
        tables = snowflake(2, messy=False)  # int keys
        tables["fact"]["name"] = np.array(
            [f"n{v}" for v in tables["fact"]["c1"]], dtype=object
        )
        tables["fact"]["digits"] = np.array(
            [str(v) for v in tables["fact"]["c1"]], dtype=object
        )
        conn, graph = load(tables, request.param, composite_feature=False)
        model = repro.train_gradient_boosting(conn, graph, TRAIN_PARAMS)
        service = PredictionService(conn, graph)
        service.deploy(model)
        return ServingGateway(service)

    def rungs(self, gateway, keys):
        service = gateway.service
        return [service.score_key(keys), *rung_answers(service, keys).values()]

    def test_numeric_keys_compare_by_value(self, gateway):
        by_int, by_float, by_numpy = (
            gateway.score_key({"a": value}) for value in (3, 3.0, np.int64(3))
        )
        assert len(by_int.scores) > 0
        assert np.array_equal(by_int.scores, by_float.scores)
        assert np.array_equal(by_int.scores, by_numpy.scores)
        assert len(gateway.score_key({"a": 3.5}).scores) == 0

    @pytest.mark.parametrize(
        "keys",
        [
            {"a": "three"},  # string against a numeric column
            {"a": "3"},  # ... even one sqlite's column affinity would coerce
            {"name": 3},  # number against a string column
            {"digits": 3},  # ... even one stored as the text '3'
            {"a": None},
            {"a": float("nan")},
            {"a": 3, "c1": None},
            {"a": 424242},  # absent
        ],
    )
    def test_unmatchable_keys_give_an_empty_relation(self, gateway, keys):
        for relation in self.rungs(gateway, keys):
            assert relation.names == [*keys, "jb_score"]
            assert relation.num_rows == 0

    def test_string_keys_match_by_text(self, gateway):
        relation = gateway.score_key({"name": "n2"}, extra_columns=["c1"]).relation
        assert relation.num_rows > 0
        assert set(relation["c1"]) == {2}

    def test_a_key_column_off_the_fact_is_a_config_error_everywhere(self, gateway):
        service = gateway.service
        for keys, extra in (({"xa": 1.0}, ()), ({"a": 3}, ("xs",)), ({}, ())):
            for call in (
                lambda: gateway.score_key(keys, extra_columns=extra),
                lambda: service.score_key(keys, extra_columns=extra),
            ):
                with pytest.raises(TrainingError):
                    call()
        # Refused before the ladder: no slot taken, no breaker touched.
        assert gateway.stats()["requests"] == 0
