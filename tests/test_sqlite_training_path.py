"""The sqlite training path takes its physical plan from Capabilities.

* ``update_strategy="swap"`` resolves to one in-DBMS ``UPDATE`` per tree
  where the connector declares no column swap, instead of fetching the
  new column and writing it back row by row;
* the lifted fact's join-key index is built only for the per-leaf split
  path, which reads it — a default (batched) training never creates it;
* every residual write, multiclass chains included, goes through
  ``ResidualUpdater.write``: on sqlite that is one in-DBMS ``UPDATE``
  per tree (the softmax refresh is one more per round), and no column is
  fetched and written back; ``SQLiteConnector.replace_column`` (reached
  by explicit column updates only) is one set-based write;
* a permanent fault on a label ``UPDATE`` ends batching, and training
  finishes on the per-leaf path with the per-leaf pin.

Digests are pinned from the implementation that fetched the column and
indexed the lifted fact at setup: the physical plan changed, the models
did not.  Batched regression has its own pin: sibling subtraction
derives one child's sums per split as float differences, which moves
its digest at the ulp level.  Huber subtracts too (its hessian is the
constant 1), but its gradients clip to +-delta on nearly every row, so
its sums stay exact and it keeps the shared pin.  10 000 rows is the smallest Favorita size found where the
per-leaf digest depends on the lifted-fact index (without it sqlite sums
in another order), so these pins would catch a misplaced index.
"""

import numpy as np
import pytest

import repro
from repro.backends.sqlite3_backend import SQLiteConnector
from repro.core.residual import ResidualUpdater
from repro.core.serialize import model_digest
from repro.core.split import SplitFinder
from repro.datasets import favorita
from repro.engine.database import Database
from repro.exceptions import ExecutionError, TrainingError
from repro.factorize.executor import Factorizer
from repro.semiring.losses import get_loss
from repro.semiring.variance import VarianceSemiRing
from repro.storage.table import StorageConfig

#: model_digest prefixes on 10 000-row Favorita (seed 1), 2 trees x 8
#: leaves — identical for every update strategy and batching mode
PINNED = {"regression": "3cd61e60f6a69866", "huber": "c964c6049694e79b"}

#: the batched regression pin (sibling subtraction), every strategy
PINNED_REGRESSION_AUTO = "25d1dcb6213e8725"

#: 2 000-row Favorita (seed 1) with a 3-class target, 2 rounds x 4 leaves
PINNED_MULTICLASS = "12e6ba1742ec798a"

#: the same multiclass model on the embedded engine, every storage preset
PINNED_MULTICLASS_EMBEDDED = "b946d0de1f577a2f"


def _favorita(rows=10_000):
    conn = repro.connect(backend="sqlite")
    _, graph = favorita(db=conn, num_fact_rows=rows, seed=1)
    return conn, graph


def _multiclass(conn, **params):
    """Train the pinned 3-class model on ``conn`` (then close it)."""
    _, graph = favorita(db=conn, num_fact_rows=2_000, seed=1)
    fact, y = graph.target_relation, graph.target_column
    conn.execute(f"UPDATE {fact} SET {y} = CAST(ABS({y}) AS INTEGER) % 3")
    try:
        return repro.train_gradient_boosting(conn, graph, {
            "objective": "multiclass", "num_class": 3,
            "num_iterations": 2, "num_leaves": 4, **params,
        })
    finally:
        conn.close()


def _lifted_indexes(conn):
    """Names of the join-key indexes that live on a lifted table."""
    rows = conn.execute(
        "SELECT name, tbl_name FROM sqlite_master WHERE type = 'index'"
    )
    return {
        name for name, table in zip(rows["name"], rows["tbl_name"])
        if name.startswith("jb_idx_") and table.startswith("jb_tmp_lift_")
    }


class TestDigestParity:
    @pytest.mark.parametrize("batching", ["auto", "off"])
    @pytest.mark.parametrize("objective", ["regression", "huber"])
    @pytest.mark.parametrize("strategy", ["swap", "update", "create"])
    def test_digest_matches_pin(self, strategy, objective, batching):
        conn, graph = _favorita()
        try:
            model = repro.train_gradient_boosting(conn, graph, {
                "num_iterations": 2, "num_leaves": 8, "objective": objective,
                "update_strategy": strategy, "split_batching": batching,
            })
        finally:
            conn.close()
        if (objective, batching) == ("regression", "auto"):
            assert model_digest(model).startswith(PINNED_REGRESSION_AUTO)
        else:
            assert model_digest(model).startswith(PINNED[objective])


class TestResidualWrite:
    def test_swap_resolves_from_capabilities(self, small_star):
        db, graph = small_star
        loss = get_loss("l2")

        def resolved(conn):
            return ResidualUpdater(conn, graph, "fact", "fact", loss).strategy

        assert resolved(repro.connect(backend="sqlite")) == "update"
        assert resolved(repro.connect(backend="d-mem")) == "update"
        assert resolved(repro.connect(backend="plain")) == "swap"
        # no capabilities at all: the requested strategy stands
        assert resolved(Database(config=StorageConfig.preset("d-mem"))) == "swap"

    def test_one_in_dbms_update_per_tree(self, monkeypatch):
        """Default params on sqlite: each tree's residual write is one
        ``UPDATE`` statement, and no column is fetched and written back."""
        written = []
        real = SQLiteConnector.replace_column

        def spy(self, *args, **kwargs):
            written.append(args[:2])
            return real(self, *args, **kwargs)

        monkeypatch.setattr(SQLiteConnector, "replace_column", spy)
        conn, graph = _favorita(rows=2_000)
        repro.train_gradient_boosting(
            conn, graph, {"num_iterations": 3, "num_leaves": 4}
        )
        writes = conn.profiles_by_tag()["residual_update"]
        conn.close()
        assert [p.kind for p in writes] == ["Update"] * 3
        assert all(p.sql.startswith("UPDATE ") for p in writes)
        assert written == []


class TestLiftedFactIndex:
    def test_batched_training_never_indexes_the_lifted_fact(self, monkeypatch):
        seen = []
        real = Factorizer.cleanup

        def spy(self):
            seen.append(_lifted_indexes(conn))
            real(self)

        monkeypatch.setattr(Factorizer, "cleanup", spy)
        conn, graph = _favorita(rows=2_000)
        model = repro.train_gradient_boosting(
            conn, graph, {"num_iterations": 2, "num_leaves": 4}
        )
        conn.close()
        assert model.frontier_census["batched_rounds"] > 0
        assert seen == [set()]

    def test_per_leaf_path_indexes_before_its_first_statement(
        self, monkeypatch
    ):
        seen = []
        real = SplitFinder.best_split

        def spy(self, *args, **kwargs):
            if not seen:
                seen.append(_lifted_indexes(conn))
            return real(self, *args, **kwargs)

        monkeypatch.setattr(SplitFinder, "best_split", spy)
        conn, graph = _favorita(rows=2_000)
        repro.train_gradient_boosting(conn, graph, {
            "num_iterations": 2, "num_leaves": 4, "split_batching": "off",
        })
        conn.close()
        assert len(seen) == 1 and seen[0], "lifted fact unindexed"

    def test_index_lifted_is_idempotent(self):
        conn, graph = _favorita(rows=500)
        factorizer = Factorizer(conn, graph, VarianceSemiRing())
        factorizer.lift()
        conn.prepare_training(graph, factorizer.lifted)
        assert _lifted_indexes(conn) == set()
        conn.index_lifted(graph, factorizer.lifted)
        built = _lifted_indexes(conn)
        assert built
        profiles = len(conn.profiles)
        conn.index_lifted(graph, factorizer.lifted)
        assert len(conn.profiles) == profiles  # nothing rebuilt
        assert _lifted_indexes(conn) == built
        factorizer.cleanup()
        conn.close()


class TestSetBasedReplaceColumn:
    def test_non_contiguous_rowids(self):
        conn = repro.connect(backend="sqlite")
        conn.create_table("t", {"k": np.arange(6), "v": np.zeros(6)})
        conn.execute("DELETE FROM t WHERE k IN (1, 4)")
        conn.replace_column("t", "v", np.array([10.0, 20.0, 30.0, 40.0]))
        rows = conn.execute("SELECT k, v FROM t ORDER BY k")
        assert list(rows["k"]) == [0, 2, 3, 5]
        assert list(rows["v"]) == [10.0, 20.0, 30.0, 40.0]
        conn.close()

    def test_nan_is_stored_as_null(self):
        conn = repro.connect(backend="sqlite")
        conn.create_table("t", {"v": np.zeros(3)})
        conn.replace_column("t", "v", np.array([1.0, np.nan, 3.0]))
        nulls = conn.execute(
            "SELECT COUNT(*) AS n FROM t WHERE v IS NULL"
        ).scalar()
        assert nulls == 1
        conn.close()

    def test_length_mismatch_raises_and_writes_nothing(self):
        conn = repro.connect(backend="sqlite")
        conn.create_table("t", {"v": np.zeros(3)})
        with pytest.raises(ExecutionError):
            conn.replace_column("t", "v", np.ones(2))
        assert list(conn.table("t").column("v").values) == [0.0, 0.0, 0.0]
        conn.close()

    def test_leaves_no_scratch_table(self):
        conn = repro.connect(backend="sqlite")
        conn.create_table("t", {"v": np.zeros(3)})
        conn.replace_column("t", "v", np.ones(3))
        assert conn.table_names() == ["t"]
        assert conn.execute(
            "SELECT COUNT(*) AS n FROM sqlite_temp_master"
        ).scalar() == 0
        conn.close()

    def test_multiclass_digest_unchanged(self):
        model = _multiclass(repro.connect(backend="sqlite"))
        assert model_digest(model).startswith(PINNED_MULTICLASS)


class TestMulticlassResidualWrite:
    @pytest.mark.parametrize("strategy", ["swap", "update", "create"])
    @pytest.mark.parametrize("backend, pin", [
        (preset, PINNED_MULTICLASS_EMBEDDED) for preset in StorageConfig.PRESETS
    ] + [("sqlite", PINNED_MULTICLASS)])
    def test_every_strategy_grows_one_model(self, backend, pin, strategy):
        """Multiclass honours ``update_strategy``; on presets without a
        column swap (x-col, x-row, d-disk, d-mem) ``swap`` resolves to the
        in-DBMS UPDATE, where multiclass used to raise StorageError."""
        model = _multiclass(
            repro.connect(backend=backend), update_strategy=strategy
        )
        assert model_digest(model).startswith(pin)

    def test_k_plus_one_in_dbms_updates_per_round(self, monkeypatch):
        """Each round shifts the k class predictions (one UPDATE each) and
        refreshes every class's g/h (one more); nothing is fetched and
        written back."""
        written = []
        monkeypatch.setattr(
            SQLiteConnector, "replace_column",
            lambda self, *args, **kwargs: written.append(args[:2]),
        )
        conn = repro.connect(backend="sqlite")
        profiles = conn.profiles
        _multiclass(conn)
        writes = [p for p in profiles if p.tag == "residual_update"]
        assert [p.kind for p in writes] == ["Update"] * (2 * (3 + 1))
        assert written == []


class TestGeneralLossWrite:
    @pytest.mark.parametrize("batching", ["auto", "off"])
    def test_one_statement_per_tree(self, batching):
        """Huber shifts pred and recomputes g in one UPDATE per tree, over
        the leaf labels (auto) and over the semi-joins (off) alike."""
        conn, graph = _favorita(rows=2_000)
        model = repro.train_gradient_boosting(conn, graph, {
            "num_iterations": 3, "num_leaves": 4, "objective": "huber",
            "update_strategy": "update", "split_batching": batching,
        })
        writes = conn.profiles_by_tag()["residual_update"]
        conn.close()
        assert len(writes) == len(model.trees) == 3
        assert all(p.sql.startswith("UPDATE ") for p in writes)
        if batching == "off":
            assert all("IN (SELECT" in p.sql for p in writes)
        else:
            assert not any("IN (SELECT" in p.sql for p in writes)


class TestNaiveNeedsAdditiveLoss:
    @pytest.mark.parametrize("params", [
        {"objective": "huber"},
        {"objective": "multiclass", "num_class": 3},
    ])
    def test_refused_before_any_statement(self, params):
        conn, graph = _favorita(rows=2_000)
        issued = len(conn.profiles)
        with pytest.raises(TrainingError, match="naive"):
            repro.train_gradient_boosting(conn, graph, {
                "num_iterations": 2, "num_leaves": 4,
                "update_strategy": "naive", **params,
            })
        assert len(conn.profiles) == issued
        conn.close()


class TestLabelFallback:
    @pytest.mark.parametrize("strategy", ["swap", "update", "create"])
    def test_permanent_label_fault_falls_back_per_leaf(self, strategy):
        """A permanent fault on the third split's label UPDATE ends
        batching: the rest of training runs per-leaf, and the model is
        the per-leaf one (batched regression's own pin cannot hold once
        the fallback removes its sibling subtraction)."""
        conn = repro.connect(
            backend="sqlite",
            chaos="tag=frontier_delta:nth=3:times=1:kind=permanent",
        )
        _, graph = favorita(db=conn, num_fact_rows=10_000, seed=1)
        try:
            model = repro.train_gradient_boosting(conn, graph, {
                "num_iterations": 2, "num_leaves": 8,
                "update_strategy": strategy,
            })
        finally:
            conn.close()
        veto = model.frontier_census["batching_veto"]
        assert veto.startswith("delta label update failed")
        assert model_digest(model).startswith(PINNED["regression"])
