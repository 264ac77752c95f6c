"""Encoded-key cache: version stamps, invalidation, parity, exclusions.

The cache's safety contract is that staleness is *detected*, never
assumed: every mutating storage path bumps a per-column version stamp,
and a lookup under a newer version rejects the cached codes.  These
tests poison and mutate the cache adversarially and assert both the
rejection mechanics and end-to-end tree parity against the cache-off
(pre-PR4) behavior.
"""

import dataclasses

import numpy as np
import pytest

import repro
from repro.backends.embedded import EmbeddedConnector
from repro.datasets import favorita
from repro.engine import operators as ops
from repro.engine.database import Database
from repro.engine.encodings import EncodingCache
from repro.engine.operators import ColumnEncoding, encode_values
from repro.exceptions import ExecutionError
from repro.storage.column import Column
from repro.storage.table import ColumnTable


def trees_of(model):
    return [tree.to_dict() for tree in model.trees]


PARAMS = {"num_iterations": 2, "num_leaves": 6, "min_data_in_leaf": 3}


def train_pair(seed=6, key_dtype="int", mutate=None, **extra):
    """Train cache-on and cache-off on identical data (optionally mutating
    both databases identically in between) and return both models."""
    models = []
    for mode in ("auto", "off"):
        db, graph = favorita(
            num_fact_rows=2000, num_extra_features=2, seed=seed,
            key_dtype=key_dtype,
        )
        params = {**PARAMS, **extra, "encoding_cache": mode}
        first = repro.train_gradient_boosting(db, graph, params)
        if mutate is None:
            models.append(first)
            continue
        mutate(db)
        models.append(repro.train_gradient_boosting(db, graph, params))
    return models


# ---------------------------------------------------------------------------
# Version stamps in the storage layer
# ---------------------------------------------------------------------------
class TestVersionStamps:
    def test_set_column_bumps_version(self, db):
        db.create_table("t", {"k": [1, 2, 3], "v": [1.0, 2.0, 3.0]})
        table = db.table("t")
        before = table.column_version("v")
        table.set_column(Column("v", np.array([9.0, 8.0, 7.0])))
        assert table.column_version("v") > before
        assert table.column_version("k") < table.column_version("v")

    def test_masked_update_bumps_version(self, db):
        db.create_table("t", {"k": [1, 2, 3], "v": [1.0, 2.0, 3.0]})
        table = db.table("t")
        before = table.column_version("v")
        db.execute("UPDATE t SET v = 0.0 WHERE k = 2")
        assert table.column_version("v") > before

    def test_swap_column_bumps_both_tables(self, db):
        db.create_table("a", {"v": [1.0, 2.0]})
        db.create_table("b", {"w": [3.0, 4.0]})
        ta, tb = db.table("a"), db.table("b")
        va, vb = ta.column_version("v"), tb.column_version("w")
        ta.swap_column("v", tb, "w")
        assert ta.column_version("v") > va
        assert tb.column_version("w") > vb

    def test_rename_preserves_identity(self, db):
        db.create_table("t", {"k": [1, 2, 3]})
        table = db.table("t")
        uid, version = table.uid, table.column_version("k")
        db.rename_table("t", "t2")
        renamed = db.table("t2")
        assert renamed.uid == uid
        assert renamed.column_version("k") == version

    def test_drop_column_forgets_version(self, db):
        db.create_table("t", {"k": [1, 2], "v": [1.0, 2.0]})
        table = db.table("t")
        table.drop_column("v")
        assert table.column_version("v") == 0

    def test_reads_are_provenance_stamped(self, db):
        db.create_table("t", {"k": [1, 2, 3]})
        table = db.table("t")
        col = table.column("k")
        assert col.source == (table.uid, "k", table.column_version("k"))


# ---------------------------------------------------------------------------
# Cache mechanics: staleness rejection, poisoning, LRU, stats
# ---------------------------------------------------------------------------
class TestCacheMechanics:
    def test_stale_version_is_rejected(self):
        cache = EncodingCache()
        encoding = encode_values(np.array([1, 2, 1]))
        cache.store(7, "k", 1, encoding)
        assert cache.lookup(7, "k", 1) is encoding
        assert cache.lookup(7, "k", 2) is None  # version moved on
        assert cache.invalidations == 1
        assert cache.lookup(7, "k", 2) is None  # entry is gone, plain miss
        assert cache.invalidations == 1

    def test_poisoned_entry_rejected_after_mutation(self, db):
        """Adversarial: plant wrong codes under the *current* version,
        mutate the column, and assert the version stamp rejects the
        poison instead of serving it."""
        db.create_table("t", {"k": [1, 2, 3, 4], "v": [0.0] * 4})
        table = db.table("t")
        poison = encode_values(np.array([9, 9, 9, 9]))
        db.encodings.store(table.uid, "k", table.column_version("k"), poison)
        # Served while the version matches (the cache cannot know better)...
        assert db.encodings.encoding_for(table.column("k")) is poison
        # ...but any mutating path bumps the stamp and the poison dies.
        table.set_column(Column("k", np.array([5, 6, 7, 8])))
        recovered = db.encodings.encoding_for(table.column("k"))
        assert recovered is not poison
        assert db.encodings.invalidations >= 1
        np.testing.assert_array_equal(recovered.codes, [0, 1, 2, 3])

    def test_stale_reference_cannot_clobber_newer_entry(self, db):
        """A column reference captured before a mutation must neither
        evict nor overwrite the current-version entry (no ping-pong)."""
        db.create_table("t", {"k": [1, 2, 3]})
        table = db.table("t")
        old_col = table.column("k")  # stamped with the pre-mutation version
        table.set_column(Column("k", np.array([4, 5, 6])))
        fresh = db.encodings.encoding_for(table.column("k"))
        assert fresh is not None
        current = table.column_version("k")
        # The stale reference encodes its own (old) data but must not
        # touch the cached entry for the current version.
        stale = db.encodings.encoding_for(old_col)
        assert stale is not fresh
        assert db.encodings.lookup(table.uid, "k", current) is fresh

    def test_poisoned_length_mismatch_rejected(self, db):
        db.create_table("t", {"k": [1, 2, 3, 4]})
        table = db.table("t")
        wrong_size = encode_values(np.array([1, 2]))
        db.encodings.store(table.uid, "k", table.column_version("k"), wrong_size)
        assert db.encodings.encoding_for(table.column("k")) is None

    def test_lru_eviction_by_bytes(self):
        cache = EncodingCache(max_bytes=16384)
        big = np.arange(200)
        for i in range(10):
            cache.store(i, "k", 1, encode_values(big))
        assert cache.bytes <= cache.max_bytes
        assert cache.evictions > 0
        assert cache.lookup(0, "k", 1) is None  # oldest evicted first
        assert cache.lookup(9, "k", 1) is not None

    def test_disabled_cache_returns_none(self, db):
        db.create_table("t", {"k": [1, 2, 3]})
        db.encodings.enabled = False
        assert db.encodings.encoding_for(db.table("t").column("k")) is None

    def test_drop_table_invalidates(self, db):
        db.create_table("t", {"k": [1, 2, 3]})
        table = db.table("t")
        assert db.encodings.encoding_for(table.column("k")) is not None
        before = db.encodings.invalidations
        db.drop_table("t")
        assert db.encodings.invalidations > before


# ---------------------------------------------------------------------------
# Encoding correctness (codes match the uncached operators)
# ---------------------------------------------------------------------------
class TestEncodingEquivalence:
    @pytest.mark.parametrize("values", [
        np.array([3, 1, 2, 1, 3]),
        np.array([1.5, np.nan, 0.0, 1.5, np.nan]),
        np.array(["b", None, "a", "b", None], dtype=object),
        np.array([], dtype=object),
        np.array([7]),
    ])
    def test_factorize_groups_match(self, values):
        """Grouping through encode_values' triple gives exactly the groups
        the raw factorize produces (order, membership, representatives)."""
        raw = ops.factorize([values])
        via = ops.factorize_parts([encode_values(values).triple()])
        np.testing.assert_array_equal(raw[0], via[0])
        assert raw[1] == via[1]
        np.testing.assert_array_equal(raw[2], via[2])
        np.testing.assert_array_equal(raw[3], via[3])

    @pytest.mark.parametrize("left,right", [
        (np.array([1, 2, 3, 2]), np.array([2, 3, 9])),
        (np.array(["a", "c", "b"], dtype=object),
         np.array(["b", "b", "z"], dtype=object)),
        (np.array([1.0, np.nan, 2.0]), np.array([2.0, np.nan])),
    ])
    def test_join_matches_with_and_without_encodings(self, left, right):
        plain = ops.join_indices([left], [right], how="full")
        encoded = ops.join_indices(
            [left], [right], how="full",
            left_encodings=[encode_values(left)],
            right_encodings=[encode_values(right)],
        )
        np.testing.assert_array_equal(plain[0], encoded[0])
        np.testing.assert_array_equal(plain[1], encoded[1])

    def test_multi_column_composed_join(self):
        left = [np.array([1, 1, 2, 2]), np.array(["x", "y", "x", "y"], dtype=object)]
        right = [np.array([1, 2, 2]), np.array(["y", "x", "q"], dtype=object)]
        plain = ops.join_indices(left, right)
        encoded = ops.join_indices(
            left, right,
            left_encodings=[encode_values(a) for a in left],
            right_encodings=[encode_values(a) for a in right],
        )
        np.testing.assert_array_equal(plain[0], encoded[0])
        np.testing.assert_array_equal(plain[1], encoded[1])

    def test_gather_and_filter_propagation(self):
        values = np.array(["c", "a", None, "b", "a"], dtype=object)
        encoding = encode_values(values)
        idx = np.array([4, 0, 2, 2, 1])
        gathered = encoding.take(idx)
        reference = encode_values(values[idx])
        group_g = ops.factorize_parts([gathered.triple()])
        group_r = ops.factorize_parts([reference.triple()])
        np.testing.assert_array_equal(group_g[0], group_r[0])
        mask = np.array([True, False, True, True, False])
        filtered = encoding.filter(mask)
        np.testing.assert_array_equal(
            ops.factorize_parts([filtered.triple()])[0],
            ops.factorize([values[mask]])[0],
        )

    def test_empty_side_join_with_encodings(self):
        """An empty (or all-null) side has a placeholder code covered by
        no dictionary entry; the merged maps must route it to the null
        slot, never through uninitialized memory."""
        left = np.array([1, 2, 3])
        empty = np.array([], dtype=np.int64)
        for how in ("inner", "left", "full"):
            plain = ops.join_indices([left], [empty], how=how)
            encoded = ops.join_indices(
                [left], [empty], how=how,
                left_encodings=[encode_values(left)],
                right_encodings=[encode_values(empty)],
            )
            np.testing.assert_array_equal(plain[0], encoded[0])
            np.testing.assert_array_equal(plain[1], encoded[1])

    def test_masked_key_join_parity(self):
        """Legacy joins match on raw stored values, ignoring validity
        masks; the planner must not swap in valid-aware encodings for
        masked key columns (cache on/off would disagree on which rows
        join)."""
        from repro.storage.column import ColumnType

        results = []
        for enabled in (True, False):
            db = Database()
            db.create_table("l", {"k": [9, 9, 9, 9],
                                  "v": [1.0, 2.0, 3.0, 4.0]})
            db.table("l").set_column(Column(
                "k", np.array([1, 2, 0, 4]), ColumnType.INT,
                np.array([True, True, False, True]),
            ))
            db.create_table("r", {"k": [0, 1], "x": [10.0, 20.0]})
            db.encodings.enabled = enabled
            out = db.execute(
                "SELECT l.v AS v, r.x AS x FROM l JOIN r ON l.k = r.k "
                "ORDER BY l.v"
            )
            results.append((out["v"].tolist(), out["x"].tolist()))
        assert results[0] == results[1]

    def test_vectorized_null_detection(self):
        values = np.array(["x", None, "", "None", None], dtype=object)
        comparable, nulls = ops._normalize_key(values)
        np.testing.assert_array_equal(nulls, [False, True, False, False, True])
        # The original values are untouched (copy-on-write).
        assert values[1] is None


# ---------------------------------------------------------------------------
# End-to-end parity: cached training must grow identical trees
# ---------------------------------------------------------------------------
class TestTrainingParity:
    def test_parity_clean_run(self):
        on, off = train_pair()
        assert trees_of(on) == trees_of(off)

    def test_parity_string_keys(self):
        on, off = train_pair(key_dtype="str")
        assert trees_of(on) == trees_of(off)

    def test_parity_after_narrow_update(self):
        """A narrow UPDATE of a dimension feature between trainings must
        invalidate that column's codes — retraining sees the new data."""
        def mutate(db):
            db.execute("UPDATE items SET f_items = f_items + 100 "
                       "WHERE item_id <= 100")
        on, off = train_pair(mutate=mutate)
        assert trees_of(on) == trees_of(off)

    def test_parity_after_replace_column(self):
        def mutate(db):
            values = db.table("stores").column("f_stores").values * 2.0
            db.replace_column("stores", "f_stores", values, strategy="update")
        on, off = train_pair(mutate=mutate)
        assert trees_of(on) == trees_of(off)

    def test_parity_after_rename_roundtrip(self):
        """Catalog renames preserve identity: cached codes stay valid, and
        a mutation after the rename still invalidates them."""
        def mutate(db):
            db.rename_table("trans", "trans_tmp")
            db.rename_table("trans_tmp", "trans")
            db.execute("UPDATE trans SET f_trans = f_trans * 3")
        on, off = train_pair(mutate=mutate)
        assert trees_of(on) == trees_of(off)

    def test_parity_through_midtraining_degrade(self):
        """A delta-update failure mid-training flips the frontier to
        rebuild labels; the cache must keep rejecting stale codes through
        the mode switch (label columns churn differently afterwards)."""
        models = []
        for mode in ("auto", "off"):
            db, graph = favorita(
                num_fact_rows=2000, num_extra_features=0, seed=6
            )
            real_execute = db.execute
            fired = {"n": 0}

            def flaky(sql, tag=None, _real=real_execute, _fired=fired):
                if tag == "frontier_delta" and _fired["n"] == 0:
                    _fired["n"] += 1
                    raise ExecutionError("injected delta failure")
                return _real(sql, tag=tag)

            db.execute = flaky
            models.append(repro.train_gradient_boosting(
                db, graph, {**PARAMS, "encoding_cache": mode}
            ))
            assert fired["n"] == 1
        assert trees_of(models[0]) == trees_of(models[1])

    def test_parity_without_narrow_update_capability(self):
        models = []
        for mode in ("auto", "off"):
            conn = EmbeddedConnector()
            conn.capabilities = dataclasses.replace(
                conn.capabilities, narrow_update=False
            )
            db, graph = favorita(
                db=conn, num_fact_rows=2000, num_extra_features=0, seed=6
            )
            models.append(repro.train_gradient_boosting(
                db, graph, {**PARAMS, "encoding_cache": mode}
            ))
        assert trees_of(models[0]) == trees_of(models[1])


# ---------------------------------------------------------------------------
# Frontier interaction and census surfacing
# ---------------------------------------------------------------------------
class TestIntegration:
    def test_jb_leaf_column_stays_uncached(self):
        db, graph = favorita(num_fact_rows=2000, num_extra_features=0, seed=6)
        model = repro.train_gradient_boosting(db, graph, PARAMS)
        assert model.trees  # trained through the incremental frontier
        uncached = db.encodings._uncached
        assert any(name.startswith("jb_leaf") for _, name in uncached)
        for (uid, name) in uncached:
            assert (uid, name) not in db.encodings._entries

    def test_cache_reduces_encode_passes(self):
        def passes(encoding_cache, **shape):
            db, graph = favorita(num_fact_rows=2000, seed=6, **shape)
            ops.reset_encode_census()
            repro.train_gradient_boosting(
                db, graph, {**PARAMS, "encoding_cache": encoding_cache}
            )
            return ops.encode_census()["passes"], db

        cached_passes, db = passes("auto", num_extra_features=2)
        uncached_passes, _ = passes("off", num_extra_features=2)
        assert cached_passes < uncached_passes / 2
        assert db.encodings.stores > 0
        # The Figure 9 shape (18 features, string natural keys), where
        # per-query re-encoding hurts most: at least 5x fewer passes.
        fig09 = {"num_extra_features": 13, "key_dtype": "str"}
        assert passes("off", **fig09)[0] >= 5 * passes("auto", **fig09)[0]

    def test_profiles_carry_encode_split(self):
        db = Database()
        db.create_table("t", {"k": [1, 2, 2, 3], "v": [1.0, 2.0, 3.0, 4.0]})
        db.encodings.enabled = False
        db.execute("SELECT k, SUM(v) AS s FROM t GROUP BY k")
        profile = db.profiles[-1]
        assert profile.encode_passes > 0
        assert 0.0 <= profile.encode_seconds <= profile.seconds + 1e-6

    def test_warm_encodings_precomputes_join_keys(self):
        db, graph = favorita(num_fact_rows=1000, num_extra_features=0, seed=6)
        from repro.factorize.executor import Factorizer
        from repro.semiring.variance import VarianceSemiRing

        factorizer = Factorizer(db, graph, VarianceSemiRing())
        factorizer.lift()
        warmed = factorizer.warm_encodings()
        # A shared key (dates.date_id serves both the sales and oil edges)
        # warms once but counts per edge, so stores <= warmed.
        assert warmed > 0
        assert 0 < db.encodings.stores <= warmed
        factorizer.cleanup()

    def test_compressed_storage_trains_with_cache(self):
        """Compressed presets decode fresh columns per read; the cache must
        still key them correctly (and stay parity-safe)."""
        from repro.storage.table import StorageConfig

        models = []
        for mode in ("auto", "off"):
            db, graph = favorita(
                db=Database(config=StorageConfig.preset("plain")),
                num_fact_rows=1500, num_extra_features=0, seed=3,
                fact_config=StorageConfig.preset("x-col"),
            )
            models.append(repro.train_gradient_boosting(
                db, graph, {**PARAMS, "encoding_cache": mode,
                            "update_strategy": "create"}
            ))
        assert trees_of(models[0]) == trees_of(models[1])


# ---------------------------------------------------------------------------
# SQLite training-setup satellite: join-key indexes + ANALYZE
# ---------------------------------------------------------------------------
class TestSQLiteIndexes:
    def test_indexes_created_and_profiled(self):
        from repro.backends.sqlite3_backend import SQLiteConnector

        db, graph = favorita(
            db=SQLiteConnector(), num_fact_rows=1500, num_extra_features=0,
            seed=6,
        )
        model = repro.train_gradient_boosting(db, graph, PARAMS)
        assert model.trees
        assert db.index_seconds > 0.0
        index_profiles = [p for p in db.profiles if p.tag == "index"]
        assert index_profiles and index_profiles[0].rows_out > 0
        names = [r[0] for r in db._conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'index' "
            "AND name LIKE 'jb_idx_%'"
        )]
        assert names  # dimension-side indexes persist past training

    def test_prepare_training_idempotent(self):
        from repro.backends.sqlite3_backend import SQLiteConnector

        db, graph = favorita(
            db=SQLiteConnector(), num_fact_rows=500, num_extra_features=0,
            seed=6,
        )
        first = db.prepare_training(graph)
        db.prepare_training(graph)
        assert first >= 0.0
        # First call records the per-connection perf PRAGMAs and the
        # index build under the "index" tag; the second call finds
        # nothing to do and records nothing.
        index_profiles = [p for p in db.profiles if p.tag == "index"]
        assert [p.kind for p in index_profiles] == ["Pragma", "Index"]
        pragma_profile = index_profiles[0]
        assert "temp_store=MEMORY" in pragma_profile.sql
        assert "cache_size" in pragma_profile.sql
        assert "mmap_size" in pragma_profile.sql


# ---------------------------------------------------------------------------
# Concurrency: the scheduler's worker threads race get-or-compute
# ---------------------------------------------------------------------------
class TestConcurrency:
    def test_racing_get_or_compute_stores_once(self, db):
        """N threads racing one (uid, column, version) key must produce
        exactly one encode pass: a single miss + store for the winner,
        hits for everyone else — the lock makes the whole
        lookup -> encode -> store sequence atomic."""
        import threading

        n = 20_000
        db.create_table("t", {"k": np.arange(n) % 512})
        table = db.table("t")
        cache = db.encodings
        assert cache.stores == 0 and cache.misses == 0

        num_threads = 8
        barrier = threading.Barrier(num_threads)
        encodings, errors = [], []

        def race():
            # Each thread gets an *independent* column reference with the
            # same provenance stamp: the storage layer hands out one
            # shared Column object, whose .enc memoization would let late
            # threads bypass the cache instead of racing it.
            col = table.column("k").copy()
            col.enc = None
            barrier.wait()
            try:
                encodings.append(cache.encoding_for(col))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=race) for _ in range(num_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert not errors
        assert cache.stores == 1  # census: the key computed exactly once
        assert cache.misses == 1
        assert cache.hits == num_threads - 1
        # Every thread got the same (single) stored encoding object.
        assert len({id(e) for e in encodings}) == 1
        np.testing.assert_array_equal(
            encodings[0].codes, np.arange(n) % 512
        )

    def test_poisoning_and_invalidation_hold_under_the_lock(self, db):
        """Concurrent readers racing a mutator never resurrect a stale
        entry: after every thread finishes, the cache serves the codes of
        the *current* version and the poison is gone."""
        import threading

        db.create_table("t", {"k": np.array([1, 2, 3, 4])})
        table = db.table("t")
        cache = db.encodings
        poison = encode_values(np.array([9, 9, 9, 9]))
        cache.store(table.uid, "k", table.column_version("k"), poison)

        barrier = threading.Barrier(9)
        errors = []

        def read():
            barrier.wait()
            try:
                for _ in range(50):
                    cache.encoding_for(table.column("k"))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def mutate():
            barrier.wait()
            try:
                for v in range(50):
                    table.set_column(Column("k", np.array([v, v + 1, v + 2, v + 3])))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=read) for _ in range(8)]
        threads.append(threading.Thread(target=mutate))
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert not errors
        final = cache.encoding_for(table.column("k"))
        assert final is not poison
        np.testing.assert_array_equal(final.codes, [0, 1, 2, 3])
        # The stale-version entry was invalidated, not silently served.
        assert cache.invalidations >= 1

    def test_mark_uncached_during_race_sticks(self, db):
        """mark_uncached with readers in flight: once marked, the column
        never re-enters the cache (the frontier's jb_leaf exemption)."""
        import threading

        db.create_table("t", {"k": np.array([1, 2, 3, 4])})
        table = db.table("t")
        cache = db.encodings
        barrier = threading.Barrier(5)

        def read():
            barrier.wait()
            for _ in range(50):
                cache.encoding_for(table.column("k"))

        def mark():
            barrier.wait()
            cache.mark_uncached(table.uid, "k")

        threads = [threading.Thread(target=read) for _ in range(4)]
        threads.append(threading.Thread(target=mark))
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert not cache.cacheable(table.uid, "k")
        assert cache.encoding_for(table.column("k")) is None
        assert cache.lookup(table.uid, "k", table.column_version("k")) is None
