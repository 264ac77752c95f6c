"""Encoded-key cache: version stamps, invalidation, parity, exclusions.

The cache's safety contract is that staleness is *detected*, never
assumed: every mutating storage path bumps a per-column version stamp,
and a lookup under a newer version rejects the cached codes.  These
tests poison and mutate the cache adversarially and assert the rejection
mechanics, joins over encodings against a per-row pure-Python join in
which NULL never matches, and end-to-end tree parity between a retrain
over a warm cache and a cold run on a fresh database.
"""

import dataclasses

import numpy as np
import pytest

import repro
from repro.datasets import favorita
from repro.engine import operators as ops
from repro.engine.database import Database
from repro.engine.encodings import EncodingCache
from repro.engine.operators import ColumnEncoding, encode_values
from repro.exceptions import ExecutionError
from repro.storage.column import Column
from repro.storage.table import ColumnTable

from conftest import join_pairs, reference_join


def trees_of(model):
    return [tree.to_dict() for tree in model.trees]


PARAMS = {"num_iterations": 2, "num_leaves": 6, "min_data_in_leaf": 3}

#: (encode passes, cache stores) of one PARAMS training on a 2 000-row
#: seed-6 Favorita: integer keys with 2 extra features, and the Figure 9
#: shape (13 extra features, string keys)
CACHED_PASSES, CACHED_STORES = 26, 16
FIG09_PASSES, FIG09_STORES = 37, 27


def warm_and_cold(build, params, mutate=None):
    """The warm-cache retrain and a cold run of one training.

    ``build()`` returns a fresh ``(db, graph)``.  Warm: train, apply
    ``mutate`` (when given), then train again on the same database, over
    the first training's cache entries.  Cold: a fresh database, mutated
    the same way, trained once.  Returns ``(warm, cold)``.
    """
    db, graph = build()
    repro.train_gradient_boosting(db, graph, params)
    if mutate is not None:
        mutate(db)
    warm = repro.train_gradient_boosting(db, graph, params)
    db, graph = build()
    if mutate is not None:
        mutate(db)
    return warm, repro.train_gradient_boosting(db, graph, params)


def train_pair(seed=6, key_dtype="int", mutate=None):
    """:func:`warm_and_cold` on a small Favorita."""
    return warm_and_cold(
        lambda: favorita(num_fact_rows=2000, num_extra_features=2,
                         seed=seed, key_dtype=key_dtype),
        PARAMS, mutate,
    )


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
        recovered = db.encodings.encoding_for(table.column("k"))
        assert recovered is not wrong_size
        np.testing.assert_array_equal(recovered.codes, [0, 1, 2, 3])
        assert db.encodings.lookup(
            table.uid, "k", table.column_version("k")
        ) is recovered

    def test_lru_eviction_by_bytes(self):
        cache = EncodingCache(max_bytes=16384)
        big = np.arange(200)
        for i in range(10):
            cache.store(i, "k", 1, encode_values(big))
        assert cache.bytes <= cache.max_bytes
        assert cache.evictions > 0
        assert cache.lookup(0, "k", 1) is None  # oldest evicted first
        assert cache.lookup(9, "k", 1) is not None

    def test_group_index_is_charged_once_built(self):
        """An entry is charged for its grouped row index only after
        ``ensure_group_index`` built it; the cache re-reads the size on
        the next hit and evicts least-recently-used entries to fit."""
        encodings = [encode_values(np.arange(200) % 50) for _ in range(3)]
        size = encodings[0].nbytes()
        index = 8 * 200 + 16 * 50  # order + starts + counts, int64
        cache = EncodingCache(max_bytes=3 * size + index - 1)
        for uid, encoding in enumerate(encodings):
            cache.store(uid, "k", 1, encoding)
        assert cache.bytes == 3 * size and cache.evictions == 0

        encodings[0].ensure_group_index()
        grown = encodings[0].nbytes()
        assert grown == size + index
        assert cache.bytes == 3 * size  # not re-read until the next hit
        assert cache.lookup(0, "k", 1) is encodings[0]
        # The hit made uid 0 the most recent entry, so uid 1 — now the
        # least recently used — is the one evicted.
        assert cache.evictions == 1
        assert cache.bytes == grown + size <= cache.max_bytes
        assert cache.lookup(1, "k", 1) is None
        assert cache.lookup(2, "k", 1) is encodings[2]

    def test_attached_hit_recharges(self, db):
        """A hit through the column's attached encoding re-reads the
        entry's size too."""
        db.create_table("t", {"k": np.arange(100) % 7})
        column = db.table("t").column("k")
        encoding = db.encodings.encoding_for(column)
        before = db.encodings.bytes
        assert before == encoding.nbytes()
        encoding.ensure_group_index()
        assert db.encodings.encoding_for(column) is encoding
        assert db.encodings.bytes == encoding.nbytes() > before

    def test_uncached_column_is_encoded_fresh(self, db):
        """A column with no provenance, or one exempt from caching, still
        gets an encoding — with its validity mask folded into NULL — that
        is memoized on the column and never stored."""
        from repro.storage.column import ColumnType

        derived = Column("k", np.array([3, 0, 3]), ColumnType.INT,
                         np.array([True, False, True]))
        encoding = db.encodings.encoding_for(derived)
        assert derived.enc is encoding
        np.testing.assert_array_equal(encoding.nulls(), [False, True, False])
        db.create_table("t", {"k": [1, 2, 1]})
        table = db.table("t")
        db.encodings.mark_uncached(table.uid, "k")
        assert db.encodings.encoding_for(table.column("k")).cardinality == 2
        assert db.encodings.stores == 0 and len(db.encodings) == 0

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
        (np.array(["a", None, "b"], dtype=object),
         np.array([None, "b"], dtype=object)),
    ])
    def test_join_matches_with_and_without_encodings(self, left, right):
        expected = reference_join([left], [right], "full")
        plain = ops.join_indices([left], [right], how="full")
        encoded = ops.join_indices(
            [encode_values(left)], [encode_values(right)], how="full"
        )
        assert join_pairs(plain) == expected
        assert join_pairs(encoded) == expected

    def test_multi_column_composed_join(self):
        left = [np.array([1, 1, 2, 2, 2]),
                np.array(["x", "y", "x", "y", None], dtype=object)]
        right = [np.array([1, 2, 2, 2]),
                 np.array(["y", "x", "q", None], dtype=object)]
        expected = reference_join(left, right)
        assert join_pairs(ops.join_indices(left, right)) == expected
        encoded = ops.join_indices(
            [encode_values(a) for a in left],
            [encode_values(a) for a in right],
        )
        assert join_pairs(encoded) == expected

    def test_string_key_joins_numeric_key_as_text(self):
        """A string dictionary merged with a numeric one compares as
        text: ``'1'`` matches ``1``, ``'1.5'`` matches ``1.5``."""
        text = np.array(["1", "x", "1.5", None], dtype=object)
        for number in (np.array([1, 3]), np.array([1.5, 2.0])):
            expected = reference_join(
                [text], [number.astype(str).astype(object)]
            )
            assert join_pairs(ops.join_indices([text], [number])) == expected
            assert join_pairs(ops.join_indices([number], [text])) == sorted(
                (j, i) for i, j in expected
            )

    def test_gather_and_filter_propagation(self):
        values = np.array(["c", "a", None, "b", "a"], dtype=object)
        encoding = encode_values(values)
        idx = np.array([4, 0, 2, 2, 1])
        gathered = encoding.take(idx)
        reference = encode_values(values[idx])
        group_g = ops.factorize_parts([gathered.triple()])
        group_r = ops.factorize_parts([reference.triple()])
        np.testing.assert_array_equal(group_g[0], group_r[0])
        # A WHERE filter is a gather by its selection vector.
        mask = np.array([True, False, True, True, False])
        filtered = encoding.take(np.flatnonzero(mask))
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
            expected = reference_join([left], [empty], how)
            plain = ops.join_indices([left], [empty], how=how)
            encoded = ops.join_indices(
                [encode_values(left)], [encode_values(empty)], how=how
            )
            assert join_pairs(plain) == expected
            assert join_pairs(encoded) == expected

    def test_masked_key_join_parity(self):
        """A key NULL only through its validity mask (stored value 0)
        matches nothing — not the dimension's key 0 — as in sqlite3."""
        import sqlite3

        from repro.storage.column import ColumnType

        db = Database()
        db.create_table("l", {"k": [9, 9, 9, 9],
                              "v": [1.0, 2.0, 3.0, 4.0]})
        db.table("l").set_column(Column(
            "k", np.array([1, 2, 0, 4]), ColumnType.INT,
            np.array([True, True, False, True]),
        ))
        db.create_table("r", {"k": [0, 1], "x": [10.0, 20.0]})
        conn = sqlite3.connect(":memory:")
        conn.execute("CREATE TABLE l (k, v)")
        conn.executemany("INSERT INTO l VALUES (?, ?)",
                         [(1, 1.0), (2, 2.0), (None, 3.0), (4, 4.0)])
        conn.execute("CREATE TABLE r (k, x)")
        conn.executemany("INSERT INTO r VALUES (?, ?)", [(0, 10.0), (1, 20.0)])
        sql = ("SELECT l.v AS v, r.x AS x FROM l JOIN r ON l.k = r.k "
               "ORDER BY l.v")
        out = db.execute(sql)
        assert list(zip(out["v"].tolist(), out["x"].tolist())) == \
            conn.execute(sql).fetchall() == [(1.0, 20.0)]

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
        per-leaf rounds; the cache must keep rejecting stale codes through
        the mode switch (label columns stop churning afterwards)."""
        fired = []

        def inject(db):
            real_execute = db.execute
            calls = {"n": 0}
            fired.append(calls)

            def flaky(sql, tag=None):
                if tag == "frontier_delta" and calls["n"] == 0:
                    calls["n"] += 1
                    raise ExecutionError("injected delta failure")
                return real_execute(sql, tag=tag)

            db.execute = flaky

        warm, cold = warm_and_cold(
            lambda: favorita(num_fact_rows=2000, num_extra_features=0, seed=6),
            PARAMS, inject,
        )
        assert [calls["n"] for calls in fired] == [1, 1]
        assert trees_of(warm) == trees_of(cold)

    def test_parity_without_narrow_update_capability(self):
        def build():
            conn = Database()
            conn.capabilities = dataclasses.replace(
                conn.capabilities, narrow_update=False
            )
            return favorita(
                db=conn, num_fact_rows=2000, num_extra_features=0, seed=6
            )

        warm, cold = warm_and_cold(build, PARAMS)
        assert trees_of(warm) == trees_of(cold)


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
        """Encode passes are deterministic counts: each cacheable key
        column is encoded once per version, the rest once per query."""
        def passes(**shape):
            db, graph = favorita(num_fact_rows=2000, seed=6, **shape)
            ops.reset_encode_census()
            repro.train_gradient_boosting(db, graph, PARAMS)
            return ops.encode_census()["passes"], db.encodings.stores

        assert passes(num_extra_features=2) == (CACHED_PASSES, CACHED_STORES)
        # The Figure 9 shape (18 features, string natural keys), where
        # per-query re-encoding hurts most.
        assert passes(num_extra_features=13, key_dtype="str") == (
            FIG09_PASSES, FIG09_STORES
        )

    def test_profiles_carry_encode_split(self):
        db = Database()
        db.create_table("t", {"k": [1, 2, 2, 3], "v": [1.0, 2.0, 3.0, 4.0]})
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

        warm, cold = warm_and_cold(
            lambda: favorita(
                db=Database(config=StorageConfig.preset("plain")),
                num_fact_rows=1500, num_extra_features=0, seed=3,
                fact_config=StorageConfig.preset("x-col"),
            ),
            {**PARAMS, "update_strategy": "create"},
        )
        assert trees_of(warm) == trees_of(cold)


# ---------------------------------------------------------------------------
# SQLite training-setup satellite: join-key indexes + ANALYZE
# ---------------------------------------------------------------------------
class TestMembershipOverSubFrames:
    def test_semi_join_operand_values_are_not_gathered(self, db, monkeypatch):
        """``k IN (SELECT …)`` over the rows an ``UPDATE`` matched (the
        shape of a frontier delta update) answers from the key column's
        cached codes gathered to those rows: the key's values themselves
        are never gathered."""
        rng = np.random.default_rng(3)
        names = np.array([f"s{i}" for i in range(20)], dtype=object)
        keys = names[rng.integers(0, 20, 500)]
        db.create_table("f", {"k": keys, "leaf": np.arange(500) % 2})
        db.create_table("d", {"dk": names, "x": np.arange(20.0)})
        taken = []
        real_take = Column.take

        def spy(self, indexes, **kwargs):
            taken.append(self.name)
            return real_take(self, indexes, **kwargs)

        monkeypatch.setattr(Column, "take", spy)
        db.execute(
            "UPDATE f SET leaf = CASE "
            "WHEN k IN (SELECT dk FROM d WHERE x <= 7) THEN 2 "
            "WHEN k IN (SELECT dk FROM d WHERE x > 12) THEN 3 "
            "ELSE leaf END WHERE leaf = 0"
        )
        assert "k" not in taken
        number = np.array([int(k[1:]) for k in keys])
        expected = np.where(
            np.arange(500) % 2 == 1, 1,
            np.where(number <= 7, 2, np.where(number > 12, 3, 0)),
        )
        np.testing.assert_array_equal(
            db.table("f").column("leaf").values, expected
        )


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
# Concurrency: the task runner's worker threads race get-or-compute
# ---------------------------------------------------------------------------
class TestConcurrency:
    def test_profiles_count_only_their_own_thread_passes(self, db):
        """Statements running on two threads at once each report the
        encode passes a serial run of them reports: a profile diffs its
        own thread's counters, never the other thread's passes."""
        import threading

        n = 200_000
        db.create_table("t", {"k": np.arange(n) % 997, "v": np.ones(n)})
        # A grouping expression is re-encoded by every statement.
        statements = [
            f"SELECT k % {m} AS g, SUM(v) AS s FROM t GROUP BY k % {m}"
            for m in range(3, 23)
        ]

        def run(tag):
            for sql in statements:
                db.execute(sql, tag=tag)

        run("serial")
        serial = [p.encode_passes for p in db.profiles]
        assert serial and all(passes > 0 for passes in serial)
        db.reset_profiles()
        ops.reset_encode_census()
        barrier = threading.Barrier(2)

        def racer(tag):
            barrier.wait()
            run(tag)

        threads = [
            threading.Thread(target=racer, args=(tag,)) for tag in ("a", "b")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for tag in ("a", "b"):
            mine = [p.encode_passes for p in db.profiles if p.tag == tag]
            assert mine == serial, tag
        # The process totals count both threads' passes, none lost.
        assert ops.encode_census()["passes"] == 2 * sum(serial)

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
        assert cache.encoding_for(table.column("k")) is not None
        assert cache.lookup(table.uid, "k", table.column_version("k")) is None
