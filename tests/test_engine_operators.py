"""Vectorized operator tests: factorize, joins, grouped aggregates,
windows — including property tests against brute-force references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import operators as ops

from conftest import join_pairs, reference_join


class TestFactorize:
    def test_single_key(self):
        codes, n, first, nulls = ops.factorize([np.array([3, 1, 3, 2])])
        assert n == 3
        assert codes[0] == codes[2]
        assert not nulls.any()

    def test_composite_key(self):
        codes, n, _, _ = ops.factorize(
            [np.array([1, 1, 2, 2]), np.array([1, 2, 1, 1])]
        )
        assert n == 3
        assert codes[2] == codes[3]

    def test_nan_groups_together(self):
        codes, n, _, nulls = ops.factorize([np.array([np.nan, np.nan, 1.0])])
        assert codes[0] == codes[1]
        assert n == 2
        assert list(nulls) == [True, True, False]

    def test_none_strings_group_together(self):
        values = np.array(["a", None, None], dtype=object)
        codes, n, _, nulls = ops.factorize([values])
        assert codes[1] == codes[2]
        assert n == 2

    def test_empty(self):
        codes, n, first, nulls = ops.factorize([np.zeros(0)])
        assert n == 0 and len(codes) == 0


class TestJoinIndices:
    """Every case against :func:`conftest.reference_join`, a per-row
    pure-Python join in which NULL never matches."""

    def test_inner_matches_brute_force(self):
        rng = np.random.default_rng(0)
        left = rng.integers(0, 5, 30)
        right = rng.integers(0, 5, 20)
        assert join_pairs(ops.join_indices([left], [right])) == \
            reference_join([left], [right])

    def test_left_join_pads(self):
        left, right = np.array([1, 2, 9]), np.array([1, 2])
        got = join_pairs(ops.join_indices([left], [right], how="left"))
        assert got == reference_join([left], [right], "left")
        assert (2, -1) in got

    def test_full_join(self):
        left, right = np.array([1, 9]), np.array([1, 7])
        got = join_pairs(ops.join_indices([left], [right], how="full"))
        assert got == reference_join([left], [right], "full")
        assert (1, -1) in got and (-1, 1) in got

    def test_nan_keys_never_match(self):
        left, right = np.array([np.nan, 1.0]), np.array([np.nan, 1.0])
        got = join_pairs(ops.join_indices([left], [right]))
        assert got == reference_join([left], [right]) == [(1, 1)]

    @given(
        st.lists(st.integers(0, 6), max_size=40),
        st.lists(st.integers(0, 6), max_size=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_inner_join_property(self, left, right):
        left, right = np.array(left, dtype=np.int64), np.array(right, dtype=np.int64)
        if len(left) == 0 or len(right) == 0:
            return
        assert join_pairs(ops.join_indices([left], [right])) == \
            reference_join([left], [right])


class TestGroupedAggregates:
    def test_group_sum_skips_nan(self):
        codes = np.array([0, 0, 1])
        sums, counts = ops.group_sum(codes, 2, np.array([1.0, np.nan, 5.0]))
        assert list(sums) == [1.0, 5.0]
        assert list(counts) == [1, 1]

    def test_group_min_max(self):
        codes = np.array([0, 0, 1])
        values = np.array([3.0, 1.0, 7.0])
        assert list(ops.group_min(codes, 2, values)) == [1.0, 7.0]
        assert list(ops.group_max(codes, 2, values)) == [3.0, 7.0]

    def test_group_min_all_null_is_nan(self):
        out = ops.group_min(np.array([0]), 1, np.array([np.nan]))
        assert np.isnan(out[0])

    def test_group_median(self):
        codes = np.array([0, 0, 0, 1])
        out = ops.group_median(codes, 2, np.array([1.0, 9.0, 5.0, 2.0]))
        assert list(out) == [5.0, 2.0]

    def test_group_count_distinct(self):
        codes = np.array([0, 0, 0, 1])
        out = ops.group_count_distinct(codes, 2, np.array([1, 1, 2, 5]))
        assert list(out) == [2, 1]

    def test_group_var(self):
        codes = np.zeros(4, dtype=np.int64)
        out = ops.group_var(codes, 1, np.array([1.0, 2.0, 3.0, 4.0]))
        assert out[0] == pytest.approx(np.var([1, 2, 3, 4]))

    @given(st.lists(st.tuples(st.integers(0, 3), st.floats(-100, 100)), min_size=1,
                    max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_group_sum_property(self, pairs):
        codes = np.array([p[0] for p in pairs], dtype=np.int64)
        values = np.array([p[1] for p in pairs])
        sums, _ = ops.group_sum(codes, 4, values)
        for g in range(4):
            expected = values[codes == g].sum()
            if (codes == g).any():
                assert sums[g] == pytest.approx(expected, abs=1e-6)


class TestWindows:
    def test_running_sum_with_peers(self):
        out = ops.window_eval(
            "sum", np.array([1.0, 1.0, 1.0]), None,
            [(np.array([1, 1, 2]), True)], 3,
        )
        assert list(out) == [2.0, 2.0, 3.0]

    def test_running_sum_descending(self):
        out = ops.window_eval(
            "sum", np.array([1.0, 2.0, 3.0]), None,
            [(np.array([1, 2, 3]), False)], 3,
        )
        assert list(out) == [6.0, 5.0, 3.0]

    def test_partition_reset(self):
        out = ops.window_eval(
            "sum", np.array([1.0, 2.0, 4.0, 8.0]),
            np.array([0, 0, 1, 1]),
            [(np.array([1, 2, 1, 2]), True)], 4,
        )
        assert list(out) == [1.0, 3.0, 4.0, 12.0]

    def test_running_min(self):
        out = ops.window_eval(
            "min", np.array([5.0, 3.0, 4.0]), None,
            [(np.array([1, 2, 3]), True)], 3,
        )
        assert list(out) == [5.0, 3.0, 3.0]

    def test_count_skips_nan(self):
        out = ops.window_eval(
            "count", np.array([1.0, np.nan, 2.0]), None,
            [(np.array([1, 2, 3]), True)], 3,
        )
        assert list(out) == [1.0, 1.0, 2.0]

    def test_prefix_sum_equals_cumsum_when_unique(self):
        rng = np.random.default_rng(1)
        keys = rng.permutation(50).astype(float)
        values = rng.normal(size=50)
        out = ops.window_eval("sum", values, None, [(keys, True)], 50)
        order = np.argsort(keys)
        assert np.allclose(out[order], np.cumsum(values[order]))


class TestSortIndices:
    def test_multi_key(self):
        idx = ops.sort_indices(
            [(np.array([1, 1, 0]), True), (np.array([2, 1, 9]), True)], 3
        )
        assert list(idx) == [2, 1, 0]

    def test_nan_sorts_last(self):
        idx = ops.sort_indices([(np.array([np.nan, 1.0, 2.0]), True)], 3)
        assert idx[-1] == 0

    def test_nan_sorts_last_descending(self):
        idx = ops.sort_indices([(np.array([np.nan, 1.0, 2.0]), False)], 3)
        assert idx[-1] == 0


class TestLongStringKeys:
    """Keys longer than 64 chars must stay distinct: the old fixed
    ``astype("U64")`` silently truncated them, merging join keys and
    groups that only differ past the cutoff."""

    def _keys(self):
        prefix = "p" * 70  # identical through char 64 and beyond
        return np.array([prefix + "A", prefix + "B", prefix + "A"],
                        dtype=object)

    def test_factorize_distinguishes_past_64_chars(self):
        codes, ngroups, _, _ = ops.factorize([self._keys()])
        assert ngroups == 2
        assert codes[0] == codes[2] != codes[1]

    def test_join_indices_long_keys(self):
        left = self._keys()
        right = np.array(["p" * 70 + "B"], dtype=object)
        left_idx, right_idx = ops.join_indices([left], [right])
        assert list(left_idx) == [1]

    def test_group_by_long_keys_via_sql(self):
        from repro.engine.database import Database

        db = Database()
        db.create_table(
            "t", {"k": self._keys(), "v": np.array([1.0, 10.0, 100.0])}
        )
        result = db.execute("SELECT k, SUM(v) AS s FROM t GROUP BY k")
        assert result.num_rows == 2
        sums = sorted(result.column("s").values.tolist())
        assert sums == [10.0, 101.0]
