"""End-to-end SELECT behaviour through the Database facade."""

import numpy as np
import pytest

import repro
from repro.datasets import favorita
from repro.engine import planner
from repro.engine.database import Database
from repro.exceptions import CatalogError, PlanError
from repro.sql.parser import parse
from repro.storage.table import StorageConfig


@pytest.fixture
def db():
    database = Database()
    database.create_table(
        "t",
        {
            "k": [1, 1, 2, 2, 3],
            "v": [10.0, 20.0, 30.0, 40.0, np.nan],
            "name": np.array(["a", "b", "a", "b", "c"], dtype=object),
        },
    )
    database.create_table("u", {"k": [1, 2], "w": [100.0, 200.0]})
    return database


class TestProjectionAndFilter:
    def test_select_star(self, db):
        result = db.execute("SELECT * FROM t")
        assert result.names == ["k", "v", "name"]
        assert result.num_rows == 5

    def test_arithmetic(self, db):
        result = db.execute("SELECT v * 2 + 1 AS x FROM t WHERE k = 1")
        assert list(result["x"]) == [21.0, 41.0]

    def test_where_excludes_nan_comparisons(self, db):
        result = db.execute("SELECT k FROM t WHERE v > 0")
        assert result.num_rows == 4  # the NaN row does not match

    def test_is_null(self, db):
        assert db.execute("SELECT k FROM t WHERE v IS NULL").num_rows == 1
        assert db.execute("SELECT k FROM t WHERE v IS NOT NULL").num_rows == 4

    def test_in_list(self, db):
        assert db.execute("SELECT k FROM t WHERE k IN (1, 3)").num_rows == 3

    def test_string_equality(self, db):
        assert db.execute("SELECT k FROM t WHERE name = 'a'").num_rows == 2

    def test_between(self, db):
        assert db.execute("SELECT k FROM t WHERE v BETWEEN 15 AND 35").num_rows == 2

    def test_case(self, db):
        result = db.execute(
            "SELECT CASE WHEN k = 1 THEN 'one' ELSE 'other' END AS lab FROM t"
        )
        assert list(result["lab"])[:3] == ["one", "one", "other"]

    def test_select_without_from(self, db):
        assert db.execute("SELECT 1 + 2 AS x").scalar() == 3

    def test_distinct(self, db):
        assert db.execute("SELECT DISTINCT k FROM t").num_rows == 3


class TestJoins:
    def test_inner_join(self, db):
        result = db.execute(
            "SELECT t.k, w FROM t JOIN u ON t.k = u.k ORDER BY t.k"
        )
        assert result.num_rows == 4  # k=3 has no match

    def test_left_join_pads_null(self, db):
        result = db.execute(
            "SELECT t.k, w FROM t LEFT JOIN u ON t.k = u.k WHERE w IS NULL"
        )
        assert list(result["k"]) == [3]

    def test_join_with_residual_condition(self, db):
        result = db.execute(
            "SELECT t.k FROM t JOIN u ON t.k = u.k AND v > 15"
        )
        assert result.num_rows == 3

    def test_cross_requires_equality(self, db):
        with pytest.raises(PlanError):
            db.execute("SELECT 1 AS x FROM t JOIN u ON v > w")

    def test_null_keys_never_match(self, db):
        db.create_table("n1", {"k": np.array([1.0, np.nan])})
        db.create_table("n2", {"k": np.array([np.nan, 1.0])})
        assert db.execute(
            "SELECT COUNT(*) AS n FROM n1 JOIN n2 ON n1.k = n2.k"
        ).scalar() == 1


class TestAggregation:
    def test_global_aggregates(self, db):
        row = db.execute(
            "SELECT COUNT(*) AS n, SUM(v) AS s, AVG(v) AS a, MIN(v) AS lo, "
            "MAX(v) AS hi FROM t"
        ).first_row()
        assert row["n"] == 5
        assert row["s"] == 100.0  # NaN skipped
        assert row["a"] == 25.0
        assert (row["lo"], row["hi"]) == (10.0, 40.0)

    def test_group_by(self, db):
        result = db.execute(
            "SELECT k, COUNT(*) AS n, SUM(v) AS s FROM t GROUP BY k ORDER BY k"
        )
        assert list(result["n"]) == [2, 2, 1]
        assert list(result["s"][:2]) == [30.0, 70.0]

    def test_sum_of_all_null_group_is_null(self, db):
        result = db.execute(
            "SELECT k, SUM(v) AS s FROM t GROUP BY k ORDER BY k"
        )
        assert result.column("s").is_null()[2]

    def test_count_distinct(self, db):
        assert db.execute("SELECT COUNT(DISTINCT name) AS n FROM t").scalar() == 3

    def test_aggregate_arithmetic(self, db):
        value = db.execute("SELECT SUM(v) / COUNT(v) AS m FROM t").scalar()
        assert value == 25.0

    def test_having(self, db):
        result = db.execute(
            "SELECT k, COUNT(*) AS n FROM t GROUP BY k HAVING COUNT(*) > 1"
        )
        assert result.num_rows == 2

    def test_group_by_expression(self, db):
        result = db.execute(
            "SELECT k % 2 AS parity, COUNT(*) AS n FROM t GROUP BY k % 2 "
            "ORDER BY parity"
        )
        assert list(result["n"]) == [2, 3]

    def test_aggregate_over_empty_input(self, db):
        row = db.execute(
            "SELECT COUNT(*) AS n, SUM(v) AS s FROM t WHERE k > 99"
        ).first_row()
        assert row["n"] == 0

    def test_median(self, db):
        assert db.execute("SELECT MEDIAN(v) AS m FROM t").scalar() == 25.0

    def test_nulls_form_one_group(self, db):
        db.create_table("g", {"k": np.array([np.nan, np.nan, 1.0]), "v": [1, 2, 3]})
        result = db.execute("SELECT k, COUNT(*) AS n FROM g GROUP BY k")
        assert sorted(result["n"]) == [1, 2]


class TestWindowFunctions:
    def test_running_sum(self, db):
        result = db.execute(
            "SELECT k, SUM(k) OVER (ORDER BY k) AS rs FROM t ORDER BY k"
        )
        # Peers (equal k) share the frame-end value: 2,2,6,6,9
        assert list(result["rs"]) == [2, 2, 6, 6, 9]

    def test_partitioned_running_sum(self, db):
        result = db.execute(
            "SELECT name, SUM(v) OVER (PARTITION BY name ORDER BY k) AS rs "
            "FROM t WHERE v IS NOT NULL ORDER BY name, k"
        )
        assert list(result["rs"]) == [10.0, 40.0, 20.0, 60.0]

    def test_row_number(self, db):
        result = db.execute(
            "SELECT ROW_NUMBER() OVER (ORDER BY v) AS rn FROM t WHERE v IS NOT NULL"
        )
        assert sorted(result["rn"]) == [1, 2, 3, 4]

    def test_window_without_order_is_partition_total(self, db):
        result = db.execute(
            "SELECT SUM(k) OVER (PARTITION BY name) AS s FROM t ORDER BY k"
        )
        assert set(result["s"]) == {3.0, 3.0, 3.0}


class TestDDLDML:
    def test_create_table_as(self, db):
        db.execute("CREATE TABLE agg AS SELECT k, SUM(v) AS s FROM t GROUP BY k")
        assert db.execute("SELECT COUNT(*) AS n FROM agg").scalar() == 3

    def test_create_or_replace(self, db):
        db.execute("CREATE TABLE x AS SELECT 1 AS a")
        db.execute("CREATE OR REPLACE TABLE x AS SELECT 2 AS a")
        assert db.execute("SELECT a FROM x").scalar() == 2

    def test_drop(self, db):
        db.execute("CREATE TABLE x AS SELECT 1 AS a")
        db.execute("DROP TABLE x")
        with pytest.raises(CatalogError):
            db.execute("SELECT * FROM x")

    def test_update_with_where(self, db):
        db.execute("UPDATE t SET v = 0 WHERE k = 1")
        assert db.execute("SELECT SUM(v) AS s FROM t").scalar() == 70.0

    def test_update_with_in_subquery(self, db):
        db.execute("UPDATE t SET v = v + 1 WHERE k IN (SELECT k FROM u)")
        assert db.execute("SELECT SUM(v) AS s FROM t").scalar() == 104.0

    def test_profiles_recorded(self, db):
        db.reset_profiles()
        db.execute("SELECT 1 AS x", tag="probe")
        assert db.profiles[-1].tag == "probe"
        assert db.profiles[-1].seconds >= 0


class TestSubqueries:
    def test_from_subquery(self, db):
        value = db.execute(
            "SELECT SUM(s) AS total FROM "
            "(SELECT k, SUM(v) AS s FROM t GROUP BY k)"
        ).scalar()
        assert value == 100.0

    def test_in_subquery(self, db):
        assert db.execute(
            "SELECT COUNT(*) AS n FROM t WHERE k IN (SELECT k FROM u)"
        ).scalar() == 4

    def test_paper_example_2_shape(self, db):
        # The exact SQL shape from the paper's Example 2.
        result = db.execute(
            "SELECT k, -(100.0/4)*100.0 + (s/c)*s"
            " + (100.0 - s)/(4 - c) * (100.0 - s) AS criteria"
            " FROM (SELECT k, SUM(c) OVER (ORDER BY k) AS c,"
            "              SUM(s) OVER (ORDER BY k) AS s"
            "       FROM (SELECT k, SUM(v) AS s, COUNT(v) AS c FROM t GROUP BY k))"
            " ORDER BY criteria DESC LIMIT 1"
        )
        assert result.num_rows == 1


class TestUnionAll:
    def test_concatenates_branches(self, db):
        result = db.execute(
            "SELECT k, v FROM t WHERE k = 1 UNION ALL "
            "SELECT k, v FROM t WHERE k = 2"
        )
        assert result.num_rows == 4
        assert list(result["k"]) == [1, 1, 2, 2]

    def test_discriminator_and_grouped_branches(self, db):
        # The batched split-query shape: per-branch literals + GROUP BY.
        result = db.execute(
            "SELECT 0 AS f, k, SUM(v) AS s FROM t GROUP BY k UNION ALL "
            "SELECT 1 AS f, k, SUM(w) AS s FROM u GROUP BY k"
        )
        assert result.num_rows == 5
        assert sorted(result["f"]) == [0, 0, 0, 1, 1]

    def test_int_float_promotion(self, db):
        result = db.execute("SELECT k AS x FROM u UNION ALL SELECT v AS x FROM t")
        column = result.column("x")
        assert column.values.dtype == np.float64
        assert column.is_null().sum() == 1  # t.v carries one NaN

    def test_duplicates_survive(self, db):
        result = db.execute("SELECT k FROM u UNION ALL SELECT k FROM u")
        assert result.num_rows == 4

    def test_create_table_from_union(self, db):
        db.execute(
            "CREATE TABLE both_keys AS "
            "SELECT k FROM t UNION ALL SELECT k FROM u"
        )
        assert db.execute("SELECT COUNT(*) AS n FROM both_keys").scalar() == 7

    def test_mismatched_column_count_raises(self, db):
        with pytest.raises(PlanError, match="column counts"):
            db.execute("SELECT k, v FROM t UNION ALL SELECT k FROM u")

    def test_string_number_mix_raises(self, db):
        with pytest.raises(PlanError, match="mixes strings"):
            db.execute("SELECT name FROM t UNION ALL SELECT k FROM u")


class TestLiveColumns:
    """A statement binds only the stored columns it references."""

    @staticmethod
    def record_scans(monkeypatch):
        """Log ``(statement tag, table, bound bare names)`` per table scan."""
        scans, tags = [], []
        scan = planner._frame_for_table_ref
        execute = Database.execute

        def recording_scan(ref, db, live):
            frame = scan(ref, db, live)
            if ref.name is not None:
                bound = {key.rpartition(".")[2] for key in frame.order}
                scans.append((tags[-1] if tags else None, ref.name, bound))
            return frame

        def tagged_execute(self, sql_text, tag=None):
            tags.append(tag)
            return execute(self, sql_text, tag=tag)

        monkeypatch.setattr(planner, "_frame_for_table_ref", recording_scan)
        monkeypatch.setattr(Database, "execute", tagged_execute)
        return scans

    def test_carry_message_scan_binds_key_label_and_aggregates(self, monkeypatch):
        conn = repro.connect(backend="plain")
        _, graph = favorita(db=conn, num_fact_rows=2_000, seed=7, key_dtype="str")
        scans = self.record_scans(monkeypatch)
        repro.train_gradient_boosting(
            conn, graph, {"num_iterations": 2, "num_leaves": 4, "num_workers": 1}
        )
        fact = graph.target_relation
        fact_keys = {key for edge in graph.edges_of(fact) for key in edge.keys_for(fact)}
        carries = [
            bound for tag, table, bound in scans
            if tag == "message" and table.startswith("jb_tmp_lift")
        ]
        assert carries
        for bound in carries:
            labels = {name for name in bound if name.startswith("jb_leaf_s")}
            assert len(labels) == 1 and {"h", "g"} < bound
            keys = bound - labels - {"h", "g"}
            assert len(keys) == 1 and keys <= fact_keys

    def test_row_tables_bind_whole_records(self, monkeypatch):
        for preset, expected in (("plain", {"k"}), ("x-row", {"k", "v", "name"})):
            database = Database(StorageConfig.preset(preset))
            database.create_table(
                "t", {"k": [1, 2], "v": [1.0, 2.0],
                      "name": np.array(["a", "b"], dtype=object)},
            )
            scans = self.record_scans(monkeypatch)
            assert database.execute("SELECT COUNT(*) AS n FROM t WHERE k > 1").scalar() == 1
            assert scans[-1][2] == expected
            monkeypatch.undo()

    def test_star_and_using_keep_their_columns(self):
        assert planner.live_names(parse("SELECT t.* FROM t")[0]) is None
        select = parse("SELECT a.v FROM a INNER JOIN b USING (k) ORDER BY b.w")[0]
        assert planner.live_names(select) == {"v", "k", "w"}


class TestSharedFrame:
    """UNION ALL branches with one FROM/JOIN/WHERE read one frame."""

    @staticmethod
    def database():
        db = Database()
        db.create_table("f", {"k": [1, 2, 2, 3], "x": [1, 2, 3, 4],
                              "g": [0.5, 1.0, 1.5, 2.0]})
        db.create_table("d", {"k": [1, 2, 3], "w": [10.0, 20.0, 30.0],
                              "c": [7, 8, 9]})
        return db

    def test_branches_with_one_from_and_where_scan_once(self, monkeypatch):
        db = self.database()
        scans = TestLiveColumns.record_scans(monkeypatch)
        result = db.execute(
            "SELECT 0 AS b, d.w AS v FROM f INNER JOIN d ON f.k = d.k WHERE f.x > 1 "
            "UNION ALL SELECT 1 AS b, f.g FROM f INNER JOIN d ON f.k = d.k WHERE f.x < 4 "
            "UNION ALL SELECT 2 AS b, SUM(d.c) FROM f INNER JOIN d ON f.k = d.k WHERE f.x > 1"
        )
        # branches 0 and 2 share one frame binding what either uses;
        # branch 1 has its own WHERE and frame
        assert [(table, bound) for _, table, bound in scans] == [
            ("f", {"k", "x"}), ("d", {"k", "w", "c"}),
            ("f", {"k", "x", "g"}), ("d", {"k"}),
        ]
        assert list(result.column("b").values) == [0, 0, 0, 1, 1, 1, 2]
        assert list(result.column("v").values) == [
            20.0, 20.0, 30.0, 0.5, 1.0, 1.5, 25.0,
        ]

    def test_star_branch_binds_every_column(self, monkeypatch):
        db = self.database()
        scans = TestLiveColumns.record_scans(monkeypatch)
        result = db.execute(
            "SELECT * FROM d WHERE c > 7 UNION ALL SELECT k, c, k FROM d WHERE c > 7"
        )
        assert [bound for _, _, bound in scans] == [{"k", "w", "c"}]
        assert list(result.column("w").values) == [20.0, 30.0, 8.0, 9.0]
