"""Residual updates — Sections 4, 5.3 and 5.4.

After each boosted tree, the target's semi-ring annotation must reflect
the new residuals *without* materializing R⋈.  Three layers cooperate:

1. **Leaf → fact translation**: each leaf's σ references dimension
   attributes; :func:`leaf_fact_condition` rewrites it as (nested)
   semi-join ``IN`` predicates over the fact table's keys (Section 4.1).
2. **Logical strategy** (Section 5.3): ``update`` in place, ``create`` a
   new fact table, or ``naive`` (materialize the update relation U of
   Section 4.2.1 and join).
3. **Physical strategy** (Section 5.4): ``swap`` computes the new column
   with a query and pointer-swaps it in, dodging WAL/MVCC/compression.
   The swap needs a pointer to swap: on a connector whose
   ``Capabilities.column_swap`` is False the cheap write is the engine's
   own ``UPDATE``, so ``swap`` resolves to the ``update`` path there and
   the new values never leave the DBMS.

Two update shapes:

* **additive** — L2/rmse (and galaxy clusters): only the gradient/sum
  component shifts, by ``lr · leaf_value`` per matched row.  This is the
  "only s is needed" optimization.
* **general** — other losses on snowflake schemas: the prediction column
  shifts per leaf, then g (and a non-constant h) are recomputed from the
  loss formulas.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import TrainingError
from repro.core.tree import DecisionTreeModel, TreeNode
from repro.engine.update import apply_column_update
from repro.factorize.predicates import PredicateMap, render_conjunction
from repro.joingraph.graph import JoinGraph
from repro.joingraph.hypertree import edge_between, rooted_tree
from repro.semiring.losses import L2Loss, Loss


# ---------------------------------------------------------------------------
# Leaf predicate -> fact-table semi-join condition (Section 4.1)
# ---------------------------------------------------------------------------
def leaf_fact_condition(
    graph: JoinGraph,
    fact: str,
    predicates: PredicateMap,
    fact_alias: str = "t",
    table_for: Optional[Dict[str, str]] = None,
) -> str:
    """Rewrite a leaf's σ as a predicate over the fact table only.

    Dimension predicates become nested ``IN (SELECT ...)`` semi-joins
    moved hop by hop toward the fact (the D_{i-1} ⋉ σ(D_i) rewriting).
    ``table_for`` maps relation names to their physical tables (lifted
    copies); defaults to the relation names themselves.
    """
    table_for = table_for or {}
    parent_map, _, _ = rooted_tree(graph, fact)
    conditions: List[str] = []
    for relation, preds in predicates.items():
        if not preds:
            continue
        if relation == fact:
            conditions.append(render_conjunction(tuple(preds), alias=fact_alias))
            continue
        # Path from the predicate's relation up to the fact.
        path = [relation]
        while path[-1] != fact:
            parent = parent_map.get(path[-1])
            if parent is None:
                raise TrainingError(
                    f"no path from {relation!r} to fact {fact!r}"
                )
            path.append(parent)
        subquery = None
        for i, current in enumerate(path[:-1]):
            parent = path[i + 1]
            edge = edge_between(graph, current, parent)
            out_keys = edge.keys_for(current)
            if len(out_keys) != 1:
                raise TrainingError(
                    "semi-join predicate movement requires single-column "
                    f"join keys on the {current!r} -> {parent!r} edge"
                )
            table = table_for.get(current, current)
            where_parts: List[str] = []
            if i == 0:
                where_parts.append(render_conjunction(tuple(preds)))
            else:
                prev = path[i - 1]
                prev_edge = edge_between(graph, prev, current)
                in_keys = prev_edge.keys_for(current)
                if len(in_keys) != 1:
                    raise TrainingError(
                        "semi-join predicate movement requires single-column "
                        f"join keys on the {prev!r} -> {current!r} edge"
                    )
                where_parts.append(f"{in_keys[0]} IN ({subquery})")
            subquery = (
                f"SELECT {out_keys[0]} FROM {table}"
                f" WHERE {' AND '.join(where_parts)}"
            )
        last_edge = edge_between(graph, path[-2], fact)
        fact_keys = last_edge.keys_for(fact)
        conditions.append(f"{fact_alias}.{fact_keys[0]} IN ({subquery})")
    return " AND ".join(conditions) if conditions else "TRUE"


def leaf_conditions(
    graph: JoinGraph,
    fact: str,
    tree: DecisionTreeModel,
    fact_alias: str = "t",
    table_for: Optional[Dict[str, str]] = None,
) -> List[Tuple[TreeNode, str]]:
    """(leaf, fact-level SQL condition) for every leaf of ``tree``."""
    return [
        (leaf, leaf_fact_condition(graph, fact, leaf.path_predicates(),
                                   fact_alias, table_for))
        for leaf in tree.leaves()
    ]


# ---------------------------------------------------------------------------
# The updater
# ---------------------------------------------------------------------------
class ResidualUpdater:
    """Applies one tree's residual update to a lifted fact table."""

    def __init__(
        self,
        db,
        graph: JoinGraph,
        fact: str,
        fact_table: str,
        loss: Loss,
        strategy: str = "swap",
    ):
        self.db = db
        self.graph = graph
        self.fact = fact
        self.fact_table = fact_table
        self.loss = loss
        # Without a column swap, "swap" would fetch the new column and
        # write it back row by row (the expensive form of Fig. 5): the
        # in-DBMS UPDATE is the cheap write there.  A connector without
        # capabilities keeps the requested strategy (the permissive idiom).
        capabilities = getattr(db, "capabilities", None)
        if strategy == "swap" and capabilities is not None \
                and not capabilities.column_swap:
            strategy = "update"
        self.strategy = strategy

    # -- leaf-label fast path --------------------------------------------
    def _labels_usable(self, label_column: Optional[str]) -> Optional[str]:
        """The label column when the fast path applies, else None.

        The persistent ``jb_leaf`` column (incremental frontier state)
        already encodes every leaf's σ, so residual updates become one
        ``CASE`` over an integer column instead of per-leaf depth-long
        semi-join scans.  The ``naive`` strategy keeps the Section 4.2.1
        baseline untouched (it is the thing Figure 5 measures).
        """
        if label_column is None or self.strategy == "naive":
            return None
        names = {c.lower() for c in self.db.table(self.fact_table).column_names()}
        if label_column.lower() not in names:
            return None
        return label_column

    @staticmethod
    def _label_deltas(
        tree: DecisionTreeModel, scale: float, label_ref: str
    ) -> List[Tuple[str, float]]:
        return [
            (f"{label_ref} = {leaf.node_id}", scale * leaf.prediction)
            for leaf in tree.leaves()
        ]

    # -- additive shape (L2 / galaxy clusters) ---------------------------
    def apply_additive(
        self,
        tree: DecisionTreeModel,
        learning_rate: float,
        component: str = "g",
        sign: float = 1.0,
        label_column: Optional[str] = None,
    ) -> None:
        """Shift ``component`` by ``sign·lr·leaf_value`` per matched tuple.

        The shift is the semi-ring ⊗ with lift(δ): the component moves by
        δ times the row's weight component (h or c) — 1 for base fact rows,
        the group count for pre-aggregated cuboids.  ``label_column``
        (when current) switches the leaf conditions from semi-join scans
        to equality tests on the persistent leaf-membership column.
        """
        weight = self._weight_column()
        label = self._labels_usable(label_column)
        if label is not None:
            if self.strategy == "update":
                deltas = self._label_deltas(
                    tree, sign * learning_rate, f"{self.fact_table}.{label}"
                )
                case_expr = self._case_expr(deltas, component, weight=weight)
                self.db.execute(
                    f"UPDATE {self.fact_table} SET {component} = {case_expr}",
                    tag="residual_update",
                )
            else:
                deltas = self._label_deltas(
                    tree, sign * learning_rate, f"t.{label}"
                )
                case_expr = self._case_expr(
                    deltas, f"t.{component}",
                    weight=f"t.{weight}" if weight else None,
                )
                if self.strategy == "create":
                    self._recreate_with({component: case_expr})
                else:
                    self._swap_with({component: case_expr})
            return
        if self.strategy == "update":
            pairs = leaf_conditions(
                self.graph, self.fact, tree, fact_alias=self.fact_table
            )
            for leaf, condition in pairs:
                delta = sign * learning_rate * leaf.prediction
                shift = f"{delta!r} * {weight}" if weight else repr(delta)
                self.db.execute(
                    f"UPDATE {self.fact_table} "
                    f"SET {component} = {component} + {shift} "
                    f"WHERE {condition}",
                    tag="residual_update",
                )
            return
        pairs = leaf_conditions(self.graph, self.fact, tree, fact_alias="t")
        deltas = [
            (condition, sign * learning_rate * leaf.prediction)
            for leaf, condition in pairs
        ]
        case_expr = self._case_expr(
            deltas, f"t.{component}", weight=f"t.{weight}" if weight else None
        )
        if self.strategy == "create":
            self._recreate_with(
                {component: case_expr}
            )
        elif self.strategy == "swap":
            self._swap_with({component: case_expr})
        elif self.strategy == "naive":
            self._naive_update(tree, deltas, component)
        else:
            raise TrainingError(f"unknown update strategy {self.strategy!r}")

    # -- general shape (arbitrary snowflake losses) -----------------------
    def apply_general(
        self,
        tree: DecisionTreeModel,
        learning_rate: float,
        y_column: str,
        pred_column: str = "pred",
        hessian_constant: bool = False,
        label_column: Optional[str] = None,
    ) -> None:
        """Shift the prediction per leaf, then recompute g (and h)."""
        label = self._labels_usable(label_column)
        if label is not None:
            deltas = self._label_deltas(tree, learning_rate, f"t.{label}")
        else:
            pairs = leaf_conditions(self.graph, self.fact, tree, fact_alias="t")
            deltas = [
                (condition, learning_rate * leaf.prediction)
                for leaf, condition in pairs
            ]
        pred_expr = self._case_expr(deltas, f"t.{pred_column}")
        new_columns = {pred_column: pred_expr}
        new_columns["g"] = self.loss.gradient_sql(f"t.{y_column}", f"({pred_expr})")
        if not hessian_constant:
            new_columns["h"] = self.loss.hessian_sql(f"t.{y_column}", f"({pred_expr})")
        if self.strategy == "update":
            if label is not None:
                bare_deltas = self._label_deltas(
                    tree, learning_rate, f"{self.fact_table}.{label}"
                )
                case_expr = self._case_expr(bare_deltas, pred_column)
                self.db.execute(
                    f"UPDATE {self.fact_table} "
                    f"SET {pred_column} = {case_expr}",
                    tag="residual_update",
                )
            else:
                bare_pairs = leaf_conditions(
                    self.graph, self.fact, tree, fact_alias=self.fact_table
                )
                for leaf, condition in bare_pairs:
                    delta = learning_rate * leaf.prediction
                    self.db.execute(
                        f"UPDATE {self.fact_table} "
                        f"SET {pred_column} = {pred_column} + {delta!r} "
                        f"WHERE {condition}",
                        tag="residual_update",
                    )
            g_expr = self.loss.gradient_sql(
                f"{self.fact_table}.{y_column}", f"{self.fact_table}.{pred_column}"
            )
            sets = [f"g = {g_expr}"]
            if not hessian_constant:
                h_expr = self.loss.hessian_sql(
                    f"{self.fact_table}.{y_column}",
                    f"{self.fact_table}.{pred_column}",
                )
                sets.append(f"h = {h_expr}")
            self.db.execute(
                f"UPDATE {self.fact_table} SET {', '.join(sets)}",
                tag="residual_update",
            )
        elif self.strategy == "create":
            self._recreate_with(new_columns)
        elif self.strategy == "swap":
            self._swap_with(new_columns)
        else:
            raise TrainingError(
                f"strategy {self.strategy!r} is not supported for general losses"
            )

    # -- shared helpers ----------------------------------------------------
    def _weight_column(self) -> Optional[str]:
        """The weight component of the fact table's annotation, if any."""
        names = self.db.table(self.fact_table).column_names()
        for candidate in ("h", "c"):
            if candidate in names:
                return candidate
        return None

    @staticmethod
    def _case_expr(
        deltas: Sequence[Tuple[str, float]],
        base: str,
        weight: Optional[str] = None,
    ) -> str:
        whens = " ".join(
            f"WHEN {condition} THEN {base} + {delta!r}"
            + (f" * {weight}" if weight else "")
            for condition, delta in deltas
        )
        return f"CASE {whens} ELSE {base} END"

    def _recreate_with(self, new_columns: Dict[str, str]) -> None:
        """CREATE TABLE F_updated AS SELECT ... (Section 5.3.1) + rename."""
        table = self.db.table(self.fact_table)
        select_parts = []
        for name in table.column_names():
            if name in new_columns:
                select_parts.append(f"{new_columns[name]} AS {name}")
            else:
                select_parts.append(f"t.{name}")
        scratch = self.db.temp_name("fact_updated")
        self.db.execute(
            f"CREATE TABLE {scratch} AS SELECT {', '.join(select_parts)} "
            f"FROM {self.fact_table} AS t",
            tag="residual_update",
        )
        self.db.drop_table(self.fact_table)
        self.db.rename_table(scratch, self.fact_table)

    def _swap_with(self, new_columns: Dict[str, str]) -> None:
        """Compute new columns with a query, then pointer-swap them in."""
        select_parts = [f"{expr} AS {name}" for name, expr in new_columns.items()]
        result = self.db.execute(
            f"SELECT {', '.join(select_parts)} FROM {self.fact_table} AS t",
            tag="residual_update",
        )
        for name in new_columns:
            apply_column_update(
                self.db, self.fact_table, name,
                result.column(name).values, strategy="swap",
            )

    def _naive_update(
        self,
        tree: DecisionTreeModel,
        deltas: Sequence[Tuple[str, float]],
        component: str,
    ) -> None:
        """Section 4.2.1 verbatim: materialize U, re-create F = F ⋈ U.

        U is keyed by the fact columns the leaf conditions reference (the
        pushed-down attribute set A); its annotation is lift(-P), and the
        new fact table multiplies annotations through the join.  This is
        the slow baseline of Figure 5.
        """
        key_columns = self._referenced_fact_columns(tree)
        if not key_columns:
            raise TrainingError("naive update: tree references no attributes")
        whens = " ".join(
            f"WHEN {condition} THEN {delta!r}" for condition, delta in deltas
        )
        delta_expr = f"CASE {whens} ELSE 0 END"
        u_name = self.db.temp_name("update_relation")
        keys_sql = ", ".join(f"t.{k} AS {k}" for k in key_columns)
        self.db.execute(
            f"CREATE TABLE {u_name} AS SELECT DISTINCT {keys_sql}, "
            f"{delta_expr} AS delta FROM {self.fact_table} AS t",
            tag="residual_update",
        )
        table = self.db.table(self.fact_table)
        names = table.column_names()
        # Per-row weight component (1 per base row, but written generally
        # so the semi-ring multiplication F ⋈ lift(delta) stays exact).
        weight = "h" if "h" in names else ("c" if "c" in names else None)
        select_parts = []
        for name in names:
            if name == component:
                if weight is not None:
                    select_parts.append(
                        f"(t.{component} + u.delta * t.{weight}) AS {name}"
                    )
                else:
                    select_parts.append(f"(t.{component} + u.delta) AS {name}")
            else:
                select_parts.append(f"t.{name}")
        join_cond = " AND ".join(f"t.{k} = u.{k}" for k in key_columns)
        scratch = self.db.temp_name("fact_naive")
        self.db.execute(
            f"CREATE TABLE {scratch} AS SELECT {', '.join(select_parts)} "
            f"FROM {self.fact_table} AS t JOIN {u_name} AS u ON {join_cond}",
            tag="residual_update",
        )
        self.db.drop_table(u_name)
        self.db.drop_table(self.fact_table)
        self.db.rename_table(scratch, self.fact_table)

    def _referenced_fact_columns(self, tree: DecisionTreeModel) -> List[str]:
        """Fact columns determining leaf membership: local split columns
        plus the foreign keys toward dimensions the tree splits on."""
        parent_map, _, _ = rooted_tree(self.graph, self.fact)
        columns: List[str] = []
        for relation, column in tree.referenced_attributes():
            if relation == self.fact:
                if column not in columns:
                    columns.append(column)
                continue
            # First hop from the fact toward this relation.
            cursor = relation
            while parent_map.get(cursor) != self.fact:
                cursor = parent_map.get(cursor)
                if cursor is None:
                    raise TrainingError(
                        f"no path from {relation!r} to fact {self.fact!r}"
                    )
            edge = edge_between(self.graph, cursor, self.fact)
            for key in edge.keys_for(self.fact):
                if key not in columns:
                    columns.append(key)
        return columns
