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
  shifts per leaf, and g (and a non-constant h) are recomputed from the
  loss formulas over the shifted prediction.  Multiclass chains shift
  each class's prediction and then refresh every class's softmax g/h.

Every shape is a set of new column expressions handed to
:meth:`ResidualUpdater.write`, the one place the logical/physical
strategy is dispatched; only ``naive`` keeps its own path.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import TrainingError
from repro.core.tree import DecisionTreeModel, TreeNode
from repro.factorize.predicates import PredicateMap, render_conjunction
from repro.joingraph.graph import JoinGraph
from repro.joingraph.hypertree import edge_between, rooted_tree
from repro.semiring.losses import Loss


# ---------------------------------------------------------------------------
# Leaf predicate -> fact-table semi-join condition (Section 4.1)
# ---------------------------------------------------------------------------
def semi_join_path(
    graph: JoinGraph,
    fact: str,
    relation: str,
    parent_map: Dict[str, Optional[str]],
) -> List[str]:
    """The relations from ``relation`` up the join tree rooted at
    ``fact`` (``parent_map``) to the fact.

    A predicate on ``relation`` moves to the fact as one single-column
    ``key IN (SELECT key ...)`` semi-join per edge of this path, so every
    edge on it must join on one column: raises :class:`TrainingError`
    naming the first edge that does not.
    """
    path = [relation]
    while path[-1] != fact:
        current = path[-1]
        parent = parent_map.get(current)
        if parent is None:
            raise TrainingError(f"no path from {relation!r} to fact {fact!r}")
        keys = edge_between(graph, current, parent).keys_for(current)
        if len(keys) != 1:
            raise TrainingError(
                "semi-join predicate movement requires single-column "
                f"join keys on the {current!r} -> {parent!r} edge "
                f"({', '.join(keys)})"
            )
        path.append(parent)
    return path


def check_semi_join_keys(
    graph: JoinGraph, fact: str, relations: Optional[Sequence[str]] = None
) -> None:
    """Refuse, before training runs a statement, a relation declaring
    features among ``relations`` (default: the whole graph) whose split
    predicates could not move to ``fact`` (:func:`semi_join_path`)."""
    parent_map = rooted_tree(graph, fact)[0]
    for relation in graph.relations if relations is None else relations:
        if graph.relations[relation].features:
            semi_join_path(graph, fact, relation, parent_map)


def leaf_fact_condition(
    graph: JoinGraph,
    fact: str,
    predicates: PredicateMap,
    fact_alias: str = "t",
    table_for: Optional[Dict[str, str]] = None,
) -> str:
    """Rewrite a leaf's σ as a predicate over the fact table only.

    Dimension predicates become nested ``IN (SELECT ...)`` semi-joins
    moved hop by hop toward the fact (the D_{i-1} ⋉ σ(D_i) rewriting)
    along :func:`semi_join_path`.  ``table_for`` maps relation names to
    their physical tables (lifted copies); defaults to the relation
    names themselves.
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
        path = semi_join_path(graph, fact, relation, parent_map)
        subquery = None
        for i, current in enumerate(path[:-1]):
            out_key = edge_between(graph, current, path[i + 1]).keys_for(current)[0]
            if i == 0:
                where = render_conjunction(tuple(preds))
            else:
                in_key = edge_between(graph, path[i - 1], current).keys_for(current)[0]
                where = f"{in_key} IN ({subquery})"
            table = table_for.get(current, current)
            subquery = f"SELECT {out_key} FROM {table} WHERE {where}"
        fact_key = edge_between(graph, path[-2], fact).keys_for(fact)[0]
        conditions.append(f"{fact_alias}.{fact_key} IN ({subquery})")
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
        # in-DBMS UPDATE is the cheap write there.
        if strategy == "swap" and not db.capabilities.column_swap:
            strategy = "update"
        self.strategy = strategy

    @property
    def alias(self) -> str:
        """The name :meth:`write`'s column expressions qualify fact
        columns with: the fact table itself for an in-place ``UPDATE``
        (which takes no alias), ``t`` for the SELECT-based strategies."""
        return self.fact_table if self.strategy == "update" else "t"

    def _deltas(
        self,
        tree: DecisionTreeModel,
        scale: float,
        label_column: Optional[str],
        alias: str,
    ) -> List[Tuple[str, float]]:
        """One (fact-row condition, ``scale·leaf value``) pair per leaf.

        A current leaf-membership column (``label_column``, from the
        trainer's frontier state) already encodes every leaf's σ, so each
        condition is an equality test on it; otherwise it is the leaf's
        Section 4.1 semi-join.  Both select the same rows.
        """
        if label_column is not None:
            return [
                (f"{alias}.{label_column} = {leaf.node_id}",
                 scale * leaf.prediction)
                for leaf in tree.leaves()
            ]
        return [
            (condition, scale * leaf.prediction)
            for leaf, condition in leaf_conditions(
                self.graph, self.fact, tree, fact_alias=alias
            )
        ]

    def shift_expr(
        self,
        tree: DecisionTreeModel,
        scale: float,
        column: str,
        label_column: Optional[str] = None,
        weight: Optional[str] = None,
    ) -> str:
        """``column`` shifted by ``scale·leaf value`` (times ``weight``)
        per leaf, rendered over :attr:`alias` for :meth:`write`."""
        alias = self.alias
        base = f"{alias}.{column}"
        factor = f" * {alias}.{weight}" if weight else ""
        whens = " ".join(
            f"WHEN {condition} THEN {base} + {delta!r}{factor}"
            for condition, delta in self._deltas(tree, scale, label_column, alias)
        )
        return f"CASE {whens} ELSE {base} END"

    def write(self, columns: Dict[str, str]) -> None:
        """Replace fact columns by expressions over :attr:`alias` — the
        one write every residual update goes through.  ``update`` is one
        in-place ``UPDATE`` (every expression reads pre-update values),
        ``create`` re-creates the table (Section 5.3.1), ``swap``
        computes the columns with a query and pointer-swaps them in."""
        if self.strategy == "update":
            sets = ", ".join(f"{name} = {expr}" for name, expr in columns.items())
            self.db.execute(
                f"UPDATE {self.fact_table} SET {sets}", tag="residual_update"
            )
        elif self.strategy == "create":
            self._recreate_with(columns)
        elif self.strategy == "swap":
            self._swap_with(columns)
        else:
            raise TrainingError(
                f"strategy {self.strategy!r} is not supported for column writes"
            )

    # -- additive shape (L2 / galaxy clusters) ---------------------------
    def apply_additive(
        self,
        tree: DecisionTreeModel,
        learning_rate: float,
        component: str = "g",
        label_column: Optional[str] = None,
    ) -> None:
        """Shift ``component`` by ``lr·leaf_value`` per matched tuple.

        The shift is the semi-ring ⊗ with lift(δ): the component moves by
        δ times the row's weight component (h or c) — 1 for base fact rows,
        the group count for pre-aggregated cuboids.
        """
        if self.strategy == "naive":
            deltas = self._deltas(tree, learning_rate, None, "t")
            self._naive_update(tree, deltas, component)
            return
        self.write({component: self.shift_expr(
            tree, learning_rate, component, label_column, self._weight_column()
        )})

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
        """Shift the prediction per leaf and recompute g (and h) from the
        shifted prediction, in one write."""
        pred = self.shift_expr(tree, learning_rate, pred_column, label_column)
        y = f"{self.alias}.{y_column}"
        columns = {pred_column: pred, "g": self.loss.gradient_sql(y, f"({pred})")}
        if not hessian_constant:
            columns["h"] = self.loss.hessian_sql(y, f"({pred})")
        self.write(columns)

    # -- shared helpers ----------------------------------------------------
    def _weight_column(self) -> Optional[str]:
        """The weight component of the fact table's annotation, if any."""
        names = self.db.table(self.fact_table).column_names()
        for candidate in ("h", "c"):
            if candidate in names:
                return candidate
        return None

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
            self.db.replace_column(
                self.fact_table, name, result.column(name).values, "swap"
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
        # Per-row weight component (1 per base row, but written generally
        # so the semi-ring multiplication F ⋈ lift(delta) stays exact).
        weight = self._weight_column()
        select_parts = []
        for name in self.db.table(self.fact_table).column_names():
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
