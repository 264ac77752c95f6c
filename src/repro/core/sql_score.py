"""SQL scoring: trained models as pure ``CASE WHEN`` expressions.

The paper's duality (and Cromp et al.'s relational inference): a trained
tree is just a nested conditional over feature columns, so scoring can be
*pushed into any connected DBMS* as one SELECT — no model runtime on the
data path, no denormalization.  This module grows the serialization seed
(:mod:`repro.core.serialize`) and the join-SQL seed
(:mod:`repro.baselines.export`) into a scoring exporter:

* :func:`tree_case_sql` / :func:`model_score_sql` render any trained
  model class as a scoring expression in the engine-neutral SQL surface
  every connector translates (nested ``CASE WHEN``, the predicates'
  explicit NULL routing, float literals via ``repr`` so values round-trip
  bit-exactly);
* :func:`join_tree_sql` builds the join clause over the normalized
  schema — ``LEFT JOIN`` for scoring (a dangling fact key must surface
  as NULL and route by the model's missing direction, not drop the row),
  plain ``JOIN`` for the baselines' materialization path which reuses
  this builder;
* :func:`sql_scores` executes the scoring SELECT on a Connector with a
  minted row-id column so returned scores align with fact rows on any
  backend, and :func:`score_by_key` is the semi-join "score user id X"
  path: filter the fact table, LEFT JOIN only the dimension rows that
  user's keys reach, score in the DBMS.

NULL semantics carry over for free: ``Predicate.render`` emits explicit
``OR ... IS NULL`` / ``AND ... IS NOT NULL`` routing, and a bare
comparison against NULL is not-true in SQL — exactly the
``include_null=False`` branch of the vectorized evaluator, so SQL scores
are bit-identical to the recursive and compiled paths (enforced by
``tests/test_predict_compiled.py``).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import TrainingError
from repro.core.boosting import GradientBoostingModel, MulticlassBoostingModel
from repro.core.forest import RandomForestModel
from repro.core.predict import KeyValue, check_key_request
from repro.core.tree import DecisionTreeModel, TreeNode
from repro.factorize.predicates import _sql_literal
from repro.joingraph.graph import JoinGraph
from repro.joingraph.hypertree import edge_between, rooted_tree

AliasFor = Callable[[str], str]

#: losses whose prediction transform is the exponential inverse link;
#: everything else scores on the identity transform.  (np.exp and the
#: backend's EXP may differ in the last ulp — the bit-identical parity
#: contract covers identity-transform objectives and softmax argmax.)
_EXP_LINK_LOSSES = ("poisson", "gamma", "tweedie")


def _float_lit(value: float) -> str:
    """Round-trippable float literal (repr is exact for float64)."""
    return repr(float(value))


# ---------------------------------------------------------------------------
# Expression rendering
# ---------------------------------------------------------------------------
def tree_case_sql(model: DecisionTreeModel, alias_for: AliasFor) -> str:
    """One tree as a nested CASE expression.

    Routing matches the vectorized evaluator exactly: the left child's
    predicate (with its explicit NULL routing) selects the THEN branch,
    everything else — including NULL comparisons — falls to ELSE.
    """

    def render(node: TreeNode) -> str:
        if node.is_leaf:
            return _float_lit(node.prediction)
        left = node.left
        right = node.right
        if left is None or left.predicate is None or right is None:
            raise TrainingError("malformed tree: internal node without split")
        relation = left.relation
        alias = alias_for(relation) if relation is not None else ""
        condition = left.predicate.render(alias)
        return (
            f"CASE WHEN {condition} THEN {render(left)} "
            f"ELSE {render(right)} END"
        )

    return render(model.root)


def _boosting_chain_sql(
    trees: Sequence[DecisionTreeModel],
    init_score: float,
    learning_rate: float,
    alias_for: AliasFor,
) -> str:
    """``init + lr*T1 + lr*T2 + ...`` — left-associated like the numpy
    accumulation, so SQL evaluation order matches float for float."""
    parts = [_float_lit(init_score)]
    lr = _float_lit(learning_rate)
    for tree in trees:
        parts.append(f"{lr} * ({tree_case_sql(tree, alias_for)})")
    return "(" + " + ".join(parts) + ")"


def _argmax_sql(score_exprs: Sequence[str]) -> str:
    """First-max argmax over class scores, as ``np.argmax`` resolves
    ties: class k wins when it is >= every later class and no earlier
    class already won."""
    k = len(score_exprs)
    whens = []
    for i in range(k - 1):
        condition = " AND ".join(
            f"{score_exprs[i]} >= {score_exprs[j]}" for j in range(i + 1, k)
        )
        whens.append(f"WHEN {condition} THEN {_float_lit(float(i))}")
    return (
        "CASE " + " ".join(whens) + f" ELSE {_float_lit(float(k - 1))} END"
    )


def model_score_sql(model: object, alias_for: AliasFor) -> str:
    """Any trained model class as one SQL scoring expression."""
    if isinstance(model, DecisionTreeModel):
        return f"({tree_case_sql(model, alias_for)})"
    if isinstance(model, GradientBoostingModel):
        raw = _boosting_chain_sql(
            model.trees, model.init_score, model.learning_rate, alias_for
        )
        if model.loss.name in _EXP_LINK_LOSSES:
            return f"EXP({raw})"
        return raw
    if isinstance(model, MulticlassBoostingModel):
        class_exprs = [
            _boosting_chain_sql(
                chain, model.init_scores[k], model.learning_rate, alias_for
            )
            for k, chain in enumerate(model.trees_per_class)
        ]
        return _argmax_sql(class_exprs)
    if isinstance(model, RandomForestModel):
        if not model.trees:
            raise TrainingError("forest has no trees")
        tree_exprs = [f"({tree_case_sql(t, alias_for)})" for t in model.trees]
        if not model.classification:
            total = " + ".join(tree_exprs)
            return f"(({total}) / {_float_lit(float(len(tree_exprs)))})"
        vote_exprs = []
        for k in range(model.num_classes):
            votes = " + ".join(
                f"CASE WHEN {t} = {_float_lit(float(k))} THEN 1.0 "
                "ELSE 0.0 END"
                for t in tree_exprs
            )
            vote_exprs.append(f"({votes})")
        return _argmax_sql(vote_exprs)
    raise TrainingError(f"cannot render SQL for {type(model).__name__}")


# ---------------------------------------------------------------------------
# Join-clause construction over the normalized schema
# ---------------------------------------------------------------------------
def join_tree_sql(
    graph: JoinGraph,
    fact: str,
    relations: Optional[Sequence[str]] = None,
    join_kind: str = "JOIN",
    fact_alias: str = "t",
) -> Tuple[Dict[str, str], List[str]]:
    """Aliases + join clauses walking the join tree rooted at ``fact``.

    ``relations`` restricts the walk to the relations on paths from the
    fact to any listed relation (None joins everything).  ``join_kind``
    is ``"JOIN"`` for the baselines' materialization and ``"LEFT JOIN"``
    for scoring, where dangling keys must produce NULL feature rows.
    """
    parent_map, children, _ = rooted_tree(graph, fact)
    keep: Optional[set] = None
    if relations is not None:
        keep = set()
        for relation in relations:
            cursor: Optional[str] = relation
            while cursor is not None and cursor not in keep:
                keep.add(cursor)
                cursor = parent_map.get(cursor)
    aliases = {fact: fact_alias}
    joins: List[str] = []
    frontier = [fact]
    while frontier:
        current = frontier.pop(0)
        for child in children[current]:
            if keep is not None and child not in keep:
                continue
            aliases[child] = f"r{len(aliases)}"
            edge = edge_between(graph, current, child)
            condition = " AND ".join(
                f"{aliases[current]}.{a} = {aliases[child]}.{b}"
                for a, b in zip(edge.keys_for(current), edge.keys_for(child))
            )
            joins.append(
                f"{join_kind} {child} AS {aliases[child]} ON {condition}"
            )
            frontier.append(child)
    return aliases, joins


def _model_relations(model: object, graph: JoinGraph, fact: str) -> List[str]:
    """Relations whose columns any tree of ``model`` references."""
    trees: List[DecisionTreeModel]
    if isinstance(model, DecisionTreeModel):
        trees = [model]
    elif isinstance(model, MulticlassBoostingModel):
        trees = [t for chain in model.trees_per_class for t in chain]
    elif isinstance(model, (GradientBoostingModel, RandomForestModel)):
        trees = list(model.trees)
    else:
        raise TrainingError(f"cannot render SQL for {type(model).__name__}")
    seen: List[str] = []
    for tree in trees:
        for relation, _ in tree.referenced_attributes():
            if relation is not None and relation not in seen:
                seen.append(relation)
    return [r for r in seen if r != fact]


def scoring_select_sql(
    graph: JoinGraph,
    model: object,
    fact: str,
    fact_table: Optional[str] = None,
    select_prefix: Sequence[str] = (),
    where: Optional[str] = None,
    order_by: Optional[str] = None,
    score_alias: str = "jb_score",
) -> str:
    """The full scoring SELECT: prefix columns + the model expression,
    LEFT JOINed over exactly the relations the model references.

    ``fact_table`` substitutes a physical table (e.g. a temp copy with a
    minted row id) for the fact while keeping the graph's edges — its
    join-key and feature columns must match the fact's names.
    """
    relations = _model_relations(model, graph, fact)
    aliases, joins = join_tree_sql(
        graph, fact, relations=relations, join_kind="LEFT JOIN"
    )

    def alias_for(relation: str) -> str:
        if relation not in aliases:
            raise TrainingError(
                f"model references relation {relation!r} outside the join "
                f"tree rooted at {fact!r}"
            )
        return aliases[relation]

    expr = model_score_sql(model, alias_for)
    select_parts = list(select_prefix) + [f"{expr} AS {score_alias}"]
    source = fact_table or fact
    sql = (
        f"SELECT {', '.join(select_parts)} "
        f"FROM {source} AS {aliases[fact]} {' '.join(joins)}"
    ).rstrip()
    if where:
        sql += f" WHERE {where}"
    if order_by:
        sql += f" ORDER BY {order_by}"
    return sql


# ---------------------------------------------------------------------------
# Execution on a Connector
# ---------------------------------------------------------------------------
def _export_column(col) -> np.ndarray:
    """A stored column as arrays any connector's create_table accepts,
    with NULLs preserved (masked ints surface as NaN, STR keeps None)."""
    if col.ctype.name == "STR":
        return col.values
    if getattr(col, "valid", None) is not None:
        return col.as_float()
    return col.values


def _scoring_input_columns(
    db, graph: JoinGraph, model: object, fact: str
) -> Dict[str, np.ndarray]:
    """Fact columns the scoring query touches: join keys of every edge at
    the fact plus fact-owned referenced features."""
    table = db.table(fact)
    names = set()
    for edge in graph.edges_of(fact):
        names.update(edge.keys_for(fact))
    for tree_relation, column in _referenced_columns(model):
        if tree_relation in (None, fact) and column in table.column_names():
            names.add(column)
    return {name: _export_column(table.column(name)) for name in sorted(names)}


def _referenced_columns(model: object) -> List[Tuple[Optional[str], str]]:
    if isinstance(model, DecisionTreeModel):
        trees = [model]
    elif isinstance(model, MulticlassBoostingModel):
        trees = [t for chain in model.trees_per_class for t in chain]
    else:
        trees = list(getattr(model, "trees", []))
    out: List[Tuple[Optional[str], str]] = []
    for tree in trees:
        out.extend(tree.referenced_attributes())
    return out


def sql_scores(
    db,
    graph: JoinGraph,
    model,
    fact: Optional[str] = None,
    tag: str = "score",
) -> np.ndarray:
    """Score every fact row inside the DBMS; returns fact-row-aligned
    float64 scores.

    A temp copy of the fact's scoring columns gains a minted ``jb_sid``
    row id, so alignment survives backends that do not promise scan
    order; the copy is dropped before returning.  The scoring SELECT
    runs through ``execute_read`` — pooled reader connections on
    backends that have them — tagged with ``tag`` so fault injection
    and tracing can target serving traffic specifically.
    """
    fact = fact or graph.target_relation
    data = _scoring_input_columns(db, graph, model, fact)
    n = db.table(fact).num_rows()
    data["jb_sid"] = np.arange(n, dtype=np.int64)
    temp = db.temp_name(f"score_{fact}")
    db.create_table(temp, data)
    try:
        sql = scoring_select_sql(
            graph, model, fact,
            fact_table=temp,
            select_prefix=["t.jb_sid AS jb_sid"],
            order_by="jb_sid",
        )
        result = db.execute_read(sql, tag=tag)
        if result is None:
            raise TrainingError("scoring query returned no result")
        sid = result.column("jb_sid").values.astype(np.int64)
        scores = result.column("jb_score").as_float()
        out = np.empty(n, dtype=np.float64)
        out[sid] = scores
        return out
    finally:
        db.drop_table(temp, if_exists=True)


def score_by_key(
    db,
    graph: JoinGraph,
    model,
    keys: Mapping[str, object],
    fact: Optional[str] = None,
    extra_columns: Sequence[str] = (),
    tag: str = "score",
):
    """The online semi-join path: score the fact rows matching ``keys``.

    ``keys`` maps fact columns to values ("score user id X"); only the
    matching fact rows and the dimension rows their join keys reach are
    touched — no temp copy, no denormalization.  Returns the Relation
    with the key columns, any ``extra_columns``, and ``jb_score``.  This
    is the key path of connectors whose DBMS owns the storage and pushes
    the predicate into its own fact scan; the embedded engine answers
    the same request with :func:`repro.core.predict.gather_frame`.
    """
    fact = fact or graph.target_relation
    normalized = check_key_request(db, fact, keys, extra_columns)
    return score_by_checked_key(
        db, graph, model, normalized, fact, extra_columns, tag
    )


def score_by_checked_key(
    db,
    graph: JoinGraph,
    model,
    keys: Mapping[str, KeyValue],
    fact: str,
    extra_columns: Sequence[str],
    tag: str,
):
    """:func:`score_by_key` on keys :func:`check_key_request` already
    validated and normalized (the serving layer checks once per request)."""
    # A key no row can equal renders as ``= NULL``: never true in SQL, so
    # the DBMS itself returns the empty, correctly shaped result.
    condition = " AND ".join(
        f"t.{column} = {'NULL' if value is None else _sql_literal(value)}"
        for column, value in keys.items()
    )
    prefix = [f"t.{c} AS {c}" for c in [*keys, *extra_columns]]
    sql = scoring_select_sql(
        graph, model, fact, select_prefix=prefix, where=condition
    )
    result = db.execute_read(sql, tag=tag)
    if result is None:
        raise TrainingError("scoring query returned no result")
    return result
