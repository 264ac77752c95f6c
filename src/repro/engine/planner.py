"""Planner/interpreter for SELECT statements.

This module turns a parsed :class:`~repro.sql.ast_nodes.Select` into a
:class:`~repro.engine.result.Relation` by composing the vectorized
operators.  The pipeline is the textbook one:

    FROM (+JOINs) -> WHERE -> GROUP BY/aggregates -> HAVING
    -> window functions -> SELECT projection -> DISTINCT
    -> ORDER BY -> LIMIT

Aggregate and window calls are extracted from expressions, computed with
the grouped/window operators, and re-injected as pre-computed values via
the evaluation ``context`` (keyed by AST node id), so arbitrary arithmetic
around them — e.g. the paper's variance-reduction criterion — just works.

Execution is column-at-a-time.  A statement binds only the stored columns
whose bare names some column reference of it mentions (its *live set*; any
``*`` keeps every column, and row-layout tables bind whole records), and
every WHERE or residual-join mask becomes one selection vector that each
live column gathers by position.  ``UNION ALL`` branches with the same
FROM/JOIN/WHERE read one such frame.  A WHERE that keeps every row
leaves the frame as it is, and successive statements with the same
WHERE over the same column versions share one selection and its
gathered columns (the selection memo of
:mod:`repro.engine.encodings`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.exceptions import PlanError
from repro.sql import ast_nodes as ast
from repro.sql.expressions import Frame, evaluate
from repro.sql.functions import is_aggregate, is_window_capable
from repro.engine import operators as ops
from repro.engine.encodings import SelectionKey, Stamp
from repro.engine.result import Relation
from repro.storage.column import Column, ColumnType
from repro.storage.table import RowTable


def run_query(query: "ast.Query", db) -> Relation:
    """Execute a SELECT or a UNION ALL chain against ``db``.

    Branches whose FROM, JOINs and WHERE render to the same SQL (a fused
    split read repeats one ``items ⋈ message WHERE leaf IN (…)`` per
    feature) build and filter that frame once, binding every column any
    of them uses; each branch then groups and projects from it.  Nothing
    writes to a frame after WHERE (grouping builds a new one)."""
    if not isinstance(query, ast.UnionAll):
        return run_select(query, db)
    keys = [_frame_sql(select) for select in query.selects]
    shared: Dict[str, List[ast.Select]] = {}
    for key, select in zip(keys, query.selects):
        shared.setdefault(key, []).append(select)
    frames: Dict[str, Tuple[Frame, Dict[int, object]]] = {}
    results: List[Relation] = []
    for key, select in zip(keys, query.selects):
        if key not in frames:
            context = _new_context(db)
            live = _shared_live(shared[key])
            frames[key] = (_filtered_frame(select, db, context, live), context)
        frame, context = frames[key]
        results.append(_finish_select(select, db, frame, dict(context)))
    return concat_relations(results)


def _shared_live(selects: List[ast.Select]) -> Optional[Set[str]]:
    """The live set of a frame several branches read (``None``: all)."""
    names: Set[str] = set()
    for select in selects:
        live = live_names(select)
        if live is None:
            return None
        names |= live
    return names


def _frame_sql(select: ast.Select) -> str:
    parts = [select.source.sql() if select.source is not None else ""]
    parts += [join.sql() for join in select.joins]
    if select.where is not None:
        parts.append("WHERE " + select.where.sql())
    return " ".join(parts)


def concat_relations(relations: List[Relation]) -> Relation:
    """Bag union of branch results (UNION ALL semantics).

    Column names and order come from the first branch; branches must agree
    on column count.  Types promote INT -> FLOAT per position; a position
    mixing strings with numbers is an error (the Factorizer keeps string
    and numeric features in separate batched queries).
    """
    if not relations:
        raise PlanError("UNION ALL needs at least one branch")
    if len(relations) == 1:
        return relations[0]
    width = relations[0].num_columns
    for relation in relations[1:]:
        if relation.num_columns != width:
            raise PlanError(
                "UNION ALL branches have different column counts: "
                f"{width} vs {relation.num_columns}"
            )
    out: List[Column] = []
    for position in range(width):
        branch_cols = [r.columns()[position] for r in relations]
        out.append(_concat_columns(branch_cols))
    return Relation(out)


def _concat_columns(columns: List[Column]) -> Column:
    name = columns[0].name
    ctypes = {c.ctype for c in columns}
    if ColumnType.STR in ctypes and len(ctypes) > 1:
        raise PlanError(
            f"UNION ALL column {name!r} mixes strings with numbers"
        )
    nulls = np.concatenate([c.is_null() for c in columns])
    valid = ~nulls if nulls.any() else None
    if ctypes == {ColumnType.INT}:
        values = np.concatenate([c.values for c in columns])
        return Column(name, values, ColumnType.INT, valid)
    if ColumnType.STR in ctypes:
        values = np.concatenate([c.values.astype(object) for c in columns])
        return Column(name, values, ColumnType.STR, valid)
    # INT/FLOAT mix promotes to FLOAT; as_float() turns nulls into NaN.
    values = np.concatenate([c.as_float() for c in columns])
    return Column(name, values, ColumnType.FLOAT, valid)


def run_select(select: ast.Select, db) -> Relation:
    """Execute a SELECT against ``db`` (a :class:`~repro.engine.database.
    Database`)."""
    context = _new_context(db)
    frame = _filtered_frame(select, db, context, live_names(select))
    return _finish_select(select, db, frame, context)


def _new_context(db) -> Dict[int, object]:
    context: Dict[int, object] = {}
    # The evaluator consults the encoded-key cache (semi-join IN
    # membership over cached dictionary codes) through the context.
    context["__encodings__"] = getattr(db, "encodings", None)
    return context


def _filtered_frame(
    select: ast.Select, db, context: Dict[int, object], live: Optional[Set[str]]
) -> Frame:
    """FROM, JOINs and WHERE: the rows ``select`` reads."""
    frame = _build_from(select, db, context, live)
    return _apply_where(select, db, frame, context)


def _finish_select(
    select: ast.Select, db, frame: Frame, context: Dict[int, object]
) -> Relation:
    """Grouping, windows, projection, DISTINCT, ORDER BY and LIMIT over
    the filtered ``frame``, which is only read."""
    # Uncorrelated IN-subqueries may appear anywhere (e.g. inside the CASE
    # projections of residual updates); resolve them all up front.
    for item in select.items:
        _precompute_subqueries(item.expr, db, context)
    if select.having is not None:
        _precompute_subqueries(select.having, db, context)
    for order in select.order_by:
        _precompute_subqueries(order.expr, db, context)

    aggregates = _collect_aggregates(select)
    if select.group_by or aggregates:
        frame = _apply_grouping(select, db, frame, context, aggregates)

    _compute_windows(select, frame, context)
    out_columns = _project(select, frame, context, db.encodings)

    if select.distinct and out_columns:
        codes, _, first_idx, _ = ops.factorize([c.values for c in out_columns])
        keep = np.sort(first_idx)
        out_columns = [c.take(keep) for c in out_columns]

    out_columns = _apply_order_limit(select, frame, context, out_columns)
    return Relation(out_columns)


# ---------------------------------------------------------------------------
# FROM / JOIN
# ---------------------------------------------------------------------------
def live_names(select: ast.Select) -> Optional[Set[str]]:
    """Lower-cased bare names of every column ``select`` references.

    Covers the items, WHERE, GROUP BY, HAVING, ORDER BY, window specs,
    join conditions and ``USING`` lists; ``None`` when a ``*`` keeps every
    column.  Matching on bare names keeps ``Frame.resolve``'s ambiguity
    errors and its qualified-to-bare fallback exactly as with every column
    bound: a reference only ever resolves among columns of its bare name.
    Subqueries are planned on their own and contribute nothing here.
    """
    exprs: List[Optional[ast.Expr]] = [item.expr for item in select.items]
    exprs += [select.where, select.having, *select.group_by]
    exprs += [order.expr for order in select.order_by]
    names: Set[str] = set()
    for join in select.joins:
        exprs.append(join.condition)
        names.update(name.lower() for name in join.using or ())
    for expr in exprs:
        if expr is None:
            continue
        for node in ast.walk(expr):
            if isinstance(node, ast.Star):
                return None
            if isinstance(node, ast.ColumnRef):
                names.add(node.name.lower())
    return names


def _frame_for_table_ref(ref: ast.TableRef, db, live: Optional[Set[str]]) -> Frame:
    if ref.subquery is not None:
        relation = run_query(ref.subquery, db)
        return Frame.from_columns(relation.columns(), binding=ref.binding)
    table = db.table(ref.name)
    names = table.column_names()
    if live is not None and not isinstance(table, RowTable):
        # A row store reads whole records; a column store reads what the
        # statement uses.
        names = [name for name in names if name.lower() in live]
    frame = Frame(table.num_rows())
    for name in names:
        frame.bind(table.column(name), binding=ref.binding)
    return frame


def _build_from(
    select: ast.Select, db, context: Dict[int, object], live: Optional[Set[str]]
) -> Frame:
    if select.source is None:
        return Frame(1)  # SELECT <expr> without FROM: one row
    frame = _frame_for_table_ref(select.source, db, live)
    for join in select.joins:
        right = _frame_for_table_ref(join.table, db, live)
        frame = _apply_join(frame, right, join, db, context)
    return frame


def _split_conjuncts(expr: Optional[ast.Expr]) -> List[ast.Expr]:
    if expr is None:
        return []
    if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
        return _split_conjuncts(expr.left) + _split_conjuncts(expr.right)
    return [expr]


def _apply_join(
    left: Frame, right: Frame, join: ast.Join, db, context: Dict[int, object]
) -> Frame:
    kind = join.kind.upper()
    if kind == "CROSS":
        n_left, n_right = left.num_rows, right.num_rows
        l_idx = np.repeat(np.arange(n_left), n_right)
        r_idx = np.tile(np.arange(n_right), n_left)
        return _gather_merge(left, right, l_idx, r_idx)

    equi: List[Tuple[ast.ColumnRef, ast.ColumnRef]] = []
    residual: List[ast.Expr] = []
    if join.using:
        for name in join.using:
            equi.append((ast.ColumnRef(name), ast.ColumnRef(name)))
    else:
        for conjunct in _split_conjuncts(join.condition):
            pair = _as_equi_pair(conjunct, left, right)
            if pair is not None:
                equi.append(pair)
            else:
                residual.append(conjunct)
    if not equi:
        raise PlanError(
            "join requires at least one equality condition "
            f"(got {join.condition.sql() if join.condition else 'none'})"
        )
    # Every key goes through its encoding (cached for base and message
    # columns): the validity mask is folded into the NULL group, so a
    # NULL held only as a mask — an outer join's pad — matches nothing.
    cache = db.encodings
    left_keys = [cache.encoding_for(left.resolve(l)) for l, _ in equi]
    right_keys = [cache.encoding_for(right.resolve(r)) for _, r in equi]
    # A side whose rows all pass through in order (the fact of an N:1
    # LEFT JOIN where every key matches) is bound as it is: index None.
    l_idx: Optional[np.ndarray]
    r_idx: Optional[np.ndarray]
    if kind == "RIGHT":
        r_idx, l_idx, in_order = ops.join_rows(
            right_keys, left_keys, how="left", merges=cache.merges
        )
        if in_order:
            r_idx = None
    else:
        how = {"INNER": "inner", "LEFT": "left", "FULL": "full"}[kind]
        l_idx, r_idx, in_order = ops.join_rows(
            left_keys, right_keys, how=how, merges=cache.merges
        )
        if in_order:
            l_idx = None
    merged = _gather_merge(left, right, l_idx, r_idx, cache)
    for conjunct in residual:
        _precompute_subqueries(conjunct, db, context)
        mask = np.asarray(evaluate(conjunct, merged, context), dtype=bool)
        merged = _select_rows(merged, mask, cache)
    return merged


def _as_equi_pair(
    expr: ast.Expr, left: Frame, right: Frame
) -> Optional[Tuple[ast.ColumnRef, ast.ColumnRef]]:
    if not (
        isinstance(expr, ast.BinaryOp)
        and expr.op == "="
        and isinstance(expr.left, ast.ColumnRef)
        and isinstance(expr.right, ast.ColumnRef)
    ):
        return None
    a, b = expr.left, expr.right
    # Prefer qualified resolution to decide sides.
    if left.has(a) and right.has(b) and not (left.has(b) and right.has(a)):
        return (a, b)
    if left.has(b) and right.has(a) and not (left.has(a) and right.has(b)):
        return (b, a)
    if left.has(a) and right.has(b):
        return (a, b)
    if left.has(b) and right.has(a):
        return (b, a)
    return None


def _lookup(frame: Frame, key: str):
    # Explicit None checks: empty columns are falsy (len() == 0), so an
    # ``or`` chain would mis-resolve on empty inputs.
    col = frame._by_qualified.get(key)
    if col is None:
        col = frame._by_bare.get(key)
    return col


def _gather_merge(
    left: Frame,
    right: Frame,
    l_idx: Optional[np.ndarray],
    r_idx: Optional[np.ndarray],
    cache=None,
) -> Frame:
    """``left`` and ``right`` gathered by the join's positions (``None``:
    the side's rows as they are) into one frame."""
    merged = Frame(left.num_rows if l_idx is None else len(l_idx))
    _take_into(merged, left, l_idx, cache)
    _take_into(merged, right, r_idx, cache)
    return merged


def _take_into(
    out: Frame,
    frame: Frame,
    idx: Optional[np.ndarray],
    cache=None,
    memo: Optional[Dict[Stamp, Column]] = None,
    kept: Optional[Dict[Stamp, Column]] = None,
) -> None:
    """Bind every column of ``frame`` gathered by ``idx`` into ``out``
    (``idx`` ``None``: the columns themselves).

    The outer-join pad test (any -1 position) runs once for the whole
    side.  Pads introduce nulls the parent encoding does not describe, so
    codes only propagate through pure gathers.  ``memo`` maps a stamped
    column's ``(uid, name, version)`` to its gather by these same
    positions, which is bound instead of gathering again; ``kept``
    receives every stamped column's gather bound here.
    """
    pads = idx is not None and bool(len(idx)) and int(idx.min()) < 0
    propagate = cache is not None and not pads
    taken: Dict[int, Column] = {}
    for key in frame.order:
        col = _lookup(frame, key)
        if idx is not None:
            if id(col) not in taken:
                stamp = col.source if kept is not None else None
                got = memo.get(stamp) if memo and stamp is not None else None
                if got is None:
                    got = col.take(idx, pads=pads)
                    if propagate:
                        cache.attach_gather(got, col, idx)
                if kept is not None and stamp is not None:
                    kept[stamp] = got
                taken[id(col)] = got
            col = taken[id(col)]
        binding, _, _ = key.rpartition(".")
        out.bind(col, binding or None)


def _select_rows(frame: Frame, mask: np.ndarray, cache=None) -> Frame:
    """Keep the rows ``mask`` selects: one selection vector, then a
    positional gather of every bound column."""
    selection = np.flatnonzero(mask)
    out = Frame(len(selection))
    _take_into(out, frame, selection, cache)
    return out


# ---------------------------------------------------------------------------
# WHERE
# ---------------------------------------------------------------------------
def _precompute_subqueries(expr: Optional[ast.Expr], db, context: Dict[int, object]) -> None:
    if expr is None:
        return
    for node in ast.walk(expr):
        if isinstance(node, ast.InSubquery) and ("subq", id(node)) not in context:
            relation = run_query(node.query, db)
            if relation.num_columns != 1:
                raise PlanError("IN subquery must return exactly one column")
            context[("subq", id(node))] = relation.columns()[0].values


def _apply_where(select: ast.Select, db, frame: Frame, context: Dict[int, object]) -> Frame:
    """``frame`` cut to the rows ``select.where`` keeps; a ``WHERE`` that
    keeps every row returns ``frame`` itself.

    A ``WHERE`` with a key (:func:`_selection_key`) goes through the
    connection's selection memo: the next statement with the same key
    reuses the selection vector and every stamped column this one
    gathered by it (the four fact -> dimension messages of a batched
    round share one leaf's rows)."""
    if select.where is None:
        return frame
    cache = db.encodings
    key = _selection_key(select.where, frame)
    entry = cache.selection(key) if key is not None else None
    if entry is not None:
        _, selection, memo = entry
    else:
        _precompute_subqueries(select.where, db, context)
        mask = np.asarray(evaluate(select.where, frame, context), dtype=bool)
        selection = None if mask.all() else np.flatnonzero(mask)
        memo = {}
    out, kept = frame, memo
    if selection is not None:
        out, kept = Frame(len(selection)), {}
        _take_into(out, frame, selection, cache, memo,
                   kept if key is not None else None)
    if key is not None and (entry is None or kept.keys() != memo.keys()):
        # The entry keeps this statement's stamped columns only: its
        # memory is bounded by one statement's gathers.
        cache.remember_selection(key, selection, kept)
    return out


def _selection_key(where: ast.Expr, frame: Frame) -> Optional[SelectionKey]:
    """The selection memo's key for ``where`` over ``frame``: its SQL
    text, the frame's row count and the ``(uid, name, version)`` stamp of
    each column it reads.  ``None`` — never memoized — when it has a
    subquery (its answer is not a function of the stamps) or reads a
    column with no stamp (a derived column has no version to compare)."""
    stamps: List[Stamp] = []
    for node in ast.walk(where):
        if isinstance(node, ast.InSubquery):
            return None
        if isinstance(node, ast.ColumnRef):
            try:
                source = frame.resolve(node).source
            except PlanError:
                return None  # the evaluation raises it
            if source is None or not source[2]:
                return None
            stamps.append(source)
    return (where.sql(), frame.num_rows, tuple(stamps))


# ---------------------------------------------------------------------------
# GROUP BY / aggregates
# ---------------------------------------------------------------------------
def _collect_aggregates(select: ast.Select) -> List[ast.FuncCall]:
    """Aggregate calls in output/having/order expressions (not in windows)."""
    exprs = [item.expr for item in select.items]
    if select.having is not None:
        exprs.append(select.having)
    exprs += [order.expr for order in select.order_by]
    return _find_nodes(
        exprs, lambda node: isinstance(node, ast.FuncCall) and is_aggregate(node.name)
    )


def _find_nodes(exprs: List[ast.Expr], match) -> list:
    """The nodes of ``exprs`` that ``match``, in pre-order, descending
    into neither a match nor a window call (window aggregates are
    computed separately)."""
    found = []
    stack = list(reversed(exprs))
    while stack:
        node = stack.pop()
        if match(node):
            found.append(node)
        elif not isinstance(node, ast.WindowCall):
            stack.extend(reversed(ast.children(node)))
    return found


def _compute_aggregate(
    call: ast.FuncCall,
    codes: np.ndarray,
    ngroups: int,
    frame: Frame,
    context: Dict[int, object],
    cache,
) -> np.ndarray:
    name = call.name.lower()
    if name == "count" and call.star:
        return ops.group_count_star(codes, ngroups)
    if not call.args:
        raise PlanError(f"aggregate {name}() needs an argument")
    if name == "count" and call.distinct:
        # Over a plain column, count the codes of its (cached) encoding.
        encoding = _encoding_of(call.args[0], frame, cache)
        if encoding is not None:
            return ops.group_count_distinct_encoded(codes, ngroups, encoding)
        values = evaluate(call.args[0], frame, context)
        return ops.group_count_distinct(codes, ngroups, values)
    values = evaluate(call.args[0], frame, context)
    if name == "count":
        return ops.group_count(codes, ngroups, values)
    if name == "sum":
        sums, counts = ops.group_sum(codes, ngroups, values)
        sums[counts == 0] = np.nan
        return sums
    if name == "avg":
        sums, counts = ops.group_sum(codes, ngroups, values)
        with np.errstate(invalid="ignore", divide="ignore"):
            return sums / counts
    if name == "min":
        return ops.group_min(codes, ngroups, values)
    if name == "max":
        return ops.group_max(codes, ngroups, values)
    if name == "median":
        return ops.group_median(codes, ngroups, values)
    if name == "var":
        return ops.group_var(codes, ngroups, values)
    if name == "stddev":
        with np.errstate(invalid="ignore"):
            return np.sqrt(ops.group_var(codes, ngroups, values))
    raise PlanError(f"unsupported aggregate {name!r}")


def _apply_grouping(
    select: ast.Select,
    db,
    frame: Frame,
    context: Dict[int, object],
    aggregates: List[ast.FuncCall],
) -> Frame:
    if select.group_by:
        group_arrays: List[np.ndarray] = []
        parts: List[Tuple[np.ndarray, int, np.ndarray]] = []
        encodings: List[Optional[ops.ColumnEncoding]] = []
        for expr in select.group_by:
            # Plain column references group on their encodings (cached
            # for base tables, messages and gathers of them); anything
            # else pays the classic per-query encode.
            encoding = _encoding_of(expr, frame, db.encodings)
            array = np.asarray(evaluate(expr, frame, context))
            if encoding is None:
                parts.append(ops._column_codes(array))
            else:
                parts.append(encoding.triple())
            group_arrays.append(array)
            encodings.append(encoding)
        codes, ngroups, first_idx, _ = ops.factorize_parts(parts)
    else:
        codes = np.zeros(frame.num_rows, dtype=np.int64)
        ngroups = 1
        first_idx = np.zeros(1, dtype=np.int64) if frame.num_rows else np.zeros(0, dtype=np.int64)
        group_arrays = []
        encodings = []

    for call in aggregates:
        context[id(call)] = _compute_aggregate(
            call, codes, ngroups, frame, context, db.encodings
        )

    grouped = Frame(ngroups)
    rep_by_sql: Dict[str, np.ndarray] = {}
    for expr, array, encoding in zip(select.group_by, group_arrays, encodings):
        rep = array[first_idx] if len(first_idx) else array[:0]
        col = Column(_expr_name(expr), rep)
        if encoding is not None and col.ctype is frame.resolve(expr).ctype:
            # The group representatives' codes, in the key's dictionary:
            # a message temp's key is never re-encoded.
            col.enc = encoding.take(first_idx)
        if isinstance(expr, ast.ColumnRef):
            grouped.bind(col, binding=expr.table)
        else:
            grouped.bind(col)
        rep_by_sql[expr.sql()] = rep

    # Non-trivial group-by expressions (e.g. ``k % 2``) are matched to
    # occurrences in the output/order/having expressions by SQL text, so
    # re-evaluating them against the grouped frame is never needed.
    def tag_matches(expr: ast.Expr) -> None:
        for node in ast.walk(expr):
            if not isinstance(node, (ast.ColumnRef, ast.Literal)):
                text = node.sql()
                if text in rep_by_sql and id(node) not in context:
                    context[id(node)] = rep_by_sql[text]

    for item in select.items:
        tag_matches(item.expr)
    for order in select.order_by:
        tag_matches(order.expr)
    if select.having is not None:
        tag_matches(select.having)
    if ngroups and not select.group_by and frame.num_rows == 0:
        # Aggregates over an empty input still yield one row (SQL semantics).
        pass

    if select.having is not None:
        mask = np.asarray(evaluate(select.having, grouped, context), dtype=bool)
        grouped = _select_rows(grouped, mask, db.encodings)
        for call in aggregates:
            context[id(call)] = np.asarray(context[id(call)])[mask]
    return grouped


def _encoding_of(
    expr: ast.Expr, frame: Frame, cache
) -> Optional[ops.ColumnEncoding]:
    """The encoding of the column a plain column reference names, or
    ``None`` (no cache, not a plain column, or not in ``frame``)."""
    if cache is None or not isinstance(expr, ast.ColumnRef):
        return None
    try:
        return cache.encoding_for(frame.resolve(expr))
    except PlanError:
        return None


def _expr_name(expr: ast.Expr) -> str:
    if isinstance(expr, ast.ColumnRef):
        return expr.name
    return expr.sql()


# ---------------------------------------------------------------------------
# Window functions
# ---------------------------------------------------------------------------
def _compute_windows(select: ast.Select, frame: Frame, context: Dict[int, object]) -> None:
    exprs = [item.expr for item in select.items]
    exprs += [order.expr for order in select.order_by]
    for call in _find_nodes(exprs, lambda node: isinstance(node, ast.WindowCall)):
        if id(call) in context:
            continue
        name = call.func.name.lower()
        if not is_window_capable(name):
            raise PlanError(f"{name}() is not a supported window function")
        partition_codes = None
        if call.window.partition_by:
            arrays = [np.asarray(evaluate(e, frame, context)) for e in call.window.partition_by]
            partition_codes, _, _, _ = ops.factorize(arrays)
        order_keys = [
            (np.asarray(evaluate(o.expr, frame, context)), o.ascending)
            for o in call.window.order_by
        ]
        values = None
        if call.func.args:
            values = np.asarray(evaluate(call.func.args[0], frame, context))
        context[id(call)] = ops.window_eval(
            name, values, partition_codes, order_keys, frame.num_rows
        )


# ---------------------------------------------------------------------------
# Projection / ORDER BY / LIMIT
# ---------------------------------------------------------------------------
def _make_output_column(name: str, values: np.ndarray) -> Column:
    values = np.asarray(values)
    if values.dtype.kind == "b":
        return Column(name, values.astype(np.int64), ColumnType.INT)
    if values.dtype == object:
        return Column(name, values, ColumnType.STR)
    if values.dtype.kind in ("i", "u"):
        return Column(name, values.astype(np.int64), ColumnType.INT)
    return Column(name, values.astype(np.float64), ColumnType.FLOAT)


def _project(
    select: ast.Select, frame: Frame, context: Dict[int, object], cache
) -> List[Column]:
    out: List[Column] = []
    for index, item in enumerate(select.items):
        expr = item.expr
        if isinstance(expr, ast.Star):
            cols = (
                frame.columns_for_binding(expr.table)
                if expr.table
                else frame.all_columns()
            )
            out.extend(cols)
            continue
        values = evaluate(expr, frame, context)
        col = _make_output_column(item.output_name(index), values)
        if isinstance(expr, ast.ColumnRef) and id(expr) not in context:
            # A bare column reference holds its source's rows: it keeps
            # the source's codes unless evaluation changed its type (a
            # masked INT reads back as FLOAT).
            source = frame.resolve(expr)
            if source.ctype is col.ctype:
                cache.attach_gather(col, source)
        out.append(col)
    return out


def _apply_order_limit(
    select: ast.Select,
    frame: Frame,
    context: Dict[int, object],
    out_columns: List[Column],
) -> List[Column]:
    if select.order_by:
        # Prefer output aliases (SQL allows ORDER BY on them); fall back to
        # the pre-projection frame for expressions over source columns.
        out_frame = Frame(len(out_columns[0]) if out_columns else 0)
        for col in out_columns:
            out_frame.bind(col)
        fallback = Frame(out_frame.num_rows)
        for col in out_columns:
            fallback.bind(col)
        if frame.num_rows == fallback.num_rows:
            fallback.merge(frame)
        keys = []
        for order in select.order_by:
            try:
                values = evaluate(order.expr, out_frame, context)
            except PlanError:
                values = evaluate(order.expr, fallback, context)
            keys.append((np.asarray(values), order.ascending))
        idx = ops.sort_indices(keys, out_frame.num_rows)
        out_columns = [c.take(idx) for c in out_columns]
    if select.limit is not None:
        out_columns = [c.take(np.arange(min(select.limit, len(c)))) for c in out_columns]
    return out_columns
