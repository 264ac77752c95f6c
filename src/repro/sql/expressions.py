"""Expression evaluation over column frames.

A :class:`Frame` binds column names (qualified ``alias.col`` and, when
unambiguous, bare ``col``) to :class:`~repro.storage.column.Column` vectors
of equal length.  :func:`evaluate` interprets an expression AST against a
frame and returns a NumPy array.  A :class:`SubFrame` is some rows of a
frame, gathered per column on first use: a ``CASE`` evaluates each
``WHEN`` over the rows no earlier ``WHEN`` took and each outcome over the
rows it decides (a tree of nested ``CASE``s fills one result array, at
the top), and an ``UPDATE`` evaluates its ``SET`` over the rows its
``WHERE`` matched.

Null semantics follow SQL closely enough for the JoinBoost workload:
numeric nulls are NaN (comparisons with NaN are false, arithmetic
propagates), string nulls are ``None`` objects, and ``IS NULL`` checks the
mask/NaN.  Aggregate and window calls never reach the evaluator — the
planner rewrites them to placeholder column references first — so finding
one here is a planner bug and raises.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.exceptions import ExecutionError, PlanError
from repro.sql import ast_nodes as ast
from repro.sql.functions import call_scalar, is_aggregate
from repro.storage.column import Column, ColumnType


class Frame:
    """A bag of equal-length named columns with SQL-style name resolution."""

    def __init__(self, num_rows: int = 0):
        self.num_rows = num_rows
        self._by_qualified: Dict[str, Column] = {}
        self._by_bare: Dict[str, Column] = {}
        self._ambiguous: Set[str] = set()
        self.order: list[str] = []

    @staticmethod
    def from_columns(columns: Iterable[Column], binding: Optional[str] = None) -> "Frame":
        """A frame of ``columns``, each under the optional qualifier ``binding``."""
        cols = list(columns)
        frame = Frame(len(cols[0]) if cols else 0)
        for col in cols:
            frame.bind(col, binding)
        return frame

    def bind(self, column: Column, binding: Optional[str] = None) -> None:
        """Register a column under its bare name and optional qualifier."""
        if self.num_rows == 0 and not self.order:
            self.num_rows = len(column)
        if len(column) != self.num_rows:
            raise ExecutionError(
                f"column {column.name!r} length {len(column)} != frame {self.num_rows}"
            )
        bare = column.name.lower()
        if binding:
            self._by_qualified[f"{binding.lower()}.{bare}"] = column
        if bare in self._by_bare and self._by_bare[bare] is not column:
            self._ambiguous.add(bare)
        self._by_bare[bare] = column
        key = f"{binding.lower()}.{bare}" if binding else bare
        if key not in self.order:
            self.order.append(key)

    def merge(self, other: "Frame") -> None:
        """Merge bindings from another frame (post-join)."""
        for key, col in other._by_qualified.items():
            self._by_qualified[key] = col
        for bare, col in other._by_bare.items():
            if bare in self._by_bare and self._by_bare[bare] is not col:
                self._ambiguous.add(bare)
            self._by_bare[bare] = col
        self._ambiguous |= other._ambiguous
        self.order.extend(k for k in other.order if k not in self.order)

    def resolve(self, ref: ast.ColumnRef) -> Column:
        """The column ``ref`` names; a qualifier that names no binding
        falls back to the bare name.  Unknown or ambiguous names raise
        :class:`~repro.exceptions.PlanError`."""
        bare = ref.name.lower()
        if ref.table:
            key = f"{ref.table.lower()}.{bare}"
            col = self._by_qualified.get(key)
            if col is None:
                # Fall back to bare lookup: JoinBoost sometimes qualifies
                # columns of derived tables whose alias was rewritten.
                col = self._by_bare.get(bare)
            if col is None:
                raise PlanError(f"unknown column {ref.sql()!r}")
            return col
        if bare in self._ambiguous:
            raise PlanError(f"ambiguous column {ref.name!r}")
        col = self._by_bare.get(bare)
        if col is None:
            raise PlanError(f"unknown column {ref.name!r}")
        return col

    def has(self, ref: ast.ColumnRef) -> bool:
        """Whether ``ref`` resolves in this frame."""
        try:
            self.resolve(ref)
            return True
        except PlanError:
            return False

    def columns_for_binding(self, binding: str) -> list[Column]:
        """The columns bound under the qualifier ``binding``."""
        prefix = binding.lower() + "."
        return [c for k, c in self._by_qualified.items() if k.startswith(prefix)]

    def all_columns(self) -> list[Column]:
        """Every distinct bound column, in binding order."""
        seen: list[Column] = []
        ids = set()
        for key in self.order:
            # Explicit None check: empty columns are falsy.
            col = self._by_qualified.get(key)
            if col is None:
                col = self._by_bare.get(key)
            if col is not None and id(col) not in ids:
                ids.add(id(col))
                seen.append(col)
        return seen


class SubFrame(Frame):
    """The rows ``positions`` (ascending) of ``parent``, gathered lazily.

    A column is taken on its first :meth:`resolve` and kept; columns the
    evaluation never names are never gathered.  A sub-frame of a
    sub-frame composes the positions and gathers from the root frame.
    With an encoded-key cache, a gathered column reuses the root column's
    dictionary codes (``EncodingCache.attach_gather``), so semi-join
    membership over it stays a gather of cached codes.
    """

    def __init__(self, parent: Frame, positions: np.ndarray, cache=None):
        if isinstance(parent, SubFrame):
            positions = parent.positions[positions]
            parent = parent.parent
        super().__init__(len(positions))
        self.parent = parent
        self.positions = positions
        self._cache = cache
        self._taken: Dict[int, Column] = {}

    def resolve(self, ref: ast.ColumnRef) -> Column:
        """The parent's column ``ref`` names, gathered to these rows once."""
        col = self.parent.resolve(ref)
        taken = self._taken.get(id(col))
        if taken is None:
            taken = col.take(self.positions)
            if self._cache is not None:
                self._cache.attach_gather(taken, col, self.positions)
            self._taken[id(col)] = taken
        return taken


def restrict(
    frame: Frame, context: dict, positions: Optional[np.ndarray]
) -> Tuple[Frame, dict]:
    """``frame`` and ``context`` cut to the rows ``positions`` (ascending;
    ``None`` or every row: both unchanged).

    Per-row placeholders (aggregate and window values keyed by node id)
    are gathered with the rows; subquery value sets and scalars are
    shared as they are."""
    n = frame.num_rows
    if positions is None or len(positions) == n:
        return frame, context
    sub = SubFrame(frame, positions, context.get("__encodings__"))
    sub_context = {}
    for key, value in context.items():
        if (
            isinstance(key, int)
            and isinstance(value, np.ndarray)
            and value.ndim == 1
            and len(value) == n
        ):
            value = value[positions]
        sub_context[key] = value
    return sub, sub_context


def _to_numeric(values: np.ndarray) -> np.ndarray:
    if values.dtype == object:
        raise ExecutionError("string value used in numeric context")
    if values.dtype.kind == "b":
        return values.astype(np.float64)
    return values


def _as_bool(values: np.ndarray) -> np.ndarray:
    if values.dtype.kind == "b":
        return values
    if values.dtype == object:
        return np.array([bool(v) for v in values], dtype=bool)
    with np.errstate(invalid="ignore"):
        return np.nan_to_num(values) != 0


def _column_values(col: Column) -> np.ndarray:
    if col.ctype is ColumnType.STR:
        values = col.values
        if col.valid is not None:
            values = values.copy()
            values[~col.valid] = None
        return values
    if col.valid is not None or col.ctype is ColumnType.FLOAT:
        return col.as_float()
    return col.values


def _encoded_membership(
    operand: ast.Expr, values, frame: Frame, context: dict
) -> Optional[np.ndarray]:
    """Semi-join ``IN (SELECT ...)`` membership via cached dictionary codes.

    ``np.isin`` over a full key column is an O(n log n) sort per
    predicate; with the column's cached encoding the same answer is
    membership over the *dictionary* (cardinality-sized) gathered back
    through the per-row codes.  On a :class:`SubFrame` the parent
    column's codes are gathered to its rows; the values themselves are
    never copied.  Returns ``None`` — fall back to the plain scan — when
    no cache is active, the operand is not a plain column, or the operand
    contains nulls (the scan's null semantics are kept bit-for-bit by not
    re-implementing them here).
    """
    cache = context.get("__encodings__")
    if cache is None or not isinstance(operand, ast.ColumnRef):
        return None
    positions = None
    if isinstance(frame, SubFrame):
        positions, frame = frame.positions, frame.parent
    try:
        col = frame.resolve(operand)
    except PlanError:
        return None
    encoding = cache.encoding_for(col)
    if encoding is None or encoding.has_null:
        return None
    uniques = encoding.uniques
    probe = np.asarray(values)
    if uniques.dtype.kind in ("U", "S"):
        if probe.dtype == object:
            probe = probe[~np.asarray(probe == None, dtype=bool)]  # noqa: E711
            probe = probe.astype("U") if len(probe) else np.zeros(0, dtype="U1")
        elif probe.dtype.kind not in ("U", "S"):
            return None
    elif probe.dtype == object or probe.dtype.kind in ("U", "S"):
        return None
    present = np.zeros(encoding.cardinality, dtype=bool)
    present[: len(uniques)] = np.isin(uniques, probe)
    codes = encoding.codes
    return present[codes if positions is None else codes[positions]]


def _broadcast(value, n: int) -> np.ndarray:
    arr = np.asarray(value)
    if arr.ndim == 0:
        if arr.dtype.kind in ("U", "S"):
            out = np.empty(n, dtype=object)
            out[:] = str(arr)
            return out
        return np.full(n, arr)
    return arr


def evaluate(expr: ast.Expr, frame: Frame, context: Optional[dict] = None) -> np.ndarray:
    """Evaluate ``expr`` row-wise against ``frame``.

    ``context`` carries pre-computed values for sub-expressions the planner
    resolved ahead of time (``IN (SELECT ...)`` value sets, aggregate and
    window placeholders), keyed by the id of the AST node.
    """
    context = context or {}
    n = frame.num_rows

    if id(expr) in context:
        return _broadcast(context[id(expr)], n)

    if isinstance(expr, ast.Literal):
        return np.full(n, _constant(expr, context))

    if isinstance(expr, ast.ColumnRef):
        return _column_values(frame.resolve(expr))

    if isinstance(expr, ast.UnaryOp):
        inner = evaluate(expr.operand, frame, context)
        if expr.op == "NOT":
            return ~_as_bool(inner)
        value = _to_numeric(inner)
        return -value if expr.op == "-" else +value

    if isinstance(expr, ast.BinaryOp):
        return _eval_binary(expr, frame, context)

    if isinstance(expr, ast.FuncCall):
        if is_aggregate(expr.name):
            raise PlanError(
                f"aggregate {expr.name}() reached the row evaluator; "
                "it must be rewritten by the planner"
            )
        args = [evaluate(a, frame, context) for a in expr.args]
        return call_scalar(expr.name, *args)

    if isinstance(expr, ast.WindowCall):
        raise PlanError("window function reached the row evaluator")

    if isinstance(expr, ast.CaseExpr):
        return _eval_case(expr, frame, context)

    if isinstance(expr, ast.InList):
        operand = evaluate(expr.operand, frame, context)
        result = np.zeros(n, dtype=bool)
        for item in expr.items:
            value = _operand(item, frame, context)
            with np.errstate(invalid="ignore"):
                result |= operand == value
        return ~result if expr.negated else result

    if isinstance(expr, ast.InSubquery):
        values = context.get(("subq", id(expr)))
        if values is None:
            raise PlanError("IN subquery was not pre-computed by the planner")
        result = _encoded_membership(expr.operand, values, frame, context)
        if result is None:
            operand = evaluate(expr.operand, frame, context)
            result = np.isin(operand, values)
        return ~result if expr.negated else result

    if isinstance(expr, ast.IsNull):
        operand = evaluate(expr.operand, frame, context)
        if operand.dtype == object:
            nulls = np.array([v is None for v in operand], dtype=bool)
        elif operand.dtype.kind == "f":
            nulls = np.isnan(operand)
        else:
            nulls = np.zeros(n, dtype=bool)
        return ~nulls if expr.negated else nulls

    if isinstance(expr, ast.Between):
        operand = _to_numeric(evaluate(expr.operand, frame, context))
        low = _to_numeric(evaluate(expr.low, frame, context))
        high = _to_numeric(evaluate(expr.high, frame, context))
        with np.errstate(invalid="ignore"):
            result = (operand >= low) & (operand <= high)
        return ~result if expr.negated else result

    if isinstance(expr, ast.Cast):
        inner = evaluate(expr.operand, frame, context)
        if expr.target == "INT":
            # An integer result, as in SQL, unless a NULL (NaN) or a
            # value beyond int64 (infinities included) needs a float.
            values = np.trunc(inner.astype(np.float64))
            fits = np.abs(values) < 2.0**63
            return values.astype(np.int64) if fits.all() else values
        if expr.target == "FLOAT":
            return inner.astype(np.float64)
        out = np.empty(n, dtype=object)
        out[:] = [None if v is None else str(v) for v in inner]
        return out

    if isinstance(expr, ast.Star):
        raise PlanError("'*' is only valid in a SELECT list")

    raise PlanError(f"unsupported expression node {type(expr).__name__}")


def _constant(expr: ast.Expr, context: dict) -> Optional[np.ndarray]:
    """A literal (or a signed numeric one) as a 0-d value of the dtype its
    column would have: NULL a float NaN, a string an object.  ``None``
    when ``expr`` is no such literal or ``context`` holds it."""
    sign = None
    if isinstance(expr, ast.UnaryOp) and expr.op in ("-", "+") and id(expr) not in context:
        sign, expr = expr.op, expr.operand
    if not isinstance(expr, ast.Literal) or id(expr) in context:
        return None
    value = expr.value
    if sign is not None:
        if type(value) not in (int, float):
            return None
        number = np.float64(value) if isinstance(value, float) else np.int64(value)
        return -number if sign == "-" else number
    if value is None:
        return np.float64(np.nan)
    if isinstance(value, str):
        return np.array(value, dtype=object)
    if isinstance(value, bool):
        return np.bool_(value)
    return np.float64(value) if isinstance(value, float) else np.int64(value)


def _operand(expr: ast.Expr, frame: Frame, context: dict) -> np.ndarray:
    """A binary operator's operand or an ``IN (…)`` item: a non-string
    literal stays a 0-d scalar that numpy broadcasts, anything else is
    evaluated per row."""
    value = _constant(expr, context)
    if value is None or value.dtype == object:
        return evaluate(expr, frame, context)
    return value


def _eval_binary(expr: ast.BinaryOp, frame: Frame, context: dict) -> np.ndarray:
    """A left-deep chain ``((a op b) op c) ...`` in one loop up its spine,
    left to right: a boosting chain is as deep as it has trees.  The
    spine stops at a node ``context`` holds."""
    spine = [expr]
    node = expr.left
    while isinstance(node, ast.BinaryOp) and id(node) not in context:
        spine.append(node)
        node = node.left
    left = _operand(node, frame, context)
    for step in reversed(spine):
        right = _operand(step.right, frame, context)
        left = _apply_binary(step.op, left, right, frame.num_rows)
    return left


def _apply_binary(op: str, left: np.ndarray, right: np.ndarray, n: int) -> np.ndarray:
    if left.ndim == 0 or right.ndim == 0:
        # A scalar literal meets a numeric column; a string operand, text
        # concatenation and literal-op-literal take whole arrays.
        if left.ndim == right.ndim or op == "||" or object in (left.dtype, right.dtype):
            left, right = _broadcast(left, n), _broadcast(right, n)

    if op in ("AND", "OR"):
        left, right = _as_bool(left), _as_bool(right)
        return (left & right) if op == "AND" else (left | right)

    if op == "||":
        # NULL is None in text columns and NaN in numeric ones (x != x)
        return np.array(
            [None if a is None or b is None or a != a or b != b
             else str(a) + str(b)
             for a, b in zip(left, right)],
            dtype=object,
        )

    if op in ("=", "!=", "<", "<=", ">", ">="):
        if left.dtype == object or right.dtype == object:
            lstr = left if left.dtype == object else left.astype(object)
            rstr = right if right.dtype == object else right.astype(object)
            if op == "=":
                return np.array([a is not None and b is not None and a == b
                                 for a, b in zip(lstr, rstr)], dtype=bool)
            if op == "!=":
                return np.array([a is not None and b is not None and a != b
                                 for a, b in zip(lstr, rstr)], dtype=bool)
            comparator = {"<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
                          ">": lambda a, b: a > b, ">=": lambda a, b: a >= b}[op]
            return np.array([a is not None and b is not None and comparator(a, b)
                             for a, b in zip(lstr, rstr)], dtype=bool)
        lnum, rnum = _to_numeric(left), _to_numeric(right)
        with np.errstate(invalid="ignore"):
            if op == "=":
                return lnum == rnum
            if op == "!=":
                valid = ~(np.isnan(lnum.astype(np.float64)) | np.isnan(rnum.astype(np.float64)))
                return (lnum != rnum) & valid
            if op == "<":
                return lnum < rnum
            if op == "<=":
                return lnum <= rnum
            if op == ">":
                return lnum > rnum
            return lnum >= rnum

    lnum, rnum = _to_numeric(left), _to_numeric(right)
    with np.errstate(all="ignore"):
        if op == "+":
            return lnum + rnum
        if op == "-":
            return lnum - rnum
        if op == "*":
            return lnum * rnum
        if op == "/":
            out = np.divide(
                lnum.astype(np.float64), rnum.astype(np.float64),
            )
            return out
        if op == "%":
            return np.mod(lnum, rnum)
    raise PlanError(f"unsupported operator {op!r}")


def _eval_case(expr: ast.CaseExpr, frame: Frame, context: dict) -> np.ndarray:
    """Searched ``CASE`` over selection vectors.

    Each ``WHEN`` sees only the rows no earlier ``WHEN`` took (a NULL
    condition takes none), and each outcome and the ``ELSE`` see only the
    rows they decide — an outcome deciding no row is evaluated over zero
    rows, so the result type does not depend on the data.  A nested
    ``CASE`` outcome adds its own pieces and a literal outcome a scalar,
    so a tree of ``CASE``s writes each row once, here.  The result keeps
    SQL types: the promotion of every piece's type (integer when every
    outcome is, unless a row falls through to NULL), or object, NULL as
    ``None``, when any piece is a string."""
    pieces: List[Tuple[np.ndarray, np.ndarray]] = []
    _case_pieces(expr, frame, context, None, pieces)
    dtypes = list(dict.fromkeys(values.dtype for _, values in pieces))
    if any(dtype.kind in "OUS" for dtype in dtypes):
        result = np.empty(frame.num_rows, dtype=object)
        pieces = [(positions, as_objects(values)) for positions, values in pieces]
    else:
        result = np.empty(frame.num_rows, dtype=np.result_type(*dtypes))
    for positions, values in pieces:
        result[positions] = values
    return result


def _case_pieces(
    expr: ast.CaseExpr,
    frame: Frame,
    context: dict,
    rows: Optional[np.ndarray],
    pieces: List[Tuple[np.ndarray, np.ndarray]],
) -> None:
    """Append ``expr``'s ``(positions, values)`` pieces over the rows
    ``rows`` of ``frame`` (ascending; ``None``: every row)."""
    undecided = rows
    for cond, outcome in expr.whens:
        sub, sub_context = restrict(frame, context, undecided)
        hits = _as_bool(evaluate(cond, sub, sub_context))
        taken, rest = np.flatnonzero(hits), np.flatnonzero(~hits)
        if undecided is not None:
            taken, rest = undecided[taken], undecided[rest]
        _outcome_pieces(outcome, frame, context, taken, pieces)
        undecided = rest
    # ``rest``: the rows no WHEN took (the parser requires one WHEN)
    if expr.default is not None:
        _outcome_pieces(expr.default, frame, context, rest, pieces)
    elif len(rest):  # rows falling through to NULL
        pieces.append((rest, np.float64(np.nan)))


def _outcome_pieces(
    expr: ast.Expr,
    frame: Frame,
    context: dict,
    positions: np.ndarray,
    pieces: List[Tuple[np.ndarray, np.ndarray]],
) -> None:
    """Append the pieces of one outcome over the rows ``positions`` it
    decides: a nested ``CASE``'s own, a literal's scalar, else the
    outcome evaluated over those rows."""
    if isinstance(expr, ast.CaseExpr) and id(expr) not in context:
        _case_pieces(expr, frame, context, positions, pieces)
        return
    value = _constant(expr, context)
    if value is None:
        value = _evaluate_rows(expr, frame, context, positions)
    pieces.append((positions, value))


def _evaluate_rows(
    expr: ast.Expr, frame: Frame, context: dict, positions: np.ndarray
) -> np.ndarray:
    """``expr`` over the rows ``positions`` of ``frame``."""
    sub, sub_context = restrict(frame, context, positions)
    return evaluate(expr, sub, sub_context)


def as_objects(values: np.ndarray) -> np.ndarray:
    """Values for an object (string) column: numeric NULLs (NaN) become
    ``None``."""
    if values.dtype == object:
        return values
    if values.ndim == 0:  # a literal outcome
        return None if values.dtype.kind == "f" and np.isnan(values) else values.item()
    out = values.astype(object)
    if values.dtype.kind == "f":
        out[np.isnan(values)] = None
    return out

