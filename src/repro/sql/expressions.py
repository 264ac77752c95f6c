"""Expression evaluation over column frames.

A :class:`Frame` binds column names (qualified ``alias.col`` and, when
unambiguous, bare ``col``) to :class:`~repro.storage.column.Column` vectors
of equal length.  :func:`evaluate` interprets an expression AST against a
frame and returns a NumPy array.  A :class:`SubFrame` is some rows of a
frame, gathered per column on first use: a ``CASE`` evaluates each
``WHEN`` over the rows no earlier ``WHEN`` took and each outcome over the
rows it decides, and an ``UPDATE`` evaluates its ``SET`` over the rows its
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
        try:
            self.resolve(ref)
            return True
        except PlanError:
            return False

    def columns_for_binding(self, binding: str) -> list[Column]:
        prefix = binding.lower() + "."
        return [c for k, c in self._by_qualified.items() if k.startswith(prefix)]

    def all_columns(self) -> list[Column]:
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
    through the per-row codes.  Returns ``None`` — fall back to the plain
    scan — when no cache is active, the operand is not a plain column, or
    the operand contains nulls (the scan's null semantics are kept
    bit-for-bit by not re-implementing them here).
    """
    cache = context.get("__encodings__")
    if cache is None or not isinstance(operand, ast.ColumnRef):
        return None
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
    return present[encoding.codes]


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
        if expr.value is None:
            return np.full(n, np.nan)
        if isinstance(expr.value, str):
            out = np.empty(n, dtype=object)
            out[:] = expr.value
            return out
        if isinstance(expr.value, bool):
            return np.full(n, expr.value, dtype=bool)
        return np.full(n, expr.value, dtype=np.float64 if isinstance(expr.value, float) else np.int64)

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
            value = evaluate(item, frame, context)
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
            with np.errstate(invalid="ignore"):
                return np.where(np.isnan(inner.astype(np.float64)), np.nan,
                                np.trunc(inner.astype(np.float64)))
        if expr.target == "FLOAT":
            return inner.astype(np.float64)
        out = np.empty(n, dtype=object)
        out[:] = [None if v is None else str(v) for v in inner]
        return out

    if isinstance(expr, ast.Star):
        raise PlanError("'*' is only valid in a SELECT list")

    raise PlanError(f"unsupported expression node {type(expr).__name__}")


def _eval_binary(expr: ast.BinaryOp, frame: Frame, context: dict) -> np.ndarray:
    op = expr.op
    if op in ("AND", "OR"):
        left = _as_bool(evaluate(expr.left, frame, context))
        right = _as_bool(evaluate(expr.right, frame, context))
        return (left & right) if op == "AND" else (left | right)

    left = evaluate(expr.left, frame, context)
    right = evaluate(expr.right, frame, context)

    if op == "||":
        return np.array(
            [None if a is None or b is None else str(a) + str(b)
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
    rows, so the result type does not depend on the data.  The result
    keeps SQL types: integer when every outcome is, unless a row falls
    through to NULL (no ``ELSE``); object, NULL as ``None``, when any
    outcome is a string."""
    n = frame.num_rows
    undecided: Optional[np.ndarray] = None  # None: every row
    pieces: List[Tuple[np.ndarray, np.ndarray]] = []
    for cond, outcome in expr.whens:
        sub, sub_context = restrict(frame, context, undecided)
        hits = _as_bool(evaluate(cond, sub, sub_context))
        taken, rest = np.flatnonzero(hits), np.flatnonzero(~hits)
        if undecided is not None:
            taken, rest = undecided[taken], undecided[rest]
        pieces.append((taken, _evaluate_rows(outcome, frame, context, taken)))
        undecided = rest
    # ``rest``: the rows no WHEN took (the parser requires one WHEN)
    if expr.default is not None:
        pieces.append((rest, _evaluate_rows(expr.default, frame, context, rest)))
    elif len(rest):  # rows falling through to NULL
        pieces.append((rest, np.full(len(rest), np.nan)))
    dtypes = [values.dtype for _, values in pieces]
    if any(dtype.kind in "OUS" for dtype in dtypes):
        result = np.empty(n, dtype=object)
        pieces = [(positions, as_objects(values)) for positions, values in pieces]
    else:
        result = np.empty(n, dtype=np.result_type(*dtypes))
    for positions, values in pieces:
        result[positions] = values
    return result


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
    out = values.astype(object)
    if values.dtype.kind == "f":
        out[np.isnan(values)] = None
    return out

