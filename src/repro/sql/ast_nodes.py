"""AST node definitions for the JoinBoost SQL subset.

Every node is a frozen-ish dataclass with a ``sql()`` pretty-printer; the
parser and the pretty-printer round-trip (property-tested), which keeps the
generated SQL debuggable and portable.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, List, Optional, Tuple, Union


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------
class Expr:
    """Base class for expression nodes."""

    def sql(self) -> str:
        """The node as SQL text; parsing it gives the node back."""
        raise NotImplementedError

    def __str__(self) -> str:
        return self.sql()


@dataclasses.dataclass
class Literal(Expr):
    """A constant: a number, a string, a boolean or NULL (``None``)."""

    value: Union[int, float, str, bool, None]

    def sql(self) -> str:
        """The node as SQL text."""
        if self.value is None:
            return "NULL"
        if isinstance(self.value, bool):
            return "TRUE" if self.value else "FALSE"
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        return repr(self.value)


@dataclasses.dataclass
class ColumnRef(Expr):
    """A column, optionally qualified by a table binding."""

    name: str
    table: Optional[str] = None

    def sql(self) -> str:
        """The node as SQL text."""
        return f"{self.table}.{self.name}" if self.table else self.name

    @property
    def qualified(self) -> str:
        """The lower-cased ``table.name`` (``name`` when unqualified)."""
        return self.sql().lower()


@dataclasses.dataclass
class Star(Expr):
    """``*`` or ``t.*`` in a SELECT list."""

    table: Optional[str] = None

    def sql(self) -> str:
        """The node as SQL text."""
        return f"{self.table}.*" if self.table else "*"


@dataclasses.dataclass
class UnaryOp(Expr):
    """A prefix ``-``, ``+`` or ``NOT``."""

    op: str  # '-', '+', 'NOT'
    operand: Expr

    def sql(self) -> str:
        """The node as SQL text."""
        if self.op == "NOT":
            return f"NOT ({self.operand.sql()})"
        return f"{self.op}({self.operand.sql()})"


@dataclasses.dataclass
class BinaryOp(Expr):
    """An infix operator: arithmetic, comparison, ``||``, ``AND`` / ``OR``."""

    op: str  # arithmetic, comparison, AND/OR
    left: Expr
    right: Expr

    def sql(self) -> str:
        """The node as SQL text, rendered in a loop down the left spine:
        a ``((a + b) + c)`` chain is as deep as it is long."""
        spine = []
        node: Expr = self
        while isinstance(node, BinaryOp):
            spine.append(node)
            node = node.left
        parts = ["(" * len(spine), node.sql()]
        for op in reversed(spine):
            parts.append(f" {op.op} {op.right.sql()})")
        return "".join(parts)


@dataclasses.dataclass
class FuncCall(Expr):
    """A scalar or aggregate function call (``COUNT(*)`` sets ``star``)."""

    name: str
    args: List[Expr]
    distinct: bool = False
    star: bool = False  # COUNT(*)

    def sql(self) -> str:
        """The node as SQL text."""
        if self.star:
            inner = "*"
        else:
            inner = ", ".join(a.sql() for a in self.args)
            if self.distinct:
                inner = f"DISTINCT {inner}"
        return f"{self.name.upper()}({inner})"


@dataclasses.dataclass
class WindowSpec:
    """The ``OVER (PARTITION BY … ORDER BY …)`` clause of a window call."""

    partition_by: List[Expr] = dataclasses.field(default_factory=list)
    order_by: List["OrderItem"] = dataclasses.field(default_factory=list)

    def sql(self) -> str:
        """The clause as SQL text."""
        parts = []
        if self.partition_by:
            parts.append("PARTITION BY " + ", ".join(e.sql() for e in self.partition_by))
        if self.order_by:
            parts.append("ORDER BY " + ", ".join(o.sql() for o in self.order_by))
        return "OVER (" + " ".join(parts) + ")"


@dataclasses.dataclass
class WindowCall(Expr):
    """A function evaluated over a window."""

    func: FuncCall
    window: WindowSpec

    def sql(self) -> str:
        """The node as SQL text."""
        return f"{self.func.sql()} {self.window.sql()}"


@dataclasses.dataclass
class CaseExpr(Expr):
    """A searched ``CASE WHEN … THEN … [ELSE …] END``."""

    whens: List[Tuple[Expr, Expr]]
    default: Optional[Expr] = None

    def sql(self) -> str:
        """The node as SQL text."""
        parts = ["CASE"]
        for cond, result in self.whens:
            parts.append(f"WHEN {cond.sql()} THEN {result.sql()}")
        if self.default is not None:
            parts.append(f"ELSE {self.default.sql()}")
        parts.append("END")
        return " ".join(parts)


@dataclasses.dataclass
class InList(Expr):
    """``x [NOT] IN (a, b, …)`` over a list of expressions."""

    operand: Expr
    items: List[Expr]
    negated: bool = False

    def sql(self) -> str:
        """The node as SQL text."""
        op = "NOT IN" if self.negated else "IN"
        inner = ", ".join(i.sql() for i in self.items)
        return f"({self.operand.sql()} {op} ({inner}))"


@dataclasses.dataclass
class InSubquery(Expr):
    """``x [NOT] IN (SELECT …)``."""

    operand: Expr
    query: "Query"
    negated: bool = False

    def sql(self) -> str:
        """The node as SQL text."""
        op = "NOT IN" if self.negated else "IN"
        return f"({self.operand.sql()} {op} ({self.query.sql()}))"


@dataclasses.dataclass
class IsNull(Expr):
    """``x IS [NOT] NULL``."""

    operand: Expr
    negated: bool = False

    def sql(self) -> str:
        """The node as SQL text."""
        op = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand.sql()} {op})"


@dataclasses.dataclass
class Between(Expr):
    """``x [NOT] BETWEEN low AND high``."""

    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False

    def sql(self) -> str:
        """The node as SQL text."""
        op = "NOT BETWEEN" if self.negated else "BETWEEN"
        return f"({self.operand.sql()} {op} {self.low.sql()} AND {self.high.sql()})"


@dataclasses.dataclass
class Cast(Expr):
    """``CAST(x AS INT | FLOAT | STR)``."""

    operand: Expr
    target: str  # 'INT' | 'FLOAT' | 'STR'

    def sql(self) -> str:
        """The node as SQL text."""
        return f"CAST({self.operand.sql()} AS {self.target})"


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------
@dataclasses.dataclass
class SelectItem:
    """One SELECT-list entry and its optional alias."""

    expr: Expr
    alias: Optional[str] = None

    def sql(self) -> str:
        """The clause as SQL text."""
        if self.alias:
            return f"{self.expr.sql()} AS {self.alias}"
        return self.expr.sql()

    def output_name(self, index: int) -> str:
        """The result column's name: the alias, a bare column's own name,
        else ``col<index>``."""
        if self.alias:
            return self.alias
        if isinstance(self.expr, ColumnRef):
            return self.expr.name
        return f"col{index}"


@dataclasses.dataclass
class OrderItem:
    """One ORDER BY key and its direction."""

    expr: Expr
    ascending: bool = True

    def sql(self) -> str:
        """The clause as SQL text."""
        return f"{self.expr.sql()} {'ASC' if self.ascending else 'DESC'}"


@dataclasses.dataclass
class TableRef:
    """A named table or a derived table (subquery) with an optional alias."""

    name: Optional[str] = None
    subquery: Optional["Query"] = None
    alias: Optional[str] = None

    def sql(self) -> str:
        """The clause as SQL text."""
        base = f"({self.subquery.sql()})" if self.subquery is not None else str(self.name)
        return f"{base} AS {self.alias}" if self.alias else base

    @property
    def binding(self) -> Optional[str]:
        """The name the table is referred to by: its alias, else its name."""
        return self.alias or self.name


@dataclasses.dataclass
class Join:
    """A JOIN clause: its kind, its table and an ``ON`` condition or a ``USING`` list."""

    table: TableRef
    kind: str = "INNER"  # INNER | LEFT | RIGHT | FULL | CROSS
    condition: Optional[Expr] = None
    using: Optional[List[str]] = None

    def sql(self) -> str:
        """The clause as SQL text."""
        head = f"{self.kind} JOIN {self.table.sql()}"
        if self.using:
            return f"{head} USING ({', '.join(self.using)})"
        if self.condition is not None:
            return f"{head} ON {self.condition.sql()}"
        return head


@dataclasses.dataclass
class Select:
    """A SELECT statement."""

    items: List[SelectItem]
    source: Optional[TableRef] = None
    joins: List[Join] = dataclasses.field(default_factory=list)
    where: Optional[Expr] = None
    group_by: List[Expr] = dataclasses.field(default_factory=list)
    having: Optional[Expr] = None
    order_by: List[OrderItem] = dataclasses.field(default_factory=list)
    limit: Optional[int] = None
    distinct: bool = False

    def sql(self) -> str:
        """The statement as SQL text."""
        parts = ["SELECT"]
        if self.distinct:
            parts.append("DISTINCT")
        parts.append(", ".join(i.sql() for i in self.items))
        if self.source is not None:
            parts.append("FROM " + self.source.sql())
        for join in self.joins:
            parts.append(join.sql())
        if self.where is not None:
            parts.append("WHERE " + self.where.sql())
        if self.group_by:
            parts.append("GROUP BY " + ", ".join(e.sql() for e in self.group_by))
        if self.having is not None:
            parts.append("HAVING " + self.having.sql())
        if self.order_by:
            parts.append("ORDER BY " + ", ".join(o.sql() for o in self.order_by))
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
        return " ".join(parts)


@dataclasses.dataclass
class UnionAll:
    """Bag union of two or more SELECTs (the batched split-query shape).

    Only ``UNION ALL`` is modelled: the Factorizer's per-feature branches
    are disjoint by construction (each carries a distinct discriminator
    literal), so distinct-union semantics are never needed.
    """

    selects: List[Select]

    def sql(self) -> str:
        """The statement as SQL text."""
        return " UNION ALL ".join(s.sql() for s in self.selects)


#: anything that produces rows: a plain SELECT or a UNION ALL of them
Query = Union[Select, "UnionAll"]


@dataclasses.dataclass
class CreateTableAs:
    """``CREATE [OR REPLACE] TABLE name AS <query>``."""

    name: str
    query: Query
    replace: bool = False

    def sql(self) -> str:
        """The statement as SQL text."""
        head = "CREATE OR REPLACE TABLE" if self.replace else "CREATE TABLE"
        return f"{head} {self.name} AS {self.query.sql()}"


@dataclasses.dataclass
class DropTable:
    """``DROP TABLE [IF EXISTS] name``."""

    name: str
    if_exists: bool = False

    def sql(self) -> str:
        """The statement as SQL text."""
        mid = "IF EXISTS " if self.if_exists else ""
        return f"DROP TABLE {mid}{self.name}"


@dataclasses.dataclass
class Update:
    """``UPDATE table SET col = expr, … [WHERE …]``."""

    table: str
    assignments: List[Tuple[str, Expr]]
    where: Optional[Expr] = None

    def sql(self) -> str:
        """The statement as SQL text."""
        sets = ", ".join(f"{c} = {e.sql()}" for c, e in self.assignments)
        tail = f" WHERE {self.where.sql()}" if self.where is not None else ""
        return f"UPDATE {self.table} SET {sets}{tail}"


Statement = Union[Select, UnionAll, CreateTableAs, DropTable, Update]


def _case_children(expr: CaseExpr) -> Tuple[Expr, ...]:
    nested = [e for pair in expr.whens for e in pair]
    if expr.default is not None:
        nested.append(expr.default)
    return tuple(nested)


_CHILDREN = {
    BinaryOp: lambda e: (e.left, e.right),
    UnaryOp: lambda e: (e.operand,),
    InSubquery: lambda e: (e.operand,),
    IsNull: lambda e: (e.operand,),
    Cast: lambda e: (e.operand,),
    FuncCall: lambda e: tuple(e.args),
    WindowCall: lambda e: (
        *e.func.args, *e.window.partition_by, *(o.expr for o in e.window.order_by)
    ),
    CaseExpr: _case_children,
    InList: lambda e: (e.operand, *e.items),
    Between: lambda e: (e.operand, e.low, e.high),
}


def children(expr: Expr) -> Tuple[Expr, ...]:
    """The direct sub-expressions of ``expr``, in source order.

    A window call's children are its function arguments, then its
    ``PARTITION BY`` and ``ORDER BY`` expressions; a subquery is planned
    on its own, so only the operand of ``IN (SELECT ...)`` is a child."""
    of = _CHILDREN.get(type(expr))
    return of(expr) if of is not None else ()


def walk(expr: Expr) -> Iterator[Expr]:
    """Yield ``expr`` and all nested sub-expressions (pre-order).

    An explicit stack, so a deep expression (a boosting chain of a
    thousand trees is a left spine a thousand ``+`` deep) costs time
    linear in its nodes and no recursion."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))
