"""Recursive-descent parser for the JoinBoost SQL subset.

Grammar (informal)::

    statement   := query | create | drop | update
    query       := select (UNION ALL select)*
    create      := CREATE [OR REPLACE] TABLE name AS query
    drop        := DROP TABLE [IF EXISTS] name
    update      := UPDATE name SET col '=' expr (',' col '=' expr)* [WHERE expr]
    select      := SELECT [DISTINCT] items FROM table_ref join* [WHERE expr]
                   [GROUP BY exprs] [HAVING expr] [ORDER BY order_items]
                   [LIMIT int]
    join        := [INNER|LEFT [OUTER]|RIGHT [OUTER]|FULL [OUTER]|CROSS] JOIN
                   table_ref (ON expr | USING '(' names ')')
    table_ref   := name [[AS] alias] | '(' select ')' [[AS] alias]

Expressions support arithmetic, comparisons, AND/OR/NOT, IN (list or
subquery), IS [NOT] NULL, BETWEEN, CASE, CAST, function calls and window
functions with ``OVER (PARTITION BY ... ORDER BY ...)``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from repro.exceptions import ParseError
from repro.sql import ast_nodes as ast
from repro.sql.tokenizer import Token, TokenType, tokenize

_JOIN_KINDS = {"INNER", "LEFT", "RIGHT", "FULL", "CROSS"}
_COMPARISONS = {"=", "==", "!=", "<>", "<", "<=", ">", ">="}


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0

    # -- token helpers ---------------------------------------------------
    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.type is not TokenType.EOF:
            self.pos += 1
        return token

    def accept_keyword(self, *words: str) -> Optional[str]:
        token = self.peek()
        if token.type is TokenType.KEYWORD and token.value in words:
            self.advance()
            return token.value
        return None

    def expect_keyword(self, word: str) -> None:
        if not self.accept_keyword(word):
            raise ParseError(f"expected {word}, got {self.peek().value!r}", self.peek())

    def accept_punct(self, char: str) -> bool:
        if self.peek().matches(TokenType.PUNCT, char):
            self.advance()
            return True
        return False

    def expect_punct(self, char: str) -> None:
        if not self.accept_punct(char):
            raise ParseError(f"expected {char!r}, got {self.peek().value!r}", self.peek())

    def accept_operator(self, *ops: str) -> Optional[str]:
        token = self.peek()
        if token.type is TokenType.OPERATOR and token.value in ops:
            self.advance()
            return token.value
        return None

    def expect_identifier(self) -> str:
        token = self.peek()
        if token.type is TokenType.IDENT:
            self.advance()
            return token.value
        raise ParseError(f"expected identifier, got {token.value!r}", token)

    # -- statements --------------------------------------------------------
    def parse_statement(self) -> ast.Statement:
        token = self.peek()
        if token.matches(TokenType.KEYWORD, "SELECT"):
            return self.parse_query()
        if token.matches(TokenType.KEYWORD, "CREATE"):
            return self.parse_create()
        if token.matches(TokenType.KEYWORD, "DROP"):
            return self.parse_drop()
        if token.matches(TokenType.KEYWORD, "UPDATE"):
            return self.parse_update()
        raise ParseError(f"unsupported statement start {token.value!r}", token)

    def parse_create(self) -> ast.CreateTableAs:
        self.expect_keyword("CREATE")
        replace = False
        if self.accept_keyword("OR"):
            self.expect_keyword("REPLACE")
            replace = True
        self.expect_keyword("TABLE")
        name = self.expect_identifier()
        self.expect_keyword("AS")
        query = self.parse_query()
        return ast.CreateTableAs(name=name, query=query, replace=replace)

    def parse_drop(self) -> ast.DropTable:
        self.expect_keyword("DROP")
        self.expect_keyword("TABLE")
        if_exists = False
        if self.accept_keyword("IF"):
            self.expect_keyword("EXISTS")
            if_exists = True
        return ast.DropTable(name=self.expect_identifier(), if_exists=if_exists)

    def parse_update(self) -> ast.Update:
        self.expect_keyword("UPDATE")
        table = self.expect_identifier()
        self.expect_keyword("SET")
        assignments: List[Tuple[str, ast.Expr]] = []
        while True:
            column = self.expect_identifier()
            if not self.accept_operator("=", "=="):
                raise ParseError("expected '=' in UPDATE SET", self.peek())
            assignments.append((column, self.parse_expr()))
            if not self.accept_punct(","):
                break
        where = None
        if self.accept_keyword("WHERE"):
            where = self.parse_expr()
        return ast.Update(table=table, assignments=assignments, where=where)

    def parse_query(self) -> "ast.Query":
        """A SELECT, or a ``UNION ALL`` chain of SELECTs.

        The engine supports bag union only (the Factorizer's batched
        split queries never need duplicate elimination); a bare ``UNION``
        is rejected rather than silently reinterpreted.
        """
        first = self.parse_select()
        if not self.peek().matches(TokenType.KEYWORD, "UNION"):
            return first
        selects = [first]
        while self.accept_keyword("UNION"):
            if not self.accept_keyword("ALL"):
                raise ParseError(
                    "only UNION ALL is supported (bag union)", self.peek()
                )
            selects.append(self.parse_select())
        return ast.UnionAll(selects=selects)

    def parse_select(self) -> ast.Select:
        self.expect_keyword("SELECT")
        distinct = bool(self.accept_keyword("DISTINCT"))
        self.accept_keyword("ALL")
        items = [self.parse_select_item()]
        while self.accept_punct(","):
            items.append(self.parse_select_item())
        source = None
        joins: List[ast.Join] = []
        if self.accept_keyword("FROM"):
            source = self.parse_table_ref()
            while True:
                join = self.try_parse_join()
                if join is None:
                    break
                joins.append(join)
        where = self.parse_expr() if self.accept_keyword("WHERE") else None
        group_by: List[ast.Expr] = []
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            group_by.append(self.parse_expr())
            while self.accept_punct(","):
                group_by.append(self.parse_expr())
        having = self.parse_expr() if self.accept_keyword("HAVING") else None
        order_by: List[ast.OrderItem] = []
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            order_by.append(self.parse_order_item())
            while self.accept_punct(","):
                order_by.append(self.parse_order_item())
        limit = None
        if self.accept_keyword("LIMIT"):
            token = self.advance()
            if token.type is not TokenType.NUMBER:
                raise ParseError("LIMIT expects a number", token)
            limit = int(float(token.value))
        return ast.Select(
            items=items, source=source, joins=joins, where=where,
            group_by=group_by, having=having, order_by=order_by,
            limit=limit, distinct=distinct,
        )

    def parse_select_item(self) -> ast.SelectItem:
        token = self.peek()
        if token.matches(TokenType.OPERATOR, "*"):
            self.advance()
            return ast.SelectItem(expr=ast.Star())
        if (
            token.type is TokenType.IDENT
            and self.peek(1).matches(TokenType.PUNCT, ".")
            and self.peek(2).matches(TokenType.OPERATOR, "*")
        ):
            self.advance(), self.advance(), self.advance()
            return ast.SelectItem(expr=ast.Star(table=token.value))
        expr = self.parse_expr()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_identifier()
        elif self.peek().type is TokenType.IDENT:
            alias = self.expect_identifier()
        return ast.SelectItem(expr=expr, alias=alias)

    def parse_order_item(self) -> ast.OrderItem:
        expr = self.parse_expr()
        ascending = True
        if self.accept_keyword("DESC"):
            ascending = False
        else:
            self.accept_keyword("ASC")
        if self.accept_keyword("NULLS"):
            if not (self.accept_keyword("FIRST") or self.accept_keyword("LAST")):
                raise ParseError("expected FIRST or LAST after NULLS", self.peek())
        return ast.OrderItem(expr=expr, ascending=ascending)

    def parse_table_ref(self) -> ast.TableRef:
        if self.accept_punct("("):
            subquery = self.parse_query()
            self.expect_punct(")")
            alias = None
            if self.accept_keyword("AS"):
                alias = self.expect_identifier()
            elif self.peek().type is TokenType.IDENT:
                alias = self.expect_identifier()
            return ast.TableRef(subquery=subquery, alias=alias)
        name = self.expect_identifier()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_identifier()
        elif self.peek().type is TokenType.IDENT:
            alias = self.expect_identifier()
        return ast.TableRef(name=name, alias=alias)

    def try_parse_join(self) -> Optional[ast.Join]:
        token = self.peek()
        kind = "INNER"
        consumed = 0
        if token.type is TokenType.KEYWORD and token.value in _JOIN_KINDS:
            kind = token.value
            consumed = 1
            if self.peek(1).matches(TokenType.KEYWORD, "OUTER"):
                consumed = 2
            if not self.peek(consumed).matches(TokenType.KEYWORD, "JOIN"):
                return None
            for _ in range(consumed):
                self.advance()
            self.advance()  # JOIN
        elif token.matches(TokenType.KEYWORD, "JOIN"):
            self.advance()
        elif self.accept_punct(","):
            # Comma join = cross product with the condition in WHERE.
            return ast.Join(table=self.parse_table_ref(), kind="CROSS")
        else:
            return None
        table = self.parse_table_ref()
        if kind == "CROSS":
            return ast.Join(table=table, kind=kind)
        if self.accept_keyword("USING"):
            self.expect_punct("(")
            names = [self.expect_identifier()]
            while self.accept_punct(","):
                names.append(self.expect_identifier())
            self.expect_punct(")")
            return ast.Join(table=table, kind=kind, using=names)
        self.expect_keyword("ON")
        return ast.Join(table=table, kind=kind, condition=self.parse_expr())

    # -- expressions -------------------------------------------------------
    def parse_expr(self) -> ast.Expr:
        return self.parse_or()

    def parse_or(self) -> ast.Expr:
        left = self.parse_and()
        while self.accept_keyword("OR"):
            left = ast.BinaryOp("OR", left, self.parse_and())
        return left

    def parse_and(self) -> ast.Expr:
        left = self.parse_not()
        while self.accept_keyword("AND"):
            left = ast.BinaryOp("AND", left, self.parse_not())
        return left

    def parse_not(self) -> ast.Expr:
        if self.accept_keyword("NOT"):
            return ast.UnaryOp("NOT", self.parse_not())
        return self.parse_comparison()

    def parse_comparison(self) -> ast.Expr:
        left = self.parse_additive()
        op = self.accept_operator(*_COMPARISONS)
        if op is not None:
            normalized = {"==": "=", "<>": "!="}.get(op, op)
            return ast.BinaryOp(normalized, left, self.parse_additive())
        negated = False
        if self.peek().matches(TokenType.KEYWORD, "NOT") and self.peek(1).value in (
            "IN",
            "BETWEEN",
            "LIKE",
        ):
            self.advance()
            negated = True
        if self.accept_keyword("IS"):
            is_not = bool(self.accept_keyword("NOT"))
            self.expect_keyword("NULL")
            return ast.IsNull(left, negated=is_not)
        if self.accept_keyword("IN"):
            self.expect_punct("(")
            if self.peek().matches(TokenType.KEYWORD, "SELECT"):
                query = self.parse_query()
                self.expect_punct(")")
                return ast.InSubquery(left, query, negated=negated)
            items = [self.parse_expr()]
            while self.accept_punct(","):
                items.append(self.parse_expr())
            self.expect_punct(")")
            return ast.InList(left, items, negated=negated)
        if self.accept_keyword("BETWEEN"):
            low = self.parse_additive()
            self.expect_keyword("AND")
            high = self.parse_additive()
            return ast.Between(left, low, high, negated=negated)
        return left

    def parse_additive(self) -> ast.Expr:
        left = self.parse_multiplicative()
        while True:
            op = self.accept_operator("+", "-", "||")
            if op is None:
                return left
            left = ast.BinaryOp(op, left, self.parse_multiplicative())

    def parse_multiplicative(self) -> ast.Expr:
        left = self.parse_unary()
        while True:
            op = self.accept_operator("*", "/", "%")
            if op is None:
                return left
            left = ast.BinaryOp(op, left, self.parse_unary())

    def parse_unary(self) -> ast.Expr:
        op = self.accept_operator("-", "+")
        if op is not None:
            return ast.UnaryOp(op, self.parse_unary())
        return self.parse_primary()

    def parse_primary(self) -> ast.Expr:
        token = self.peek()
        if token.type is TokenType.NUMBER:
            self.advance()
            return ast.Literal(number_literal(token.value))
        if token.type is TokenType.STRING:
            self.advance()
            return ast.Literal(token.value)
        if token.matches(TokenType.KEYWORD, "NULL"):
            self.advance()
            return ast.Literal(None)
        if token.matches(TokenType.KEYWORD, "TRUE"):
            self.advance()
            return ast.Literal(True)
        if token.matches(TokenType.KEYWORD, "FALSE"):
            self.advance()
            return ast.Literal(False)
        if token.matches(TokenType.KEYWORD, "CASE"):
            return self.parse_case()
        if token.matches(TokenType.KEYWORD, "CAST"):
            return self.parse_cast()
        if self.accept_punct("("):
            expr = self.parse_expr()
            self.expect_punct(")")
            return expr
        if token.type is TokenType.IDENT:
            return self.parse_identifier_expr()
        raise ParseError(f"unexpected token {token.value!r}", token)

    def parse_case(self) -> ast.CaseExpr:
        self.expect_keyword("CASE")
        whens: List[Tuple[ast.Expr, ast.Expr]] = []
        while self.accept_keyword("WHEN"):
            cond = self.parse_expr()
            self.expect_keyword("THEN")
            whens.append((cond, self.parse_expr()))
        default = self.parse_expr() if self.accept_keyword("ELSE") else None
        self.expect_keyword("END")
        if not whens:
            raise ParseError("CASE requires at least one WHEN", self.peek())
        return ast.CaseExpr(whens=whens, default=default)

    def parse_cast(self) -> ast.Cast:
        self.expect_keyword("CAST")
        self.expect_punct("(")
        operand = self.parse_expr()
        self.expect_keyword("AS")
        target = self.expect_identifier().upper()
        self.expect_punct(")")
        aliases = {
            "INT": "INT", "INTEGER": "INT", "BIGINT": "INT",
            "FLOAT": "FLOAT", "DOUBLE": "FLOAT", "REAL": "FLOAT",
            "VARCHAR": "STR", "TEXT": "STR", "STR": "STR",
        }
        if target not in aliases:
            raise ParseError(f"unsupported CAST target {target}", self.peek())
        return ast.Cast(operand, aliases[target])

    def parse_identifier_expr(self) -> ast.Expr:
        name = self.expect_identifier()
        if self.accept_punct("."):
            column = self.expect_identifier()
            return ast.ColumnRef(name=column, table=name)
        if self.peek().matches(TokenType.PUNCT, "("):
            return self.parse_func_call(name)
        return ast.ColumnRef(name=name)

    def parse_func_call(self, name: str) -> ast.Expr:
        self.expect_punct("(")
        star = False
        distinct = False
        args: List[ast.Expr] = []
        if self.peek().matches(TokenType.OPERATOR, "*"):
            self.advance()
            star = True
        elif not self.peek().matches(TokenType.PUNCT, ")"):
            distinct = bool(self.accept_keyword("DISTINCT"))
            args.append(self.parse_expr())
            while self.accept_punct(","):
                args.append(self.parse_expr())
        self.expect_punct(")")
        call = ast.FuncCall(name=name.lower(), args=args, distinct=distinct, star=star)
        if self.accept_keyword("OVER"):
            self.expect_punct("(")
            spec = ast.WindowSpec()
            if self.accept_keyword("PARTITION"):
                self.expect_keyword("BY")
                spec.partition_by.append(self.parse_expr())
                while self.accept_punct(","):
                    spec.partition_by.append(self.parse_expr())
            if self.accept_keyword("ORDER"):
                self.expect_keyword("BY")
                spec.order_by.append(self.parse_order_item())
                while self.accept_punct(","):
                    spec.order_by.append(self.parse_order_item())
            # Accept and ignore the default ROWS frame clause.
            if self.accept_keyword("ROWS"):
                while not self.peek().matches(TokenType.PUNCT, ")"):
                    self.advance()
            self.expect_punct(")")
            return ast.WindowCall(func=call, window=spec)
        return call


def number_literal(text: str) -> Union[int, float]:
    """The value of a NUMBER token: a float when it has a dot or an exponent."""
    if "." in text or "e" in text or "E" in text:
        return float(text)
    return int(text)


def parse(sql_text: str) -> List[ast.Statement]:
    """Parse one or more ``;``-separated statements."""
    parser = _Parser(tokenize(sql_text))
    statements: List[ast.Statement] = []
    while parser.peek().type is not TokenType.EOF:
        if parser.accept_punct(";"):
            continue
        statements.append(parser.parse_statement())
    if not statements:
        raise ParseError("empty statement", parser.peek())
    return statements


def parse_expression(text: str) -> ast.Expr:
    """Parse a standalone expression (used by tests and the compiler)."""
    parser = _Parser(tokenize(text))
    expr = parser.parse_expr()
    if parser.peek().type is not TokenType.EOF:
        raise ParseError(f"trailing tokens after expression: {parser.peek().value!r}",
                         parser.peek())
    return expr
