"""SQL dialect translation for external engines (sqlite3 and DuckDB).

The Factorizer emits a small, disciplined SQL surface (CREATE TABLE AS
SELECT, aggregations, CASE, semi-join ``IN`` subqueries).  Most of it is
standard, but three things need translating before stdlib ``sqlite3``
will run it with the embedded engine's semantics:

1. **Division and type affinity.**  SQLite divides INTEGER/INTEGER with
   truncation, and semi-ring components like the count ``c`` (lifted as
   the literal ``1``) get INTEGER affinity through ``CREATE TABLE AS``.
   Every ``SUM(...)`` in emitted SQL is an ⊕ over semi-ring components,
   so the translator rewrites ``SUM`` to SQLite's ``TOTAL`` — identical
   except it always returns REAL (and ``0.0`` rather than NULL on empty
   input, which matches how callers coalesce totals).

2. **Statistical aggregates.**  The embedded engine exposes ``VARIANCE``/
   ``VAR``/``STDDEV`` (used by ad-hoc analysis queries); SQLite has none
   of them.  They rewrite into their sum/sum-of-squares form, e.g.
   ``VARIANCE(x)`` becomes
   ``(TOTAL((x)*(x)) - TOTAL(x)*TOTAL(x)/COUNT(x)) / COUNT(x)``.

3. **Keyword spelling.**  ``TRUE``/``FALSE`` literals become ``1``/``0``
   (supported only on newer SQLite builds), outside string literals.

Scalar functions the emitted SQL needs but SQLite may lack (``EXP``,
``POWER``, ``SIGN``, ``GREATEST``, ``LEAST``, ...) are not translated —
they are registered as Python functions on the connection by the
connector (see ``sqlite3_backend.register_sql_functions``).

DuckDB (the paper's actual demo engine) needs almost nothing: ``/`` on
integers is REAL division, ``TRUE``/``FALSE`` and every scalar the
emitted SQL uses are native.  The one semantic gap is the
statistical aggregates — DuckDB's bare ``VARIANCE``/``STDDEV`` are the
*sample* estimators while the embedded engine's are *population* — so
:class:`DuckDBDialect` renames them onto DuckDB's ``var_pop`` /
``stddev_pop`` and leaves everything else verbatim.

The translators are deliberately lexer-level rewriters, not parsers:
they walk the text once, skip string literals, and rewrite identifiers
and aggregate calls.  That keeps them honest about what they are — a
dialect shim for the SQL *this system emits* — rather than a general
transpiler.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.exceptions import SQLError

_IDENT_CHARS = set("abcdefghijklmnopqrstuvwxyz0123456789_")


def _is_ident_char(ch: str) -> bool:
    return ch.lower() in _IDENT_CHARS


def split_statements(sql: str) -> List[str]:
    """Split ``;``-separated statements, respecting quoted spans."""
    parts: List[str] = []
    current: List[str] = []
    i, n = 0, len(sql)
    while i < n:
        ch = sql[i]
        if ch in ("'", '"'):
            end = _skip_string(sql, i)
            current.append(sql[i:end])
            i = end
            continue
        if ch == ";":
            text = "".join(current).strip()
            if text:
                parts.append(text)
            current = []
            i += 1
            continue
        current.append(ch)
        i += 1
    text = "".join(current).strip()
    if text:
        parts.append(text)
    return parts


def _skip_string(sql: str, start: int) -> int:
    """Index one past the end of the quoted span starting at ``start`` —
    a ``'...'`` literal or a ``"..."`` identifier (SQL doubles the quote
    character to escape it)."""
    quote = sql[start]
    i = start + 1
    n = len(sql)
    while i < n:
        if sql[i] == quote:
            if i + 1 < n and sql[i + 1] == quote:
                i += 2
                continue
            return i + 1
        i += 1
    raise SQLError(f"unterminated quoted span in: {sql[start:start + 40]!r}")


def _matching_paren(sql: str, open_idx: int) -> int:
    """Index of the ``)`` matching the ``(`` at ``open_idx``."""
    depth = 0
    i = open_idx
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch in ("'", '"'):
            i = _skip_string(sql, i)
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                return i
        i += 1
    raise SQLError(f"unbalanced parentheses in: {sql[open_idx:open_idx + 40]!r}")


def _variance_rewrite(arg: str) -> str:
    """Population variance as sum/sumsq — the lifted form SQLite can run."""
    return (
        f"((TOTAL(({arg}) * ({arg}))"
        f" - TOTAL({arg}) * TOTAL({arg}) / COUNT({arg}))"
        f" / COUNT({arg}))"
    )


def _stddev_rewrite(arg: str) -> str:
    return f"(POWER({_variance_rewrite(arg)}, 0.5))"


#: sqlite aggregate-call rewrites: name -> fn(argument text) -> replacement
_SQLITE_CALL_REWRITES: Dict[str, Callable[[str], str]] = {
    "sum": lambda arg: f"TOTAL({arg})",
    "variance": _variance_rewrite,
    "var": _variance_rewrite,
    "var_pop": _variance_rewrite,
    "stddev": _stddev_rewrite,
    "stddev_pop": _stddev_rewrite,
}

#: sqlite bare-word rewrites (outside strings, whole identifiers only)
_SQLITE_WORD_REWRITES: Dict[str, str] = {
    "true": "1",
    "false": "0",
}

#: duckdb aggregate-call renames: the embedded engine's VARIANCE/STDDEV
#: are population estimators, DuckDB's bare spellings are sample ones
_DUCKDB_CALL_REWRITES: Dict[str, Callable[[str], str]] = {
    "variance": lambda arg: f"var_pop({arg})",
    "var": lambda arg: f"var_pop({arg})",
    "stddev": lambda arg: f"stddev_pop({arg})",
}

#: duckdb needs no bare-word rewrites (TRUE/FALSE are native)
_DUCKDB_WORD_REWRITES: Dict[str, str] = {}


def _rewrite(
    sql: str,
    call_rewrites: Dict[str, Callable[[str], str]],
    word_rewrites: Dict[str, str],
) -> str:
    """One lexer pass: apply call/word rewrites outside quoted spans.

    Call arguments are rewritten recursively (with the same maps), so
    nested aggregates like ``SUM(SUM(a) + 1)`` translate all the way
    down.
    """
    out: List[str] = []
    i, n = 0, len(sql)
    while i < n:
        ch = sql[i]
        if ch in ("'", '"'):
            # '...' literals and "..." quoted identifiers pass through
            # verbatim — a column named "true" stays a column.
            end = _skip_string(sql, i)
            out.append(sql[i:end])
            i = end
            continue
        if _is_ident_char(ch) and (i == 0 or not _is_ident_char(sql[i - 1])) \
                and not ch.isdigit():
            j = i
            while j < n and _is_ident_char(sql[j]):
                j += 1
            word = sql[i:j]
            lowered = word.lower()
            # Function-call rewrite: identifier directly followed by (
            k = j
            while k < n and sql[k] in " \t\n":
                k += 1
            if k < n and sql[k] == "(" and lowered in call_rewrites:
                close = _matching_paren(sql, k)
                inner = _rewrite(sql[k + 1:close], call_rewrites, word_rewrites)
                out.append(call_rewrites[lowered](inner))
                i = close + 1
                continue
            if lowered in word_rewrites and not (k < n and sql[k] == "("):
                out.append(word_rewrites[lowered])
                i = j
                continue
            out.append(word)
            i = j
            continue
        out.append(ch)
        i += 1
    return "".join(out)


def classify_statement(sql: str) -> Tuple[str, bool]:
    """(kind, returns_rows) for one statement — profiling parity with
    the embedded engine's ``QueryProfile.kind`` taxonomy."""
    head = sql.lstrip().split(None, 2)
    first = head[0].upper() if head else ""
    if first == "SELECT" or first == "WITH":
        return "Select", True
    if first == "CREATE":
        return "CreateTableAs", False
    if first == "DROP":
        return "DropTable", False
    if first == "UPDATE":
        return "Update", False
    if first in ("INSERT", "DELETE", "ALTER"):
        return first.title(), False
    return first.title() or "Unknown", False


class SQLiteDialect:
    """Translates the engine's emitted SQL into SQLite's dialect."""

    name = "sqlite"

    def translate(self, sql: str) -> str:
        """SQLite spelling of ``sql``: SUM->TOTAL, lifted variance,
        TRUE/FALSE literals."""
        return _rewrite(sql, _SQLITE_CALL_REWRITES, _SQLITE_WORD_REWRITES)

    #: statement classification shared across external dialects
    classify = staticmethod(classify_statement)


class DuckDBDialect:
    """Translates the engine's emitted SQL into DuckDB's dialect.

    DuckDB already matches the embedded engine on division semantics
    and boolean literals, so the only rewrite is renaming
    the population statistical aggregates onto their ``_pop`` spellings.
    """

    name = "duckdb"

    def translate(self, sql: str) -> str:
        """DuckDB spelling of ``sql``: VARIANCE/STDDEV -> var_pop /
        stddev_pop; everything else passes through verbatim."""
        return _rewrite(sql, _DUCKDB_CALL_REWRITES, _DUCKDB_WORD_REWRITES)

    #: statement classification shared across external dialects
    classify = staticmethod(classify_statement)
