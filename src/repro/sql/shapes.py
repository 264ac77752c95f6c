"""Statement shapes: parse a statement's shape once, bind its literals per call.

JoinBoost re-issues a handful of statement templates with fresh
``jb_tmp_*`` temp names and fresh numeric literals (leaf ids, feature
indexes, thresholds), so a cache keyed by SQL text almost never hits.
:func:`normalize` splits a statement into a *shape key* and slot texts
in one regex pass.  A slot is a numeric literal or a ``jb_tmp_*`` name
outside quoted strings, quoted identifiers and comments; ``LIMIT n`` and
numbers glued to a word (``x_items_0``, ``1abc``) stay in the key.  In
the key a slot renders as a sentinel identifier the grammar accepts
(``__jbpN`` for a number, ``__jbtN`` for a name).

:class:`Shape` parses a key once and records the path to each sentinel;
:meth:`Shape.bind` rebuilds only the nodes on those paths, so that
``repr(shape.bind(text, slots)) == repr(parse(text))``.  A shape whose
sentinels land where a literal or a temp name could not have been (an
alias, a column name, a skipped ``ROWS`` clause, ...) records no paths
and binds by parsing the text itself.
"""

from __future__ import annotations

import dataclasses
import re
from typing import Dict, List, Optional, Tuple, Union

from repro.sql import ast_nodes as ast
from repro.sql.parser import number_literal, parse

_TOKENS = re.compile(
    r"""
      '[^']*(?:''[^']*)*'              # string literal
    | "[^"]*"                          # quoted identifier
    | --[^\n]*                         # line comment
    | /\*.*?\*/                        # block comment
    | \b(?i:LIMIT)\s+\d+               # LIMIT wants a NUMBER token
    | (?P<name>(?<!\w)jb_tmp_\w*)
    | (?<![\w.])(?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d*)?)
    """,
    re.VERBOSE | re.DOTALL,
)

#: fields the parser stores a table name in verbatim
_NAME_FIELDS = {
    (ast.TableRef, "name"), (ast.ColumnRef, "table"), (ast.Star, "table"),
    (ast.CreateTableAs, "name"), (ast.Update, "table"), (ast.DropTable, "name"),
}

Step = Union[str, int]
#: ``{step: child}``; a child is a nested trie or a slot index
Trie = Dict[Step, object]


def normalize(text: str) -> Tuple[str, Tuple[str, ...]]:
    """``(shape key, slot texts)`` of one statement text."""
    slots: List[str] = []

    def slot(match: "re.Match[str]") -> str:
        token = match.group()
        if match.lastgroup is None:
            return token
        if match.lastgroup == "number":
            after = text[match.end():match.end() + 1]
            if after and (after.isalnum() or after in "_."):
                return token  # glued: the tokenizer reads on past it
        slots.append(token)
        return f" {_sentinel(token, len(slots) - 1)} "

    return _TOKENS.sub(slot, text), tuple(slots)


def _sentinel(slot: str, index: int) -> str:
    return f"__jb{'t' if slot.startswith('jb_tmp_') else 'p'}{index}"


class Shape:
    """One parsed shape key and the paths its slots bind into."""

    def __init__(self, key: str, slots: Tuple[str, ...]):
        self.template = parse(key)
        self.trie = _slot_trie(self.template, slots)
        #: ``(text, statements)`` of the last bind: one tuple, assigned
        #: at once, because worker threads share the shape
        self.memo: Optional[Tuple[str, List[ast.Statement]]] = None

    def bind(self, text: str, slots: Tuple[str, ...]) -> List[ast.Statement]:
        """The statements of ``text``, whose shape this is."""
        memo = self.memo
        if memo is not None and memo[0] == text:
            return memo[1]
        if self.trie is None:
            statements = parse(text)
        else:
            values = [
                raw if raw.startswith("jb_tmp_") else ast.Literal(number_literal(raw))
                for raw in slots
            ]
            statements = _rebuild(self.template, self.trie, values)
        self.memo = (text, statements)
        return statements


def _slot_trie(template: List[ast.Statement], slots: Tuple[str, ...]) -> Optional[Trie]:
    """The sentinels' paths as a trie, or ``None`` unless each sentinel
    occurs exactly once where its token type cannot have changed the
    parse: a number as a bare column reference (where ``parse_primary``
    makes a literal of a NUMBER token), a name in a table-name field.

    One pass over an explicit stack; a path is a linked ``(step,
    parent)`` chain, spelled out only for the sentinels, so a deep
    statement costs time linear in its nodes."""
    found: Dict[str, List[Tuple[object, str]]] = {}
    stack: List[Tuple[object, object]] = [(template, None)]
    while stack:
        node, path = stack.pop()
        if isinstance(node, (list, tuple)):
            stack.extend((child, (index, path)) for index, child in enumerate(node))
            continue
        if not dataclasses.is_dataclass(node):
            continue
        if isinstance(node, ast.ColumnRef) and node.table is None:
            found.setdefault(node.name, []).append((path, "p"))
            continue
        for field in dataclasses.fields(node):
            value = getattr(node, field.name)
            if isinstance(value, str):
                role = "t" if (type(node), field.name) in _NAME_FIELDS else "-"
                found.setdefault(value, []).append(((field.name, path), role))
            else:
                stack.append((value, (field.name, path)))

    trie: Trie = {}
    for index, slot in enumerate(slots):
        sentinel = _sentinel(slot, index)
        occurrences = found.get(sentinel, [])
        if len(occurrences) != 1 or occurrences[0][1] != sentinel[4]:
            return None
        steps: List[Step] = []
        link = occurrences[0][0]
        while link is not None:
            step, link = link
            steps.append(step)
        *inner, last = reversed(steps)
        node: dict = trie
        for step in inner:
            node = node.setdefault(step, {})
        node[last] = index
    return trie


def _rebuild(node, trie: Trie, values: list):
    """A copy of ``node`` with the slots under ``trie`` filled; subtrees
    off the slot paths are shared with ``node``.

    Top-down over an explicit stack: each node on a slot path is cloned
    into its (already cloned) parent, a tuple as a list until its own
    slots are filled."""
    top = [node]
    tuples: List[Tuple[object, Step]] = []
    stack: List[Tuple[object, Step, Trie]] = [(top, 0, trie)]
    while stack:
        holder, key, sub = stack.pop()
        original = _child(holder, key)
        if isinstance(original, (list, tuple)):
            clone = list(original)
            if isinstance(original, tuple):
                tuples.append((holder, key))
        else:
            clone = object.__new__(type(original))
            clone.__dict__.update(original.__dict__)
        _set_child(holder, key, clone)
        for step, child in sub.items():
            if isinstance(child, int):
                _set_child(clone, step, values[child])
            else:
                stack.append((clone, step, child))
    for holder, key in reversed(tuples):  # innermost first
        _set_child(holder, key, tuple(_child(holder, key)))
    return top[0]


def _child(holder, step: Step):
    return holder[step] if isinstance(holder, list) else holder.__dict__[step]


def _set_child(holder, step: Step, value) -> None:
    if isinstance(holder, list):
        holder[step] = value
    else:
        holder.__dict__[step] = value
