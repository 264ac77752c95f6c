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
``repr(shape.bind(text, slots)) == repr(parse(text))``.  A bind whose
slots differ from the previous bind's in only some places (a serving
scan re-issued with a fresh ``jb_tmp_*`` copy of the fact, its hundreds
of split thresholds unchanged) rebuilds only the changed slots' paths,
from the previous bind's statements.  A shape whose sentinels land where
a literal or a temp name could not have been (an alias, a column name, a
skipped ``ROWS`` clause, ...) records no paths and binds by parsing the
text itself.
"""

from __future__ import annotations

import dataclasses
import re
from typing import Dict, List, Optional, Sequence, Tuple, Union

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
        self.paths = _slot_paths(self.template, slots)
        self.trie = (
            None if self.paths is None else _trie(self.paths, range(len(slots)))
        )
        #: ``(text, slots, statements)`` of the last bind: one tuple,
        #: assigned at once, because worker threads share the shape
        self.memo: Optional[
            Tuple[str, Tuple[str, ...], List[ast.Statement]]
        ] = None

    def bind(self, text: str, slots: Tuple[str, ...]) -> List[ast.Statement]:
        """The statements of ``text``, whose shape this is."""
        memo = self.memo
        if memo is not None and memo[0] == text:
            return memo[2]
        if self.paths is None or self.trie is None:
            statements = parse(text)
        else:
            base, trie = self.template, self.trie
            changed: Sequence[int] = range(len(slots))
            if memo is not None:
                # Rebuild only the slots that differ from the last bind,
                # from its statements (equal slots bind equal nodes).
                differ = [i for i, (a, b) in enumerate(zip(memo[1], slots)) if a != b]
                if len(differ) < len(slots):
                    base, trie, changed = memo[2], _trie(self.paths, differ), differ
            values = {i: _slot_value(slots[i]) for i in changed}
            statements = _rebuild(base, trie, values)
        self.memo = (text, slots, statements)
        return statements


def _slot_value(raw: str):
    """What a slot binds: a temp name as it is, a number as a literal."""
    return raw if raw.startswith("jb_tmp_") else ast.Literal(number_literal(raw))


def _trie(paths: List[List[Step]], indexes) -> Trie:
    """The paths of the slots ``indexes`` as one trie."""
    trie: Trie = {}
    for index in indexes:
        *inner, last = paths[index]
        node: dict = trie
        for step in inner:
            node = node.setdefault(step, {})
        node[last] = index
    return trie


def _slot_paths(
    template: List[ast.Statement], slots: Tuple[str, ...]
) -> Optional[List[List[Step]]]:
    """Each sentinel's path from the statement list, or ``None`` unless
    each sentinel occurs exactly once where its token type cannot have
    changed the parse: a number as a bare column reference (where
    ``parse_primary`` makes a literal of a NUMBER token), a name in a
    table-name field.

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

    paths: List[List[Step]] = []
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
        paths.append(steps[::-1])
    return paths


def _rebuild(node, trie: Trie, values: Dict[int, object]):
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
