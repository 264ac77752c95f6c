"""The join graph: JoinBoost's "training dataset" object.

Mirrors the paper's developer interface (Figure 4)::

    graph = JoinGraph(db)
    graph.add_relation("sales", y="net_profit")
    graph.add_relation("date", features=["holiday", "weekend"])
    graph.add_edge("sales", "date", ["date_id"])

If edges are omitted, :meth:`JoinGraph.infer_edges` derives them from
shared column names and raises if the graph is ambiguous or would need a
cross product, as Section 5.1 specifies.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import JoinGraphError


@dataclasses.dataclass
class RelationInfo:
    """One relation participating in training."""

    name: str
    features: List[str] = dataclasses.field(default_factory=list)
    target: Optional[str] = None
    is_fact: bool = False
    #: features to treat as categorical (default: string-typed columns)
    categorical: List[str] = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class JoinEdge:
    """An equi-join between two relations on parallel key lists.

    ``multiplicity`` is filled by :meth:`JoinGraph.analyze`:
    ``"n-1"`` means many left rows per right row (right keys unique),
    ``"1-n"`` the reverse, ``"1-1"`` both unique, ``"m-n"`` neither.
    """

    left: str
    right: str
    left_keys: List[str]
    right_keys: List[str]
    multiplicity: Optional[str] = None

    def keys_for(self, relation: str) -> List[str]:
        if relation == self.left:
            return self.left_keys
        if relation == self.right:
            return self.right_keys
        raise JoinGraphError(f"{relation!r} is not part of edge {self}")

    def other(self, relation: str) -> str:
        if relation == self.left:
            return self.right
        if relation == self.right:
            return self.left
        raise JoinGraphError(f"{relation!r} is not part of edge {self}")



class JoinGraph:
    """Relations + join edges + feature/target annotations."""

    def __init__(self, db):
        self.db = db
        self.relations: Dict[str, RelationInfo] = {}
        self.edges: List[JoinEdge] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_relation(
        self,
        name: str,
        features: Optional[Sequence[str]] = None,
        y: Optional[str] = None,
        is_fact: bool = False,
        categorical: Optional[Sequence[str]] = None,
    ) -> "JoinGraph":
        if name in self.relations:
            raise JoinGraphError(f"relation {name!r} already added")
        if not self.db.has_table(name):
            raise JoinGraphError(f"table {name!r} does not exist in the database")
        table = self.db.table(name)
        for col in list(features or []) + ([y] if y else []):
            if col not in table:
                raise JoinGraphError(f"{name!r} has no column {col!r}")
        cat = list(categorical or [])
        for col in cat:
            if col not in (features or []):
                raise JoinGraphError(
                    f"categorical column {col!r} is not among the features"
                )
        # String columns are categorical whether declared or not.
        from repro.storage.column import ColumnType

        for col in features or []:
            if table.column(col).ctype is ColumnType.STR and col not in cat:
                cat.append(col)
        self.relations[name] = RelationInfo(
            name=name, features=list(features or []), target=y,
            is_fact=is_fact, categorical=cat,
        )
        return self

    def is_categorical(self, relation: str, feature: str) -> bool:
        return feature in self.relations[relation].categorical

    def add_edge(
        self,
        left: str,
        right: str,
        keys: Sequence[str],
        right_keys: Optional[Sequence[str]] = None,
    ) -> "JoinGraph":
        for rel in (left, right):
            if rel not in self.relations:
                raise JoinGraphError(f"unknown relation {rel!r}; add it first")
        left_keys = list(keys)
        rkeys = list(right_keys) if right_keys is not None else list(keys)
        if len(left_keys) != len(rkeys):
            raise JoinGraphError("left and right key lists differ in length")
        for col in left_keys:
            if col not in self.db.table(left):
                raise JoinGraphError(f"{left!r} has no join key {col!r}")
        for col in rkeys:
            if col not in self.db.table(right):
                raise JoinGraphError(f"{right!r} has no join key {col!r}")
        self.edges.append(JoinEdge(left, right, left_keys, rkeys))
        return self

    def infer_edges(self) -> "JoinGraph":
        """Derive edges from shared column names (Section 5.1).

        Raises if any pair shares no columns and the graph would be
        disconnected (cross product), or if the result is ambiguous
        (multiple connected components could be joined multiple ways).
        """
        names = list(self.relations)
        for i, left in enumerate(names):
            left_cols = set(c.lower() for c in self.db.table(left).column_names())
            for right in names[i + 1 :]:
                right_cols = set(
                    c.lower() for c in self.db.table(right).column_names()
                )
                shared = sorted(left_cols & right_cols)
                if shared:
                    self.edges.append(JoinEdge(left, right, shared, shared))
        if len(self.relations) > 1 and not self.is_connected():
            raise JoinGraphError(
                "could not infer a connected join graph; "
                "a cross product would be required"
            )
        return self

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def target_relation(self) -> str:
        """The relation holding Y (Section 3.3's R_Y)."""
        holders = [r.name for r in self.relations.values() if r.target]
        if not holders:
            raise JoinGraphError("no relation declares a target variable")
        if len(holders) > 1:
            raise JoinGraphError(f"multiple target relations: {holders}")
        return holders[0]

    @property
    def target_column(self) -> str:
        return self.relations[self.target_relation].target  # type: ignore[return-value]

    def all_features(self) -> List[Tuple[str, str]]:
        """(relation, feature) pairs in declaration order."""
        out: List[Tuple[str, str]] = []
        for rel in self.relations.values():
            out.extend((rel.name, f) for f in rel.features)
        return out

    def relation_for_feature(self, feature: str) -> str:
        owners = [
            r.name for r in self.relations.values() if feature in r.features
        ]
        if not owners:
            raise JoinGraphError(f"no relation declares feature {feature!r}")
        if len(owners) > 1:
            raise JoinGraphError(f"feature {feature!r} is ambiguous: {owners}")
        return owners[0]

    def edges_of(self, relation: str) -> List[JoinEdge]:
        return [e for e in self.edges if relation in (e.left, e.right)]

    def neighbors(self, relation: str) -> List[str]:
        return [e.other(relation) for e in self.edges_of(relation)]

    def is_connected(self) -> bool:
        if not self.relations:
            return True
        seen = {next(iter(self.relations))}
        frontier = list(seen)
        while frontier:
            current = frontier.pop()
            for neighbor in self.neighbors(current):
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return len(seen) == len(self.relations)

    def validate(self, require_target: bool = True) -> None:
        """Check the graph is usable for training."""
        if not self.relations:
            raise JoinGraphError("join graph has no relations")
        if require_target:
            _ = self.target_relation
        if not self.is_connected():
            raise JoinGraphError("join graph is disconnected (cross product)")
        seen_pairs = set()
        for edge in self.edges:
            pair = frozenset((edge.left, edge.right))
            if pair in seen_pairs:
                raise JoinGraphError(
                    f"multiple edges between {edge.left!r} and {edge.right!r}; "
                    "the join graph is ambiguous"
                )
            seen_pairs.add(pair)

    # ------------------------------------------------------------------
    # Statistics (edge multiplicities; used by CPT clustering and the
    # identity-message optimization)
    # ------------------------------------------------------------------
    def analyze(self) -> None:
        """Fill in each edge's multiplicity by probing key uniqueness."""
        for edge in self.edges:
            right_unique = self._keys_unique(edge.right, edge.right_keys)
            left_unique = self._keys_unique(edge.left, edge.left_keys)
            if left_unique and right_unique:
                edge.multiplicity = "1-1"
            elif right_unique:
                edge.multiplicity = "n-1"
            elif left_unique:
                edge.multiplicity = "1-n"
            else:
                edge.multiplicity = "m-n"

    def _keys_unique(self, relation: str, keys: List[str]) -> bool:
        key_list = ", ".join(keys)
        result = self.db.execute(
            f"SELECT COUNT(*) AS n, COUNT(DISTINCT {key_list}) AS d FROM {relation}"
            if len(keys) == 1
            else f"SELECT COUNT(*) AS n FROM {relation}"
        )
        if len(keys) == 1:
            row = result.first_row()
            return row["n"] == row["d"]
        total = result.scalar()
        distinct = self.db.execute(
            f"SELECT COUNT(*) AS d FROM (SELECT DISTINCT {key_list} FROM {relation})"
        ).scalar()
        return total == distinct

    def detect_fact_tables(self) -> List[str]:
        """Relations that sit on the N side of every incident edge."""
        if any(e.multiplicity is None for e in self.edges):
            self.analyze()
        facts = []
        for name in self.relations:
            incident = self.edges_of(name)
            if not incident:
                continue
            n_side = True
            for edge in incident:
                mult = edge.multiplicity or "m-n"
                if edge.left == name and mult in ("1-n", "1-1"):
                    n_side = False
                if edge.right == name and mult in ("n-1", "1-1"):
                    n_side = False
            if n_side:
                facts.append(name)
        return facts

    def __repr__(self) -> str:
        return (
            f"JoinGraph(relations={list(self.relations)}, "
            f"edges={[(e.left, e.right) for e in self.edges]})"
        )
