"""The Factorizer: semi-ring aggregation over a join graph, in pure SQL.

This is the component the paper's architecture diagram (Figure 4) calls
the *Factorizer*: it decomposes each aggregation query into message-passing
and absorption queries, materializes messages as tables, and reuses them
across features and tree nodes via the :class:`MessageCache`.

The message recursion is root-independent: ``message(child, parent)``
aggregates ``child``'s component, which only depends on the directed edge
and the predicates inside ``child``'s side — so a single cache serves every
per-feature root choice and every tree node.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Dict, FrozenSet, Hashable, List, Optional, Sequence, Tuple

from repro.exceptions import JoinGraphError, TrainingError
from repro.engine.result import Relation
from repro.factorize.cache import MessageCache, MessageInfo
from repro.factorize.messages import (
    COUNT,
    FULL,
    IDENTITY,
    Annotation,
    aggregate_select_list,
    aggregated_kind,
    combine_annotations,
)
from repro.factorize.predicates import (
    PredicateMap,
    predicate_state,
    render_conjunction,
)
from repro.joingraph.graph import JoinGraph
from repro.joingraph.hypertree import edge_between, is_acyclic
from repro.semiring.base import SemiRing


@dataclasses.dataclass
class MultiAbsorption:
    """A prepared multi-group absorption rooted at one relation.

    Messages (standard and carry) are already materialized and owned by
    the message cache; callers assemble one or more SELECTs from the
    pieces — the frontier evaluator builds a ``UNION ALL`` branch per
    feature over the same ``from_sql``.
    """

    root: str
    #: ``FROM <table> AS t <joins>`` — shared by every branch
    from_sql: str
    #: ``(component, SUM(...) expression)`` pairs for the select list
    agg_selects: List[Tuple[str, str]]
    #: alias-qualified references for carried columns: (relation, column)
    carry_refs: Dict[Tuple[str, str], str]

    def ref(self, relation: str, column: str) -> str:
        """The SQL reference of a carried (or root-owned) column."""
        return self.carry_refs[(relation, column)]


@dataclasses.dataclass
class _Carry:
    """What carry messages propagate: columns by relation, the values
    worth keeping per carried (relation, column), and the cache scope."""

    columns: Dict[str, Sequence[str]]
    filters: Dict[Tuple[str, str], Sequence]
    scope: Hashable

    def condition(self, rel_col: Tuple[str, str], ref: str) -> str:
        """Earliest-hop pruning of a carried column: restrict it to its
        filter values when known, else drop unlabeled rows."""
        values = self.filters.get(rel_col)
        if values is not None:
            rendered = ", ".join(str(int(v)) for v in values)
            return f"{ref} IN ({rendered})"
        return f"{ref} IS NOT NULL"


def prepare_training_paths(db, graph: JoinGraph, factorizer: "Factorizer") -> None:
    """One-time physical setup shared by every training driver.

    Pre-encodes the join-key columns (embedded encoded-key cache) and
    gives the backend its training-setup hook — the sqlite connector
    builds join-key indexes and runs ANALYZE.  Both halves are idempotent,
    so per-tree drivers (random forests) can call this per lift.
    """
    factorizer.warm_encodings()
    db.prepare_training(graph, factorizer.lifted)


class Factorizer:
    """Executes factorized aggregations for one (graph, semi-ring) pair."""

    def __init__(
        self,
        db,
        graph: JoinGraph,
        semiring: SemiRing,
        assume_ri: bool = True,
        outer_joins: bool = False,
    ):
        graph.validate(require_target=False)
        if not is_acyclic(graph):
            raise JoinGraphError(
                "Factorizer requires an acyclic join graph; decompose first"
            )
        self.db = db
        self.graph = graph
        self.semiring = semiring
        self.assume_ri = assume_ri
        self.outer_joins = outer_joins
        self.cache = MessageCache(db)
        self.lifted: Dict[str, str] = {}
        self._side: Dict[Tuple[str, str], FrozenSet[str]] = {}
        self.message_requests = 0
        self.message_executions = 0
        self.carry_message_executions = 0
        self.carry_cache_hits = 0
        self.carry_cache_misses = 0
        # Message builds are the *shared* state of a parallel evaluation
        # round: two relations routed through the same hop must not race
        # the MessageCache into materializing the same message twice (the
        # loser's temp would leak).  One re-entrant lock makes each
        # lookup -> CREATE TABLE -> store sequence atomic; the fused
        # split queries themselves run outside it and overlap freely.
        self._build_lock = threading.RLock()
        if any(e.multiplicity is None for e in graph.edges):
            graph.analyze()
        self._compute_sides()

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _compute_sides(self) -> None:
        """For each directed edge, the relations on the sending side."""
        for edge in self.graph.edges:
            for child, parent in ((edge.left, edge.right), (edge.right, edge.left)):
                side = {child}
                frontier = [child]
                while frontier:
                    current = frontier.pop()
                    for neighbor in self.graph.neighbors(current):
                        if neighbor == parent and current == child:
                            continue
                        if neighbor not in side and neighbor != parent:
                            side.add(neighbor)
                            frontier.append(neighbor)
                self._side[(child, parent)] = frozenset(side)

    def lift(
        self,
        lift_exprs: Optional[Sequence[Tuple[str, str]]] = None,
        source_table: Optional[str] = None,
        relation: Optional[str] = None,
    ) -> str:
        """Materialize the lifted copy of ``relation`` (default: the
        target relation).

        ``lift_exprs`` defaults to the semi-ring's own lift of Y; gradient
        boosting passes loss-specific (h, g) expressions instead, and
        galaxy training lifts each CPT cluster's fact with the semi-ring's
        identity (Section 4.2), which residual updates then multiply by
        lift(-p) in place.  ``source_table`` substitutes a different
        physical table for the relation (random forests lift their
        per-tree sample).  Returns the lifted table's name.  Relations
        without a lifted copy carry the 1 annotation implicitly.
        """
        relation = relation or self.graph.target_relation
        source = source_table or relation
        exprs = (
            list(lift_exprs) if lift_exprs is not None
            else self.semiring.lift_sql(self.graph.target_column)
        )
        base_cols = self.db.table(source).column_names()
        collisions = {c for c, _ in exprs} & {c.lower() for c in base_cols}
        if collisions:
            raise TrainingError(
                f"relation {relation!r} has columns colliding with "
                f"semi-ring components: {sorted(collisions)}"
            )
        lifted_name = self.db.temp_name(f"lift_{relation}")
        select_parts = [f"t.{c}" for c in base_cols] + [
            f"{expr} AS {comp}" for comp, expr in exprs
        ]
        self.db.execute(
            f"CREATE TABLE {lifted_name} AS SELECT {', '.join(select_parts)} "
            f"FROM {source} AS t",
            tag="lift",
        )
        self.lifted[relation] = lifted_name
        return lifted_name

    def adopt_lifted(self, relation: str, table_name: str) -> None:
        """Register an externally prepared lifted table (multiclass
        trainers share one table holding every class's components)."""
        self.lifted[relation] = table_name

    def warm_encodings(self) -> int:
        """Factorize every join-key column once, up front.

        Message passing touches the same join keys in every absorption
        query of the run; pre-encoding them at training setup moves the
        one unavoidable encode pass per column out of the first query's
        latency and guarantees each subsequent query is a cache lookup.
        No-op on backends without an encoding cache.  Returns the number
        of columns warmed.
        """
        cache = getattr(self.db, "encodings", None)
        if cache is None:
            return 0
        warmed = 0
        for edge in self.graph.edges:
            for relation in (edge.left, edge.right):
                table = self.db.table(self.storage_table(relation))
                for key in edge.keys_for(relation):
                    if key in table:
                        cache.encoding_for(table.column(key))
                        warmed += 1
        return warmed

    def storage_table(self, relation: str) -> str:
        """The physical table backing a relation (lifted copy if any)."""
        return self.lifted.get(relation, relation)

    def _own_annotation(self, relation: str, alias: str) -> Annotation:
        if relation in self.lifted:
            return Annotation.from_columns(FULL, alias, self.semiring)
        return Annotation.identity()

    # ------------------------------------------------------------------
    # Messages
    # ------------------------------------------------------------------
    def message(
        self, child: str, parent: str, predicates: Optional[PredicateMap] = None
    ) -> Optional[MessageInfo]:
        """Materialize (or fetch) the message child -> parent.

        Returns ``None`` when the message is an identity message that can
        be dropped (Appendix D): nothing lifted or filtered on the child's
        side and the join into ``parent`` is fan-out-free.
        """
        with self._build_lock:
            return self._message(child, parent, predicates or {}, None)

    def _message(
        self,
        child: str,
        parent: str,
        predicates: PredicateMap,
        carry: Optional[_Carry],
    ) -> Optional[MessageInfo]:
        """The one message builder, recursive over the sending side.

        Without ``carry`` the message is filtered by ``predicates`` and
        cached by their state on the side.  With it the message is
        unfiltered, additionally groups by (and re-exposes) the side's
        carried columns under the earliest-hop filter, and is cached
        under the carry's scope — unless the side carries nothing, which
        is the plain message.
        """
        side = self._side[(child, parent)]
        if carry is not None and not any(rel in side for rel in carry.columns):
            carry = None
        self.message_requests += 1
        state = predicate_state(predicates, side)
        if carry is None and self._droppable(child, parent, side, state):
            return None
        scope = None if carry is None else carry.scope
        cached = self.cache.lookup(child, parent, state, scope=scope)
        if carry is not None:
            if cached is None:
                self.carry_cache_misses += 1
            else:
                self.carry_cache_hits += 1
        if cached is not None:
            return cached

        infos = self._incoming(child, parent, predicates, carry)
        own = () if carry is None else carry.columns.get(child, ())
        joins, annotation, refs = self._join_clauses(child, infos, own)
        keys = edge_between(self.graph, child, parent).keys_for(child)
        if carry is None:
            where = render_conjunction(predicates.get(child, ()), alias="t")
        else:
            # Rows outside every frontier leaf cannot contribute to any
            # group: drop them at the earliest hop.
            where = " AND ".join(
                carry.condition(rel_col, ref) for rel_col, ref in refs.items()
            )
        select = (
            [f"t.{k} AS {k}" for k in keys]
            + [f"{ref} AS {column}" for (_, column), ref in refs.items()]
            + [
                f"{expr} AS {comp}"
                for comp, expr in aggregate_select_list(self.semiring, annotation)
            ]
        )
        group = [f"t.{k}" for k in keys] + list(refs.values())
        msg_name = self.db.temp_name(f"msg_{child}_{parent}")
        self.db.execute(
            f"CREATE TABLE {msg_name} AS SELECT {', '.join(select)} "
            f"FROM {self.storage_table(child)} AS t {' '.join(joins)}"
            + (f" WHERE {where}" if where else "")
            + f" GROUP BY {', '.join(group)}",
            tag="message",
        )
        self.message_executions += 1
        if carry is not None:
            self.carry_message_executions += 1
        info = MessageInfo(
            table=msg_name,
            kind=aggregated_kind(annotation),
            key_columns=tuple(keys),
            child=child,
            parent=parent,
            carried=tuple(refs),
        )
        # The cache owns the table from here on: it is dropped on scope
        # eviction, relation invalidation or cleanup.
        self.cache.store(child, parent, state, info, scope=scope)
        return info

    def _droppable(
        self,
        child: str,
        parent: str,
        side: FrozenSet[str],
        state: FrozenSet,
    ) -> bool:
        if not self.assume_ri:
            return False
        if state:
            return False
        if any(rel in self.lifted for rel in side):
            return False
        edge = edge_between(self.graph, child, parent)
        mult = edge.multiplicity or "m-n"
        if edge.right == child and mult in ("n-1", "1-1"):
            return True
        if edge.left == child and mult in ("1-n", "1-1"):
            return True
        return False

    def _incoming(
        self,
        relation: str,
        exclude: Optional[str],
        predicates: PredicateMap,
        carry: Optional[_Carry] = None,
    ) -> List[MessageInfo]:
        # The build lock covers the whole hop chain: a concurrent round
        # evaluating another relation re-uses (never re-builds) any
        # message this chain materializes, and vice versa.
        with self._build_lock:
            infos: List[MessageInfo] = []
            for neighbor in self.graph.neighbors(relation):
                if neighbor == exclude:
                    continue
                info = self._message(neighbor, relation, predicates, carry)
                if info is not None:
                    infos.append(info)
            return infos

    def _join_clauses(
        self,
        relation: str,
        infos: List[MessageInfo],
        carry: Sequence[str] = (),
    ) -> Tuple[List[str], Annotation, Dict[Tuple[str, str], str]]:
        """JOIN fragments, the folded annotation, and the references of
        the carried columns — ``relation``'s own ``carry`` columns, then
        each message's — for ``relation`` joined with its messages."""
        annotation = self._own_annotation(relation, "t")
        refs = {(relation, column): f"t.{column}" for column in carry}
        clauses: List[str] = []
        join_kind = "LEFT JOIN" if self.outer_joins else "JOIN"
        for i, info in enumerate(infos):
            alias = f"m{i}"
            edge = edge_between(self.graph, relation, info.child)
            own_keys = edge.keys_for(relation)
            msg_keys = info.key_columns
            condition = " AND ".join(
                f"t.{ok} = {alias}.{mk}" for ok, mk in zip(own_keys, msg_keys)
            )
            clauses.append(f"{join_kind} {info.table} AS {alias} ON {condition}")
            annotation = combine_annotations(
                self.semiring,
                annotation,
                Annotation.from_columns(
                    info.kind, alias, self.semiring, outer=self.outer_joins
                ),
            )
            for rel_col in info.carried:
                refs[rel_col] = f"{alias}.{rel_col[1]}"
        return clauses, annotation, refs

    # ------------------------------------------------------------------
    # Absorption
    # ------------------------------------------------------------------
    def absorb(
        self,
        root: str,
        group_attrs: Sequence[str],
        predicates: Optional[PredicateMap] = None,
        tag: str = "absorption",
    ) -> Relation:
        """Components aggregated over ``root`` joined with its incoming
        messages (materialized first), filtered by ``predicates`` and
        grouped by ``group_attrs``: one row per distinct group."""
        predicates = predicates or {}
        infos = self._incoming(root, None, predicates)
        joins, annotation, _ = self._join_clauses(root, infos)
        select_parts = [f"t.{a} AS {a}" for a in group_attrs] + [
            f"{expr} AS {comp}"
            for comp, expr in aggregate_select_list(self.semiring, annotation)
        ]
        where = render_conjunction(predicates.get(root, ()), alias="t")
        sql = (
            f"SELECT {', '.join(select_parts)} "
            f"FROM {self.storage_table(root)} AS t {' '.join(joins)}"
            + (f" WHERE {where}" if where else "")
        )
        if group_attrs:
            sql += f" GROUP BY {', '.join(f't.{a}' for a in group_attrs)}"
        return self.db.execute(sql, tag=tag)

    def totals(
        self,
        predicates: Optional[PredicateMap] = None,
        tag: str = "totals",
        root: Optional[str] = None,
    ) -> Dict[str, float]:
        """Aggregate components over the whole (filtered) join result."""
        if root is None:
            try:
                root = self.graph.target_relation
            except JoinGraphError:
                root = (
                    next(iter(self.lifted))
                    if self.lifted
                    else next(iter(self.graph.relations))
                )
        relation = self.absorb(root, [], predicates, tag=tag)
        row = relation.first_row()
        return {k: (0.0 if v is None else float(v)) for k, v in row.items()}

    # ------------------------------------------------------------------
    # Multi-group absorption (batched frontier evaluation)
    # ------------------------------------------------------------------
    def multi_absorption(
        self,
        root: str,
        carry: Dict[str, Sequence[str]],
        carry_filters: Dict[Tuple[str, str], Sequence],
        cache_scope: Hashable,
    ) -> MultiAbsorption:
        """Prepare an unfiltered absorption at ``root`` with grouping
        columns carried in from *other* relations.

        ``carry`` maps relation -> columns to propagate to the root's
        scope: each message whose sending side contains a carry relation
        additionally groups by (and re-exposes) those columns, so the root
        query can group on them — this is how a leaf-membership label on
        the fact table reaches every relation's split query in one pass.

        ``carry_filters`` maps a carried (relation, column) to the values
        worth propagating — the frontier passes the round's open leaf
        ids, so carry messages aggregate only rows that can contribute
        (cost proportional to the frontier, not the table); a carried
        column without an entry keeps its non-NULL rows.

        Carry messages are cached under ``cache_scope`` (the frontier's
        leaf epoch), shared by every relation evaluated in the same
        round, and evicted by :meth:`begin_carry_scope`.  The cache owns
        every message the moment it is materialized, so a build that
        fails midway leaves nothing that :meth:`cleanup` does not drop.
        """
        spec = _Carry(carry, carry_filters, cache_scope)
        infos = self._incoming(root, None, {}, spec)
        joins, annotation, refs = self._join_clauses(
            root, infos, carry.get(root, ())
        )
        table = self.storage_table(root)
        return MultiAbsorption(
            root=root,
            from_sql=f"FROM {table} AS t {' '.join(joins)}".rstrip(),
            agg_selects=aggregate_select_list(self.semiring, annotation),
            carry_refs=refs,
        )

    def begin_carry_scope(self, scope: Optional[Hashable]) -> int:
        """Evict carry messages cached under any other scope (their leaf
        labels are stale once the frontier epoch advances)."""
        with self._build_lock:
            return self.cache.drop_scoped(keep_scope=scope)

    # ------------------------------------------------------------------
    # Cache control
    # ------------------------------------------------------------------
    def invalidate_for_relation(self, relation: str) -> int:
        """Drop cached messages whose sending side contains ``relation``
        (called after that relation's lifted data changes)."""
        doomed = []
        for key, info in list(self.cache._store.items()):
            child, parent = key[0], key[1]
            if relation in self._side[(child, parent)]:
                doomed.append(key)
        for key in doomed:
            info = self.cache._store.pop(key)
            self.db.drop_table(info.table, if_exists=True)
        return len(doomed)

    def invalidate_all(self) -> int:
        return self.cache.invalidate_all(drop_tables=True)

    def census(self) -> Dict[str, object]:
        """Message accounting for the Figure 9 reproduction."""
        out: Dict[str, object] = {
            "message_requests": self.message_requests,
            "message_executions": self.message_executions,
            "carry_message_executions": self.carry_message_executions,
            "carry_cache_hits": self.carry_cache_hits,
            "carry_cache_misses": self.carry_cache_misses,
            **self.cache.stats(),
        }
        encodings = getattr(self.db, "encodings", None)
        if encodings is not None:
            out["encoding_cache"] = encodings.stats()
        return out

    def cleanup(self) -> None:
        """Drop lifted copies and cached messages (end of training)."""
        self.invalidate_all()
        for table in self.lifted.values():
            self.db.drop_table(table, if_exists=True)
        self.lifted.clear()
