"""One training session: setup, guaranteed cleanup and census.

:func:`run_training_session` is the setup-and-teardown sequence every
single-node tree and boosting driver runs.  Training mints side state in
the user's database: ``jb_tmp_*`` message and lifted-fact tables, plus
``jb_``-prefixed working columns.  An uninterrupted run drops them on
its way out; on a mid-training failure, chaos-injected or real,
:class:`TrainingSessionGuard` tears down every factorizer it was told
about and drops every temp table minted inside the block, then
re-raises the original error — a stranded lifted temp would otherwise
pollute the connection and could shadow the next run's.

:func:`side_state_audit` is the checkable contract: after a guarded
failure it must report ``clean`` — no JoinBoost temps, no minted
columns on permanent tables — which the chaos tests assert directly.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.frontier import FrontierEvaluator
from repro.core.params import TrainParams
from repro.core.split import Criterion
from repro.core.trainer import DecisionTreeTrainer
from repro.factorize.executor import Factorizer, prepare_training_paths
from repro.joingraph.clusters import Cluster
from repro.joingraph.graph import JoinGraph
from repro.semiring.base import SemiRing
from repro.storage.catalog import TEMP_PREFIX


class TrainingSessionGuard:
    """Context manager: on failure, drop everything training minted.

    Cleanup is best-effort by design — it runs while the original
    exception is in flight, possibly against a backend that is itself
    misbehaving, so secondary errors are swallowed (the original error
    is the one the caller must see).  Factorizers registered via
    :meth:`register` get their own ``cleanup()`` first (they know their
    lifted/carry tables); a prefix sweep of newly-minted ``jb_tmp_*``
    tables catches the rest.
    """

    def __init__(self, db):
        self.db = db
        self._factorizers: List[object] = []
        self._preexisting: Optional[List[str]] = None
        #: how many temp tables the failure path dropped (0 on success)
        self.dropped_temps = 0
        self.cleaned_up = False

    def register(self, factorizer) -> "TrainingSessionGuard":
        """Add a factorizer whose ``cleanup()`` runs on failure."""
        self._factorizers.append(factorizer)
        return self

    def __enter__(self) -> "TrainingSessionGuard":
        self._preexisting = [
            name for name in self.db.table_names()
            if name.lower().startswith(TEMP_PREFIX)
        ]
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            return False
        self.cleanup()
        return False  # re-raise the original error

    def cleanup(self) -> None:
        """Tear down session side state (idempotent, swallows errors)."""
        if self.cleaned_up:
            return
        self.cleaned_up = True
        for factorizer in self._factorizers:
            try:
                factorizer.cleanup()
            except Exception:
                pass
        try:
            # Drop temps minted inside the guarded block; temps that
            # existed before the session (another model's working set)
            # are kept.
            self.dropped_temps = self.db.cleanup_temp(
                keep=self._preexisting or []
            )
        except Exception:
            # Last resort: per-table drops, ignoring individual failures.
            keep = {name.lower() for name in self._preexisting or []}
            for name in self._safe_table_names():
                if (
                    name.lower().startswith(TEMP_PREFIX)
                    and name.lower() not in keep
                ):
                    try:
                        self.db.drop_table(name, if_exists=True)
                        self.dropped_temps += 1
                    except Exception:
                        pass

    def _safe_table_names(self) -> List[str]:
        try:
            return list(self.db.table_names())
        except Exception:
            return []


def run_training_session(
    db,
    graph: JoinGraph,
    ring: SemiRing,
    criterion: Criterion,
    params: TrainParams,
    lift: Callable[[Factorizer], object] = Factorizer.lift,
    grow: Callable[[DecisionTreeTrainer, Factorizer], Any] = (
        lambda trainer, _factorizer: trainer.train()
    ),
    *,
    clusters: Optional[Sequence[Cluster]] = None,
    prepare_paths: bool = True,
    evaluator_class: Callable[..., FrontierEvaluator] = FrontierEvaluator,
) -> Any:
    """Guard, lift, prepare access paths, grow, census, clean up.

    ``lift(factorizer)`` materializes (or adopts) the lifted relations
    (default: the ring's own lift of Y); ``grow(trainer, factorizer)``
    returns the model (default: one tree), which gets the frontier and
    factorizer census as ``frontier_census``.  ``prepare_paths=False``
    skips the backend's training setup.  ``evaluator_class`` is the
    split search's class, a :class:`FrontierEvaluator` (the LMFAO
    ablation passes its per-node-cache subclass).
    """
    factorizer = Factorizer(db, graph, ring)
    with TrainingSessionGuard(db).register(factorizer):
        lift(factorizer)
        if prepare_paths:
            prepare_training_paths(db, graph, factorizer)
        evaluator = evaluator_class(db, graph, factorizer, criterion, params)
        trainer = DecisionTreeTrainer(
            graph, criterion, params, evaluator, clusters=clusters
        )
        model = grow(trainer, factorizer)
        model.frontier_census = {
            **evaluator.census(),
            "factorizer": factorizer.census(),
        }
        factorizer.cleanup()
    return model


def side_state_audit(db) -> Dict[str, object]:
    """What JoinBoost side state remains in ``db`` right now.

    Returns the ``jb_tmp_*`` temp tables still stored, any
    ``jb_``-prefixed columns minted onto *permanent* tables (leaf-
    membership columns live on lifted temps, so a non-empty list here
    means a cleanup bug), and a summary ``clean`` flag the chaos tests
    assert after guarded failures.
    """
    temp_tables = [
        name for name in db.table_names()
        if name.lower().startswith(TEMP_PREFIX)
    ]
    leaf_columns = []
    for name in db.table_names():
        if name.lower().startswith(TEMP_PREFIX):
            continue
        try:
            columns = db.table(name).column_names()
        except Exception:  # pragma: no cover - concurrent drops
            continue
        for column in columns:
            if column.lower().startswith("jb_"):
                leaf_columns.append(f"{name}.{column}")
    return {
        "temp_tables": temp_tables,
        "leaf_columns": leaf_columns,
        "clean": not temp_tables and not leaf_columns,
    }
