"""JoinBoost's public, LightGBM-flavoured API (the paper's Figure 4).

Usage mirrors Example 6::

    import repro as joinboost

    conn = joinboost.connect()            # a Connector (embedded by default)
    train_set = joinboost.join_graph(conn)
    train_set.add_node("sales", y="net_profit")
    train_set.add_node("date", X=["holiday", "weekend"])
    train_set.add_edge("sales", "date", ["date_id"])
    model = joinboost.train({"objective": "regression"}, train_set)
    scores = joinboost.predict(model, train_set)

``join_graph(...)`` returns a :class:`TrainSet` wrapper so the paper's
``add_node(name, X=..., Y=...)`` spelling works verbatim; it delegates to
:class:`~repro.joingraph.graph.JoinGraph`.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Sequence, Union

import numpy as np

from repro.backends import Connector, get_backend
from repro.backends.chaos import FaultPlan, RetryConnector, wrap_with_chaos
from repro.engine.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.exceptions import TrainingError
from repro.joingraph.graph import JoinGraph
from repro.core.boosting import train_gradient_boosting
from repro.core.forest import train_random_forest
from repro.core.params import TrainParams
from repro.core.predict import predict_join, rmse_on_join
from repro.core.session import run_training_session
from repro.core.split import VarianceCriterion
from repro.semiring.variance import VarianceSemiRing


def connect(
    backend: str = "plain",
    name: str = "repro",
    chaos: Union[FaultPlan, str, None] = None,
    retry: Union[RetryPolicy, bool, None] = None,
    **table_data,
) -> Connector:
    """Open a database connection; ``backend`` picks the engine.

    ``backend`` may be an embedded-engine storage preset (``plain``,
    ``x-col``, ``x-row``, ``d-disk``, ``d-mem``, ``dp``, ``d-swap``), the
    stdlib ``sqlite`` backend, or ``duckdb`` when the optional package is
    installed — see :mod:`repro.backends`.  Keyword arguments become
    tables (column-name -> array mappings), Example 6 style.

    Fault tolerance knobs (PR 8):

    * ``chaos`` — a :class:`~repro.backends.chaos.FaultPlan` or spec
      string; defaults to the ``JOINBOOST_CHAOS`` environment variable.
      Wraps the backend in a fault-injecting
      :class:`~repro.backends.chaos.ChaosConnector`.
    * ``retry`` — a :class:`~repro.engine.retry.RetryPolicy`, ``True``
      (default policy), or ``False`` (never retry).  Left unset, retries
      are enabled automatically whenever chaos is active.  The retry
      proxy is outermost, so it sees (and absorbs) injected faults.
    """
    conn = get_backend(backend, name=name)
    if chaos is None:
        chaos = os.environ.get("JOINBOOST_CHAOS") or None
    conn = wrap_with_chaos(conn, chaos)
    if retry is None:
        retry = chaos is not None
    if retry is not False:
        policy = retry if isinstance(retry, RetryPolicy) else DEFAULT_RETRY_POLICY
        conn = RetryConnector(conn, policy)
    for table_name, data in table_data.items():
        conn.create_table(table_name, data)
    return conn


class TrainSet:
    """Paper-style training-set wrapper over a join graph."""

    def __init__(self, db: Connector):
        self.db = db
        self.graph = JoinGraph(db)

    def add_node(
        self,
        name: str,
        X: Optional[Sequence[str]] = None,
        y: Optional[str] = None,
        Y: Optional[str] = None,
        categorical: Optional[Sequence[str]] = None,
        is_fact: bool = False,
    ) -> "TrainSet":
        target = y or Y
        if isinstance(target, (list, tuple)):
            if len(target) != 1:
                raise TrainingError("exactly one target variable is supported")
            target = target[0]
        self.graph.add_relation(
            name, features=X, y=target, categorical=categorical, is_fact=is_fact
        )
        return self

    def add_edge(
        self,
        left: str,
        right: str,
        keys: Sequence[str],
        right_keys: Optional[Sequence[str]] = None,
    ) -> "TrainSet":
        self.graph.add_edge(left, right, keys, right_keys)
        return self

    def infer_edges(self) -> "TrainSet":
        self.graph.infer_edges()
        return self


def join_graph(db: Connector) -> TrainSet:
    """Start defining a training dataset over ``db`` (Figure 4 API)."""
    return TrainSet(db)


def train(params: Optional[Dict] = None, train_set: TrainSet = None, **overrides):
    """Train per LightGBM-style params: boosting by default, random
    forest when ``boosting_type='rf'`` is requested, a single decision
    tree when ``num_iterations == 1`` and ``model='tree'``."""
    if train_set is None:
        raise TrainingError("train() needs a train_set")
    params = dict(params or {})
    model_kind = params.pop("model", overrides.pop("model", "boosting"))
    if params.pop("boosting_type", None) == "rf":
        model_kind = "rf"
    graph = train_set.graph
    if model_kind == "rf":
        return train_random_forest(train_set.db, graph, params, **overrides)
    if model_kind == "tree":
        return train_decision_tree(train_set.db, graph, params, **overrides)
    return train_gradient_boosting(train_set.db, graph, params, **overrides)


def train_decision_tree(db, graph: JoinGraph, params=None, **overrides):
    """Train one factorized decision tree (variance criterion)."""
    train_params = TrainParams.from_dict(params, **overrides).unbinned(
        "train_decision_tree"
    )
    graph.validate()
    return run_training_session(
        db, graph, VarianceSemiRing(), VarianceCriterion(), train_params
    )


def predict(model, train_set: TrainSet) -> np.ndarray:
    """Score every fact row of the training set's join graph."""
    return predict_join(train_set.db, train_set.graph, model)


def evaluate_rmse(model, train_set: TrainSet) -> float:
    return rmse_on_join(train_set.db, train_set.graph, model)
