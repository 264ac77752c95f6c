"""JoinBoost reproduction: grow trees over normalized data using only SQL.

Reproduction of Huang, Sen, Liu and Wu, *JoinBoost: Grow Trees Over
Normalized Data Using Only SQL* (VLDB 2023), including the DBMS substrate
it runs on.  See README.md for install and quickstart, docs/DESIGN.md for
the system inventory, and docs/EXPERIMENTS.md for the per-figure
reproduction map.

Quick start::

    import repro as joinboost
    from repro.datasets import favorita

    db, graph = favorita(num_fact_rows=50_000)
    model = joinboost.train_gradient_boosting(
        db, graph, {"objective": "regression", "num_iterations": 10}
    )
    print(joinboost.rmse_on_join(db, graph, model))

Training runs unchanged on other DBMSes through the connector layer
(:mod:`repro.backends`)::

    conn = joinboost.connect(backend="sqlite")   # stdlib sqlite3
"""

from repro.api import (
    TrainSet,
    connect,
    evaluate_rmse,
    join_graph,
    predict,
    train,
    train_decision_tree,
)
from repro.backends import (
    ChaosConnector,
    Connector,
    DuckDBConnector,
    FaultPlan,
    RetryConnector,
    SQLiteConnector,
)
from repro.core.checkpoint import (
    CheckpointSink,
    DirectoryCheckpointSink,
    MemoryCheckpointSink,
    resume_training,
)
from repro.core.session import TrainingSessionGuard, side_state_audit
from repro.engine.retry import RetryPolicy
from repro.exceptions import (
    BackendError,
    BackendExecutionError,
    CanaryParityError,
    CircuitOpenError,
    DeadlineExceededError,
    ServiceOverloadedError,
    ServingBackendError,
    ServingError,
    TransientBackendError,
    TransientServingError,
)
from repro.core.boosting import (
    GradientBoostingModel,
    MulticlassBoostingModel,
    train_gradient_boosting,
)
from repro.core.compile import compile_model, predict_compiled
from repro.core.forest import RandomForestModel, train_random_forest
from repro.core.params import TrainParams
from repro.core.predict import feature_frame, predict_join, rmse_on_join
from repro.core.serialize import load_model, model_digest, save_model
from repro.core.sql_score import score_by_key, sql_scores
from repro.core.tree import DecisionTreeModel
from repro.engine.database import Database
from repro.joingraph.graph import JoinGraph
from repro.serve import (
    BreakerPolicy,
    CircuitBreaker,
    GatewayResponse,
    PredictionService,
    ServingGateway,
)
from repro.storage.table import StorageConfig

__version__ = "1.0.0"

__all__ = [
    "connect",
    "join_graph",
    "train",
    "train_decision_tree",
    "train_gradient_boosting",
    "train_random_forest",
    "predict",
    "evaluate_rmse",
    "predict_join",
    "rmse_on_join",
    "feature_frame",
    "compile_model",
    "predict_compiled",
    "sql_scores",
    "score_by_key",
    "save_model",
    "load_model",
    "model_digest",
    "PredictionService",
    "ServingGateway",
    "GatewayResponse",
    "BreakerPolicy",
    "CircuitBreaker",
    "ServingError",
    "ServingBackendError",
    "TransientServingError",
    "ServiceOverloadedError",
    "DeadlineExceededError",
    "CircuitOpenError",
    "CanaryParityError",
    "TrainSet",
    "TrainParams",
    "Connector",
    "SQLiteConnector",
    "DuckDBConnector",
    "ChaosConnector",
    "RetryConnector",
    "FaultPlan",
    "RetryPolicy",
    "BackendError",
    "BackendExecutionError",
    "TransientBackendError",
    "resume_training",
    "CheckpointSink",
    "MemoryCheckpointSink",
    "DirectoryCheckpointSink",
    "TrainingSessionGuard",
    "side_state_audit",
    "Database",
    "JoinGraph",
    "StorageConfig",
    "DecisionTreeModel",
    "GradientBoostingModel",
    "MulticlassBoostingModel",
    "RandomForestModel",
    "__version__",
]
