"""LightGBM-compatible training parameters (Section 5.1, API compatibility).

JoinBoost "accepts the same training parameters as LightGBM"; this module
parses the common aliases into a validated :class:`TrainParams`.  Unknown
keys raise — silently ignoring a typo'd parameter is how models quietly
train wrong.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Dict, Optional, Union

from repro.exceptions import TrainingError

#: environment default for ``num_workers`` — lets CI force the whole test
#: suite through the parallel path (explicit parameters still win)
NUM_WORKERS_ENV = "JOINBOOST_NUM_WORKERS"

_ALIASES = {
    "objective": "objective",
    "loss": "objective",
    "application": "objective",
    "num_leaves": "num_leaves",
    "max_leaves": "num_leaves",
    "max_leaf": "num_leaves",
    "max_depth": "max_depth",
    "learning_rate": "learning_rate",
    "eta": "learning_rate",
    "shrinkage_rate": "learning_rate",
    "n_estimators": "num_iterations",
    "num_iterations": "num_iterations",
    "num_trees": "num_iterations",
    "num_rounds": "num_iterations",
    "num_boost_round": "num_iterations",
    "reg_lambda": "reg_lambda",
    "lambda_l2": "reg_lambda",
    "lambda": "reg_lambda",
    "reg_alpha": "min_split_gain",
    "min_gain_to_split": "min_split_gain",
    "min_split_gain": "min_split_gain",
    "min_data_in_leaf": "min_child_samples",
    "min_child_samples": "min_child_samples",
    "bagging_fraction": "subsample",
    "subsample": "subsample",
    "sample_rate": "subsample",
    "feature_fraction": "colsample",
    "colsample_bytree": "colsample",
    "colsample": "colsample",
    "growth": "growth",
    "tree_learner_growth": "growth",
    "max_bin": "max_bin",
    "num_class": "num_class",
    "num_classes": "num_class",
    "seed": "seed",
    "random_state": "seed",
    "huber_delta": "huber_delta",
    "alpha": "quantile_alpha",
    "quantile_alpha": "quantile_alpha",
    "fair_c": "fair_c",
    "tweedie_variance_power": "tweedie_rho",
    "tweedie_rho": "tweedie_rho",
    "missing": "missing",
    "update_strategy": "update_strategy",
    "split_batching": "split_batching",
    "num_workers": "num_workers",
    "workers": "num_workers",
    "num_threads": "num_workers",
    "n_jobs": "num_workers",
}


@dataclasses.dataclass
class TrainParams:
    """Validated training configuration."""

    objective: str = "regression"
    num_leaves: int = 8
    max_depth: int = -1  # -1 = unlimited (bounded by num_leaves)
    learning_rate: float = 0.1
    num_iterations: int = 100
    reg_lambda: float = 0.0
    min_split_gain: float = 0.0
    min_child_samples: int = 1
    subsample: float = 1.0
    colsample: float = 1.0
    growth: str = "best-first"  # or "depth-wise"
    max_bin: Optional[int] = None  # None = exact (group-by per value)
    num_class: int = 2
    seed: int = 0
    huber_delta: float = 1.0
    quantile_alpha: float = 0.5
    fair_c: float = 1.0
    tweedie_rho: float = 1.5
    missing: str = "right"  # NULL routing: "right" (default) or "both"
    # Residual updates (Section 5.3/5.4): update|create|swap|naive.  "swap"
    # pointer-swaps the new column in where the connector declares
    # Capabilities.column_swap, and is the in-DBMS UPDATE everywhere else.
    update_strategy: str = "swap"
    # Frontier split evaluation: "auto" batches each round into one query
    # per relation over a persistent leaf-label column where the schema
    # and backend allow (otherwise the rounds go per-leaf and the census's
    # batching_veto says why); "off" keeps the classic one query per
    # (leaf, feature).
    split_batching: str = "auto"
    # Inter-query parallelism (Section 5.5.3): the thread count the task
    # runner (engine/scheduler.py) fans a round's relations, or a forest's
    # trees, out to.  "auto" is one worker everywhere: threads contend for
    # the interpreter lock in the client-side scans and the embedded
    # engine, and made both spine GBM trainings and Figure 18's forest
    # slower on a 2-core host (docs/EXPERIMENTS.md "Figure 18"); 1 runs
    # the tasks inline (no threads spawned — the parity gates pin it).
    # The JOINBOOST_NUM_WORKERS env var supplies the default when the
    # caller does not set the parameter (the CI race-smoke leg forces 4
    # that way); an explicit parameter always wins.
    num_workers: Union[int, str] = "auto"

    def __post_init__(self):
        if self.num_leaves < 2:
            raise TrainingError("num_leaves must be at least 2")
        if self.num_iterations < 1:
            raise TrainingError("num_iterations must be at least 1")
        if not 0.0 < self.learning_rate <= 1.0:
            raise TrainingError("learning_rate must be in (0, 1]")
        if not 0.0 < self.subsample <= 1.0:
            raise TrainingError("subsample must be in (0, 1]")
        if not 0.0 < self.colsample <= 1.0:
            raise TrainingError("colsample must be in (0, 1]")
        if self.growth not in ("best-first", "depth-wise"):
            raise TrainingError(
                f"growth must be 'best-first' or 'depth-wise', got {self.growth!r}"
            )
        if self.missing not in ("right", "both"):
            raise TrainingError("missing must be 'right' or 'both'")
        if self.update_strategy not in ("update", "create", "swap", "naive"):
            raise TrainingError(
                f"unknown update_strategy {self.update_strategy!r}"
            )
        if self.split_batching not in ("auto", "off"):
            raise TrainingError(
                f"split_batching must be 'auto' or 'off', "
                f"got {self.split_batching!r}"
            )
        if self.max_bin is not None and self.max_bin < 2:
            raise TrainingError("max_bin must be at least 2")
        if self.min_child_samples < 1:
            raise TrainingError("min_child_samples must be at least 1")
        if self.num_workers != "auto":
            try:
                self.num_workers = int(self.num_workers)
            except (TypeError, ValueError):
                raise TrainingError(
                    f"num_workers must be 'auto' or a positive integer, "
                    f"got {self.num_workers!r}"
                ) from None
            if self.num_workers < 1:
                raise TrainingError(
                    f"num_workers must be at least 1, got {self.num_workers}"
                )

    def resolved_workers(self) -> int:
        """The worker count for this run's tasks (a tree's frontier
        rounds, a forest's trees): one under "auto", the explicit count
        otherwise."""
        return 1 if self.num_workers == "auto" else int(self.num_workers)

    @staticmethod
    def from_dict(params: Optional[Dict] = None, **overrides) -> "TrainParams":
        """Parse a LightGBM-style parameter dict (aliases accepted)."""
        merged: Dict[str, object] = {}
        for source in (params or {}), overrides:
            for key, value in source.items():
                canonical = _ALIASES.get(key.lower())
                if canonical is None:
                    raise TrainingError(f"unknown training parameter {key!r}")
                merged[canonical] = value
        if "num_workers" not in merged:
            env = (os.environ.get(NUM_WORKERS_ENV) or "").strip()
            if env:
                merged["num_workers"] = env
        return TrainParams(**merged)  # type: ignore[arg-type]

    def unbinned(self, driver: str) -> "TrainParams":
        """These parameters, for a ``driver`` that splits on exact feature
        values: ``max_bin``, which only the cuboid driver honours, is
        refused rather than silently ignored."""
        if self.max_bin is not None:
            raise TrainingError(
                f"max_bin = {self.max_bin} is not supported by {driver}, "
                "which splits on exact feature values; use "
                "train_boosting_on_cuboid for binned training"
            )
        return self

    def loss_kwargs(self) -> Dict[str, object]:
        """Constructor arguments for the configured objective's Loss."""
        name = self.objective.lower()
        if name == "huber":
            return {"delta": self.huber_delta}
        if name == "quantile":
            return {"alpha": self.quantile_alpha}
        if name == "fair":
            return {"c": self.fair_c}
        if name == "tweedie":
            return {"rho": self.tweedie_rho}
        if name in ("softmax", "multiclass"):
            return {"num_classes": self.num_class}
        return {}
