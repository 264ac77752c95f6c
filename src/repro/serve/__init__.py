"""Model serving: versioned deploys + warm compiled scoring + gateway.

See :mod:`repro.serve.service` for the batch scorer (deploy, canary,
rollback; one record per deployed digest holding its compiled kernel
and score column), :mod:`repro.serve.breaker` for the per-path circuit
breakers, and :mod:`repro.serve.gateway` for the resilient front door
(deadlines, admission control, degradation ladder).
"""

from repro.serve.breaker import (
    CLOSED,
    DEFAULT_BREAKER_POLICY,
    HALF_OPEN,
    OPEN,
    BreakerPolicy,
    CircuitBreaker,
)
from repro.serve.gateway import (
    DEADLINE_ENV,
    DEFAULT_DEADLINE_SECONDS,
    GatewayResponse,
    ServingGateway,
)
from repro.serve.service import (
    RETAINED_VERSIONS,
    Deployment,
    PredictionService,
)

__all__ = [
    "BreakerPolicy",
    "CircuitBreaker",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "DEFAULT_BREAKER_POLICY",
    "DEADLINE_ENV",
    "DEFAULT_DEADLINE_SECONDS",
    "RETAINED_VERSIONS",
    "Deployment",
    "GatewayResponse",
    "PredictionService",
    "ServingGateway",
]
