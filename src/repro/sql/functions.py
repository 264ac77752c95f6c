"""Scalar, aggregate and window function registry.

Scalar functions evaluate element-wise over NumPy arrays with NaN-as-NULL
semantics.  Aggregate functions are *not* evaluated here — the planner
extracts them and computes them per group with the fast paths in
``repro.engine.operators`` — but the registry declares which names are
aggregates (and which of those are valid window functions) so the planner
can classify calls.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from repro.exceptions import ExecutionError

AGGREGATE_FUNCTIONS = {"sum", "count", "avg", "min", "max", "median", "stddev", "var"}
WINDOW_FUNCTIONS = {"sum", "count", "avg", "min", "max", "row_number"}


def _binary(fn: Callable) -> Callable:
    def wrapper(*args: np.ndarray) -> np.ndarray:
        if len(args) != 2:
            raise ExecutionError(f"{fn.__name__} expects 2 arguments")
        return fn(args[0], args[1])

    return wrapper


def _unary(fn: Callable) -> Callable:
    def wrapper(*args: np.ndarray) -> np.ndarray:
        if len(args) != 1:
            raise ExecutionError(f"{fn.__name__} expects 1 argument")
        return fn(args[0])

    return wrapper


def _coalesce(*args: np.ndarray) -> np.ndarray:
    if not args:
        raise ExecutionError("coalesce expects at least one argument")
    out = np.array(args[0], dtype=np.float64, copy=True)
    for arg in args[1:]:
        mask = np.isnan(out)
        if not mask.any():
            break
        out[mask] = np.asarray(arg, dtype=np.float64)[mask] if np.ndim(arg) else arg
    return out

def _nullif(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.float64, copy=True)
    out[np.asarray(a) == np.asarray(b)] = np.nan
    return out


def _least(*args: np.ndarray) -> np.ndarray:
    out = np.asarray(args[0], dtype=np.float64)
    for arg in args[1:]:
        out = np.fmin(out, np.asarray(arg, dtype=np.float64))
    return out


def _greatest(*args: np.ndarray) -> np.ndarray:
    out = np.asarray(args[0], dtype=np.float64)
    for arg in args[1:]:
        out = np.fmax(out, np.asarray(arg, dtype=np.float64))
    return out


def _safe_log(x: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(np.asarray(x, dtype=np.float64))


def _round(x: np.ndarray) -> np.ndarray:
    """SQL ``ROUND``: halves round away from zero, as in sqlite (NumPy's
    ``round`` sends them to the even neighbour).  From 2**52 up every
    double is already whole, and ``+ 0.5`` could round up."""
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        whole = np.abs(x) >= 2.0**52
    return np.where(whole, x, np.copysign(np.floor(np.abs(x) + 0.5), x))


def _power(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    with np.errstate(all="ignore"):
        return np.power(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64))


SCALAR_FUNCTIONS: Dict[str, Callable] = {
    "abs": _unary(np.abs),
    "sign": _unary(np.sign),
    "sqrt": _unary(lambda x: np.sqrt(np.asarray(x, dtype=np.float64))),
    "exp": _unary(lambda x: np.exp(np.asarray(x, dtype=np.float64))),
    "log": _unary(_safe_log),
    "ln": _unary(_safe_log),
    "log2": _unary(lambda x: _safe_log(x) / np.log(2.0)),
    "log10": _unary(lambda x: _safe_log(x) / np.log(10.0)),
    "floor": _unary(np.floor),
    "ceil": _unary(np.ceil),
    "ceiling": _unary(np.ceil),
    "round": _unary(_round),
    "power": _binary(_power),
    "pow": _binary(_power),
    "mod": _binary(lambda a, b: np.mod(a, b)),
    "coalesce": _coalesce,
    "ifnull": _coalesce,
    "nullif": _binary(_nullif),
    "least": _least,
    "greatest": _greatest,
}


def call_scalar(name: str, *args: np.ndarray) -> np.ndarray:
    """Evaluate a registered scalar function, NaN-propagating."""
    try:
        fn = SCALAR_FUNCTIONS[name]
    except KeyError:
        raise ExecutionError(f"unknown function {name!r}") from None
    with np.errstate(all="ignore"):
        return fn(*args)


def is_aggregate(name: str) -> bool:
    return name.lower() in AGGREGATE_FUNCTIONS


def is_window_capable(name: str) -> bool:
    return name.lower() in WINDOW_FUNCTIONS
