"""Inter-query parallelism: the task runner of Section 5.5.3.

JoinBoost parallelizes *across* queries whose inputs are independent.
Every unit of work training fans out is an independent chain: one
relation's message build → fused split read → prefix scan in a frontier
round, one tree of a random forest, one shard's step of a sharded
training.  :func:`run_tasks` runs such a list, one after another or on a
few threads; training's ``num_workers`` parameter sets the count.

* One worker runs the tasks inline on the calling thread, in list order,
  and starts no threads — so a frontier round issues its statements
  relation by relation, as a plain nested loop would.
* More workers run a thread pool clamped to :data:`MAX_WORKERS`; the
  caller's real wall clock against the summed task seconds is the
  measured overlap of Figure 18.
* Every task runs even when another fails; after all have run, the error
  of the lowest failing index is raised, whatever the worker count.

The runner never retries a task.  Transient statement faults are retried
where the statement runs — by :class:`~repro.backends.chaos.RetryConnector`
— so a fanned-out round attempts each statement exactly as often as a
serial one.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

#: hard ceiling on the pool size — beyond this, thread switch overhead
#: dwarfs any overlap a DBMS connection can deliver
MAX_WORKERS = 64

T = TypeVar("T")


def run_tasks(
    tasks: Sequence[Callable[[], T]], num_workers: int = 1
) -> Tuple[List[T], List[float]]:
    """Run every task; return their results and seconds in task order.

    ``num_workers`` is clamped to ``[1, MAX_WORKERS]``; at one worker (or
    one task) the tasks run inline.  After every task has run, the error
    of the lowest failing index is raised.
    """
    results: List[Optional[T]] = [None] * len(tasks)
    seconds = [0.0] * len(tasks)
    errors: List[Optional[BaseException]] = [None] * len(tasks)

    def run(index: int) -> None:
        start = time.perf_counter()
        try:
            results[index] = tasks[index]()
        except BaseException as exc:  # recorded, surfaced after the run
            errors[index] = exc
        seconds[index] = time.perf_counter() - start

    workers = max(1, min(int(num_workers), MAX_WORKERS, len(tasks)))
    if workers == 1:
        for index in range(len(tasks)):
            run(index)
    else:
        # Imported here: concurrent.futures pulls in logging, which an
        # inline run never needs (~0.4 MB of peak rss per process).
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, range(len(tasks))))
    for error in errors:
        if error is not None:
            raise error
    return results, seconds  # type: ignore[return-value]
