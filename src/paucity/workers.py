"""An ordered map over forked worker processes.

Fork, not spawn: the task may be a closure, which cannot be pickled, so it
is set in a module global before the pool forks and every worker inherits
it; a worker receives only each arg and sends back its result.  A spawned
worker would also import numpy and the package again (about 0.13 s each on
a 2-core machine).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Iterable, Iterator

from .errors import CapacityError

# The task of the running pool, set before its workers fork.
_task: Callable[[Any], Any] | None = None


def _call(arg: Any) -> Any:
    return _task(arg)


def ordered_map(
    task: Callable[[Any], Any], args: Iterable, workers: int, consume: Callable[[Iterator], Any]
) -> Any:
    """consume(results), where results yields task(arg) for each of args in order.

    One worker runs the tasks in this process, which never imports
    multiprocessing; more run them in a forked ProcessPoolExecutor, at most
    2 * workers of them in flight.  An error raised by a task is raised here
    with its type and message; a worker that dies raises CapacityError.
    Every worker has exited when this returns or raises.
    """
    if workers == 1:
        return consume(map(task, args))
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    global _task
    _task = task
    # With fork, every worker starts at the first submit, after _task is set.
    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"))

    def in_order() -> Iterator:
        pending: deque = deque()
        for arg in args:
            pending.append(pool.submit(_call, arg))
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()

    try:
        return consume(in_order())
    except BrokenProcessPool as exc:
        raise CapacityError(f"a worker process died before returning its result: {exc}") from None
    finally:
        pool.shutdown(cancel_futures=True)
        _task = None
