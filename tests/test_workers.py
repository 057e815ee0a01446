"""The ordered worker map: order, bounded look-ahead, errors, worker death."""

import multiprocessing
import os
import time

import pytest

from paucity.errors import CapacityError, ValidationError
from paucity.workers import ordered_map


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_results_in_argument_order(workers):
    parent = os.getpid()
    scale = 7  # read through the closure, in this process or a forked worker

    def task(k):
        time.sleep(0.002 * (12 - k))  # later args finish first
        return k * scale, os.getpid()

    results = ordered_map(task, range(12), workers, list)
    assert [value for value, _ in results] == [k * scale for k in range(12)]
    pids = {pid for _, pid in results}
    assert pids == {parent} if workers == 1 else parent not in pids
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_at_most_two_tasks_per_worker_in_flight(workers):
    pulled = []

    def args():
        for k in range(20):
            pulled.append(k)
            yield k

    def consume(results):
        first = next(results)
        ahead = len(pulled)
        return [first, *results], ahead

    results, ahead = ordered_map(lambda k: -k, args(), workers, consume)
    assert results == [-k for k in range(20)]
    assert ahead <= 2 * workers
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [1, 2])
def test_task_error_reaches_caller(workers):
    def task(k):
        if k == 5:
            raise ValidationError(f"task refused {k}")
        return k

    with pytest.raises(ValidationError) as exc:
        ordered_map(task, range(10), workers, list)
    assert type(exc.value) is ValidationError and str(exc.value) == "task refused 5"
    assert multiprocessing.active_children() == []


def test_worker_death_is_capacity_error():
    parent = os.getpid()

    def task(k):
        if os.getpid() != parent and k == 3:
            os._exit(1)
        return k

    with pytest.raises(CapacityError, match="^a worker process died"):
        ordered_map(task, range(10), 2, list)
    assert multiprocessing.active_children() == []
