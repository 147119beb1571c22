"""Independent tasks dealt round-robin over the CPUs this process may use.

Both threaded kernels (the eigensolver's LAPACK calls and the conjugation
residual's tiles) release the GIL for nearly all of their work and write
each task's result to its own slot, so what they return does not depend on
how many threads share the tasks.
"""

from __future__ import annotations

from typing import Callable


def cpu_workers() -> int:
    """The number of CPUs this process may run on."""
    import os

    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def deal(n_tasks: int, run: Callable[[int, int], None]) -> None:
    """Run tasks 0 .. n_tasks - 1 on one thread per CPU, never more than tasks.

    Worker w calls run(w, workers) and takes tasks w, w + workers, ...; the
    calling thread is worker 0 and the others are helper threads started
    here.  Once every helper has finished, the first exception a helper
    raised is re-raised in the calling thread.
    """
    import threading

    workers = max(1, min(cpu_workers(), n_tasks))
    failures: list[BaseException] = []

    def helper(first: int) -> None:
        try:
            run(first, workers)
        except BaseException as exc:  # re-raised in the calling thread
            failures.append(exc)

    helpers = [threading.Thread(target=helper, args=(w,)) for w in range(1, workers)]
    for th in helpers:
        th.start()
    try:
        run(0, workers)
    finally:
        for th in helpers:
            th.join()
    if failures:
        raise failures[0]
