"""Order-preserving map over a lazily created, process-wide thread pool.

The two hot kernels, the column blocks of a Newton evaluation in
``rmq_engine`` and the Monte Carlo paths of ``oracles``, split into
pieces whose results do not depend on the order in which they run; numpy
and scipy release the interpreter lock inside those pieces, so threads
use every core.  The pool has one thread per core this process may run
on (``os.sched_getaffinity``, or ``os.cpu_count`` on platforms without
it); one core, or a single piece, means a plain loop in the calling
thread.  A forked child does not inherit the parent's threads, so the
pool is created again when the process id changes.
"""

from __future__ import annotations

import os
import threading

_lock = threading.Lock()
_pool = None    # (pid, worker count, executor)


def workers() -> int:
    """Threads the kernels split their work over."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pmap(fn, items) -> list:
    """``[fn(x) for x in items]``, spread over the pool from two items."""
    items = list(items)
    n = workers() if len(items) > 1 else 1
    if n == 1:
        return [fn(x) for x in items]
    global _pool
    with _lock:
        if _pool is None or _pool[:2] != (os.getpid(), n):
            # Imported here: the module costs a few ms that an import of
            # rmquant need not pay.
            from concurrent.futures import ThreadPoolExecutor
            _pool = (os.getpid(), n, ThreadPoolExecutor(n, "rmquant"))
        executor = _pool[2]
    return list(executor.map(fn, items))
