"""One job in two processes: a forked child computes one part while this
process computes the other.

The program splits work that holds the GIL and calls no BLAS, such as the
17-digit float parsing of a wide CSV and the normal quantile of the toy
sample: a second thread would wait for the GIL, while a forked child runs
beside this process. A caller gets the child's part only when it arrived
whole, and otherwise does the work in this process, so a failed split
costs time, never a result.
"""

from __future__ import annotations

import os
import pickle
import warnings


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def can_fork() -> bool:
    """Whether `fork_pair` may fork: `os.fork` exists and two CPUs are usable."""
    return hasattr(os, "fork") and _usable_cpus() > 1


def _send(child, out: int):
    """Forked child: pickle child() into the pipe `out` and exit, with 0
    only when all of it was sent. It never returns or writes to stdout or
    stderr."""
    code = 1
    try:
        warnings.simplefilter("ignore")
        result = child()
        with os.fdopen(out, "wb") as pipe:
            pickle.dump(result, pipe, protocol=pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def fork_pair(child, here):
    """(child(), here()), child() called in a forked child while this
    process calls here().

    The child's item is None when `os.fork` is missing, fewer than two CPUs
    are usable, the pipe or the fork raises, or the child exits non-zero,
    is killed or sends a truncated pickle. here() is called only if the
    child was forked; otherwise its item is None too. An exception from
    here() propagates once the child has been reaped."""
    if not can_fork():
        return None, None
    try:
        r, w = os.pipe()
    except OSError:
        return None, None
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None, None
    if pid == 0:
        os.close(r)  # so that the write fails, not blocks, once this process closes r
        _send(child, w)
    os.close(w)
    theirs = None
    try:
        # Closing r before waitpid frees a child blocked on a full pipe.
        with os.fdopen(r, "rb") as pipe:
            mine = here()
            try:
                theirs = pickle.load(pipe)
            except (OSError, EOFError, pickle.UnpicklingError):
                pass
    finally:
        _, status = os.waitpid(pid, 0)
    return (theirs if status == 0 else None), mine
