"""One job in two processes: a forked child computes one part while this
process computes the other.

The program splits work that holds the GIL, where a second thread would
wait for it while a forked child runs beside this process: the 17-digit
float parsing of a wide CSV, the toy sample's normal quantile, the
Monte-Carlo votes of `smoothing.vote_counts` and the PGD steps of
`hierarchy.evaluate_adversarial`. The votes and the attack call BLAS
through the models' products, and two processes each running numpy's
OpenBLAS with a thread per CPU contend for the CPUs: a `vote_counts` split
like that was 1.8-2x slower than one process. So `fork_pair` holds numpy's
OpenBLAS to one thread from just before the fork until the child is
reaped, and work that calls BLAS splits only where it can
(`can_hold_blas`). A caller gets the child's part only when it arrived
whole, and otherwise does the work in this process (`both`), so a failed
split costs time, never a result.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import pickle
import warnings
from pathlib import Path

import numpy as np

#: Work of at least this many noise draws is split by its callers. Measured
#: on two cores from a 96 MB process, the toy split lost below 0.4M draws,
#: varied either way up to 0.8M and won by 32-47 % from 1M on; the
#: `vote_counts` split lost or varied either way below 0.6M and won by
#: 28-50 % from 0.78M on (the BENCH_*.json records of the two splits).
SPLIT_MIN_DRAWS = 1 << 20

# Thread-count symbols of OpenBLAS builds: scipy-openblas (numpy's wheels),
# 64-bit-integer and plain builds.
_BLAS_SYMBOLS = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                 "openblas_{}_num_threads")


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def can_fork() -> bool:
    """Whether `fork_pair` may fork: `os.fork` exists and two CPUs are usable."""
    return hasattr(os, "fork") and _usable_cpus() > 1


@functools.cache
def _openblas():
    """(get, set) thread-count functions of the OpenBLAS that numpy's matmul
    calls, or None where no such library or symbol is found. Only the copy
    numpy ships is asked: scipy ships a second OpenBLAS, which no product
    here runs on. Loading the library again gives the loaded one."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for name in _BLAS_SYMBOLS:
            get = getattr(lib, name.format("get"), None)
            put = getattr(lib, name.format("set"), None)
            if get is not None and put is not None:
                get.restype, put.argtypes = ctypes.c_int, [ctypes.c_int]
                return get, put
    return None


def can_hold_blas() -> bool:
    """Whether `fork_pair` can hold numpy's OpenBLAS to one thread, so that
    work calling BLAS may split."""
    return _openblas() is not None


@contextlib.contextmanager
def _one_blas_thread():
    """Hold numpy's OpenBLAS to one thread, then put back its count; a
    child forked inside inherits the one thread."""
    blas = _openblas()
    if blas is None:
        yield
        return
    get, put = blas
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


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
    process calls here(), both with numpy's OpenBLAS held to one thread.

    The child's item is None when `os.fork` is missing, fewer than two CPUs
    are usable, the pipe or the fork raises, or the child exits non-zero,
    is killed or sends a truncated pickle. here() is called only if the
    child was forked; otherwise its item is None too. An exception from
    here() propagates once the child has been reaped. The OpenBLAS thread
    count is put back after the child is reaped, also when here() raises."""
    if not can_fork():
        return None, None
    try:
        r, w = os.pipe()
    except OSError:
        return None, None
    with _one_blas_thread():
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


def both(head, tail):
    """(head(), tail()), head() called in a forked child while this process
    calls tail() (`fork_pair`). A half that does not arrive is computed in
    this process, so the pair is the same wherever each half was computed."""
    theirs, mine = fork_pair(head, tail)
    return (head() if theirs is None else theirs), (tail() if mine is None else mine)


def summed(head, tail):
    """head() + tail(), the halves computed as `both` computes them."""
    theirs, mine = both(head, tail)
    return theirs + mine
