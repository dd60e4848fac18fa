"""One job in two processes: a forked child computes one half while this
process computes the other.

The program splits work that holds the GIL, where a second thread would
wait for it while a forked child runs beside this process: the 17-digit
float parsing of a wide CSV, the toy sample's normal quantile, the
Monte-Carlo votes of `smoothing.vote_counts` (one job for every
selection and estimation pass of a `certify` command, so the command forks
at most once) and the PGD steps of `hierarchy.evaluate_adversarial`. Each caller states its job as
`part(a, b)`, halves a/2 to b/2 of it, and `parts` decides, for all of
them, whether it runs in one process or two. The votes and the attack call
BLAS through the models' products, and two processes each running numpy's
OpenBLAS with a thread per CPU contend for the CPUs: a `vote_counts` split
like that was 1.8-2x slower than one process. So `_fork_pair` holds numpy's
OpenBLAS to one thread from just before the fork until the child is
reaped, and no job splits where that thread count cannot be held. A first
half that does not arrive whole is computed in this process, so a failed
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
#: 28-50 % from 0.78M on (the BENCH_*.json records of the two splits). The
#: vote counts weigh the summed draws of all the passes they count at once.
SPLIT_MIN_DRAWS = 1 << 20

# Thread-count symbols of OpenBLAS builds: scipy-openblas (numpy's wheels),
# 64-bit-integer and plain builds.
_BLAS_SYMBOLS = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                 "openblas_{}_num_threads")


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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


def _can_split() -> bool:
    """Whether `parts` may fork: `os.fork` exists, two CPUs are usable and
    numpy's OpenBLAS can be held to one thread."""
    return hasattr(os, "fork") and _usable_cpus() > 1 and _openblas() is not None


@contextlib.contextmanager
def _one_blas_thread():
    """Hold numpy's OpenBLAS to one thread, then put back its count; a
    child forked inside inherits the one thread."""
    get, put = _openblas()
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


def _fork_pair(child, here):
    """(child(), here()), child() called in a forked child while this
    process calls here(), both with numpy's OpenBLAS held to one thread;
    None, with neither called, when the pipe or the fork raises.

    The child's item is None when the child exits non-zero, is killed or
    sends a truncated pickle. An exception from here() propagates once the
    child has been reaped. The OpenBLAS thread count is put back after the
    child is reaped, also when here() raises."""
    try:
        r, w = os.pipe()
    except OSError:
        return None
    with _one_blas_thread():
        try:
            pid = os.fork()
        except OSError:
            os.close(r)
            os.close(w)
            return None
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


def parts(part, work: int, min_work: int) -> list:
    """The job that `part(a, b)` computes halves a/2 to b/2 of, as a list:
    [part(0, 1), part(1, 2)] from two processes, or else [part(0, 2)].

    The job splits when work >= min_work and `_can_split`: a forked child
    computes part(0, 1) while this process computes part(1, 2). Where the
    pipe or the fork raises, the whole job is computed here, in one call; a
    first half that does not arrive (`_fork_pair`) is computed here too.
    A caller whose halves do not depend on where they run therefore gets
    the same result from every path."""
    if work < min_work or not _can_split():
        return [part(0, 2)]
    pair = _fork_pair(lambda: part(0, 1), lambda: part(1, 2))
    if pair is None:
        return [part(0, 2)]
    theirs, mine = pair
    return [part(0, 1) if theirs is None else theirs, mine]
