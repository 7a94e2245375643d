"""Helpers shared by every module: seeded RNG, checks and process fan-out.

Everything here is deliberately small. Matrices are plain ``np.ndarray`` in
row-major float64; the helpers below only add the pieces numpy does not give
us directly: a counter-based RNG with explicit seed/stream identity,
finiteness checks, the one check of bag offsets (``bag_sizes``) and
Gaussian draws. ``fan_out`` runs independent jobs in forked worker
processes and hands the items each job yields back in job order, so that
NDJSON saves and training can both spread work over the usable CPUs.
"""

from __future__ import annotations

import os
import pickle
import reprlib
import signal
import sys

import numpy as np

_MASK64 = (1 << 64) - 1


def Rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Deterministic counter-based generator (Philox 4x64).

    The (seed, stream) pair fully determines the draw sequence, bit-exactly,
    across runs and platforms. Streams let one experiment seed fan out into
    independent generators (init, shuffling, data) without correlation.
    A generator is single-owner: never share one across threads.
    """
    return np.random.Generator(
        np.random.Philox(key=[int(seed) & _MASK64, int(stream) & _MASK64]))


def check_finite(values, what: str = "array") -> np.ndarray:
    """Return ``values`` as float64, raising if any entry is NaN or infinite."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"non-finite values in {what}")
    return arr


def bag_sizes(offsets, n_rows: int) -> np.ndarray:
    """The sizes of the bags that own rows ``offsets[i]:offsets[i + 1]`` of
    an ``n_rows``-row array, the ``data.Dataset`` layout.

    ``offsets`` must be a 1-D integer array that runs from 0 to ``n_rows``
    with at least one bag and no empty bag; anything else is a ValueError
    that names the offsets.
    """
    arr = np.asarray(offsets)
    if arr.ndim == 1 and arr.size > 1 and arr.dtype.kind in "iu":
        sizes = np.diff(arr.astype(np.int64, copy=False))
        if arr[0] == 0 and arr[-1] == n_rows and sizes.min() > 0:
            return sizes
    raise ValueError(f"bag offsets {reprlib.repr(arr.tolist())} must be a "
                     f"1-D integer run from 0 to N = {n_rows} rows with no "
                     "empty bag")


def sample_gaussian(rng: np.random.Generator, mean, std: float) -> np.ndarray:
    """One draw from an isotropic Gaussian centered at ``mean``; std > 0."""
    if std <= 0:
        raise ValueError("std must be positive")
    mean = np.asarray(mean, dtype=np.float64)
    return mean + std * rng.standard_normal(mean.shape)


def fan_out(job, n_jobs: int, take) -> None:
    """Call ``take(item)`` for every item of ``job(i)``, an iterable, for
    i = 0, 1, ..., n_jobs - 1: in job order, then item order, with the jobs
    run in forked workers.

    Worker w of W runs jobs w, w + W, w + 2W, ... in turn and sends back
    each job, once it is done, as one message: its items, then its
    exception or None. It reaches its inputs through the fork, so only
    items are pickled. ``take`` gets job i's items once they have arrived,
    while the workers go on with later jobs, so this process holds one
    job's items at a time. W is the number of usable CPUs, at most n_jobs.
    The jobs run in this process, each item going to ``take`` as it is
    made, when fan-out cannot help: one usable CPU, one job, or no
    ``fork`` start method. Either way, the items a job made before it
    raised reach ``take`` before its exception is raised here, with its
    type and message, as is one from ``take``; every worker has been
    joined (after ``terminate`` if this call failed) before it returns or
    raises, and a worker whose caller dies stops too.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    n_workers = min(cpus, n_jobs)
    if n_workers > 1:
        # imported here: about 0.6 MB and 8-18 ms that runs which never
        # fan out should not pay
        import multiprocessing
        if "fork" not in multiprocessing.get_all_start_methods():
            n_workers = 1
    if n_workers < 2:
        for i in range(n_jobs):
            for item in job(i):
                take(item)
        return

    context = multiprocessing.get_context("fork")
    caller = os.getpid()
    workers = []
    try:
        for w in range(n_workers):
            read_end, write_end = os.pipe()
            process = context.Process(target=_work, args=(
                job, range(w, n_jobs, n_workers), write_end, caller))
            workers.append((process, open(read_end, "rb")))
            try:
                process.start()
            finally:  # so that a read sees EOF once the worker is gone
                os.close(write_end)
        for i in range(n_jobs):
            for item in _receive(*workers[i % n_workers], i):
                take(item)
            item = None  # no local keeps job i's last item past its turn
    except BaseException:
        for process, _ in workers:
            if process.pid is not None:
                process.terminate()
        raise
    finally:
        for process, receiver in workers:
            if process.pid is not None:
                process.join()
                process.close()
            receiver.close()


def _receive(process, receiver, i: int):
    """Yield job i's items from the worker that ran it, then raise its
    exception if it had one.

    ``pickle.load`` reads the message from the pipe's buffered reader in
    frames of at most 64 KiB, so items made of small objects (the lines of
    a save) never need an allocation the size of the whole message.
    """
    try:
        items, error = pickle.load(receiver)
    except (EOFError, pickle.UnpicklingError):  # the pipe closed early
        process.join()
        raise RuntimeError(f"the worker of job {i} exited with code "
                           f"{process.exitcode} before sending its result"
                           ) from None
    yield from items
    if error is not None:
        raise error


def _work(job, indices, write_end: int, caller: int) -> None:
    """A worker's whole life: run its jobs in turn and write ``(items,
    None)`` for each to the pipe, pickled, or ``(items made so far,
    exception)`` for the first that raised and then stop. A message that
    does not pickle is sent as a RuntimeError naming the failure. It also
    stops, before its next job, once ``caller`` is no longer its parent,
    and on Linux the kernel kills it when the caller dies."""
    _die_with_parent()
    with open(write_end, "wb") as sender:
        for i in indices:
            if os.getppid() != caller:  # the caller died; no one will read
                return
            items, error = [], None
            try:
                items.extend(job(i))
            except Exception as exc:  # the caller re-raises it
                error = exc
            try:
                data = pickle.dumps((items, error))
            except Exception as exc:  # it does not pickle
                failure = exc if error is None else error
                error = RuntimeError(f"{type(failure).__name__}: {failure}")
                data = pickle.dumps(([], error))
            sender.write(data)
            sender.flush()
            if error is not None:
                return
            del items, data  # free job i's items while job i + W runs


_PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>


def _die_with_parent() -> None:
    """Have Linux send this process SIGKILL when its parent dies, so that a
    caller killed outright leaves no worker running on as an orphan."""
    if not sys.platform.startswith("linux"):
        return
    import ctypes
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
