"""Helpers shared by every module: seeded RNG, checks and process fan-out.

Everything here is deliberately small. Matrices are plain ``np.ndarray`` in
row-major float64; the helpers below only add the pieces numpy does not give
us directly: a counter-based RNG with explicit seed/stream identity,
finiteness checks and Gaussian draws. ``fan_out`` runs independent jobs in
forked worker processes and hands their results back in job order, so that
data I/O and training can both spread work over the usable CPUs.
"""

from __future__ import annotations

import os
import pickle
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


def sample_gaussian(rng: np.random.Generator, mean, std: float) -> np.ndarray:
    """One draw from an isotropic Gaussian centered at ``mean``; std > 0."""
    if std <= 0:
        raise ValueError("std must be positive")
    mean = np.asarray(mean, dtype=np.float64)
    return mean + std * rng.standard_normal(mean.shape)


def fan_out(job, n_jobs: int, take) -> None:
    """Call ``take(job(i))`` for i = 0, 1, ..., n_jobs - 1, in that order,
    with the jobs computed in forked workers.

    Worker w of W runs jobs w, w + W, w + 2W, ... in turn and sends back
    each result as soon as it is done: it reaches its inputs through the
    fork, so only results are pickled. ``take`` gets result i once it has
    arrived, while the workers go on with later jobs, so this process holds
    one result at a time. W is the number of usable CPUs, at most n_jobs.
    The jobs run in this process, each followed by its ``take``, when
    fan-out cannot help: one usable CPU, one job, or no ``fork`` start
    method. A job's exception is raised here with its type and message, as
    is one from ``take``; every worker has been joined (after ``terminate``
    if this call failed) before it returns or raises, and a worker whose
    caller dies stops too.
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
            take(job(i))
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
            # no local keeps result i alive while result i + 1 arrives
            take(_receive(*workers[i % n_workers], i))
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
    """Job i's result from the worker that ran it, or its exception raised.

    ``pickle.load`` reads the message from the pipe's buffered reader in
    frames of at most 64 KiB, so a result made of small objects (bags,
    lines) never needs an allocation the size of the whole message.
    """
    try:
        ok, payload = pickle.load(receiver)
    except (EOFError, pickle.UnpicklingError):  # the pipe closed early
        process.join()
        raise RuntimeError(f"the worker of job {i} exited with code "
                           f"{process.exitcode} before sending its result"
                           ) from None
    if not ok:
        raise payload
    return payload


def _work(job, indices, write_end: int, caller: int) -> None:
    """A worker's whole life: run its jobs in turn and write ``(True,
    result)`` for each to the pipe, pickled, or ``(False, exception)`` for
    the first that raised and then stop. It also stops, before its next
    job, once ``caller`` is no longer its parent, and on Linux the kernel
    kills it when the caller dies."""
    _die_with_parent()
    with open(write_end, "wb") as sender:
        for i in indices:
            if os.getppid() != caller:  # the caller died; no one will read
                return
            try:
                message = True, job(i)
            except Exception as exc:  # the caller re-raises it
                message = False, exc
            try:
                data = pickle.dumps(message)
            except Exception as exc:  # it does not pickle
                failure = exc if message[0] else message[1]
                message = False, RuntimeError(
                    f"{type(failure).__name__}: {failure}")
                data = pickle.dumps(message)
            sender.write(data)
            sender.flush()
            if not message[0]:
                return
            del message, data  # free result i while job i + W runs


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
