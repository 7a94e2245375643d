"""Helpers shared by every module: seeded RNG, checks and process fan-out.

Everything here is deliberately small. Matrices are plain ``np.ndarray`` in
row-major float64; the helpers below only add the pieces numpy does not give
us directly: a counter-based RNG with explicit seed/stream identity,
finiteness checks, the one check of bag offsets (``bag_sizes``) and
Gaussian draws. ``fan_out`` runs independent jobs in forked worker
processes and hands the items each job yields back in job order, so that
NDJSON saves and training can both spread work over the usable CPUs.
``Background`` applies one function to a stream of items on one forked
process while the caller goes on, so that a per-epoch report runs beside
the next epoch's training. ``Pair`` runs one loop on the caller and a
forked peer in step, each computing one half of every step and swapping
its result, a float64 vector, through a pipe, so that a baseline's
training step uses both CPUs. All three fork under one rule
(``_forkable``), and ``blas_threads`` reads the loaded OpenBLAS's thread
count: ``fan_out``'s workers and a ``Pair`` run BLAS on one thread, and
``Background`` forks only beside a one-thread BLAS, so that no two
processes share a CPU's BLAS threads. ``utf8_lines`` reads a text file
line by line and names the line and column of a byte that is not UTF-8.
"""

from __future__ import annotations

import os
import pickle
import re
import reprlib
import signal
import struct
import sys
from contextlib import contextmanager, suppress

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


# a byte that is not UTF-8, as the "surrogateescape" error handler reads it
_NOT_UTF8 = re.compile("[\udc80-\udcff]")


def utf8_lines(fh):
    """Yield (line number, line) for each line of ``fh``, a text file opened
    with ``errors="surrogateescape"``; a byte that is not UTF-8 is a
    ValueError that names its line and column. A decoding error of the
    file itself would name only an offset into the decoder's buffer."""
    for lineno, line in enumerate(fh, start=1):
        bad = None if line.isascii() else _NOT_UTF8.search(line)
        if bad:
            raise ValueError(f"line {lineno}: byte "
                             f"0x{ord(bad.group()) - 0xDC00:02x} at column "
                             f"{bad.start() + 1} is not UTF-8")
        yield lineno, line


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
    raises, and a worker whose caller dies stops too. The workers run
    BLAS on one thread, so that W workers do not share the CPUs with W
    BLAS thread pools; so does this process while they run.
    """
    n_workers, context = _forkable(n_jobs)
    if context is None:
        for i in range(n_jobs):
            for item in job(i):
                take(item)
        return

    caller = os.getpid()
    workers = []
    with _one_blas_thread():
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


@contextmanager
def _one_blas_thread():
    """Run the block with the loaded OpenBLAS (``_openblas``) on one
    thread, and restore its count afterwards. Processes forked in the
    block inherit the one thread: set in a forked process instead, the
    count would restart OpenBLAS's thread pool there, whose idle thread
    spins for ~0.1 s."""
    openblas = _openblas()
    threads = None if openblas is None else openblas[0]()
    if threads not in (None, 1):
        openblas[1](1)
    try:
        yield
    finally:
        if threads not in (None, 1):
            openblas[1](threads)


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
            data, error = _message(items, error)
            sender.write(data)
            sender.flush()
            if error is not None:
                return
            del items, data  # free job i's items while job i + W runs


def _message(items: list, error) -> tuple[bytes, Exception | None]:
    """``(items, error)`` pickled, and the error that the message carries:
    one that does not pickle is sent as ``([], RuntimeError)``, the
    RuntimeError naming the failure's type and message."""
    try:
        return pickle.dumps((items, error)), error
    except Exception as exc:  # it does not pickle
        failure = exc if error is None else error
        error = RuntimeError(f"{type(failure).__name__}: {failure}")
        return pickle.dumps(([], error)), error


def _forkable(n_tasks: int):
    """``(W, context)``: W processes, one per usable CPU and at most
    ``n_tasks``, can run the tasks side by side, forked from ``context``,
    the ``fork`` context of ``multiprocessing``; ``(1, None)`` when forking
    cannot help: one usable CPU, one task, or no ``fork`` start method.
    ``fan_out``, ``Background`` and ``Pair`` all fork by this rule."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    n_workers = min(cpus, n_tasks)
    if n_workers < 2:
        return 1, None
    # imported here: about 0.6 MB and 8-18 ms that runs which never
    # fork should not pay
    import multiprocessing
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1, None
    return n_workers, multiprocessing.get_context("fork")


class Background:
    """``[fn(item) for item in items]`` over the items given to ``submit``,
    computed on one forked process while the caller goes on, or in the
    caller, at each ``submit``, when a fork cannot help.

    ``fork`` is the caller's judgement that the work pays for a fork,
    which costs about 10 ms to start and join. The process is forked only
    if, besides, ``_forkable`` finds two usable CPUs and the ``fork`` start
    method, the caller is not itself a forked worker (of ``fan_out``, say,
    which already keeps every CPU busy), and ``blas_threads`` reads 1: a
    caller whose BLAS runs a thread per CPU would share the CPUs with it.

    The process reaches everything but the items through the fork. Each
    item is pickled when it is submitted, so it is a snapshot of the item
    at that point. The process keeps its results until ``results`` ends
    the stream, and then sends them all at once, so neither side waits on
    a full pipe that the other is not reading. An exception of ``fn`` ends
    the process; it is raised in the caller, with its type and message as
    inline, at the next ``submit`` or at ``results``. Use it as a context
    manager: the process has been joined when the block exits, after
    ``terminate`` if the block raised, and on Linux it is killed when its
    caller dies.
    """

    def __init__(self, fn, fork: bool):
        self._fn = fn
        self._results = []
        self._process = None
        _, context = _forkable(2) if fork else (1, None)
        if (context is None or context.parent_process() is not None
                or blas_threads() != 1):
            return
        item_read, item_write = os.pipe()
        result_read, result_write = os.pipe()
        self._sender = open(item_write, "wb")
        self._receiver = open(result_read, "rb")
        process = context.Process(target=_serve, args=(
            fn, item_read, result_write, (item_write, result_read)))
        try:
            process.start()
        except BaseException:
            self._sender.close()
            self._receiver.close()
            raise
        finally:  # so that each side sees EOF once the other is gone
            os.close(item_read)
            os.close(result_write)
        self._process = process

    def submit(self, item) -> None:
        """Apply ``fn`` to ``item``, now or on the process; raise the
        process's exception, if it has raised one before this call."""
        if self._process is None:
            self._results.append(self._fn(item))
            return
        try:
            pickle.dump(item, self._sender)
            self._sender.flush()
        except BrokenPipeError:  # it has stopped: see _serve
            self._receive()

    def results(self) -> list:
        """End the stream and return every item's result, in submit order,
        or raise the exception of the first item that raised one."""
        if self._process is not None:
            self._sender.close()
            self._results = self._receive()
            self._process.join()
        return self._results

    def _receive(self) -> list:
        """The process's results, once it has sent them, or its
        exception raised here."""
        try:
            results, error = pickle.load(self._receiver)
        except (EOFError, pickle.UnpicklingError):  # the pipe closed early
            self._process.join()
            raise RuntimeError("the background process exited with code "
                               f"{self._process.exitcode} before sending "
                               "its results") from None
        if error is not None:
            raise error
        return results

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        process, self._process = self._process, None
        if process is None:
            return
        if process.exitcode is None:  # still running: the block raised
            process.terminate()
        process.join()
        process.close()
        with suppress(OSError):  # an item left unsent in a broken pipe
            self._sender.close()
        self._receiver.close()


def _serve(fn, item_read: int, result_write: int, caller_ends) -> None:
    """A ``Background`` process's whole life: apply ``fn`` to each item
    read from the pipe at ``item_read`` until its end, then write the
    pickled ``(results, None)`` to ``result_write``; at the first exception
    of ``fn``, stop reading and write ``(results so far, exception)``
    (see ``_message``). It closes its copies of the caller's ends of both
    pipes, ``caller_ends``, first, so that it sees the end of the stream
    when the caller closes its own."""
    _die_with_parent()
    for fd in caller_ends:
        os.close(fd)
    results, error = [], None
    with open(item_read, "rb") as receiver:
        try:
            while True:
                try:
                    item = pickle.load(receiver)
                except EOFError:  # the caller ended the stream
                    break
                results.append(fn(item))
        except Exception as exc:  # the caller re-raises it
            error = exc
    # the item pipe is closed: the caller's next write to it fails at once,
    # so it reads this message at its next submit, not after the stream
    with open(result_write, "wb") as sender:
        sender.write(_message(results, error)[0])


class Pair:
    """Run one loop on two processes in step: the caller and, where that
    pays, one forked peer, which split the work of each step between them.

    ``run(loop)`` returns the caller's ``loop(pair)``. Each ``pair.map(fn,
    first, second)`` returns ``(fn(first), fn(second))``, where ``fn``
    returns a float64 vector (a 1-D array). Paired, the caller computes
    ``fn(first)`` and the peer, running the same loop on its copy of the
    caller's state, ``fn(second)``; each writes its vector's bytes to a
    pipe, reads the other's, and returns both, so the two copies of the
    state stay the same, without being sent, while ``loop`` changes it
    only by the results of ``map``. The loop must make the same ``map``
    calls, in the same order, in both processes.

    ``fork`` is the caller's judgement that the loop's work pays for a
    fork, which costs about 5 ms to start and join, and a swap of about
    15 us per ``map``. The peer is forked only if, besides, ``_forkable``
    finds two usable CPUs and the ``fork`` start method, and the caller is
    not itself a forked worker; otherwise ``loop`` runs in the caller
    alone, which computes both of each ``map``. Either way each
    result is ``fn``'s on the same inputs. While paired, both processes
    run BLAS on one thread, as ``fan_out``'s workers do.

    The peer writes its vector before it reads the caller's only when the
    message fits in half of its pipe's buffer, so the two never wait on
    each other's full pipe. An exception of the peer's loop ends it; it is
    raised in the caller, with its type and message, at the caller's next
    ``map`` or when its loop returns. An exception of the caller's loop
    terminates the peer. The peer has been joined when ``run`` returns or
    raises, and on Linux it is killed when its caller dies.
    """

    def __init__(self, fork: bool):
        self._fork = fork
        self._is_peer = False
        self._sender = self._receiver = None  # the pipe ends while paired
        self._room = 0  # half the peer's outgoing pipe buffer, in bytes

    def run(self, loop):
        """``loop(self)``, run in the caller and, if it forks, the peer."""
        _, context = _forkable(2) if self._fork else (1, None)
        if context is None or context.parent_process() is not None:
            return loop(self)
        to_peer, from_peer = os.pipe(), os.pipe()
        self._sender = open(to_peer[1], "wb")
        self._receiver = open(from_peer[0], "rb")
        self._room = _pipe_bytes(from_peer[1]) // 2
        process = context.Process(target=_pair_peer, args=(
            self, loop, to_peer[0], from_peer[1], (to_peer[1], from_peer[0])))
        with _one_blas_thread():
            try:
                try:
                    process.start()
                finally:  # so that each side sees EOF once the other is gone
                    os.close(to_peer[0])
                    os.close(from_peer[1])
                result = loop(self)
                if self._receive() is not None:  # the peer's loop ended too
                    raise RuntimeError("the peer of a pair sent a result "
                                       "after its caller's loop had ended")
                return result
            except BaseException:
                if process.pid is not None and process.exitcode is None:
                    process.terminate()
                raise
            finally:
                if process.pid is not None:
                    process.join()
                    process.close()
                with suppress(OSError):  # a vector left unsent in a pipe
                    self._sender.close()
                self._receiver.close()
                self._sender = self._receiver = None

    def map(self, fn, first, second) -> tuple[np.ndarray, np.ndarray]:
        """``(fn(first), fn(second))``, the second computed by the peer
        while paired."""
        if self._sender is None:
            return _vector(fn(first)), _vector(fn(second))
        mine = _vector(fn(second if self._is_peer else first))
        if not self._is_peer or 8 * (mine.size + 1) <= self._room:
            self._send(mine)
            theirs = self._receive()
        else:
            theirs = self._receive()
            self._send(mine)
        if theirs is None:
            raise RuntimeError("the peer of a pair ended its loop before "
                               "its caller did")
        return (theirs, mine) if self._is_peer else (mine, theirs)

    def _send(self, vector: np.ndarray) -> None:
        """Write ``vector``'s length, then its bytes."""
        try:
            self._sender.write(_LENGTH.pack(vector.size))
            self._sender.write(vector)
            self._sender.flush()
        except BrokenPipeError:  # the peer has stopped: see _pair_peer
            if self._is_peer:
                raise
            self._receive()

    def _receive(self) -> np.ndarray | None:
        """The other side's next vector; None for the end of the peer's
        loop, or the exception that ended it raised here."""
        header = self._receiver.read(_LENGTH.size)
        if len(header) == _LENGTH.size:
            (length,) = _LENGTH.unpack(header)
            if length >= 0:
                vector = np.empty(length)
                if self._receiver.readinto(vector) == vector.nbytes:
                    return vector
            else:
                ending = self._receiver.read(-length)
                if len(ending) == -length:
                    error = pickle.loads(ending)[1]
                    if error is not None:
                        raise error
                    return None
        raise RuntimeError("the other process of a pair exited mid-message")


# a Pair message starts with its length: a vector's number of values, or
# minus the number of bytes of the pickled end of the peer's loop
_LENGTH = struct.Struct("=q")


def _vector(result) -> np.ndarray:
    """``result`` if it is a C-contiguous float64 vector, which ``Pair``
    sends as raw bytes; a TypeError otherwise."""
    if (not isinstance(result, np.ndarray) or result.dtype != np.float64
            or result.ndim != 1 or not result.flags.c_contiguous):
        raise TypeError("Pair.map's function must return a contiguous "
                        "float64 vector")
    return result


def _pair_peer(pair: Pair, loop, read_end: int, write_end: int,
               caller_ends) -> None:
    """A ``Pair`` peer's whole life: run ``loop(pair)`` as the second side,
    then send the end of the loop to the caller, the pickled ``(None,
    None)``, or ``(None, exception)`` at its first exception (see
    ``_message``). It closes its copies of the caller's ends of both
    pipes, ``caller_ends``, first."""
    _die_with_parent()
    for fd in caller_ends:
        os.close(fd)
    with open(read_end, "rb") as receiver:
        sender = open(write_end, "wb")
        pair._is_peer, pair._receiver, pair._sender = True, receiver, sender
        error = None
        try:
            loop(pair)
        except Exception as exc:  # the caller re-raises it
            error = exc
        ending = _message(None, error)[0]
        with suppress(OSError), sender:  # the caller has stopped reading
            sender.write(_LENGTH.pack(-len(ending)))
            sender.write(ending)


def _pipe_bytes(fd: int) -> int:
    """The buffer size of the pipe at ``fd``: read from Linux, else
    ``select.PIPE_BUF``, the least that POSIX allows."""
    import fcntl
    import select
    try:
        return fcntl.fcntl(fd, fcntl.F_GETPIPE_SZ)
    except (AttributeError, OSError):  # not Linux
        return select.PIPE_BUF


def _openblas():
    """``(get, set)``: the ``openblas_get_num_threads`` and
    ``openblas_set_num_threads`` of the OpenBLAS that this process has
    loaded, under the prefix and suffix that its build gave them (the
    scipy-openblas wheels that numpy ships use ``scipy_`` and ``64_``);
    None when no OpenBLAS is mapped, or the platform has no
    ``/proc/self/maps`` to find one in."""
    import ctypes
    try:
        with open("/proc/self/maps", "rb") as fh:
            paths = {fields[5].strip() for fields in map(bytes.split, fh)
                     if len(fields) > 5}
    except OSError:
        return None
    for path in sorted(paths):
        if b"openblas" not in os.path.basename(path).lower():
            continue
        try:  # RTLD_NOLOAD: a handle to the mapped copy, or no handle
            lib = ctypes.CDLL(os.fsdecode(path),
                              mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        except OSError:
            continue
        for prefix in ("", "scipy_"):
            for suffix in ("", "64_"):
                get = getattr(lib, f"{prefix}openblas_get_num_threads"
                                   f"{suffix}", None)
                put = getattr(lib, f"{prefix}openblas_set_num_threads"
                                   f"{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    return get, put
    return None


def blas_threads() -> int | None:
    """The number of threads that the loaded OpenBLAS runs a BLAS call on,
    or None when none is found (see ``_openblas``): another BLAS, or
    another platform."""
    openblas = _openblas()
    return None if openblas is None else openblas[0]()


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
