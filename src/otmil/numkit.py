"""Helpers shared by every module: seeded RNG, checks and process fan-out.

Everything here is deliberately small. Matrices are plain ``np.ndarray`` in
row-major float64; the helpers below only add the pieces numpy does not give
us directly: a counter-based RNG with explicit seed/stream identity,
finiteness checks, the one check of bag offsets (``bag_sizes``) and
Gaussian draws. ``utf8_lines`` reads a text file line by line and names
the line and column of a byte that is not UTF-8.

Three helpers put the second CPU to work. ``fan_out`` runs independent
jobs in forked worker processes and yields each job's result in job
order, so that NDJSON saves and training can both spread work over the
usable CPUs. ``Background`` applies one function to a stream of items
on one forked process while the caller goes on, so that a per-epoch report
runs beside the next epoch's training. ``Pair`` runs one loop on the
caller and a forked peer in step, each computing one half of every step
and swapping its result, a float64 vector, so that a baseline's training
step uses both CPUs. All three fork under one rule (``_forkable``) through
one helper (``_forked``), which owns a forked process's life: its two
pipes, its death with its caller, its BLAS threads and its end. A forked
process and its caller run BLAS on one thread while it lives, so that no
two processes share a CPU's BLAS threads. Every message on those pipes is
written by ``_send`` and read by ``_receive``: a signed length, then a
float64 vector's raw bytes or a pickled ``(value, error)``.
"""

from __future__ import annotations

import os
import pickle
import re
import reprlib
import signal
import struct
import sys
from contextlib import ExitStack, contextmanager, suppress

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


def fan_out(job, n_jobs: int):
    """Yield ``job(0)``, ..., ``job(n_jobs - 1)`` in job order, as
    ``multiprocessing.Pool.imap`` does, with the jobs run in forked workers.

    Worker w of W runs jobs w, w + W, w + 2W, ... in turn and sends each
    job's result as one message once it is done, which is yielded as soon
    as it arrives; it reaches its inputs through the fork, so only results
    are pickled. W is the number of usable CPUs, at most n_jobs. The jobs
    run in this process, each when its result is asked for, when fan-out
    cannot help (see ``_forkable``). Either way, job i's exception is
    raised here, with its type and message, in place of its result. Every
    worker has been joined once the generator ends or is closed (as a
    consumer that raises or stops early closes it), after ``terminate`` if
    it did not run to its end; a worker whose caller dies stops too. The
    workers, and this process while they run, run BLAS on one thread (see
    ``_forked``).
    """
    n_workers, context = _forkable(n_jobs)
    if context is None:
        for i in range(n_jobs):
            yield job(i)
        return

    caller = os.getpid()
    with ExitStack() as stack:
        receives = [stack.enter_context(_forked(
            context, _work, job, range(w, n_jobs, n_workers), caller))[1]
            for w in range(n_workers)]
        for i in range(n_jobs):
            yield _raised(receives[i % n_workers]())


@contextmanager
def _one_blas_thread():
    """Run the block with the loaded OpenBLAS (``_openblas``) on one
    thread, and restore its count afterwards. Processes forked in the
    block inherit the one thread: set in a forked process instead, the
    count would restart OpenBLAS's thread pool there, whose idle thread
    spins for ~0.1 s. A block nested in another leaves the count to the
    outer one."""
    openblas = _openblas()
    threads = None if openblas is None else openblas[0]()
    if threads not in (None, 1):
        openblas[1](1)
    try:
        yield
    finally:
        if threads not in (None, 1):
            openblas[1](threads)


def _work(job, indices, caller: int, receiver, sender) -> None:
    """A ``fan_out`` worker's life: run its jobs in turn and send ``(result,
    None)`` for each, or ``(None, exception)`` for the first that raised
    and then stop. It also stops, before its next job, once ``caller`` is
    no longer its parent."""
    for i in indices:
        if os.getppid() != caller:  # the caller died; no one will read
            return
        result, error = None, None
        try:
            result = job(i)
        except Exception as exc:  # the caller re-raises it
            error = exc
        if _send(sender, result, error) is not None:
            return


def _forkable(n_tasks: int):
    """``(W, context)``: W processes, one per usable CPU and at most
    ``n_tasks``, can run the tasks side by side, forked from ``context``,
    the ``fork`` context of ``multiprocessing``; ``(1, None)`` when forking
    cannot help: one usable CPU, one task, no ``fork`` start method, or a
    caller that is itself a forked process (a worker of ``fan_out``, say,
    which already keeps every CPU busy). ``fan_out``, ``Background`` and
    ``Pair`` all fork by this rule."""
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
    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.parent_process() is not None):
        return 1, None
    return n_workers, multiprocessing.get_context("fork")


@contextmanager
def _forked(context, main, *args):
    """Fork, from ``context``, a process that runs ``main(*args, receiver,
    sender)`` on its ends of two pipes to this process, and yield
    ``(sender, receive)``: this process's end of the first pipe, and a
    function that returns the next message from the second (``_receive``),
    or raises a RuntimeError naming the process's exit code if the pipe
    ends first.

    The process is killed on Linux when this process dies. Both it and
    this process run BLAS on one thread (``_one_blas_thread``) from before
    the fork until after the join, so that the two do not share the CPUs
    with two BLAS thread pools. When the block exits, this process's ends
    are closed, so that the process reads EOF and a write of its fails at
    once; the process is terminated if the block raised and it is still
    running; and it is joined. The ends are closed before the join, so
    that a process that waits on its pipes cannot keep the join waiting.
    """
    down, up = os.pipe(), os.pipe()  # each (read end, write end)
    sender, receiver = open(down[1], "wb"), open(up[0], "rb")
    process = context.Process(target=_child, args=(
        main, args, down[0], up[1], (down[1], up[0])))

    def receive():
        try:
            return _receive(receiver)
        except EOFError:
            process.join()
            raise RuntimeError(f"a forked process exited with code "
                               f"{process.exitcode} before it sent a whole "
                               "message") from None

    with _one_blas_thread():
        try:
            try:
                process.start()
            finally:  # so that each side sees EOF once the other is gone
                os.close(down[0])
                os.close(up[1])
            yield sender, receive
        except BaseException:
            if process.pid is not None and process.exitcode is None:
                process.terminate()
            raise
        finally:
            receiver.close()
            with suppress(OSError):  # a message left unsent in a broken pipe
                sender.close()
            if process.pid is not None:
                process.join()
                process.close()


def _child(main, args, read_end: int, write_end: int, caller_ends) -> None:
    """A process of ``_forked``: have it die with its caller, close its
    copies of the caller's ends of both pipes, ``caller_ends``, so that it
    sees EOF when the caller closes its own, and run ``main`` on its ends.
    A write to a caller that has stopped reading ends it quietly: that
    caller has failed, and terminates it."""
    _die_with_parent()
    for fd in caller_ends:
        os.close(fd)
    with (suppress(BrokenPipeError), open(read_end, "rb") as receiver,
          open(write_end, "wb") as sender):
        main(*args, receiver, sender)


# every message on a pipe of _forked starts with a signed length: a float64
# vector's number of values, or minus the number of bytes of a pickle
_LENGTH = struct.Struct("=q")


def _send(sender, value, error=None) -> Exception | None:
    """Write one message, and return the error that it carries: a float64
    vector (``_is_vector``) with no error as its length and raw bytes, so
    that a ``Pair`` swap pays no pickle; anything else as the pickled
    ``(value, error)``. A message that does not pickle is sent as ``([],
    RuntimeError)``, the RuntimeError naming the failure's type and
    message."""
    if error is None and _is_vector(value):
        sender.write(_LENGTH.pack(value.size))
        sender.write(value)
    else:
        try:
            data = pickle.dumps((value, error))
        except Exception as exc:  # it does not pickle
            failure = exc if error is None else error
            error = RuntimeError(f"{type(failure).__name__}: {failure}")
            data = pickle.dumps(([], error))
        sender.write(_LENGTH.pack(-len(data)))
        sender.write(data)
    sender.flush()
    return error


def _receive(receiver) -> tuple:
    """The next message's ``(value, error)``; a vector's is ``(vector,
    None)``. A pipe that ends before a whole message is an EOFError.

    ``pickle.load`` reads a pickle from the pipe's buffered reader in
    frames of at most 64 KiB, so a result made of small objects (the lines
    of a save) never needs an allocation the size of the whole message.
    """
    header = receiver.read(_LENGTH.size)
    if len(header) == _LENGTH.size:
        (length,) = _LENGTH.unpack(header)
        if length >= 0:
            vector = np.empty(length)
            if receiver.readinto(vector) == vector.nbytes:
                return vector, None
        else:
            with suppress(EOFError, pickle.UnpicklingError):  # cut short
                return pickle.load(receiver)
    raise EOFError


def _raised(message):
    """The value of a message ``(value, error)``, or its error raised."""
    value, error = message
    if error is not None:
        raise error
    return value


def _is_vector(value) -> bool:
    """Whether ``value`` is a C-contiguous float64 vector, whose raw bytes
    ``_send`` sends."""
    return (isinstance(value, np.ndarray) and value.dtype == np.float64
            and value.ndim == 1 and value.flags.c_contiguous)


class Background:
    """``[fn(item) for item in items]`` over the items given to ``submit``,
    computed on one forked process while the caller goes on, or in the
    caller, at each ``submit``, when a fork cannot help.

    ``fork`` is the caller's judgement that the work pays for a fork,
    which costs about 10 ms to start and join. The process is forked only
    if, besides, ``_forkable`` allows it; while it lives, it and the caller
    run BLAS on one thread (see ``_forked``).

    The process reaches everything but the items through the fork. Each
    item is sent when it is submitted, so it is a snapshot of the item at
    that point. The process keeps its results until ``results`` ends the
    stream, and then sends them all at once, so neither side waits on a
    full pipe that the other is not reading. An exception of ``fn`` ends
    the process; it is raised in the caller, with its type and message as
    inline, at the next ``submit`` or at ``results``. Use it as a context
    manager: the process has been joined when the block exits, after
    ``terminate`` if the block raised, and on Linux it is killed when its
    caller dies.
    """

    def __init__(self, fn, fork: bool):
        self._fn = fn
        self._results = []
        self._child = None
        _, context = _forkable(2) if fork else (1, None)
        if context is not None:
            self._child = _forked(context, _serve, fn)
            self._sender, self._next_message = self._child.__enter__()

    def submit(self, item) -> None:
        """Apply ``fn`` to ``item``, now or on the process; raise the
        process's exception, if it has raised one before this call."""
        if self._child is None:
            self._results.append(self._fn(item))
            return
        try:
            _send(self._sender, item)
        except BrokenPipeError:  # it has stopped: see _serve
            _raised(self._next_message())

    def results(self) -> list:
        """End the stream and return every item's result, in submit order,
        or raise the exception of the first item that raised one."""
        if self._child is not None:
            self._sender.close()
            self._results = _raised(self._next_message())
        return self._results

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        child, self._child = self._child, None
        if child is not None:
            child.__exit__(*exc_info)


def _serve(fn, receiver, sender) -> None:
    """A ``Background`` process's life: apply ``fn`` to each item received
    until the caller ends the stream, then send ``(results, None)``; at the
    first exception of ``fn``, stop reading and send ``(results so far,
    exception)``."""
    results, error = [], None
    try:
        while True:
            try:
                item, _ = _receive(receiver)
            except EOFError:  # the caller ended the stream
                break
            results.append(fn(item))
    except Exception as exc:  # the caller re-raises it
        error = exc
    # the item pipe is closed: the caller's next write to it fails at once,
    # so it reads this message at its next submit, not after the stream
    receiver.close()
    _send(sender, results, error)


class Pair:
    """Run one loop on two processes in step: the caller and, where that
    pays, one forked peer, which split the work of each step between them.

    ``run(loop)`` returns the caller's ``loop(pair)``. Each ``pair.map(fn,
    first, second)`` returns ``(fn(first), fn(second))``, where ``fn``
    returns a float64 vector (a 1-D array). Paired, the caller computes
    ``fn(first)`` and the peer, running the same loop on its copy of the
    caller's state, ``fn(second)``; each sends its vector's raw bytes
    through a pipe, receives the other's, and returns both, so the two
    copies of the state stay the same, without being sent, while ``loop``
    changes it only by the results of ``map``. The loop must make the same
    ``map`` calls, in the same order, in both processes.

    ``fork`` is the caller's judgement that the loop's work pays for a
    fork, which costs about 5 ms to start and join, and a swap of about
    15 us per ``map``. The peer is forked only if, besides, ``_forkable``
    allows it; otherwise ``loop`` runs in the caller alone, which computes
    both of each ``map``. Either way each result is ``fn``'s on the same
    inputs. While paired, both processes run BLAS on one thread (see
    ``_forked``).

    The peer writes its vector before it reads the caller's only when the
    message fits in half of its pipe's buffer, so the two never wait on
    each other's full pipe. When the peer's loop ends, by returning or by
    an exception, it sends that end to the caller, which raises the
    exception, with its type and message, or a RuntimeError if its own
    loop had not ended, at its next ``map`` or when its loop returns. An
    exception of the caller's loop terminates the peer. The peer has been
    joined when ``run`` returns or raises, and on Linux it is killed when
    its caller dies.
    """

    def __init__(self, fork: bool):
        self._fork = fork
        self._is_peer = False
        # while paired: this side's sender, and the function that returns
        # the other side's next message
        self._sender = self._next_message = None
        self._room = 0  # half the peer's outgoing pipe buffer, in bytes

    def run(self, loop):
        """``loop(self)``, run in the caller and, if it forks, the peer."""
        _, context = _forkable(2) if self._fork else (1, None)
        if context is None:
            return loop(self)
        with _forked(context, _pair_peer, self, loop) as link:
            self._sender, self._next_message = link
            try:
                result = loop(self)
                if _raised(self._next_message()) is not None:  # None: its end
                    raise RuntimeError("the peer of a pair sent a result "
                                       "after its caller's loop had ended")
                return result
            finally:
                self._sender = self._next_message = None

    def map(self, fn, first, second) -> tuple[np.ndarray, np.ndarray]:
        """``(fn(first), fn(second))``, the second computed by the peer
        while paired."""
        if self._sender is None:
            return _vector(fn(first)), _vector(fn(second))
        mine = _vector(fn(second if self._is_peer else first))
        if not self._is_peer or 8 * (mine.size + 1) <= self._room:
            self._send(mine)
            theirs = _raised(self._next_message())
        else:
            theirs = _raised(self._next_message())
            self._send(mine)
        if theirs is None:
            raise RuntimeError("the peer of a pair ended its loop before "
                               "its caller did")
        return (theirs, mine) if self._is_peer else (mine, theirs)

    def _send(self, vector: np.ndarray) -> None:
        """Send ``vector`` to the other side, unless that side has stopped
        reading: then its last message, read next, says why. (Not
        ``suppress``, which costs about 0.7 us a step.)"""
        try:
            _send(self._sender, vector)
        except BrokenPipeError:
            pass


def _vector(result) -> np.ndarray:
    """``result`` if it is a C-contiguous float64 vector, which ``Pair``
    sends as raw bytes; a TypeError otherwise."""
    if not _is_vector(result):
        raise TypeError("Pair.map's function must return a contiguous "
                        "float64 vector")
    return result


def _pair_peer(pair: Pair, loop, receiver, sender) -> None:
    """A ``Pair`` peer's life: run ``loop(pair)`` as the second side, then
    send the end of the loop to the caller, ``(None, None)``, or ``(None,
    exception)`` at its first exception."""
    pair._is_peer, pair._sender = True, sender
    pair._next_message = lambda: _receive(receiver)
    pair._room = _pipe_bytes(sender.fileno()) // 2
    error = None
    try:
        loop(pair)
    except Exception as exc:  # the caller re-raises it
        error = exc
    # closed, so that a caller still writing a vector fails at once and
    # reads this message next
    receiver.close()
    _send(sender, None, error)


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
