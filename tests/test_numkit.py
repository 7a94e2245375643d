"""Deterministic RNG, numeric helpers and the process fan-out."""

import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
from contextlib import suppress

import numpy as np
import pytest

from otmil.baselines import init_pool_params, pool_bags
from otmil.data import Dataset
from otmil.labeling import apply_local_constraint
from otmil.metrics import segment_bag_scores
from otmil import numkit
from otmil.numkit import (Background, Pair, Rng, check_finite, fan_out,
                         sample_gaussian)


def usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


needs_two_cpus = pytest.mark.skipif(
    usable_cpus() < 2, reason="fan-out needs two usable CPUs")

needs_openblas = pytest.mark.skipif(numkit._openblas() is None,
                                    reason="no OpenBLAS found")


def softmax(values, axis=-1) -> np.ndarray:
    """Shift-stabilized softmax; rows sum to 1 and order is preserved.

    Reference for the classifier's two-column softmax (``model._softmax2``)
    and for the attention weights in the baseline tests.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0 or arr.shape[axis] == 0:
        raise ValueError("empty reduction")
    shifted = arr - np.max(arr, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


# every entry point that takes bag offsets over four rows
OFFSET_ENTRY_POINTS = {
    "Dataset": lambda offsets: Dataset(np.zeros((4, 2)), offsets,
                                       ["a", "b"], [0, 0], [0] * 4),
    "segment_bag_scores": lambda offsets: segment_bag_scores(np.zeros(4),
                                                             offsets),
    "apply_local_constraint": lambda offsets: apply_local_constraint(
        np.full((4, 2), 0.5), offsets),
    "pool_bags": lambda offsets: pool_bags(init_pool_params("max", 2),
                                           np.zeros((4, 2)), offsets),
}


@pytest.mark.parametrize("entry", OFFSET_ENTRY_POINTS)
@pytest.mark.parametrize("offsets", [
    [], [0], [[0, 4]], [0.0, 2.5, 4.0], [0, 3, 2, 4], [0, 2, 5]],
    ids=["empty", "no-bag", "2-D", "float", "decreasing", "past-the-end"])
def test_bad_offsets_fail_at_the_boundary(entry, offsets):
    # each entry point checks its offsets through numkit.bag_sizes
    with pytest.raises(ValueError, match=re.escape(f"bag offsets {offsets} ")):
        OFFSET_ENTRY_POINTS[entry](offsets)


class TestRng:
    def test_same_seed_same_draws(self):
        a = Rng(42).standard_normal(100)
        b = Rng(42).standard_normal(100)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = Rng(42, stream=0).standard_normal(100)
        b = Rng(42, stream=1).standard_normal(100)
        assert not np.array_equal(a, b)

    def test_uniform_range(self):
        draws = Rng(0).uniform(-2.0, 5.0, 1000)
        assert draws.min() >= -2.0 and draws.max() < 5.0

    def test_integers_range(self):
        draws = Rng(0).integers(3, 9, 500)
        assert set(np.unique(draws)) <= set(range(3, 9))

    def test_permutation_is_bijection(self):
        perm = Rng(1).permutation(50)
        assert sorted(perm) == list(range(50))


class TestNumerics:
    def test_softmax_frozen_values(self):
        out = softmax(np.array([1.0, 2.0, 3.0]))
        expected = np.array([0.09003057317038046,
                             0.24472847105479767,
                             0.6652409557748219])
        assert np.allclose(out, expected, atol=1e-15)
        assert np.isclose(out.sum(), 1.0)

    def test_softmax_shift_invariant(self):
        x = np.array([[1.0, 5.0, -2.0]])
        assert np.allclose(softmax(x), softmax(x + 100.0))

    def test_check_finite_rejects(self):
        with pytest.raises(ValueError, match="scores"):
            check_finite(np.array([1.0, np.nan]), "scores")
        with pytest.raises(ValueError, match="scores"):
            check_finite(np.array([np.inf]), "scores")
        check_finite(np.array([0.0, -5.0]), "scores")

    def test_sample_gaussian_moments(self):
        rng = Rng(3)
        mean = np.array([2.0, -1.0])
        draws = np.stack([sample_gaussian(rng, mean, 0.5) for _ in range(4000)])
        assert np.allclose(draws.mean(axis=0), mean, atol=0.05)
        assert np.allclose(draws.std(axis=0), 0.5, atol=0.05)

    def test_sample_gaussian_bad_std(self):
        with pytest.raises(ValueError, match="positive"):
            sample_gaussian(Rng(0), np.zeros(2), 0.0)


def running(pid: int) -> bool:
    """Whether the process exists and is not a zombie, per /proc."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            state = next(line for line in fh if line.startswith("State:"))
    except FileNotFoundError:
        return False
    return state.split()[1] != "Z"


class TestFanOut:
    """``fan_out`` yields each job's result as it arrives, raises a job's
    error in job order, and leaves no worker behind, also when its
    consumer stops early; test_trainer.py's ``TestFanOut`` covers its
    results, errors and clean-up through the trainer's uses."""

    @needs_two_cpus
    def test_results_are_yielded_before_later_jobs_end(self, tmp_path):
        # job 3 waits for the consumer to have seen result 0: a helper that
        # sent or yielded results only at the end would make it time out
        marker = tmp_path / "took-0"

        def job(i):
            deadline = time.monotonic() + 10
            while i == 3 and not marker.exists():
                if time.monotonic() > deadline:
                    return "timed out"
                time.sleep(0.01)
            return i

        got = []
        for result in fan_out(job, 4):
            marker.touch()
            got.append(result)
        assert got == [0, 1, 2, 3]

    @needs_two_cpus
    @pytest.mark.parametrize("consumer", ["raises", "breaks"])
    def test_consumer_that_stops_early_leaves_no_worker(self, consumer):
        # jobs 1 and 2 outlast any test: only terminate ends them (the
        # autouse fixtures check that no descriptor is left either)
        def job(i):
            if i > 0:
                time.sleep(60)
            return i

        started, got = time.monotonic(), []
        with suppress(KeyError):
            for result in fan_out(job, 3):
                got.append(result)
                if consumer == "raises":
                    raise KeyError("consumer failed")
                break
        assert got == [0]
        assert time.monotonic() - started < 10
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [
        "one", pytest.param("all", marks=needs_two_cpus)])
    def test_error_is_raised_after_earlier_results(self, monkeypatch, cpus):
        if cpus == "one":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                                raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 1)

        def job(i):
            if i == 1:
                raise KeyError("job 1 failed")
            return i, os.getpid()

        results = fan_out(job, 3)
        index, pid = next(results)
        with pytest.raises(KeyError, match="job 1 failed"):
            next(results)
        assert next(results, "no job 2") == "no job 2"
        assert index == 0
        assert (pid == os.getpid()) == (cpus == "one")
        assert multiprocessing.active_children() == []

    @needs_two_cpus
    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads /proc")
    def test_workers_die_with_a_killed_caller(self, tmp_path):
        pid_file = tmp_path / "pids"
        script = """
import os, sys, time
from otmil.numkit import fan_out
def job(i):
    with open(sys.argv[1], "a") as fh:
        fh.write(f"{os.getpid()}\\n")
    time.sleep(60)
list(fan_out(job, 2))
"""

        def worker_pids():
            text = pid_file.read_text() if pid_file.exists() else ""
            return [int(line) for line in text.splitlines(keepends=True)
                    if line.endswith("\n")]

        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        caller = subprocess.Popen([sys.executable, "-c", script,
                                   str(pid_file)], env=env)
        try:
            deadline = time.monotonic() + 60
            while len(worker_pids()) < 2 and time.monotonic() < deadline:
                time.sleep(0.05)
        finally:
            caller.send_signal(signal.SIGKILL)
            caller.wait(timeout=10)
        workers = worker_pids()
        assert len(workers) == 2
        deadline = time.monotonic() + 5
        while any(map(running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        orphans = [pid for pid in workers if running(pid)]
        for pid in orphans:  # leave nothing running when the test fails
            os.kill(pid, signal.SIGKILL)
        assert orphans == []

    @needs_two_cpus
    @needs_openblas
    def test_workers_run_blas_on_one_thread(self):
        script = """
from otmil.numkit import _openblas, fan_out
threads, _ = _openblas()
got = list(fan_out(lambda i: threads(), 2))
print(threads(), *got)
"""
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
               "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["2", "1", "1"]


def snapshot_sum(arr):
    return float(arr.sum())


@pytest.fixture
def openblas():
    """``(get, set)`` of the loaded OpenBLAS's thread count, which is
    restored after the test; the test is skipped when none is found."""
    found = numkit._openblas()
    if found is None:
        pytest.skip("no OpenBLAS found")
    before = found[0]()
    yield found
    found[1](before)


@needs_two_cpus
class TestBackground:
    """``Background`` forks one process, runs it and the caller on one BLAS
    thread while it lives, hands back each item's result in order, raises
    its function's exception at the next ``submit``, and leaves no process
    behind; test_trainer.py's ``TestBackgroundEvaluation`` covers its use in
    ``self_train``, and there, in a child interpreter with a timeout, a
    caller that raises."""

    def test_results_are_of_snapshots_in_submit_order(self, forks):
        arr = np.zeros(3)
        with Background(snapshot_sum, True) as background:
            for k in range(5):
                arr += k
                background.submit(arr)  # pickled now: later edits unseen
            arr[:] = -1.0
            got = background.results()
        assert got == [0.0, 3.0, 9.0, 18.0, 30.0]
        assert forks == [os.getpid()]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("fork", [False, True])
    def test_error_is_raised_at_a_later_submit(self, fork):
        def fn(item):
            if item == 0:
                raise KeyError("item 0 failed")
            return item

        deadline = time.monotonic() + 30
        with pytest.raises(KeyError, match="item 0 failed"):
            with Background(fn, fork) as background:
                background.submit(0)
                while time.monotonic() < deadline:
                    time.sleep(0.01)
                    background.submit(1)
        assert time.monotonic() < deadline
        assert multiprocessing.active_children() == []

    def test_unpicklable_error_keeps_its_type_and_message(self):
        class LocalError(Exception):  # a local class does not pickle
            pass

        def fn(item):
            raise LocalError(f"item {item} failed")

        with pytest.raises(RuntimeError, match="LocalError: item 0 failed"):
            with Background(fn, True) as background:
                background.submit(0)
                background.results()
        assert multiprocessing.active_children() == []

    @needs_openblas
    def test_process_and_caller_run_blas_on_one_thread(self):
        script = """
import multiprocessing
from otmil.numkit import Background, _openblas
threads, _ = _openblas()
with Background(lambda item: threads(), True) as background:
    background.submit(0)
    inside = threads(), len(multiprocessing.active_children())
    got = background.results()
print(threads(), *inside, *got)
"""
        assert (run_script(script, OPENBLAS_NUM_THREADS="2")
                == ["2", "1", "1", "1"])

    @pytest.mark.parametrize("how", ["block raises", "start fails"])
    def test_caller_blas_threads_restored_after_a_failure(
            self, openblas, forks, monkeypatch, how):
        threads, set_threads = openblas
        set_threads(2)
        error = KeyError if how == "block raises" else OSError
        if error is OSError:
            def start(process):
                raise OSError("no fork")
            monkeypatch.setattr(multiprocessing.context.ForkProcess,
                                "start", start)
        with pytest.raises(error):
            with Background(snapshot_sum, True):
                assert (threads(), forks) == (1, [os.getpid()])
                raise KeyError("block failed")
        assert threads() == 2
        assert multiprocessing.active_children() == []


def run_script(script, timeout=60, **env_vars):
    """The whitespace-separated words that ``script`` prints, run in a
    child interpreter that imports otmil from this test's path, with
    ``env_vars`` set (a value of None unsets the variable); the child must
    exit 0 within ``timeout`` seconds."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    for var, value in env_vars.items():
        env.pop(var, None)
        if value is not None:
            env[var] = value
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def counting_loop(steps, size=3):
    """A loop that adds the sum of each step's two vectors to its state, as
    a training step applies its combined gradient, and returns the state
    and each step's results with the pid that computed each."""
    def loop(pair):
        state, seen = np.zeros(size), []
        for step in range(steps):
            first, second = pair.map(
                lambda k: np.concatenate([state + k, [os.getpid()]]),
                step, 10 * step)
            state += first[:-1] + second[:-1]
            seen.append((first[:-1].tolist(), second[:-1].tolist(),
                         int(first[-1]), int(second[-1])))
        return state, seen
    return loop


@needs_two_cpus
class TestPair:
    """``Pair`` runs one loop on the caller and a forked peer in step, each
    computing one half of every ``map``, with the results of the caller
    alone, raises the peer's exception in the caller, and leaves no process
    behind; test_baselines.py's ``TestPairedTraining`` covers its use in
    ``pool_baseline_train``."""

    def test_forked_and_inline_results_agree(self, forks):
        state, seen = Pair(True).run(counting_loop(5))
        assert forks == [os.getpid()]
        want_state, want_seen = Pair(False).run(counting_loop(5))
        assert state.tobytes() == want_state.tobytes()
        assert [s[:2] for s in seen] == [s[:2] for s in want_seen]
        # the caller computed each first item and the peer each second one
        assert {s[2] for s in seen} == {os.getpid()}
        assert len({s[3] for s in seen}) == 1
        assert seen[0][3] != os.getpid()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("fork", [False, True])
    def test_peer_error_is_raised_in_the_caller(self, fork):
        caller = os.getpid()

        def loop(pair):
            for step in range(1000):
                def fn(k):
                    if k == 1 and (step == 3 or os.getpid() != caller):
                        raise KeyError(f"step {step} failed")
                    return np.zeros(2)
                pair.map(fn, 0, 1)

        with pytest.raises(KeyError, match="step . failed") as raised:
            Pair(fork).run(loop)
        # inline, the caller itself raises at step 3; paired, the peer
        # raises at its first step
        assert raised.value.args[0] == ("step 0 failed" if fork
                                        else "step 3 failed")
        assert multiprocessing.active_children() == []

    def test_peer_error_after_the_last_step(self):
        caller = os.getpid()

        def loop(pair):
            pair.map(lambda k: np.zeros(1), 0, 1)
            if os.getpid() != caller:
                raise KeyError("after the loop")
            return "done"

        with pytest.raises(KeyError, match="after the loop"):
            Pair(True).run(loop)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("size", [4, 200_000])
    def test_peer_that_ends_its_loop_first_is_named(self, size):
        # 200,000 values are past the pipe's buffer: the caller's write
        # fails with the peer gone, not only its next read
        script = f"""
import os, time
import numpy as np
from otmil.numkit import Pair
caller = os.getpid()
def loop(pair):
    for step in range(5 if os.getpid() == caller else 2):
        pair.map(lambda k: np.zeros({size}), 0, 1)
        time.sleep(0.05)
try:
    Pair(True).run(loop)
except RuntimeError as exc:
    print(str(exc).replace(" ", "-"))
"""
        assert run_script(script) == [
            "the-peer-of-a-pair-ended-its-loop-before-its-caller-did"]

    def test_unpicklable_peer_error_keeps_its_type_and_message(self):
        class LocalError(Exception):  # a local class does not pickle
            pass

        def fn(k):
            if k == 1:
                raise LocalError(f"item {k} failed")
            return np.zeros(1)

        with pytest.raises(RuntimeError, match="LocalError: item 1 failed"):
            Pair(True).run(lambda pair: pair.map(fn, 0, 1))

    @pytest.mark.parametrize("fork", [False, True])
    @pytest.mark.parametrize("result", [
        [1.0, 2.0], np.zeros((2, 2)), np.zeros(3, dtype=np.float32),
        np.zeros(6)[::2]], ids=["list", "matrix", "float32", "strided"])
    def test_result_must_be_a_float64_vector(self, fork, result):
        with pytest.raises(TypeError, match="float64 vector"):
            Pair(fork).run(lambda pair: pair.map(lambda k: result, 0, 1))

    def test_vectors_larger_than_the_pipe_are_swapped(self):
        # 1 MiB vectors, past any pipe's buffer: were both to write first,
        # each would wait on the other's full pipe until the timeout
        script = """
import numpy as np
from otmil.numkit import Pair
def loop(pair):
    total = 0.0
    for step in range(20):
        a, b = pair.map(lambda k: np.full(1 << 17, k + step), 1.0, 2.0)
        total += a.sum() + b.sum()
    return total
print(Pair(True).run(loop) == Pair(False).run(loop))
"""
        assert run_script(script) == ["True"]

    def test_caller_error_terminates_the_peer(self):
        script = """
import multiprocessing, os, time
import numpy as np
from otmil.numkit import Pair
caller = os.getpid()
def loop(pair):
    for step in range(100000):
        pair.map(lambda k: np.zeros(4), 0, 1)
        if step == 5 and os.getpid() == caller:
            raise KeyError("caller failed")
start = time.monotonic()
try:
    Pair(True).run(loop)
except KeyError as exc:
    print("raised", exc.args[0].replace(" ", "-"))
print(len(multiprocessing.active_children()), time.monotonic() - start < 30)
"""
        assert run_script(script) == ["raised", "caller-failed", "0", "True"]

    @needs_openblas
    def test_paired_processes_run_blas_on_one_thread(self):
        script = """
import numpy as np
from otmil.numkit import Pair, _openblas
threads, _ = _openblas()
def loop(pair):
    return pair.map(lambda k: np.array([threads() + 0.0]), 0, 1)
got = Pair(True).run(loop)
print(threads(), *(int(v[0]) for v in got))
"""
        assert run_script(script, OPENBLAS_NUM_THREADS="2") == ["2", "1", "1"]

    def test_no_peer_inside_a_forked_worker(self, forks):
        def job(i):
            before = len(forks)
            state, _ = Pair(True).run(counting_loop(3))
            return len(forks) - before, state.tolist()

        got = list(fan_out(job, 2))
        want = Pair(False).run(counting_loop(3))[0].tolist()
        assert got == [(0, want), (0, want)]
