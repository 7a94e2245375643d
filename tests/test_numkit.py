"""Deterministic RNG, numeric helpers and the process fan-out."""

import multiprocessing
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from otmil.numkit import Rng, check_finite, fan_out, sample_gaussian


def usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


needs_two_cpus = pytest.mark.skipif(
    usable_cpus() < 2, reason="fan-out needs two usable CPUs")


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
    """``fan_out`` hands each result to ``take`` as it arrives and leaves no
    worker behind; test_trainer.py's ``TestFanOut`` covers its results,
    errors and clean-up through the trainer's uses."""

    @needs_two_cpus
    def test_results_reach_take_before_later_jobs_end(self, tmp_path):
        # job 3 waits for take to have seen result 0: a helper that sent
        # or handed over results only at the end would make it time out
        marker = tmp_path / "took-0"

        def job(i):
            deadline = time.monotonic() + 10
            while i == 3 and not marker.exists():
                if time.monotonic() > deadline:
                    return "timed out"
                time.sleep(0.01)
            return i

        got = []

        def take(result):
            marker.touch()
            got.append(result)

        fan_out(job, 4, take)
        assert got == [0, 1, 2, 3]

    def test_error_in_take_reaches_the_caller(self):
        def take(result):
            if result == 1:
                raise KeyError("take failed")

        with pytest.raises(KeyError, match="take failed"):
            fan_out(lambda i: i, 4, take)
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
fan_out(job, 2, lambda result: None)
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
