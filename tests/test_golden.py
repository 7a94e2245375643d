"""Golden output digests: one sha256 per output of the ``otmil`` command on
tiny corpora, one of a trained attention baseline's parameters, and the
``outputs.digest`` of each benchmark workload's tiny unit run, compared
with ``tests/golden.json`` to the bit.

Every run is a child process with OPENBLAS_NUM_THREADS, OMP_NUM_THREADS
and MKL_NUM_THREADS set to 1 (they are read when BLAS loads). Each file a
run writes is hashed; a JSON file is hashed after dropping its
``provenance`` block and its path-valued keys, which name the run's
directory and not its result. The parameters are hashed too because the
baseline's file holds only rank AUCs, which a last-bit change rarely
moves. Each workload runs as ``perfbench/child.py`` does for the
benchmark, in unit mode at size ``tiny`` with seed 0.

The bits depend on the numpy build and the BLAS, so the file records
both; on another numpy or BLAS the test skips and names the mismatch.
After an intended output change, rewrite the file with

    PYTHONPATH=src python tests/test_golden.py --rewrite

never by hand, and name each output whose digest moved, and why, in
CHANGES.md.
"""

import hashlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).with_name("golden.json")
PERFBENCH_CHILD = Path(__file__).parents[1] / "perfbench" / "child.py"
_WORKLOADS = ("hard-train", "ablation", "attention-baseline", "cv-sweep")

# config.json keys that hold a path: the run's directory, not its result
_PATH_KEYS = {"out", "data", "eval", "checkpoint", "images", "labels",
              "test"}

_GEN = ["--bags", "40", "--bag-size", "20", "--test-bags", "10",
        "--seed", "3"]
_FIT = ["--batch-size", "16", "--lr", "0.01"]

# (run name, argv without --out); "{name}" in an argument is that run's
# output directory
_RUNS = [
    ("gen-normal", ["gen", "normal", *_GEN]),
    ("gen-hard", ["gen", "hard", *_GEN]),
    ("gen-idx", ["gen-idx", "{idx}/images.idx", "{idx}/labels.idx",
                 "--bags", "6", "--bag-size", "4", "--ratio", "0.25"]),
    ("train", ["train", "--data", "{gen-normal}", "--epochs", "10",
               "--hidden", "16", "--mu", "0.1", "--warmup-T", "3", *_FIT]),
    ("eval", ["eval", "--checkpoint", "{train}/checkpoint.json",
              "--data", "{gen-normal}/test.ndjson"]),
    ("sweep", ["sweep", "--data", "{gen-normal}", "--epochs", "4",
               "--hidden", "16", "--grid-mu", "0.1", "0.2",
               "--grid-T", "0", "2", *_FIT]),
    ("sweep-kfold", ["sweep", "--data", "{gen-normal}/train.ndjson",
                     "--kfold", "3", "--epochs", "4", "--hidden", "16",
                     "--grid-mu", "0.1", "0.2", "--grid-T", "0", "2",
                     *_FIT]),
    ("ablation", ["ablation", "--data", "{gen-hard}", "--epochs", "5",
                  "--hidden", "16", "--mu", "0.1", "--warmup-T", "2",
                  *_FIT]),
    *((f"baseline-{kind}", ["baseline", kind, "--data", "{gen-normal}",
                            "--epochs", "5"])
      for kind in ("max", "mean", "attention")),
    ("entropy", ["entropy", "--K", "1..8", "--p-steps", "9"]),
]

# the attention baseline of the baseline-attention run, hashed from the
# arrays pool_baseline_train returns
_PARAMS = """
import hashlib, sys
from otmil.baselines import pool_baseline_train
from otmil.data import load_ndjson
from otmil.model import SgdConfig
p = pool_baseline_train(load_ndjson(sys.argv[1]), "attention", SgdConfig(
    learning_rate=0.01, batch_size=16, epochs=5, seed=0))
h = hashlib.sha256()
for arr in (p.attention.v, p.attention.w, p.head.w_out, p.head.b_out):
    h.update(arr.tobytes())
print(h.hexdigest())
"""


def environment() -> dict:
    """What the digests depend on beyond the code: numpy's version and the
    name and version of the BLAS it was built with (None None where
    numpy cannot say, before numpy 1.26)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def _child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _write_idx(directory: Path) -> None:
    """40 2x2 images, four of each digit, every pixel of digit k at 25k + 1."""
    labels = np.arange(40, dtype=np.uint8) % 10
    images = np.repeat(25 * labels + 1, 4).astype(np.uint8)
    directory.mkdir()
    (directory / "images.idx").write_bytes(
        struct.pack(">IIII", 0x803, 40, 2, 2) + images.tobytes())
    (directory / "labels.idx").write_bytes(
        struct.pack(">II", 0x801, 40) + labels.tobytes())


def _file_digest(path: Path) -> str:
    raw = path.read_bytes()
    if path.suffix == ".json":
        blob = {k: v for k, v in json.loads(raw).items()
                if k != "provenance" and k not in _PATH_KEYS}
        raw = (json.dumps(blob, indent=1, sort_keys=True) + "\n").encode()
    return hashlib.sha256(raw).hexdigest()


def _workload_digest(workload: str, workdir: Path, env: dict) -> str:
    """The ``outputs.digest`` of one tiny seed-0 unit run of ``workload``,
    a child process working in ``workdir``."""
    workdir.mkdir(parents=True)
    spec = {"workload": workload, "seed": 0, "mode": "unit", "trace": False,
            "size": "tiny", "workdir": str(workdir), "spans_path": None,
            "run_id": workload}
    out = subprocess.run([sys.executable, str(PERFBENCH_CHILD),
                          json.dumps(spec)], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])["outputs"]["digest"]


def compute_digests(workdir: Path) -> dict:
    """Run every command of ``_RUNS`` under ``workdir`` and return the
    digest of each file it wrote, keyed "run/file", plus the parameters'
    and each benchmark workload's, keyed "perfbench/workload"."""
    env = _child_env()
    dirs = {"idx": workdir / "idx"}
    _write_idx(dirs["idx"])
    digests = {}
    for name, argv in _RUNS:
        dirs[name] = workdir / name
        argv = [arg.format_map({k: str(v) for k, v in dirs.items()})
                for arg in argv]
        subprocess.run([sys.executable, "-m", "otmil.cli", *argv,
                        "--out", str(dirs[name])], env=env, check=True)
        for path in sorted(dirs[name].iterdir()):
            digests[f"{name}/{path.name}"] = _file_digest(path)
    digests["params/baseline-attention"] = subprocess.run(
        [sys.executable, "-c", _PARAMS,
         str(dirs["gen-normal"] / "train.ndjson")],
        env=env, check=True, capture_output=True, text=True).stdout.strip()
    for workload in _WORKLOADS:
        digests[f"perfbench/{workload}"] = _workload_digest(
            workload, workdir / "perfbench" / workload, env)
    return digests


def test_outputs_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    here = environment()
    if golden["environment"] != here:
        pytest.skip(f"golden digests were made with {golden['environment']}"
                    f", this is {here}")
    assert compute_digests(tmp_path) == golden["digests"]


if __name__ == "__main__":
    import tempfile
    if sys.argv[1:] != ["--rewrite"]:
        sys.exit(f"usage: PYTHONPATH=src python {sys.argv[0]} --rewrite")
    with tempfile.TemporaryDirectory() as tmp:
        blob = {"environment": environment(),
                "digests": compute_digests(Path(tmp))}
    GOLDEN.write_text(json.dumps(blob, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
