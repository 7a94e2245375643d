"""Random edits of one to three bytes to valid input files: an NDJSON
dataset, a benchmark CSV and a checkpoint. Every edit that breaks a file
fails at the boundary, as a ValueError that says where, and through the CLI
as exit status 2 with ``.failed`` and a message that name the file."""

import io
import re
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from otmil.cli import main
from otmil.data import (GenConfig, generate_normal_bags, load_benchmark_csv,
                        load_ndjson, save_ndjson)
from otmil.model import init_classifier, load_checkpoint, save_checkpoint
from otmil.numkit import Rng

# what a failure's message must name: a line for the two datasets, and the
# column too where one byte or token broke the line; a field or layer for
# a checkpoint, or the line and column of a byte or of text that is not
# JSON
_LINE = r"^line \d+: "
_COLUMN = r"^line \d+: (byte .* at column \d+ is not UTF-8|malformed JSON " \
          r"\(.* at column \d+\))$"
_CHECKPOINT = (r"^(checkpoint: (.*\b(field|layer) \S+|line \d+: byte .* "
               r"at column \d+ |malformed JSON .* line \d+ column \d+)|"
               r"layer \S+: )")

# each format's file name, loader, and the CLI command that reads a broken
# file: {path} is the file and {valid} the directory of valid files
_FORMATS = {
    "ndjson": ("data.ndjson", load_ndjson,
               ["train", "--data", "{path}", "--epochs", "1"]),
    "csv": ("data.csv", load_benchmark_csv,
            ["train", "--data", "{path}", "--epochs", "1"]),
    "checkpoint": ("data.json", load_checkpoint,
                   ["eval", "--checkpoint", "{path}", "--data",
                    "{valid}/data.ndjson"]),
}


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """A directory of one valid file of each format."""
    directory = tmp_path_factory.mktemp("valid")
    ds = generate_normal_bags(GenConfig(n_bags=4, bag_size=3,
                                        positive_ratio=0.5, feature_dim=2,
                                        seed=0))
    save_ndjson(ds, directory / "data.ndjson")
    rows = ["bag_id,bag_label,f0,f1"]
    for bag in ds.bags:
        rows += [f"{bag.bag_id},{bag.label},{x!r},{y!r}"
                 for x, y in (inst.features.tolist()
                              for inst in bag.instances)]
    (directory / "data.csv").write_text("\n".join(rows) + "\n")
    save_checkpoint(init_classifier(2, "mlp", 3, Rng(0)),
                    directory / "data.json")
    for name, load, _ in _FORMATS.values():
        load(directory / name)
    return directory


def _edited(data: bytes, edits) -> bytes:
    """``data`` with each edit, (kind, position, byte), applied in turn;
    the position wraps around the data's length."""
    data = bytearray(data)
    for kind, position, byte in edits:
        at = position % (len(data) + (kind == "insert"))
        if kind == "insert":
            data.insert(at, byte)
        elif kind == "delete":
            del data[at]
        else:
            data[at] = byte
    return bytes(data)


_EDITS = st.lists(st.tuples(
    st.sampled_from(["replace", "insert", "delete"]),
    st.integers(0, 1 << 16),
    st.one_of(st.integers(0, 255),
              st.sampled_from(b'{}[],:"-.0123456789eE \n\\'))),
    min_size=1, max_size=3)


@pytest.mark.parametrize("fmt", list(_FORMATS))
@settings(max_examples=100, deadline=None)
@given(edits=_EDITS)
@example(edits=[("replace", 3, ord("x"))])  # the CSV header, the JSON keys
@example(edits=[("insert", 1, ord("{"))])  # a JSON line, the CSV header
@example(edits=[("replace", 12, ord("x"))])  # the checkpoint's arch
@example(edits=[("replace", 0, 0xFF)])  # not UTF-8
def test_broken_file_fails_at_the_boundary(valid, fmt, edits):
    name, load, command = _FORMATS[fmt]
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / name
        path.write_bytes(_edited((valid / name).read_bytes(), edits))
        try:
            load(path)
        except ValueError as exc:
            message = str(exc)
        else:
            return  # the edit left a valid file
        if fmt == "checkpoint":
            assert re.match(_CHECKPOINT, message), message
        else:
            assert re.match(_LINE, message), message
            if "malformed JSON" in message or "not UTF-8" in message:
                assert re.match(_COLUMN, message), message
        out = Path(scratch) / "out"
        argv = [arg.format(path=path, valid=valid) for arg in command]
        stderr = io.StringIO()
        with redirect_stderr(stderr):
            assert main([*argv, "--out", str(out)]) == 2
        assert stderr.getvalue() == f"error: {path}: {message}\n"
        assert (out / ".failed").read_text() == (
            f"ValueError: {path}: {message}\n")
