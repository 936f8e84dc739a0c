"""Truncated or hand-edited artifact directories: errors, never a crash.

Each example copies a fresh artifact directory, applies one mutation and
runs `powderdose report` on it. The report must return 0 (the edit did not
touch anything the report reads) or 1 (the edit was found and named); it
must never raise.
"""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powderdose import config_from_dict, run_suite
from powderdose.cli import main as cli_main

JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-10 ** 20, 10 ** 20), st.floats(),
    st.text(max_size=12), st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))
JUNK_CELL = st.text(alphabet="0123456789.-+eEinfaNIF x/\",", max_size=12)
MUTATIONS = ("truncate-trace", "junk-trace-cell", "junk-trial-key",
             "truncate-summary")


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    out = tmp_path_factory.mktemp("fresh")
    run_suite(config_from_dict({
        "powder": ["glass-beads", "tio2"], "controller": ["model", "pid"],
        "targets_mg": [50], "trials": 1, "seed": 3}), out_dir=out)
    return out


def report(directory) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli_main(["report", str(directory)])


def mutate(root, kind, data) -> None:
    index_path = root / "summary.json"
    index = json.loads(index_path.read_text())
    entry = data.draw(st.sampled_from(index["trials"]))
    trace = root / "trials" / f"{entry['trial_id']}.csv"
    if kind == "truncate-trace":
        raw = trace.read_bytes()
        trace.write_bytes(raw[:data.draw(st.integers(0, len(raw)))])
    elif kind == "junk-trace-cell":
        lines = trace.read_text().splitlines()
        row = data.draw(st.integers(0, len(lines) - 1))
        cells = lines[row].split(",")
        cells[data.draw(st.integers(0, len(cells) - 1))] = \
            data.draw(JUNK_CELL)
        lines[row] = ",".join(cells)
        trace.write_text("\n".join(lines) + "\n")
    elif kind == "junk-trial-key":
        entry[data.draw(st.sampled_from(sorted(entry)))] = data.draw(JUNK)
        index_path.write_text(json.dumps(index))
    else:
        raw = index_path.read_bytes()
        index_path.write_bytes(raw[:data.draw(st.integers(0, len(raw)))])


def test_fresh_artifacts_report_cleanly(fresh, tmp_path):
    copy = tmp_path / "copy"
    shutil.copytree(fresh, copy)
    assert report(copy) == 0


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(MUTATIONS), data=st.data())
def test_mutated_artifacts_never_crash_the_report(fresh, kind, data):
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch) / "copy"
        shutil.copytree(fresh, copy)
        mutate(copy, kind, data)
        assert report(copy) in (0, 1)
