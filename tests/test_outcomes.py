"""The outcome ledger, OUTCOMES.json, against a fresh computation."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "outcomes.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("outcomes", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tuning_seed_rows_recompute_exactly():
    # The shipped profile at seeds 1-10, 1200 trials, about 0.4 s; CI
    # recomputes the whole file, held-out profiles included.
    outcomes = load_tool()
    stored = json.loads(outcomes.LEDGER.read_text())
    profiles = outcomes.profiles()
    assert list(stored) == list(profiles)
    name = "shipped, seeds 1-10"
    assert outcomes.profile_rows(*profiles[name]) == stored[name]
