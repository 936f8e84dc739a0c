"""Fixtures shared by the test modules."""

import pytest

from powderdose import control


@pytest.fixture
def table_builds(monkeypatch):
    """The (kin, grid) pairs control._action_table builds while the test
    runs, in order; the function is wrapped, so each still builds its table
    as in a run."""
    builds = []
    build = control._action_table

    def counted(kin, grid):
        builds.append((kin, grid))
        return build(kin, grid)

    monkeypatch.setattr(control, "_action_table", counted)
    return builds
