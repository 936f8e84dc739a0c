"""Fixtures shared by the test modules."""

import pytest

from powderdose import control


@pytest.fixture
def table_builds(monkeypatch):
    """The (rig, grid) pairs control._action_table builds while the test
    runs, in order, from an empty action-table memo; the function is
    wrapped, so each still builds its table as in a run. The memo is
    emptied before the test starts, so no table it held is freed while
    the test measures memory."""
    builds = []
    build = control._action_table

    def counted(rig, grid):
        builds.append((rig, grid))
        return build(rig, grid)

    monkeypatch.setattr(control, "_action_table", counted)
    control._cached_table.cache_clear()
    monkeypatch.setattr(control, "_last_table", (None, None, None))
    return builds
