"""The package's export list."""

import powderdose


def test_every_export_is_listed_once_and_resolves():
    names = powderdose.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(powderdose, name)] == []


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from powderdose import *", namespace)
    assert set(powderdose.__all__) <= namespace.keys()
