"""The package's export list and the imports between its modules."""

import ast
from pathlib import Path

import powderdose

PACKAGE = Path(powderdose.__file__).parent

# The package's modules in layer order: each imports only from those
# before it, so no import cycle can form.
LAYERS = ("flow", "identify", "control", "plant", "powders", "config",
          "artifacts", "harness", "report", "cli")


def sibling_imports(path):
    """(sibling module, imported name) of each import of a sibling."""
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0:
            if module.split(".")[0] != "powderdose":
                continue
            module = module.partition(".")[2]
        elif node.level > 1:
            continue
        for alias in node.names:
            if module:
                yield module, alias.name
            else:  # from . import name
                yield alias.name, None


def test_every_export_is_listed_once_and_resolves():
    names = powderdose.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(powderdose, name)] == []


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from powderdose import *", namespace)
    assert set(powderdose.__all__) <= namespace.keys()


def test_no_module_imports_a_private_name_from_a_sibling():
    private = [f"{path.name}: {module}.{name}"
               for path in sorted(PACKAGE.glob("*.py"))
               for module, name in sibling_imports(path)
               if (name or module).startswith("_")]
    assert private == []


def test_modules_import_only_from_earlier_layers():
    assert sorted(LAYERS) == sorted(path.stem for path in PACKAGE.glob("*.py")
                                    if path.stem != "__init__")
    upward = [f"{layer} imports {module}"
              for position, layer in enumerate(LAYERS)
              for module, _ in sibling_imports(PACKAGE / f"{layer}.py")
              if module not in LAYERS[:position]]
    assert upward == []
