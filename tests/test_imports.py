"""Package layout: no qbft module imports another module's private names.

A private helper (leading underscore) belongs to the module that defines
it; a second module that needs it should get a public entry point instead.
"""

import ast
from pathlib import Path

import qbft

PACKAGE = Path(qbft.__file__).parent


def private_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").split(".")[0] == "qbft"
        if internal:
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield f"{path.name}:{node.lineno} imports {alias.name}"


def test_no_module_imports_private_names():
    offenders = [hit for path in sorted(PACKAGE.glob("*.py"))
                 for hit in private_imports(path)]
    assert offenders == []
