"""The oracles in ``tests/oracles.py`` share no code with the package they
check: read with ``ast``, the file's only import from ``coorbit`` is
``hardy`` inside ``bisected_windows``, whose docstring says what it
shares and that it checks only the search."""

import ast
from pathlib import Path

ORACLES = Path(__file__).with_name("oracles.py")


def test_oracles_import_only_hardy_and_only_for_the_window_search():
    tree = ast.parse(ORACLES.read_text())
    imports = []
    for scope in tree.body:
        owner = scope.name if isinstance(scope, ast.FunctionDef) else None
        for node in ast.walk(scope):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "coorbit":
                imports += [(owner, f"{node.module}.{alias.name}") for alias in node.names]
            elif isinstance(node, ast.Import):
                imports += [(owner, alias.name) for alias in node.names
                            if alias.name.split(".")[0] == "coorbit"]
    assert imports == [("bisected_windows", "coorbit.hardy")]
    doc = ast.get_docstring(next(f for f in tree.body
                                 if getattr(f, "name", None) == "bisected_windows"))
    assert "shares the bound B and E* with the library and checks only the search" \
        in " ".join(doc.split())
