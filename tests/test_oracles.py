import ast
from pathlib import Path


def test_oracles_import_nothing_from_macrolens():
    """An oracle that reuses production code checks nothing."""
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported, "no imports found; the check would be vacuous"
    assert [m for m in imported if m.split(".")[0] in ("macrolens", "")] == []
