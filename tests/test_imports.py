"""Every imported name is used, in the package and in its tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Imported without being called: perfbench/spans.py wraps these names and
# raises if one is missing, until an in-program trace replaces the patched
# names.
EXEMPT = {
    ("src/pauliblock/pipeline.py", "fidelity_fast"),
    ("src/pauliblock/experiments.py", "fidelity_fast"),
}


def unused_imports(path):
    """Names ``path`` imports but never loads (a name listed in
    ``__all__`` counts as used)."""
    tree = ast.parse(path.read_text())
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return imported - used


def test_no_unused_imports():
    paths = sorted((ROOT / "tests").glob("*.py"))
    paths += sorted((ROOT / "src" / "pauliblock").glob("*.py"))
    found = {
        (path.relative_to(ROOT).as_posix(), name)
        for path in paths
        for name in unused_imports(path)
    }
    assert found == EXEMPT
