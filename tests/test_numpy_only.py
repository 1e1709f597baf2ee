"""The installed package needs numpy alone: no module of src/ebggm imports
a test-only or optional package, at module level or inside a function."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ebggm"
NOT_INSTALLED = {"scipy", "networkx", "mpmath", "hypothesis", "pytest"}


def imported_roots(tree):
    """(line, top-level package) of every absolute import anywhere in tree,
    including importlib.import_module("...") and __import__("...") calls."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module] if node.level == 0 and node.module else []
        elif (isinstance(node, ast.Call) and node.args
              and isinstance(node.args[0], ast.Constant) and isinstance(node.args[0].value, str)
              and getattr(node.func, "id", getattr(node.func, "attr", None))
              in ("__import__", "import_module")):
            names = [node.args[0].value]
        else:
            continue
        yield from ((node.lineno, name.split(".")[0]) for name in names)


def test_src_imports_no_package_outside_the_install():
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 9
    found = [f"{path.name}:{line} imports {root}"
             for path in files
             for line, root in imported_roots(ast.parse(path.read_text(), str(path)))
             if root in NOT_INSTALLED]
    assert found == []


def test_the_check_sees_an_import_inside_a_function_body():
    tree = ast.parse("def f():\n    if True:\n        import scipy.linalg\n"
                     "    from networkx import chordal\n    return __import__('mpmath')\n"
                     "from . import hiw\nimport numpy as np\n")
    assert sorted(imported_roots(tree)) == [(3, "scipy"), (4, "networkx"), (5, "mpmath"),
                                            (7, "numpy")]
