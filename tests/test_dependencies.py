"""The library has no runtime dependencies: it imports only the standard
library and itself, and pyproject.toml declares none."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "lettercost").glob("*.py"))


def outside_imports(source):
    """The top-level module names that source imports, absolutely, from
    outside the standard library."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names if name.split(".")[0] not in sys.stdlib_module_names]


def test_library_imports_only_the_standard_library():
    assert len(SOURCES) >= 7
    for path in SOURCES:
        assert outside_imports(path.read_text()) == [], path.name


def test_outside_imports_sees_a_dependency():
    # the check above means something only if a third-party import fails it
    source = "import numpy.linalg\nfrom . import core\nfrom fractions import Fraction\n"
    source += "def f():\n    from scipy import optimize\n"
    assert outside_imports(source) == ["numpy.linalg", "scipy"]


def test_pyproject_declares_no_dependencies():
    text = (ROOT / "pyproject.toml").read_text()
    project = text.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    assert re.findall(r"^dependencies\s*=.*$", project, re.M) == ["dependencies = []"]
