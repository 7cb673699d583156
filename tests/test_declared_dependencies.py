"""Every third-party module the tests and the benchmark import is declared
in ``pyproject.toml``, so a clean install of the ``test`` extra runs them,
and the package imports nothing but its own ``[project] dependencies``, so
that a test-only package (scipy, hypothesis) or one that merely happens to
be installed (mpmath) cannot slip into it.

Imports are read from the source (any depth, optional ones included), not
from what happens to be installed.  The standard library and the
repository's own modules are not dependencies.  ``pyproject.toml`` is read
by pattern, since Python 3.10 has no ``tomllib``.
"""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = [*sorted((ROOT / "tests").glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py"))]
PACKAGE = sorted((ROOT / "src").glob("*/*.py"))


def imported_modules(path: Path) -> set[str]:
    """The top-level names of the absolute imports in ``path``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def own_modules() -> set[str]:
    """The package, the benchmark and every module beside a source."""
    packages = {p.parent.name for p in (ROOT / "src").glob("*/__init__.py")}
    return packages | {"perfbench", "tests"} | {p.stem for p in SOURCES}


def third_party(paths: list[Path]) -> set[str]:
    """The top-level names that ``paths`` import from outside the standard
    library and the repository."""
    names = set().union(*map(imported_modules, paths))
    return names - (set(sys.stdlib_module_names) | own_modules())


def declared(keys: tuple[str, ...] = ("dependencies", "test")) -> set[str]:
    """The names in the ``pyproject.toml`` lists ``keys``, by default
    ``[project] dependencies`` and the ``test`` extra, without version
    specifiers or extras, normalized as import names."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    names = set()
    for key in keys:
        (items,) = re.findall(rf"^{key}\s*=\s*\[(.*?)\]", text, flags=re.M | re.S)
        for requirement in re.findall(r'"([^"]+)"', items):
            names.add(re.split(r"[\s\[<>=!~;]", requirement)[0].lower().replace("-", "_"))
    return names


def test_declared_names_are_parsed():
    assert {"numpy", "pytest", "scipy", "hypothesis"} <= declared()
    assert declared(("dependencies",)) == {"numpy"}


def test_imports_of_tests_and_benchmark_are_declared():
    imported = third_party(SOURCES)
    undeclared = {name for name in imported if name.lower() not in declared()}
    assert not undeclared, f"imported but not declared in pyproject.toml: {sorted(undeclared)}"
    assert {"numpy", "pytest", "hypothesis"} <= imported


def test_package_imports_only_its_dependencies():
    imported = third_party(PACKAGE)
    runtime = declared(("dependencies",))
    undeclared = {name for name in imported if name.lower() not in runtime}
    assert not undeclared, f"the package imports beyond [project] dependencies: {sorted(undeclared)}"
    assert "numpy" in imported
