"""The oracle boundary: reference paths are test fixtures, not options.

Production runs one engine.  The per-adversary paths it is pinned to live in
:mod:`repro.oracles`, which only tests and benchmarks import.  This suite
enforces both halves: no production module imports the oracles, and no
public callable of the production packages offers an ``engine`` or a
``backend`` parameter.  Production is also stdlib-only: importing it never
loads numpy.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGE_ROOT = Path(repro.__file__).parent

#: The packages (and the CLI module) whose public surface must not offer an
#: engine or a homology backend choice.
SURVEY_PACKAGES = (
    "repro.verification",
    "repro.analysis",
    "repro.knowledge",
    "repro.topology",
    "repro.adversaries",
    "repro.runtime",
    "repro.service",
    "repro.cli",
)


def module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE_ROOT.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def package_of(path: Path) -> str:
    name = module_name(path)
    return name if path.name == "__init__.py" else name.rpartition(".")[0]


def imported_modules(source: str, package: str):
    """Absolute names of every module ``source`` imports (relative ones resolved)."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")[: len(package.split(".")) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            yield base
            for alias in node.names:
                yield f"{base}.{alias.name}"


def imports_oracles(source: str, package: str) -> bool:
    return any(
        name == "repro.oracles" or name.startswith("repro.oracles.")
        for name in imported_modules(source, package)
    )


@pytest.mark.parametrize(
    "source",
    [
        "import repro.oracles",
        "from repro import oracles",
        "from repro.oracles import ViewSource",
        "from .. import oracles",
        "from ..oracles import check_protocol",
        "def lazy():\n    from ..oracles import ViewSource",
    ],
)
def test_scan_resolves_every_import_form(source):
    assert imports_oracles(source, "repro.engine")
    assert not imports_oracles("from . import views\nfrom ..model import Run", "repro.engine")


def test_only_the_oracles_module_imports_the_oracles():
    offenders = sorted(
        module_name(path)
        for path in PACKAGE_ROOT.rglob("*.py")
        if path.name != "oracles.py" and imports_oracles(path.read_text(), package_of(path))
    )
    assert offenders == []


def public_callables(package_name: str):
    """``(qualified name, callable)`` for every public function, class and method."""
    package = importlib.import_module(package_name)
    modules = [package] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(getattr(package, "__path__", ()), package_name + ".")
    ]
    for module in modules:
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if attr.startswith("_") and attr != "__init__":
                        continue
                    function = getattr(member, "__func__", member)
                    if inspect.isfunction(function):
                        yield f"{module.__name__}.{name}.{attr}", function


def callables_offering(package_name: str, parameter: str):
    callables = list(public_callables(package_name))
    assert callables, f"found no public callables in {package_name}"
    return [
        name
        for name, function in callables
        if parameter in inspect.signature(function).parameters
    ]


@pytest.mark.parametrize("package_name", SURVEY_PACKAGES)
def test_no_public_callable_offers_an_engine(package_name):
    assert callables_offering(package_name, "engine") == []


@pytest.mark.parametrize("package_name", SURVEY_PACKAGES)
def test_no_public_callable_offers_a_backend(package_name):
    assert callables_offering(package_name, "backend") == []


def test_production_imports_leave_numpy_out():
    code = (
        "import sys, repro, repro.topology, repro.cli, repro.service; "
        "sys.exit('numpy' in sys.modules)"
    )
    path = os.pathsep.join(filter(None, [str(PACKAGE_ROOT.parent), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr or "importing repro loaded numpy"
