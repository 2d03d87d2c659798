"""The oracle boundary: reference paths are test fixtures, not options.

Production runs one engine.  The per-adversary paths it is pinned to live in
:mod:`repro.oracles`, which only tests and benchmarks import.  This suite
enforces both halves: no production module imports the oracles, and no
public callable of the production packages offers an ``engine`` or a
``backend`` parameter.  Orbits have one production front: no public
callable of :mod:`repro.adversaries` offers a ``symmetry`` parameter, and
the orbit–stabiliser size functions live in the oracles, not in
:mod:`repro.symmetry`.  Production is also stdlib-only at import: no entry
point loads numpy, networkx, sympy or the HTTP front end's asyncio and
``urllib.request``; networkx and the front end load on first use.  The
result store's reference key encoder (the recursive ``_jsonable`` walk) is
one of those fixtures: production neither defines nor names it.  Every
survey pass runs in the calling process: no public callable offers a worker
count, chunking, a start method or a supervision policy, and no survey
loads ``multiprocessing``.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
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


def names_the_walk(source: str) -> bool:
    """Whether ``source`` defines, imports or refers to ``_jsonable``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == "_jsonable":
            return True
        if isinstance(node, ast.Name) and node.id == "_jsonable":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "_jsonable":
            return True
        if isinstance(node, ast.alias) and node.name.rpartition(".")[2] == "_jsonable":
            return True
    return False


@pytest.mark.parametrize(
    "source",
    [
        "def _jsonable(value):\n    return value",
        "from repro.oracles import _jsonable",
        "from ..oracles import _jsonable as walk",
        "from repro import oracles\nwalk = oracles._jsonable",
    ],
)
def test_walk_scan_resolves_every_form(source):
    assert names_the_walk(source)
    assert not names_the_walk("from .keys import stable_key\njsonable = stable_key")


def test_production_never_names_the_reference_key_walk():
    offenders = sorted(
        module_name(path)
        for path in PACKAGE_ROOT.rglob("*.py")
        if path.name != "oracles.py" and names_the_walk(path.read_text())
    )
    assert offenders == []
    assert not hasattr(importlib.import_module("repro.store.keys"), "_jsonable")


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


@pytest.mark.parametrize(
    "parameter",
    ["processes", "chunk_size", "mp_context", "supervision", "policy", "runtime_report"],
)
def test_no_callable_offers_parallelism(parameter):
    assert callables_offering("repro", parameter) == []


def test_no_orbit_enumerator_offers_a_symmetry():
    assert callables_offering("repro.adversaries", "symmetry") == []


@pytest.mark.parametrize(
    "name", ["adversary_orbit_size", "automorphism_count", "view_key_orbit_size"]
)
def test_orbit_sizes_are_oracles(name):
    package = importlib.import_module("repro.symmetry")
    modules = [package] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(package.__path__, "repro.symmetry.")
    ]
    assert [module.__name__ for module in modules if hasattr(module, name)] == []
    assert callable(getattr(importlib.import_module("repro.oracles"), name))


#: Modules no entry point may load at import: numpy (production is
#: stdlib-only), networkx (the optional graph export loads it on first use),
#: sympy, the HTTP front end's asyncio and ``urllib.request`` (loaded on
#: first use of ``repro.service.serve`` and its siblings), and
#: multiprocessing (nothing uses it).
FORBIDDEN_AT_IMPORT = (
    "numpy", "networkx", "sympy", "asyncio", "urllib.request", "multiprocessing"
)

#: The job stack, which ``repro --help`` and ``import repro.cli`` leave out:
#: it loads with the subcommand (or the ``repro.service`` name) that uses it.
JOB_STACK = (
    "sqlite3",
    "repro.service.jobs",
    "repro.service.runner",
    "repro.store",
    "repro.runtime",
)

#: Each entry point, imported in a fresh interpreter of its own, with the
#: modules it may not load.
ENTRY_POINTS = (
    (("repro",), FORBIDDEN_AT_IMPORT),
    (("repro.core", "repro.verification.checker"), FORBIDDEN_AT_IMPORT),
    (("repro.topology.protocol_complex",), FORBIDDEN_AT_IMPORT),
    (("repro.service", "repro.store"), FORBIDDEN_AT_IMPORT),
    (("repro.cli",), FORBIDDEN_AT_IMPORT + JOB_STACK),
)


def test_production_imports_leave_numpy_out(fresh_interpreter):
    for modules, forbidden in ENTRY_POINTS:
        code = (
            f"import sys; import {', '.join(modules)}; "
            f"loaded = [m for m in {forbidden!r} if m in sys.modules]; "
            "print(' '.join(loaded)); sys.exit(bool(loaded))"
        )
        result = fresh_interpreter(code)
        assert "numpy" not in result.stdout, f"importing {modules} loaded numpy"
        assert result.returncode == 0, result.stderr or f"importing {modules} loaded {result.stdout}"


def test_optional_dependencies_load_on_first_use(fresh_interpreter):
    code = """
import sys
import repro.service
from repro.model import Adversary, FailurePattern, communication_graph
assert "asyncio" not in sys.modules and "urllib.request" not in sys.modules
from repro.service import serve
assert callable(serve)
assert "asyncio" in sys.modules and "urllib.request" in sys.modules
assert "networkx" not in sys.modules
graph = communication_graph(Adversary([0, 1, 1], FailurePattern(3, [])), horizon=1)
assert graph.number_of_nodes() == 6 and "networkx" in sys.modules
"""
    result = fresh_interpreter(code)
    assert result.returncode == 0, result.stderr


def test_surveys_run_without_multiprocessing(fresh_interpreter, tmp_path):
    """A job-runner sweep and a census build run to completion in one process."""
    code = f"""
import sys
from repro.model import Context
from repro.service import JobQueue, JobRunner, job_id, normalize_spec
from repro.topology import build_restricted_complex

spec = normalize_spec({{"kind": "sweep", "n": 3, "t": 1, "k": 1}})
queue = JobQueue({str(tmp_path / "queue.sqlite")!r})
queue.submit(job_id(spec), spec)
runner = JobRunner(queue, {str(tmp_path / "work")!r})
assert runner.run_once()["outcome"] == "done", "the sweep job did not complete"
assert queue.job(job_id(spec))["state"] == "done"
queue.close()
pc = build_restricted_complex(Context(n=4, t=3, k=2), time=2, max_crashes_per_round=2)
assert pc.complex.vertex_count > 0
print("multiprocessing" in sys.modules)
"""
    result = fresh_interpreter(code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
