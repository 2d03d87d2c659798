"""Every package's ``__all__`` names something that exists.

A deleted or moved name left in an ``__all__`` list breaks
``from repro.<package> import *`` for users while every direct import
still works.  This check star-imports each package in a fresh interpreter
of its own (so the lazily resolved names of :mod:`repro.service` load
there, not in the test process, and no package's imports mask another's
missing name) and resolves every ``__all__`` entry.
"""

from __future__ import annotations

import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.") if info.ispkg
)

SCRIPT = """
import importlib
import sys

missing = []
for name in sys.argv[1:]:
    namespace = {}
    exec(f"from {name} import *", namespace)
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    if exported is None:
        missing.append(f"{name}: no __all__")
        continue
    missing += [f"{name}.{entry}" for entry in exported if entry not in namespace]
print("\\n".join(missing))
sys.exit(bool(missing))
"""


def test_packages_are_found():
    assert "repro.model" in PACKAGES and "repro.topology" in PACKAGES


@pytest.mark.parametrize("package", PACKAGES)
def test_star_import_binds_every_exported_name(package, fresh_interpreter):
    result = fresh_interpreter(
        f"import sys; sys.argv[1:] = {[package]!r}; exec({SCRIPT!r})"
    )
    assert result.returncode == 0, result.stdout + result.stderr
