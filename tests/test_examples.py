"""Every example script runs to completion.

The examples are production callers of the public API (see
``tests/test_production_callers.py``), so each one runs here in a fresh
interpreter against this checkout's ``repro`` and must exit 0.
"""

from __future__ import annotations

from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


def test_examples_are_found():
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=[path.name for path in EXAMPLES])
def test_example_exits_cleanly(script, fresh_interpreter):
    result = fresh_interpreter(f"import runpy; runpy.run_path({str(script)!r}, run_name='__main__')")
    assert result.returncode == 0, result.stderr
