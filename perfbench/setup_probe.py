"""One set-up of a workload, timed from outside by ``run.py``.

``python3 perfbench/setup_probe.py <workload> <scratch dir>`` starts an
interpreter, imports what the workload imports, and creates and removes
the fresh state one iteration starts from (for ``jobs-mixed``: a queue,
a runner directory and its result store), then exits.
"""

from __future__ import annotations

import importlib
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import WORKLOADS  # noqa: E402


def main(name: str, scratch: str) -> None:
    workload_class = WORKLOADS[name]
    for module in workload_class.imports:
        importlib.import_module(module)
    workload = workload_class(0, scratch)
    workload.close(workload.fresh())


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
