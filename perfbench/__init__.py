"""End-to-end and per-layer benchmark of the PAL simulator.

See ``perfbench/README.md`` for the workloads, the metrics and how to
run them.  The benchmark drives the program in ``src/`` of the same
checkout through its public entry points; :func:`use_checkout_sources`
puts that tree first on ``sys.path`` and refuses to run against any
other copy of the program.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingProgram(RuntimeError):
    """The checkout holds no ``src/repro`` to benchmark."""


def use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src`` or raise."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no program to benchmark: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if SRC not in Path(repro.__file__).resolve().parents:
        raise MissingProgram(
            f"repro was imported from {repro.__file__}, not from {SRC}"
        )
