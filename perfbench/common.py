"""Settings and paths shared by the benchmark's processes."""

from __future__ import annotations

import os
import pathlib
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Everything a run writes: span dumps, daemon logs, CLI reference rows.
OUT = ROOT / ".perfbench"

#: Workload sizes (``get_workload`` scale). explore-compress at 0.1 keeps
#: a cold run near 5 s with APEX still the largest layer; li's trace
#: reaches its fixed-size floor at 0.05; the service jobs use small
#: traces so the untimed warm-up stays short, since a warm job costs
#: Phase I, which does not shrink with the trace. (Below 0.05, compress
#: traces of some seeds touch no ``globals`` and APEX rejects them.)
EXPLORE_SCALE = 0.1
COVERAGE_SCALE = 0.05
SERVICE_SCALE = 0.05

#: explore-compress runs the CLI defaults of ``repro explore``.
EXPLORE_SELECT = 5
EXPLORE_KEEP = 8


def child_env() -> dict:
    """Environment for the program's processes: ``src`` importable and
    no ``REPRO_*`` knob inherited, so every run uses the defaults."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def use_src() -> None:
    """Make the program importable in this process."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def maxrss_mb() -> float:
    """This process's peak resident set size in MiB (Linux: KiB units)."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
