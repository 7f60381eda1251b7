"""Import cost of the experiment API, the first layer of every run.

Every process that simulates (a ``mediaworm`` command, a sweep worker,
a benchmark child) first runs the import statement the repo benchmark
probes (``benchmarks/perf/micro.py``).  This prints, for that
statement in fresh interpreters:

* the best of 8 wall times with no bytecode cache for ``repro`` (a
  fresh copy of ``src/repro`` under ``PYTHONDONTWRITEBYTECODE=1``, as
  in a new checkout; the standard library keeps its installed cache,
  which an empty ``PYTHONPYCACHEPREFIX`` would also hide), then with
  a warm cache;
* the 15 largest entries of ``-X importtime`` (no cache) among the
  modules the statement imports, by cumulative time.

Log only, no gate.  Run with ``make import-time``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
STATEMENT = "import repro.experiments.runner, repro.experiments.parallel"
PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    f"t = time.perf_counter(); {STATEMENT}; print(time.perf_counter() - t)"
)
REPEATS = 8
TOP = 15


def _run(args, src: str, write: bool) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    if not write:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return subprocess.run(
        [sys.executable, *args, src], env=env, capture_output=True,
        text=True, check=True, timeout=120,
    )


def best_of(src: str, write: bool) -> float:
    return min(
        float(_run(["-c", PROBE], src, write).stdout) for _ in range(REPEATS)
    )


def importtime_top(src: str):
    """``(cumulative_us, self_us, module)`` rows of the statement's own
    imports (what ``site`` loads at start-up excluded), largest first."""
    stderr = _run(["-X", "importtime", "-c", PROBE], src, False).stderr
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        own, total, name = line[len("import time:"):].split("|")
        if name.strip() == "site":
            rows.clear()  # start-up ends here; the probe's imports follow
            continue
        rows.append((int(total), int(own), name.rstrip()))
    return sorted(rows, reverse=True)[:TOP]


def main() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        cold, warm = Path(scratch, "cold"), Path(scratch, "warm")
        for tree in (cold, warm):
            shutil.copytree(
                SRC / "repro", tree / "repro",
                ignore=shutil.ignore_patterns("__pycache__"),
            )
        print(f"{STATEMENT}  (best of {REPEATS} fresh interpreters)")
        print(f"  no bytecode cache:   {best_of(str(cold), False) * 1e3:6.1f} ms")
        _run(["-c", PROBE], str(warm), write=True)  # fill the cache
        print(f"  warm bytecode cache: {best_of(str(warm), True) * 1e3:6.1f} ms")
        print(f"-X importtime, no cache, top {TOP} by cumulative time:")
        print(f"  {'cumul us':>9} {'self us':>8}  module")
        for total, own, name in importtime_top(str(cold)):
            print(f"  {total:>9} {own:>8}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
