"""The benchmark driver's entry point (see ``BENCHMARK.json``).

``python3 benchmarks/suite/run.py --workload NAME --seed N --seconds S
--trace 0|1`` runs one workload once and prints one JSON object as the last
line of standard output.  Run as a script, so it puts the repository root
and ``src/`` on the import path itself; without the program's sources it
fails on import and prints no result.
"""

import sys
from pathlib import Path

SUITE_DIR = Path(__file__).resolve().parent
ROOT = SUITE_DIR.parent.parent
sys.path[:] = [str(ROOT / "src"), str(ROOT)] + [
    entry for entry in sys.path if Path(entry or ".").resolve() != SUITE_DIR]

from benchmarks.suite.cli import build_driver_parser, driver_main  # noqa: E402

if __name__ == "__main__":
    sys.exit(driver_main(build_driver_parser().parse_args()))
