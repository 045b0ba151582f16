"""Script entry of the end-to-end benchmark (see README.md).

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload and prints one JSON result object as its last line;
``python3 benchmarks/e2e/run.py run|compare ...`` is the same
command line as ``python -m benchmarks.e2e``.  The program is imported
from the ``src`` directory of this checkout, and only from there.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
sys.path[:0] = [str(SRC), str(HERE.parent)]

from e2e.cli import main  # noqa: E402

if __name__ == "__main__":
    if not (SRC / "repro").is_dir():
        sys.exit(f"error: the program is missing: no {SRC / 'repro'}")
    sys.exit(main(sys.argv[1:]))
