"""Run the repository benchmark: ``python3 perfbench/run.py --workload NAME ...``.

See ``perfbench/harness.py`` for the options and the output format.  The
simulator is imported from ``src/`` of the checkout this file sits in; a
directory without it cannot run the benchmark, so the command fails there.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import harness

    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
