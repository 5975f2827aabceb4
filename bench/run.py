"""channelprune benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a repository checkout: the program is imported from
the checkout's `src/`. The last line of standard output is the JSON
result; a fuller record goes to `.bench_out/`. See bench/README.md.
"""

import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    started = time.perf_counter()  # set-up time counts from here: imports, validation, warm-up
    # BLAS reads its thread count when numpy first loads it, so pin it before any import.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "channelprune" / "__init__.py").is_file():
        print(f"error: no channelprune sources under {src}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import harness

    return harness.main(sys.argv[1:], started)


if __name__ == "__main__":
    sys.exit(main())
