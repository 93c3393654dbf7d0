"""The benchmark command.

    python3 perfbench/run.py --workload walk|grade|serve --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout.  Prints progress on stderr and, as the
last line of stdout, one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``).  Every file the run writes
stays under ``perfbench/out/``; the traced run leaves its spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOAD_NAMES = ("walk", "grade", "serve")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no SHILL sources at {ROOT / 'src'}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2

    # Everything the run writes, its children's temporary files included,
    # stays in the checkout; no run reuses a store from the environment.
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    tmp_root = Path(tempfile.mkdtemp(prefix="run-", dir=out))
    os.environ["TMPDIR"] = str(tmp_root)
    tempfile.tempdir = None
    os.environ.pop("REPRO_STORE", None)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from shillbench.runner import run

        result = run(args.workload, args.seed, args.seconds, bool(args.trace), out)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
