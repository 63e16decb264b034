#!/usr/bin/env python3
"""amplecheck benchmark: time to a verdict, end to end and layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20   # every workload, both modes
    python3 perfbench/run.py --smoke                       # self-check at a tiny size

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the same
inputs through the traced layer sweep (``tracing.py``) and reports the
per-layer metrics.  The load is a closed loop with one client in this
process; the ``cli`` workload runs one child process at a time.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``README.md`` here for
what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    missing = [p for p in ("src/amplecheck/__init__.py", "tests/oracles.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not in an amplecheck checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path[1:1] = [str(ROOT / "src"), str(ROOT / "tests")]
    import harness

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*harness.CONFIGS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="self-check every workload at a tiny size")
    args = parser.parse_args(argv)
    # One CPU for this process and its children, so that the calibration
    # loop runs where the measured work runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.smoke:
        return harness.smoke()
    if args.workload == "all":
        print(json.dumps(harness.run_all(args.seed, args.seconds)))
        return 0
    lines, result = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
