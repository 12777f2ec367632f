"""Run one workload of the steintorus benchmark and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
`src/`.  The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` they are the per-layer
ones, and the spans go to `perfbench/out/`.  Progress and failed checks go
to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("structure-constants", "intertwiner", "cli-calls"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "steintorus", "__init__.py")):
        print(f"perfbench: no steintorus sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import cli_calls
    import harness
    import intertwiner
    import structure_constants

    workload = {w.NAME: w for w in (structure_constants, intertwiner, cli_calls)}[args.workload]
    result = harness.run(workload, workload.plan(args.seed), args.seed, args.seconds,
                         bool(args.trace), os.path.join(HERE, "out"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
