"""Record the output fingerprints the benchmark checks against.

Usage (from the repository root)::

    python3 perfbench/record.py --workload serve-hard --seeds 0-0 --seconds 60

Runs the same passes ``run.py --seconds N`` would for each seed and
writes their fingerprints into ``perfbench/expected.json``.  Every seed
runs the same passes in another order, so one seed records them all;
the serving fingerprints recorded at ``--seconds 60`` cover any run of
up to 60 seconds.  Record again only in a change that alters
scheduling semantics or the cost model on purpose, and say so in that
change: a performance change must reproduce the recorded fingerprints
unchanged.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="first-last, inclusive")
    parser.add_argument("--seconds", type=int, required=True)
    args = parser.parse_args()

    workloads = run._import_program()
    first, last = (int(x) for x in args.seeds.split("-"))
    path = run.BENCH_DIR / "expected.json"
    expected = json.loads(path.read_text())
    recorded = expected.setdefault("fingerprints", {}).setdefault(
        args.workload, {}
    )
    for seed in range(first, last + 1):
        workload = workloads.WORKLOADS[args.workload](seed)
        workload.setup()
        passes = run.passes_for(args.seconds, workload.nominal_pass_s)
        for j in range(passes):
            key = workload.fingerprint_key(j)
            if key in recorded:
                continue
            result = workload.run_pass(j)
            failures = result.failures + workload.verify(result)
            if failures:
                print(f"seed {seed} pass {j}: {failures[:3]}", file=sys.stderr)
                return 1
            recorded[key] = result.fingerprint
            print(f"{args.workload} {key} {result.fingerprint}")
        path.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
