#!/usr/bin/env python3
"""Self-test of the benchmark (not of the program).

    python3 aquabench/test_bench.py

From the root of a checkout; takes about a minute. For every workload it
asserts that
  * two shortened runs at one seed print identical exact counts,
  * a run at another seed answers different inputs (input fingerprint),
  * every answer passes its checks, and
  * shifting one reference value makes the run fail its checks.
"""

import json
import subprocess
import sys

# The reference value each workload's mutation shifts; each is checked in
# every round.
PERTURB = {
    "file-to-answer": "bt_range_sum",
    "count-distribution": "cd_uncertain",
    "service-mix": "nested_range",
}


def run(workload, seed, *extra):
    cmd = [sys.executable, "aquabench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "0",
           "--max-rounds", "1"] + list(extra)
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().split("\n")
    counts = None
    for line in lines:
        if line.startswith("counts: "):
            counts = json.loads(line[len("counts: "):])
    return done.returncode, json.loads(lines[-1]), counts


def main():
    failures = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload, key in PERTURB.items():
        rc1, r1, c1 = run(workload, 7)
        rc2, r2, c2 = run(workload, 7)
        expect(rc1 == 0 and r1["correct"] and rc2 == 0 and r2["correct"],
               workload + ": answers pass their checks")
        expect(c1 is not None and c1 == c2,
               workload + ": exact counts repeat at one seed: %s" % c1)
        expect(r1["attempted"] == r2["attempted"] and
               r1["failed"] == r2["failed"],
               workload + ": attempted/failed repeat (%d/%d)" %
               (r1["attempted"], r1["failed"]))
        _, _, c3 = run(workload, 8)
        expect(c3 is not None and
               c3["input_fingerprint"] != c1["input_fingerprint"],
               workload + ": another seed changes the inputs")
        rc4, r4, _ = run(workload, 7, "--perturb", key)
        expect(rc4 != 0 and not r4["correct"],
               workload + ": a shifted reference value (%s) fails the run" %
               key)
    print("%d failure(s)" % len(failures))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
