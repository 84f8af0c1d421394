#!/usr/bin/env python3
"""Capture every workload's outputs on every input set into golden.json.

    python3 perfbench/capture_golden.py

Run once on a commit whose outputs are trusted; the benchmark then fails
any operation whose output differs from the captured one.  The seed picks
one of ``workloads.INPUT_SETS`` input sets, so capturing seeds
0..INPUT_SETS-1 covers every seed.  Takes about seven minutes.
"""

import json
import os
import sys

import run

# Values the exact solver and verifier are known to give (see NOTES.md).
KNOWN = {
    "solve n=5 p=1 q=2 cycle": "maker",
    "solve n=5 p=1 q=3 cycle": "breaker",
    "verify maker-cycle n=6 p=1 q=1 cycle": "ok",
    "verify breaker-outstar n=6 p=1 q=4 cycle": "ok",
}


def main() -> int:
    run.load_package()
    import workloads

    os.makedirs(run.OUT_DIR, exist_ok=True)
    golden = {}
    for name, wl in workloads.WORKLOADS.items():
        captured = golden[name] = {}
        for seed in range(workloads.INPUT_SETS):
            ops = wl.build(seed, run.OUT_DIR)
            results, _, _ = run.run_pass(ops)
            gate = run.Gate(ops)
            gate.check(results)
            if gate.failed:
                print(f"{name} seed {seed}: {gate.failed} operations failed; nothing written",
                      file=sys.stderr)
                return 1
            for op, res in zip(ops, results):
                fp = op.fingerprint(res)
                if captured.setdefault(op.label, fp) != fp:
                    print(f"{op.label}: {fp} at seed {seed}, {captured[op.label]} before",
                          file=sys.stderr)
                    return 1
        print(f"{name}: {len(captured)} operations captured")
    for label, want in KNOWN.items():
        if golden["exact-desk"][label] != want:
            print(f"{label}: got {golden['exact-desk'][label]}, expected {want}", file=sys.stderr)
            return 1
    with open(run.GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
