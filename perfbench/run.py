#!/usr/bin/env python3
"""orientgames benchmark: run one workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the package is imported from ``src/`` next to this
directory and nowhere else.  Workloads: hamilton-n400, early-stop-n100,
exact-desk, sweep-w2, or ``all`` (each in its own process).

With ``--trace 0`` the run repeats passes over the workload's fixed
operation list for ``--seconds`` (at least three passes) and reports the
end-to-end metrics, each time scaled by the reference loop run beside it
(reference.py).  With ``--trace 1`` it alternates an untraced pass with a
traced one and reports the per-layer metrics, unscaled; spans are written
to ``.bench_out/`` at exit.  The last line of standard output is one JSON
object: correct, attempted, failed, metrics.  Set-up is measured in fresh
interpreters, seven times spread over the run, and reported as the median.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import spans
from reference import NOMINAL_S, reference_s

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
GOLDEN = os.path.join(HERE, "golden.json")

SETUP_RUNS = 7
MIN_PASSES = 3
REF_EVERY = 0.5  # seconds of operations between reference samples

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "call_s_p50": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "board.arc.calls": "count",
    "board.degree.calls": "count",
    "board.degree.self_s": "s",
    "board.undirected_pairs.calls": "count",
    "board.undirected_pairs.self_s": "s",
    "board.orient.calls": "count",
    "board.copy.calls": "count",
    "board.canonical_key.calls": "count",
    "engine.forced_verdict.calls": "count",
    "engine.forced_verdict.self_s": "s",
    "engine.forced_verdict.hit_ratio": "ratio",
    "engine.validate_move.self_s": "s",
    "engine.apply_move.self_s": "s",
    "engine.play_game.self_s": "s",
    "engine.evaluate_property.self_s": "s",
    "engine.replay.self_s": "s",
    "engine.record_json.self_s": "s",
    **{f"strategies.{role}.{m}.self_s": "s"
       for role in ("maker", "breaker") for m in ("start", "next_move", "observe")},
    "strategies.maker.next_move.calls": "count",
    "strategies.breaker.next_move.calls": "count",
    "strategies.hamilton.stage1.next_move_s": "s",
    "strategies.hamilton.stage2.next_move_s": "s",
    "strategies.hamilton.stage1_rounds": "count",
    "oracles.find_cycle.calls": "count",
    "oracles.find_cycle.self_s": "s",
    "oracles.is_strongly_connected.self_s": "s",
    "oracles.max_scc_size.self_s": "s",
    "oracles.hamilton_cycle.self_s": "s",
    "solver.solve.nodes": "count",
    "solver.solve.memo_hits": "count",
    "solver.solve.memo_hit_ratio": "ratio",
    "solver.verify.nodes": "count",
    "solver.nodes_per_s": "1/s",
    "solver.solve.self_s": "s",
    "solver.verify.self_s": "s",
    "solver.deepcopy.calls": "count",
    "solver.deepcopy.self_s": "s",
    "boxgame.solve_box_game.self_s": "s",
    "boxgame.verify_box_strategy.self_s": "s",
    "boxgame.claim.calls": "count",
    "cli.sweep.self_s": "s",
    "cli.parallel_efficiency": "ratio",
    "bench.tracing_overhead_s": "s",
    "bench.unattributed_s": "s",
}

SETUP_PROBE = """
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from reference import reference_s
ref = reference_s()
t0 = time.perf_counter()
import workloads
workloads.WORKLOADS[sys.argv[3]].build(int(sys.argv[4]), sys.argv[5])
t1 = time.perf_counter()
print(t1 - t0, (ref + reference_s()) / 2)
"""


def load_package():
    """Import orientgames from this checkout's src/, or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "orientgames", "__init__.py")):
        sys.exit(f"error: no orientgames package under {SRC}")
    sys.path[:0] = [SRC, HERE]
    import orientgames

    if not os.path.abspath(orientgames.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: orientgames imported from {orientgames.__file__}, not {SRC}")


def measure_setup(name: str, seed: int) -> float:
    """Import the package and build the inputs in a fresh interpreter.

    Scaled by the reference loop run in that interpreter before and after.
    """
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, SRC, HERE, name, str(seed), OUT_DIR],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    setup, ref = map(float, proc.stdout.split()[-2:])
    return setup * NOMINAL_S / ref


# ---------------------------------------------------------------------------
# Passes and the output gate
# ---------------------------------------------------------------------------


def run_pass(ops, tracer=None, scale=False):
    """Run every operation once, back to back.

    Returns (results, seconds per operation, scale factor per operation).
    With ``scale`` the reference loop runs at the start, whenever REF_EVERY
    seconds of operations have run since it last ran, and at the end; an
    operation's factor is NOMINAL_S over the mean of the two samples
    around it.  Without ``scale`` every factor is 1.
    """
    results, times, factors = [], [], []
    ref = reference_s() if scale else NOMINAL_S
    since = 0  # the first operation after the last sample
    for op in ops:
        t = perf_counter()
        try:
            res = tracer.operation(op.run) if tracer is not None else op.run()
        except Exception as e:  # a raising operation is a failed one, not a crash
            res = {"error": f"{type(e).__name__}: {e}"}
        times.append(perf_counter() - t)
        results.append(res)
        factors.append(1.0)
        if scale and (len(times) == len(ops) or sum(times[since:]) >= REF_EVERY):
            after = reference_s()
            factors[since:] = [2 * NOMINAL_S / (ref + after)] * (len(times) - since)
            ref, since = after, len(times)
    return results, times, factors


class Gate:
    """Counts failed operations; never aborts the run.

    With ``golden`` (label -> fingerprint) every operation's output must
    equal its captured value.
    """

    def __init__(self, ops, golden: dict | None = None):
        self.ops = ops
        self.golden = golden
        self.first = [None] * len(ops)
        self.attempted = 0
        self.failed = 0

    def check(self, results, replay: bool = False) -> None:
        """Check one pass.  With ``replay``, operations that can also re-run
        their jobs in process do so and must agree (``res["job_s"]`` gets
        the time those jobs took)."""
        for i, (op, res) in enumerate(zip(self.ops, results)):
            self.attempted += op.weight
            failed, msgs = self._check_one(i, op, res, replay)
            self.failed += min(failed, op.weight)
            for m in msgs:
                print(f"FAILED {op.label}: {m}", file=sys.stderr)

    def _check_one(self, i, op, res, replay):
        if "error" in res:
            return op.weight, [res["error"]]
        try:
            failed, msgs = op.check(res)
            fp = op.fingerprint(res)
            if replay and hasattr(op, "replay_in_process"):
                more, more_msgs, res["job_s"] = op.replay_in_process(res)
                failed, msgs = failed + more, msgs + more_msgs
        except Exception as e:  # a broken output may break the check too
            return op.weight, [f"check raised {type(e).__name__}: {e}"]
        if self.first[i] is None:
            self.first[i] = fp
        elif fp != self.first[i]:
            return op.weight, msgs + [f"output {fp} differs from the first pass's {self.first[i]}"]
        if self.golden is not None:
            want = self.golden.get(op.label)
            if want is None:
                return op.weight, msgs + ["no captured value in golden.json"]
            if fp != want:
                return op.weight, msgs + [f"output {fp} differs from the captured {want}"]
        return failed, msgs


class Timings:
    """Scaled per-operation times over the passes of one run.

    Every pass repeats the same inputs; an operation's time is the median
    of its repetitions, and figures over several inputs sum those or take
    their median.
    """

    def __init__(self, ops):
        self.ops = ops
        self.op_s = [[] for _ in ops]
        self.call_s = [[] for _ in ops]
        self.factors = []
        self.passes = 0

    def add(self, results, times, factors) -> None:
        self.passes += 1
        self.factors += factors
        for i, (res, t, f) in enumerate(zip(results, times, factors)):
            self.op_s[i].append(t * f)
            if "call_s" in res:
                self.call_s[i].append(res["call_s"] * f)

    def calls(self, kinds=None) -> list[float]:
        return [statistics.median(c) for op, c in zip(self.ops, self.call_s)
                if c and (kinds is None or op.kind in kinds)]

    def wall(self) -> float:
        return sum(statistics.median(t) for t in self.op_s)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(setup: list[float], timings: Timings) -> dict:
    return {
        "setup_s": statistics.median(setup),
        "wall_s": timings.wall(),
        "call_s_p50": statistics.median(timings.calls()),
        "peak_rss_mb": peak_rss_mb(),
    }


def table_figures(timings: Timings, gate: Gate) -> list[tuple]:
    """Figures printed in the table only, not in the result line."""
    rows = []
    for kind in ("solve", "verify"):
        calls = timings.calls((kind,))
        if calls:
            rows.append((f"{kind}_s", sum(calls), "s", f"{len(calls)} calls"))
    rows.append(("failed_frac", gate.failed / max(gate.attempted, 1), "ratio",
                 f"{gate.failed} of {gate.attempted} operations"))
    rows.append(("host_speed", statistics.median(timings.factors), "ratio",
                 "median scale factor, NOMINAL_S / reference loop seconds"))
    return rows


def layer_metrics(tracer, mark, ops, untraced, traced, overhead: float) -> dict:
    """Per-layer figures of one traced pass (spans and counters since ``mark``)."""
    lo, counts0, totals0 = mark
    st = tracer.self_times(lo)
    counts = {k: c[0] - counts0.get(k, 0) for k, c in tracer.counts.items()}
    totals = {k: v - totals0.get(k, 0.0) for k, v in tracer.totals.items()}
    opc: dict = {}
    for res in traced:
        for k, v in res.get("counters", {}).items():
            opc[k] = opc.get(k, 0) + v
    solver_s = sum(res.get("call_s", 0.0) for op, res in zip(ops, untraced)
                   if op.kind in ("solve", "verify"))
    sweep_s = sum(res.get("call_s", 0.0) for op, res in zip(ops, untraced) if op.kind == "sweep")
    workers = sum(getattr(op, "workers", 0) for op in ops if op.kind == "sweep")
    job_s = sum(res.get("job_s", 0.0) for res in traced)

    def calls(name):
        return st.get(name, (0, 0.0))[0]

    def self_s(name):
        return st.get(name, (0, 0.0))[1]

    def ratio(a, b):
        return a / b if b else 0.0

    solve_nodes = opc.get("solver.solve.nodes", 0)
    verify_nodes = opc.get("solver.verify.nodes", 0)
    m = {
        "board.arc.calls": counts.get("board.arc.calls", 0),
        "board.degree.calls": calls("board.degree"),
        "board.degree.self_s": self_s("board.degree"),
        "board.undirected_pairs.calls": calls("board.undirected_pairs"),
        "board.undirected_pairs.self_s": self_s("board.undirected_pairs"),
        "board.orient.calls": counts.get("board.orient.calls", 0),
        "board.copy.calls": counts.get("board.copy.calls", 0),
        "board.canonical_key.calls": counts.get("board.canonical_key.calls", 0),
        "engine.forced_verdict.calls": calls("engine.forced_verdict"),
        "engine.forced_verdict.self_s": self_s("engine.forced_verdict"),
        "engine.forced_verdict.hit_ratio": ratio(counts.get("engine.forced_verdict.hits", 0),
                                                 calls("engine.forced_verdict")),
        "strategies.hamilton.stage1.next_move_s": totals.get("strategies.hamilton.stage1.next_move_s", 0.0),
        "strategies.hamilton.stage2.next_move_s": totals.get("strategies.hamilton.stage2.next_move_s", 0.0),
        "strategies.hamilton.stage1_rounds": opc.get("strategies.hamilton.stage1_rounds", 0),
        "oracles.find_cycle.calls": calls("oracles.find_cycle"),
        "solver.solve.nodes": solve_nodes,
        "solver.solve.memo_hits": opc.get("solver.solve.memo_hits", 0),
        "solver.solve.memo_hit_ratio": ratio(opc.get("solver.solve.memo_hits", 0), solve_nodes),
        "solver.verify.nodes": verify_nodes,
        "solver.nodes_per_s": ratio(solve_nodes + verify_nodes, solver_s),
        "solver.deepcopy.calls": calls("solver.deepcopy"),
        "boxgame.claim.calls": counts.get("boxgame.claim.calls", 0),
        "cli.parallel_efficiency": ratio(job_s, workers * sweep_s),
        "bench.tracing_overhead_s": overhead,
        "bench.unattributed_s": self_s(spans.ROOT_SPAN),
    }
    for role in ("maker", "breaker"):
        m[f"strategies.{role}.next_move.calls"] = calls(f"strategies.{role}.next_move")
    for name in PER_LAYER:
        if name not in m:  # the rest are "<span name>.self_s"
            m[name] = self_s(name[: -len(".self_s")])
    return m


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def run_untraced(ops, gate, seconds: float, probe):
    """Passes for ``seconds`` (at least MIN_PASSES), set-up probes between them."""
    timings = Timings(ops)
    setup = []
    deadline = perf_counter() + seconds
    while timings.passes < MIN_PASSES or perf_counter() < deadline:
        if len(setup) < SETUP_RUNS:
            setup.append(probe())
        results, times, factors = run_pass(ops, scale=True)
        gate.check(results)
        timings.add(results, times, factors)
        del results
        gc.collect()  # frees the solver's memo cycles, so peak RSS is one pass's
    while len(setup) < SETUP_RUNS:
        setup.append(probe())
    return setup, timings


def run_traced(wl, ops, gate, seconds: float, spans_path: str):
    import workloads

    tracer = spans.Tracer()
    per_pass = []
    deadline = perf_counter() + seconds
    while not per_pass or perf_counter() < deadline:
        untraced, times_u, _ = run_pass(ops)
        gate.check(untraced)
        mark = tracer.mark()
        workloads.install_tracing(tracer, wl.layers)
        try:
            traced, times_t, _ = run_pass(ops, tracer)
        finally:
            tracer.uninstall()
        gate.check(traced, replay=True)  # fingerprints must equal the untraced pass's
        per_pass.append(layer_metrics(tracer, mark, ops, untraced, traced,
                                      sum(times_t) - sum(times_u)))
        del untraced, traced
        gc.collect()
    tracer.write(spans_path)
    return {k: statistics.median_low(p[k] for p in per_pass) for k in PER_LAYER}, len(per_pass)


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    wl = workloads.WORKLOADS[name]
    os.makedirs(OUT_DIR, exist_ok=True)
    ops = wl.build(seed, OUT_DIR)
    with open(GOLDEN) as fh:
        golden = json.load(fh).get(name, {})
    gate = Gate(ops, golden)
    print(f"workload {name}  seed {seed}  {len(ops)} operations per pass  "
          f"trace {int(trace)}")
    if trace:
        spans_path = os.path.join(OUT_DIR, f"spans-{name}-{seed}.tsv.gz")
        values, npass = run_traced(wl, ops, gate, seconds, spans_path)
        units = PER_LAYER
        print(f"  {npass} traced passes, each after an untraced one; spans in {spans_path}")
    else:
        setup, timings = run_untraced(ops, gate, seconds, lambda: measure_setup(name, seed))
        values = end_to_end(setup, timings)
        units = END_TO_END
        print(f"  {timings.passes} passes over the same inputs; set-up {len(setup)} times")
    for k, v in values.items():
        print(f"  {k:42s} {v:>16.6g} {units[k]}")
    if not trace:
        for k, v, unit, note in table_figures(timings, gate):
            print(f"  {k:42s} {v:>16.6g} {unit}  ({note})")
    return {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    load_package()
    import workloads

    if args.workload == "all":
        results = {}
        for name in workloads.WORKLOADS:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=900,
            )
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0 or not lines:
                return proc.returncode or 1
            results[name] = json.loads(lines[-1])
        print(json.dumps(results))
        return 0
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from "
                 f"{', '.join(workloads.WORKLOADS)} or all")
    print(json.dumps(run_one(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
