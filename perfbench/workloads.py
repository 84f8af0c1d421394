"""Workloads of the orientgames benchmark.

Each workload turns the benchmark seed into a fixed list of operations.
One pass runs the list once, in one process, each call starting when the
previous one returns (a closed loop).  Every operation has a ``run`` that
is timed and a ``check`` that is not: the check re-derives the outcome
independently and returns ``(failed, messages)``, where ``failed`` counts
the failed sub-operations (a sweep is ten jobs).  ``fingerprint`` is the
part of the output that must not change between passes, between traced
and untraced runs, or against the values captured in ``golden.json``.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import io
import math
import os
import random
from dataclasses import dataclass
from time import perf_counter

import orientgames.engine as engine
import orientgames.oracles as oracles
import orientgames.solver as solver
import orientgames.strategies as strategies
from orientgames import boxgame, cli
from orientgames.board import Board
from orientgames.engine import (
    BREAKER,
    MAKER,
    Cycle,
    GameConfig,
    Hamiltonicity,
    MinInDegreePositive,
    other,
)

LAYERS = ("board", "engine", "strategies", "oracles", "solver", "boxgame", "cli")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


class GameOp:
    """One ``play_game`` call, then JSON round trip and digest-checked replay.

    With ``certify`` a Maker win is also certified by ``hamilton_cycle``.
    """

    kind = "game"
    weight = 1

    def __init__(self, config: GameConfig, maker: str, breaker: str, certify: bool = False):
        self.config = config
        self.maker = maker
        self.breaker = breaker
        self.certify = certify
        self.label = (f"game n={config.n} p={config.p} q={config.q} {config.prop.key()} "
                      f"{maker} vs {breaker} seed={config.seed}")

    def run(self) -> dict:
        maker = strategies.build_strategy(self.maker)
        breaker = strategies.build_strategy(self.breaker)
        t0 = perf_counter()
        record = engine.play_game(self.config, maker, breaker)
        game_s = perf_counter() - t0
        parsed = engine.GameRecord.from_json(record.to_json())
        board = engine.replay(parsed)
        cycle = None
        if self.certify and record.winner == MAKER:
            cycle = oracles.hamilton_cycle(board)
        counters = {}
        stats = getattr(maker, "stats", None)
        if stats and "stage1_rounds" in stats:
            counters["strategies.hamilton.stage1_rounds"] = stats["stage1_rounds"]
        return {"record": record, "parsed": parsed, "board": board, "cycle": cycle,
                "call_s": game_s, "counters": counters}

    @staticmethod
    def fingerprint(res: dict) -> str:
        rec = res["record"]
        return _sha("\n".join(rec.digests or []) +
                    f"|{rec.winner}|{rec.rounds}|{rec.forced_round}|{rec.forfeit}")

    def check(self, res: dict):
        rec, parsed, board = res["record"], res["parsed"], res["board"]
        bad = []
        if rec.forfeit is not None:
            bad.append(f"{rec.forfeit} forfeited: {rec.forfeit_reason}")
        if not rec.digests:
            bad.append("record carries no per-round digests")
        fields = ("transcript", "winner", "rounds", "forced_round", "forfeit", "digests")
        if any(getattr(parsed, f) != getattr(rec, f) for f in fields) or (
            parsed.config.prop.key(), parsed.config.seed, parsed.config.n,
            parsed.config.p, parsed.config.q,
        ) != (rec.config.prop.key(), rec.config.seed, rec.config.n, rec.config.p, rec.config.q):
            bad.append("record changed in the JSON round trip")
        derived = judge(rec, board)
        if derived != rec.winner:
            bad.append(f"recorded winner {rec.winner}, re-derived {derived}")
        if self.certify and rec.winner == MAKER:
            cyc = res["cycle"]
            n = rec.config.n
            if not cyc or sorted(cyc) != list(range(n)) or not oracles.is_directed_cycle(board, cyc):
                bad.append("Maker win without a verified Hamilton cycle")
        return (1 if bad else 0), bad


def judge(rec, board: Board):
    """The winner re-derived from a record and its replayed final board.

    From the forfeit if there is one; else from ``forced_verdict`` at the
    forced round, which must be the round of the last move and must not
    already hold one move earlier; else from ``evaluate_property`` on the
    final tournament.  None when the record is inconsistent.
    """
    prop = rec.config.prop
    if rec.forfeit is not None:
        return other(rec.forfeit)
    if rec.forced_round is not None:
        if not rec.transcript or rec.forced_round != (len(rec.transcript) + 1) // 2:
            return None
        before = Board(rec.config.n)
        for _, move in rec.transcript[:-1]:
            engine.apply_move(before, move)
        verdict = engine.forced_verdict(board, prop)
        if verdict is None or engine.forced_verdict(before, prop) is not None:
            return None
        return MAKER if verdict else BREAKER
    if not board.is_tournament():
        return None
    return MAKER if engine.evaluate_property(board, prop) else BREAKER


class SolveOp:
    kind = "solve"
    weight = 1

    def __init__(self, n: int, p: int, q: int, prop):
        self.args = (n, p, q, prop)
        self.label = f"solve n={n} p={p} q={q} {prop.key()}"

    def run(self) -> dict:
        t0 = perf_counter()
        r = solver.solve_orientation_game(*self.args)
        return {"result": r, "call_s": perf_counter() - t0,
                "counters": {"solver.solve.nodes": r.nodes, "solver.solve.memo_hits": r.memo_hits}}

    @staticmethod
    def fingerprint(res: dict) -> str:
        return res["result"].winner

    def check(self, res: dict):
        w = res["result"].winner
        return (0, []) if w in (MAKER, BREAKER) else (1, [f"winner {w!r}"])


class VerifyOp:
    kind = "verify"
    weight = 1

    def __init__(self, strategy_id: str, role: str, n: int, p: int, q: int, prop):
        self.strategy_id = strategy_id
        self.args = (role, n, p, q, prop)
        self.label = f"verify {strategy_id} n={n} p={p} q={q} {prop.key()}"

    def run(self) -> dict:
        strategy_id = self.strategy_id
        t0 = perf_counter()
        r = solver.verify_strategy_vs_all(lambda: strategies.build_strategy(strategy_id), *self.args)
        return {"result": r, "call_s": perf_counter() - t0,
                "counters": {"solver.verify.nodes": r.nodes}}

    @staticmethod
    def fingerprint(res: dict) -> str:
        return "ok" if res["result"].ok else "counterexample"

    def check(self, res: dict):
        r = res["result"]
        if r.ok != (r.counterexample is None):
            return 1, ["ok flag disagrees with the counterexample"]
        return 0, []


class BoxSolveOp:
    kind = "box-solve"
    weight = 1

    def __init__(self, r: int, k: int, b: int, variant: str):
        self.args = (r, k, b, variant)
        self.label = f"box-solve r={r} k={k} b={b} {variant}"

    def run(self) -> dict:
        return {"result": boxgame.solve_box_game(*self.args)}

    @staticmethod
    def fingerprint(res: dict) -> str:
        return res["result"]

    def check(self, res: dict):
        w = res["result"]
        ok = w in (boxgame.BOX_MAKER, boxgame.BOX_BREAKER)
        return (0, []) if ok else (1, [f"winner {w!r}"])


class BoxVerifyOp(BoxSolveOp):
    kind = "box-verify"

    def __init__(self, r: int, k: int, b: int, variant: str):
        super().__init__(r, k, b, variant)
        self.label = f"box-verify r={r} k={k} b={b} {variant}"

    def run(self) -> dict:
        return {"result": boxgame.verify_box_strategy(*self.args)}

    @staticmethod
    def fingerprint(res: dict) -> str:
        won, padded = res["result"]
        return f"{won}/{padded}"

    def check(self, res: dict):
        ok = all(isinstance(x, bool) for x in res["result"])
        return (0, []) if ok else (1, [f"result {res['result']!r}"])


SWEEP_HEADER = ["schema", "kind", "n", "p", "q", "property", "maker", "breaker",
                "seed", "winner", "rounds", "forced_round", "maker_win_rate"]


class SweepOp:
    """``orientgames sweep`` through ``cli.main``; one op per seeded job."""

    kind = "sweep"
    workers = 2
    weight = 10  # jobs, one per seed: the sweep's default

    def __init__(self, base_seed: int, out: str):
        self.n, self.bias, self.p = 100, 5, 1
        self.maker, self.breaker, self.prop = "maker-random", "breaker-greedy-star", "min-indegree-positive"
        self.out = out
        self.argv = ["sweep", "--n", str(self.n), "--bias", str(self.bias),
                     "--maker", self.maker, "--breaker", self.breaker,
                     "--property", self.prop, "--seed", str(base_seed),
                     "--seeds", str(self.weight), "--workers", str(self.workers), "--out", out]
        self.label = (f"sweep n={self.n} bias={self.bias} {self.prop} {self.maker} vs "
                      f"{self.breaker} seed={base_seed} seeds={self.weight}")

    def run(self) -> dict:
        t0 = perf_counter()
        code = cli.main(self.argv)
        call_s = perf_counter() - t0
        with open(self.out) as fh:
            text = fh.read()
        return {"code": code, "csv": text, "call_s": call_s}

    @staticmethod
    def fingerprint(res: dict) -> str:
        return _sha(res["csv"])

    def game_rows(self, res: dict):
        rows = list(csv.reader(io.StringIO(res["csv"])))
        if not rows or rows[0] != SWEEP_HEADER:
            return None, None
        dicts = [dict(zip(SWEEP_HEADER, r)) for r in rows[1:]]
        return ([d for d in dicts if d["kind"] == "game"],
                [d for d in dicts if d["kind"] == "aggregate"])

    def check(self, res: dict):
        if res["code"] != 0:
            return self.weight, [f"sweep exited with {res['code']}"]
        games, aggs = self.game_rows(res)
        if games is None or len(games) != self.weight or len(aggs) != 1:
            return self.weight, ["sweep CSV lacks the expected header or rows"]
        bad = []
        want = {"schema": cli.CSV_SCHEMA, "n": str(self.n), "p": str(self.p), "q": str(self.bias),
                "property": self.prop, "maker": self.maker, "breaker": self.breaker}
        for g in games:
            ok = (all(g[k] == v for k, v in want.items())
                  and g["winner"] in (MAKER, BREAKER)
                  and g["rounds"].isdigit() and int(g["rounds"]) >= 1
                  and (g["forced_round"] == "" or g["forced_round"].isdigit()))
            if not ok:
                bad.append(f"bad game row {g}")
        if len({g["seed"] for g in games}) != len(games):
            bad.append("repeated seed in sweep rows")
        rate = sum(g["winner"] == MAKER for g in games) / len(games)
        if aggs[0]["maker_win_rate"] != f"{rate:.6f}":
            bad.append("aggregate maker_win_rate disagrees with the game rows")
        failed = len(bad) if len(bad) <= len(games) else self.weight
        return min(failed, self.weight), bad

    def replay_in_process(self, res: dict):
        """Re-run every CSV job in this process, seeds from the seed column.

        Returns (failed, messages, seconds spent in the jobs).
        """
        games, _ = self.game_rows(res)
        if not games:
            return self.weight, ["no sweep rows to replay"], 0.0
        bad = []
        job_s = 0.0
        for g in games:
            job = (self.n, self.bias, int(g["seed"]), self.p, self.maker, self.breaker,
                   self.prop, True)
            t0 = perf_counter()
            row = cli._sweep_cell(job)
            job_s += perf_counter() - t0
            got = (row["winner"], str(row["rounds"]), str(row["forced_round"]))
            if got != (g["winner"], g["rounds"], g["forced_round"]):
                bad.append(f"seed {g['seed']}: CSV {g['winner']}/{g['rounds']}/"
                           f"{g['forced_round']}, in process {got}")
        return len(bad), bad, job_s


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


# The seed picks one of INPUT_SETS input sets, so that golden.json can hold
# the captured outputs of every input the benchmark can run.
INPUT_SETS = 16


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"perfbench/{name}/{seed % INPUT_SETS}")


def build_hamilton(seed: int, out_dir: str) -> list:
    rng = _rng("hamilton-n400", seed)
    n = 400
    q = math.floor(0.8 * n / math.log(n))
    return [
        GameOp(GameConfig(n=n, p=1, q=q, prop=Hamiltonicity(), seed=rng.randrange(2**31),
                          early_stop=False, keep_digests=True),
               "maker-hamilton", breaker, certify=True)
        for breaker in ("breaker-random", "breaker-greedy-star")
    ]


EARLY_STOP_PAIRINGS = (
    (MinInDegreePositive(), "maker-random", "breaker-greedy-star", 5),
    (MinInDegreePositive(), "maker-random", "breaker-box", 30),
    (Cycle(), "maker-random", "breaker-outstar", 98),
)
EARLY_STOP_SEEDS_PER_PAIRING = 6


def build_early_stop(seed: int, out_dir: str) -> list:
    rng = _rng("early-stop-n100", seed)
    return [
        GameOp(GameConfig(n=100, p=1, q=q, prop=prop, seed=rng.randrange(2**31),
                          early_stop=True, keep_digests=True), maker, breaker)
        for _ in range(EARLY_STOP_SEEDS_PER_PAIRING)
        for (prop, maker, breaker, q) in EARLY_STOP_PAIRINGS
    ]


def build_exact(seed: int, out_dir: str) -> list:
    ops = [
        SolveOp(5, 1, 2, Cycle()),
        SolveOp(5, 1, 3, Cycle()),
        VerifyOp("maker-cycle", MAKER, 6, 1, 1, Cycle()),
        VerifyOp("breaker-outstar", BREAKER, 6, 1, 4, Cycle()),
    ]
    for variant in (boxgame.CLASSIC, boxgame.TWOBOX):
        for r in range(1, boxgame.SOLVE_MAX_R + 1):
            for k in range(1, boxgame.SOLVE_MAX_K + 1):
                for b in range(1, boxgame.SOLVE_MAX_B + 1):
                    ops.append(BoxSolveOp(r, k, b, variant))
                    ops.append(BoxVerifyOp(r, k, b, variant))
    # The seed only fixes the call order; the problems are the desk set.
    _rng("exact-desk", seed).shuffle(ops)
    return ops


def build_sweep(seed: int, out_dir: str) -> list:
    base = _rng("sweep-w2", seed).randrange(10**6)
    return [SweepOp(base, os.path.join(out_dir, f"sweep-w2-{seed}.csv"))]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: object  # (seed, out_dir) -> list of operations
    layers: tuple  # layers wrapped in the traced run


WORKLOADS = {
    w.name: w
    for w in (
        Workload("hamilton-n400",
                 "criterion 9: MakerHamilton at n=400, q=53, no early stop; "
                 "strategies do the work, then JSON, replay and Hamilton certification",
                 build_hamilton, LAYERS),
        Workload("early-stop-n100",
                 "monotone games with early stop at n=100; forced_verdict, degree "
                 "scans and find_cycle dominate, and breaker-box runs boxgame",
                 build_early_stop, LAYERS),
        Workload("exact-desk",
                 "exact solver, strategy verifier and box-game solver at desk scale; "
                 "thousands of tiny board writes and copy.deepcopy",
                 build_exact, LAYERS),
        Workload("sweep-w2",
                 "orientgames sweep through cli.main with two worker processes; "
                 "measures cli and the process pool",
                 build_sweep, ("cli",)),
    )
}


# ---------------------------------------------------------------------------
# Tracing hooks
# ---------------------------------------------------------------------------


def install_tracing(tracer, layers) -> None:
    """Wrap the public functions of the named layers, from outside."""

    def wrap(fn, name, on_result=None, opaque=False):
        tracer.patch_everywhere(fn, tracer.span(name, fn, on_result, opaque), "orientgames")

    if "board" in layers:
        for attr in ("arc", "orient", "copy", "canonical_key"):
            tracer.patch(Board, attr, tracer.counter(f"board.{attr}.calls", getattr(Board, attr)))
        for attr in ("out_degree", "in_degree"):
            tracer.patch(Board, attr, tracer.span("board.degree", getattr(Board, attr)))
        tracer.patch(Board, "undirected_pairs",
                     tracer.span("board.undirected_pairs", Board.undirected_pairs))
    if "engine" in layers:
        wrap(engine.forced_verdict, "engine.forced_verdict",
             lambda v: v is not None and tracer.count("engine.forced_verdict.hits"))
        for fn in (engine.validate_move, engine.apply_move, engine.play_game,
                   engine.evaluate_property):
            wrap(fn, f"engine.{fn.__name__}")
        # replay's own validate_move/apply_move calls are replay's time, so
        # those two spans (and the board counts) hold the played game only.
        wrap(engine.replay, "engine.replay", opaque=True)
        record = engine.GameRecord
        tracer.patch(record, "to_json", tracer.span("engine.record_json", record.to_json))
        tracer.patch(record, "from_json",
                     classmethod(tracer.span("engine.record_json", record.__dict__["from_json"].__func__)))
    if "oracles" in layers:
        for fn in (oracles.find_cycle, oracles.is_strongly_connected, oracles.max_scc_size,
                   oracles.hamilton_cycle):
            wrap(fn, f"oracles.{fn.__name__}")
    if "solver" in layers:
        wrap(solver.solve_orientation_game, "solver.solve")
        wrap(solver.verify_strategy_vs_all, "solver.verify")
        shim = type(copy)("copy")
        shim.deepcopy = tracer.span("solver.deepcopy", copy.deepcopy)
        tracer.patch(solver, "copy", shim)
    if "boxgame" in layers:
        wrap(boxgame.solve_box_game, "boxgame.solve_box_game")
        wrap(boxgame.verify_box_strategy, "boxgame.verify_box_strategy")
        tracer.patch(boxgame.BoxGameState, "claim",
                     tracer.counter("boxgame.claim.calls", boxgame.BoxGameState.claim))
    if "cli" in layers:
        wrap(cli.cmd_sweep, "cli.sweep")
    if "strategies" in layers:
        build = strategies.build_strategy

        def traced_build(spec, *args, **kwargs):
            s = build(spec, *args, **kwargs)
            cls = type(s)
            prefix = "strategies.hamilton" if issubclass(cls, strategies.MakerHamilton) else None
            s.__class__ = tracer.strategy_class(cls, prefix)
            return s

        tracer.patch_everywhere(build, traced_build, "orientgames")
