"""Command-line front door.

Subcommands: play one game, sweep over a grid of games, solve a small
game exactly, solve box games, analyze a tournament file, and generate or
verify a template tournament.  Outputs are deterministic for a given
command line: identical invocations give byte-identical files, and sweep
rows are ordered by cell and seed no matter how many workers ran them.

Exit codes: 0 ok, 2 bad input, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import io
import json
import math
import os
import sys
import time
import zlib

from . import boxgame
from .board import Board, check_vertex_count, parse_count
from .engine import (
    MAKER,
    GameConfig,
    play_game,
    property_from_key,
)
from .errors import BudgetExceeded, GameError, ParseError, UnknownStrategy
from .oracles import (
    PatternGraph,
    fas_exact,
    find_cycle,
    hamilton_cycle,
    is_strongly_connected,
    k_colorable,
)
from .solver import solve_orientation_game
from .strategies import build_strategy

CSV_SCHEMA = "orientgames-sweep/1"
CACHE_SCHEMA = "orientgames-solve-cache/1"

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_BUDGET = 3


def _cell_seed(base: int, n: int, bias: int, index: int) -> int:
    """Distinct, stable per-cell seeds (independent of worker layout)."""
    tag = f"{base}/{n}/{bias}/{index}".encode()
    return zlib.crc32(tag) ^ (base << 1)


# ---------------------------------------------------------------------------
# play
# ---------------------------------------------------------------------------


def cmd_play(args) -> int:
    prop = property_from_key(args.property)
    config = GameConfig(
        n=args.n, p=args.p, q=args.q, prop=prop, seed=args.seed,
        early_stop=not args.no_early_stop, keep_digests=True,
    )
    maker = build_strategy(args.maker)
    breaker = build_strategy(args.breaker)
    record = play_game(config, maker, breaker)
    out = args.out or f"game-n{args.n}-q{args.q}-s{args.seed}.json"
    with open(out, "w") as fh:
        fh.write(record.to_json())
    print(f"winner: {record.winner}  rounds: {record.rounds}"
          + (f"  forced at round {record.forced_round}" if record.forced_round else ""))
    print(f"record written to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _sweep_cell(job):
    (n, bias, seed, p, maker_id, breaker_id, prop_key, early_stop) = job
    config = GameConfig(
        n=n, p=p, q=bias, prop=property_from_key(prop_key), seed=seed,
        early_stop=early_stop,
    )
    record = play_game(config, build_strategy(maker_id), build_strategy(breaker_id))
    return {
        "n": n,
        "bias": bias,
        "seed": seed,
        "winner": record.winner,
        "rounds": record.rounds,
        "forced_round": record.forced_round if record.forced_round is not None else "",
    }


def _parse_int_list(text: str, what: str):
    values = [parse_count(x, f"{what} list {text!r} entry")
              for x in text.split(",") if x.strip() != ""]
    if not values:
        raise ParseError(f"empty {what} list")
    return values


def _integer(flag: str):
    """Reader for an integer flag: ASCII digits, as ``board.parse_count``
    reads them, after an optional minus sign.  Each command checks the
    range of its own values; ``--seed`` may be negative."""
    def read(text: str) -> int:
        digits = text.removeprefix("-")
        value = parse_count(digits, flag)
        return -value if digits != text else value
    return read


def biases_for(n: int, args):
    if args.bias:
        return _parse_int_list(args.bias, "bias")
    if args.bias_coef:
        coefs = [float(c) for c in args.bias_coef.split(",") if c.strip() != ""]
        if not coefs:
            raise ParseError("empty bias coefficient list")
        for c in coefs:
            if not math.isfinite(c):
                raise ParseError(f"bias coefficient must be finite, got {c}")
        if n < 2:
            raise ParseError(f"--bias-coef needs n >= 2 (ln n is 0 at n = 1), got n = {n}")
        return [max(1, math.floor(c * n / math.log(n))) for c in coefs]
    raise ParseError("sweep needs --bias or --bias-coef")


SWEEP_DEFAULTS = {"p": 1, "seeds": 10, "seed": 0, "workers": 1}
SWEEP_COUNT_KEYS = {"p", "seeds", "workers"}  # seed, like --seed, may be negative
SPEC_KEYS = ("n", "bias", "bias_coef", "p", "maker", "breaker", "property",
             "seeds", "seed", "workers", "out")


def _merge_spec_file(args):
    """Fill unset sweep options from a `key = value` spec file.

    Explicit flags win over file values, file values over defaults.
    Recognized keys mirror the flags: n, bias, bias-coef, p, maker,
    breaker, property, seeds, seed, workers, out.
    """
    values = {}
    if args.spec_file:
        with open(args.spec_file) as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ParseError(f"bad spec line {raw.rstrip()!r}")
                key, val = (part.strip() for part in line.split("=", 1))
                name = key.replace("-", "_")
                if name not in SPEC_KEYS:
                    raise ParseError(f"unknown spec key {key!r} in {args.spec_file}")
                values[name] = val
    for key in SPEC_KEYS:
        if getattr(args, key) is None and key in values:
            val = values[key]
            if key in SWEEP_COUNT_KEYS:
                val = parse_count(val, f"{key} in {args.spec_file}")
            elif key == "seed":
                val = _integer(f"seed in {args.spec_file}")(val)
            setattr(args, key, val)
    for key, default in SWEEP_DEFAULTS.items():
        if getattr(args, key) is None:
            setattr(args, key, default)
    for key in ("n", "maker", "breaker", "property", "out"):
        if getattr(args, key) is None:
            raise ParseError(f"sweep needs --{key.replace('_', '-')} (flag or spec file)")


def cmd_sweep(args) -> int:
    _merge_spec_file(args)
    for key in ("seeds", "workers"):
        value = getattr(args, key)
        if value < 1:
            raise ParseError(f"--{key} must be at least 1, got {value}")
    # Build each side once here, before any worker forks: a bad id or key
    # exits 2 before a pool starts, and the workers inherit whatever module
    # the strategies imported (numpy, for the template Makers) instead of
    # each importing it again.
    property_from_key(args.property)
    build_strategy(args.maker)
    build_strategy(args.breaker)
    ns = _parse_int_list(args.n, "n")
    jobs = []
    for n in ns:
        for bias in biases_for(n, args):
            for i in range(args.seeds):
                seed = _cell_seed(args.seed, n, bias, i)
                jobs.append((n, bias, seed, args.p, args.maker, args.breaker,
                             args.property, not args.no_early_stop))
    # The pool forks every worker up front, so never start more than there
    # are jobs; map deals the jobs out one at a time.
    workers = min(args.workers, len(jobs))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_cell, jobs))
    else:
        rows = [_sweep_cell(job) for job in jobs]
    rows.sort(key=lambda r: (r["n"], r["bias"], r["seed"]))

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["schema", "kind", "n", "p", "q", "property", "maker", "breaker",
                     "seed", "winner", "rounds", "forced_round", "maker_win_rate"])
    cells: dict = {}
    for r in rows:
        writer.writerow([CSV_SCHEMA, "game", r["n"], args.p, r["bias"], args.property,
                         args.maker, args.breaker, r["seed"], r["winner"], r["rounds"],
                         r["forced_round"], ""])
        cells.setdefault((r["n"], r["bias"]), []).append(r["winner"])
    for (n, bias) in sorted(cells):
        winners = cells[(n, bias)]
        rate = sum(1 for w in winners if w == MAKER) / len(winners)
        writer.writerow([CSV_SCHEMA, "aggregate", n, args.p, bias, args.property,
                         args.maker, args.breaker, "", "", "", "", f"{rate:.6f}"])
    with open(args.out, "w") as fh:
        fh.write(buf.getvalue())
    print(f"{len(rows)} games -> {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def _load_cache(path: str) -> dict:
    if not os.path.exists(path):
        return {"schema": CACHE_SCHEMA, "results": {}}
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema") != CACHE_SCHEMA:
        raise ParseError(f"unexpected cache schema in {path}")
    return doc


def _write_cache(path: str, doc: dict) -> None:
    # Write beside the target, then rename over it: a crash mid-write
    # leaves the previous cache whole instead of truncated.
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def cmd_solve(args) -> int:
    prop = property_from_key(args.property)
    cache_key = f"n={args.n};p={args.p};q={args.q};prop={prop.key()}"
    cache = _load_cache(args.cache) if args.cache else None
    if cache is not None and cache_key in cache["results"] and not args.pv:
        winner = cache["results"][cache_key]["winner"]
        print(f"winner: {winner} (cached)")
        return EXIT_OK
    t0 = time.perf_counter()
    result = solve_orientation_game(args.n, args.p, args.q, prop)
    rate = result.nodes / max(time.perf_counter() - t0, 1e-9)
    print(f"winner: {result.winner}  nodes: {result.nodes}  memo hits: {result.memo_hits}"
          f"  memo size: {result.memo_size}  decided: {result.decided}  nodes/s: {rate:.0f}")
    if args.pv:
        for role, move in result.pv:
            arcs = " ".join(f"{u}>{v}" for (u, v) in move)
            print(f"  {role}: {arcs}")
    if cache is not None:
        cache["results"][cache_key] = {"winner": result.winner, "nodes": result.nodes}
        _write_cache(args.cache, cache)
    return EXIT_OK


# ---------------------------------------------------------------------------
# boxgame
# ---------------------------------------------------------------------------


def cmd_boxgame(args) -> int:
    winner = boxgame.solve_box_game(args.boxes, args.size, args.bias, args.variant)
    crit = (
        boxgame.cz_criterion(args.boxes, args.size, args.bias)
        if args.variant == "classic"
        else boxgame.two_box_criterion(args.boxes, args.size, args.bias)
    )
    print(f"winner: {winner}  criterion: {'holds' if crit else 'fails'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def _triangle_count(board: Board) -> int:
    # Cyclic triples = C(n,3) - sum C(outdeg, 2).
    n = board.n
    total = math.comb(n, 3)
    return total - sum(math.comb(board.out_degree(v), 2) for v in range(n))


def cmd_analyze(args) -> int:
    try:
        with open(args.file) as fh:
            board = Board.from_text(fh.read())
    except OSError as e:
        raise ParseError(f"cannot read {args.file!r}: {e}") from None
    print(f"n = {board.n}, oriented arcs = {sum(1 for _ in board.arcs())}")
    if not board.is_tournament():
        print(f"not a tournament ({board.undirected_count} pairs undirected)")
    try:
        value, sigma = fas_exact(PatternGraph.from_board(board))
        order = sorted(range(board.n), key=lambda v: sigma[v])
        print(f"FAS = {value}, witness ordering = {order}")
    except GameError as e:
        print(f"FAS: budget exceeded ({e})")
    strong = is_strongly_connected(board)
    print(f"strongly connected: {'yes' if strong else 'no'}")
    if board.is_tournament():
        ham = hamilton_cycle(board)
        print(f"hamilton cycle: {ham if ham else 'none'}")
        for k in (1, 2, 3):
            try:
                part = k_colorable(board, k)
            except GameError as e:
                print(f"{k}-colorable: budget exceeded ({e})")
                continue
            print(f"{k}-colorable: {'yes ' + str(part) if part else 'no'}")
        print(f"cyclic triangle count: {_triangle_count(board)}")
    else:
        cyc = find_cycle(board)
        print(f"cycle: {cyc if cyc else 'none yet'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# template
# ---------------------------------------------------------------------------


def cmd_template(args) -> int:
    if args.k is not None and args.k < 1:
        raise ParseError(f"--k must be at least 1, got {args.k}")
    if args.samples < 0:
        raise ParseError(f"--samples must be at least 0, got {args.samples}")
    from .strategies import hamilton

    if args.verify:
        with open(args.verify) as fh:
            board = Board.from_text(fh.read())
        import numpy as np

        n = board.n
        adj = np.zeros((n, n), dtype=bool)
        for (u, v) in board.arcs():
            adj[u, v] = True
        k = args.k if args.k is not None else hamilton.default_expansion_size(n)
        # Seeded as generate_template seeds its draws, so any integer works.
        rng = np.random.default_rng(hamilton._seed_words(args.seed))
        ok = hamilton.audit_template(adj, k, args.samples, rng)
        print(f"expansion audit at k={k}, {args.samples} samples: {'pass' if ok else 'FAIL'}")
        return EXIT_OK if ok else EXIT_BAD_INPUT
    if args.n is None:
        raise ParseError("template needs --n or --verify")
    n = check_vertex_count(args.n)  # before numpy allocates its n x n arrays
    adj = hamilton.generate_template(n, args.seed, audit_samples=args.samples, k=args.k)
    board = hamilton.template_board(adj)
    with open(args.out, "w") as fh:
        fh.write(board.to_text())
    print(f"template tournament (n={args.n}) written to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="orientgames", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    play = sub.add_parser("play", help="run one game and write its record")
    play.add_argument("--n", type=_integer("--n"), required=True)
    play.add_argument("--p", type=_integer("--p"), default=1)
    play.add_argument("--q", type=_integer("--q"), default=1)
    play.add_argument("--maker", required=True)
    play.add_argument("--breaker", required=True)
    play.add_argument("--property", required=True)
    play.add_argument("--seed", type=_integer("--seed"), default=0)
    play.add_argument("--out")
    play.add_argument("--no-early-stop", action="store_true")
    play.set_defaults(func=cmd_play)

    sweep = sub.add_parser("sweep", help="grid of seeded games to CSV")
    sweep.add_argument("--n", help="comma list of board sizes")
    sweep.add_argument("--bias", help="comma list of Breaker biases")
    sweep.add_argument("--bias-coef", help="comma list c: bias = floor(c*n/ln n)")
    sweep.add_argument("--p", type=_integer("--p"))
    sweep.add_argument("--maker")
    sweep.add_argument("--breaker")
    sweep.add_argument("--property")
    sweep.add_argument("--seeds", type=_integer("--seeds"), help="games per cell (default 10)")
    sweep.add_argument("--seed", type=_integer("--seed"), help="base seed (default 0)")
    sweep.add_argument("--workers", type=_integer("--workers"))
    sweep.add_argument("--out")
    sweep.add_argument("--spec-file", help="key = value file mirroring the flags")
    sweep.add_argument("--no-early-stop", action="store_true")
    sweep.set_defaults(func=cmd_sweep)

    solve = sub.add_parser("solve", help="exact small-board solving")
    solve.add_argument("--n", type=_integer("--n"), required=True)
    solve.add_argument("--p", type=_integer("--p"), default=1)
    solve.add_argument("--q", type=_integer("--q"), default=1)
    solve.add_argument("--property", required=True)
    solve.add_argument("--pv", action="store_true", help="print a principal variation")
    solve.add_argument("--cache", help="path of the on-disk result table")
    solve.set_defaults(func=cmd_solve)

    box = sub.add_parser("boxgame", help="solve a box game exactly")
    box.add_argument("action", nargs="?", default="solve", choices=["solve"])
    box.add_argument("--boxes", type=_integer("--boxes"), required=True)
    box.add_argument("--size", type=_integer("--size"), required=True)
    box.add_argument("--bias", type=_integer("--bias"), required=True)
    box.add_argument("--variant", choices=["classic", "twobox"], default="classic")
    box.set_defaults(func=cmd_boxgame)

    an = sub.add_parser("analyze", help="report on a tournament/pattern file")
    an.add_argument("file")
    an.set_defaults(func=cmd_analyze)

    tpl = sub.add_parser("template", help="generate or verify a template tournament")
    tpl.add_argument("--n", type=_integer("--n"))
    tpl.add_argument("--seed", type=_integer("--seed"), default=0)
    tpl.add_argument("--k", type=_integer("--k"))
    tpl.add_argument("--samples", type=_integer("--samples"), default=10_000)
    tpl.add_argument("--out", default="template.tour")
    tpl.add_argument("--verify", help="audit an existing tournament file instead")
    tpl.set_defaults(func=cmd_template)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except BudgetExceeded as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except (ParseError, UnknownStrategy, GameError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
