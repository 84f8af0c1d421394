"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see every verdict line;
without -s the lines still appear for failing criteria.  Three clauses are
asserted exactly as specified although exhaustive computation shows they
cannot hold, and their verdict lines carry the computed truth: criterion
5's random-FAS band (the true t=10 mean is far below it), and criterion
7's harmonic-criterion implication (exhaustive minimax loses at a few
integer-tight corners) and threshold rate (the n/ln n form is still 16%
high at n=10^6).  Everything else passes.
"""

import copy
import itertools
import math
import random
import time


from orientgames.board import Board
from orientgames.boxgame import (
    breaker_bias_threshold,
    cz_criterion,
    two_box_criterion,
    verify_box_strategy,
)
from orientgames.engine import (
    BREAKER,
    MAKER,
    ContainsH,
    Cycle,
    CycleLengthK,
    GameConfig,
    Hamiltonicity,
    MinInDegreePositive,
    evaluate_property,
    play_game,
    replay,
)
from orientgames.oracles import (
    PatternGraph,
    contains_embedding,
    extract_ck,
    fas_exact,
    hamilton_cycle,
    is_directed_cycle,
    is_strongly_connected,
)
from orientgames.solver import threshold_scan, verify_strategy_vs_all
from orientgames.strategies import (
    BreakerBoxHamilton,
    BreakerGreedyStar,
    BreakerOutStar,
    BreakerSigmaPotential,
    HypergraphState,
    MakerCk,
    MakerCycle,
    MakerGreedyAttack,
    MakerGreedyEmbedding,
    MakerHamilton,
    RandomStrategy,
    es_condition,
    potential_blocker_move,
)

from conftest import all_tournaments, random_tournament
from test_strategies import FAS2_PATTERN


def report(number, ok, detail):
    print(f"[criterion {number:>2}] {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, f"criterion {number}: {detail}"


# ---------------------------------------------------------------------------
# 1. Breaker out-star soundness
# ---------------------------------------------------------------------------


def test_criterion_01_outstar_soundness():
    details = []
    ok = True
    for n in (3, 4, 5):
        res = verify_strategy_vs_all(BreakerOutStar, BREAKER, n, 1, n - 2, Cycle())
        ok &= res.ok
        details.append(f"n={n}: {'acyclic in all ' + str(res.nodes) + ' nodes' if res.ok else 'FAILED'}")
    report(1, ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 2. Maker cycle soundness at n=6, q=1
# ---------------------------------------------------------------------------


def test_criterion_02_maker_cycle_soundness():
    res = verify_strategy_vs_all(MakerCycle, MAKER, 6, 1, 1, Cycle())
    report(2, res.ok, f"n=6 q=1 exhaustive: {res.nodes} nodes, all branches cycle")


# ---------------------------------------------------------------------------
# 3. Threshold bracketing and monotonicity
# ---------------------------------------------------------------------------


def test_criterion_03_threshold_bracketing():
    ok = True
    details = []
    expected = {3: 1, 4: 2, 5: 3}  # frozen regression constants
    for n in (3, 4, 5):
        t = threshold_scan(n, Cycle())  # scan itself audits monotonicity
        lower = n // 2 - 2
        ok &= t == expected[n] and t <= n - 2 and (lower < 1 or t > lower)
        details.append(f"t({n})={t}")
    report(3, ok, ", ".join(details) + " within (floor(n/2)-2, n-2]")


# ---------------------------------------------------------------------------
# 4. Hamiltonicity lemma
# ---------------------------------------------------------------------------


def test_criterion_04_hamiltonicity_lemma():
    failures = 0
    checked = 0

    def check(t):
        nonlocal failures, checked
        checked += 1
        ham = hamilton_cycle(t)
        if (ham is not None) != is_strongly_connected(t):
            failures += 1
            return
        if ham is not None and t.n > 1:
            if sorted(ham) != list(range(t.n)) or not is_directed_cycle(t, ham):
                failures += 1

    for n in (1, 2, 3, 4, 5):
        for t in all_tournaments(n):
            check(t)
    rng = random.Random(48151)
    for n in (6, 7):
        for _ in range(10_000):
            check(random_tournament(n, rng))
    report(4, failures == 0, f"{checked} tournaments, {failures} failures")


# ---------------------------------------------------------------------------
# 5. FAS oracle
# ---------------------------------------------------------------------------


def _perm_masks(t):
    pairs = list(itertools.combinations(range(t), 2))
    masks = []
    for perm in itertools.permutations(range(t)):
        rank = [0] * t
        for pos, v in enumerate(perm):
            rank[v] = pos
        f = 0
        for i, (u, v) in enumerate(pairs):
            if rank[u] > rank[v]:
                f |= 1 << i
        masks.append(f)
    return pairs, masks


def _fas_by_permutations(t, board, pairs, masks):
    bits = 0
    for i, (u, v) in enumerate(pairs):
        if board.arc(u, v) == 1:
            bits |= 1 << i
    m = len(pairs)
    return m - max((bits ^ f).bit_count() for f in masks)


def test_criterion_05_fas_oracle():
    # exhaustive t <= 6 against the factorial oracle
    mismatches = 0
    for t in (3, 4, 5, 6):
        pairs, masks = _perm_masks(t)
        bound = (t * (t - 1) // 2) // 2
        for board in all_tournaments(t):
            value, sigma = fas_exact(PatternGraph.from_board(board))
            if value != _fas_by_permutations(t, board, pairs, masks):
                mismatches += 1
            if value > bound:
                mismatches += 1
    # random patterns t in {7, 8}
    rng = random.Random(99)
    for t in (7, 8):
        pairs, masks = _perm_masks(t)
        for _ in range(50):
            board = random_tournament(t, rng)
            value, _ = fas_exact(PatternGraph.from_board(board))
            if value != _fas_by_permutations(t, board, pairs, masks):
                mismatches += 1
    # random-tournament mean at t=10, asserted at the stated band
    rng = random.Random(2468)
    values = [fas_exact(PatternGraph.from_board(random_tournament(10, rng)))[0]
              for _ in range(200)]
    mean = sum(values) / len(values)
    in_band = 0.6 * 22.5 <= mean <= 1.0 * 22.5
    report(
        5,
        mismatches == 0 and in_band,
        f"oracle agreement mismatches={mismatches}; t=10 mean FAS={mean:.2f}, "
        f"stated band [13.5, 22.5] {'holds' if in_band else 'cannot hold at this t'}",
    )


# ---------------------------------------------------------------------------
# 6. Erdos-Selfridge blocker never loses
# ---------------------------------------------------------------------------


def _blocker_never_loses(sets, n_elements):
    init = HypergraphState(sets, 1, 1, elements=range(n_elements))
    memo = {}

    def threat_turn(state):
        key = tuple(state.status[e] for e in state.elements)
        if key in memo:
            return memo[key]
        free = state.free_elements()
        if not free:
            memo[key] = True
            return True
        ok = True
        for e in free:
            s2 = copy.deepcopy(state)
            s2.claim_threat(e)
            if s2.threat_completed:
                ok = False
            else:
                if s2.free_elements():
                    potential_blocker_move(s2, 1)
                if s2.threat_completed or not threat_turn(s2):
                    ok = False
            if not ok:
                break
        memo[key] = ok
        return ok

    return threat_turn(init)


def test_criterion_06_potential_blocker():
    rng = random.Random(31337)
    losses = 0
    tried = 0
    while tried < 500:
        n_el = rng.randint(6, 12)
        n_sets = rng.randint(2, 8)
        sets = [
            frozenset(rng.sample(range(n_el), rng.randint(3, min(7, n_el))))
            for _ in range(n_sets)
        ]
        if not es_condition([len(s) for s in sets], 1, 1):
            continue
        tried += 1
        if not _blocker_never_loses(sets, n_el):
            losses += 1
    report(6, losses == 0, f"{tried} criterion-true hypergraphs, {losses} blocker losses")


# ---------------------------------------------------------------------------
# 7. Box game criteria and threshold rate
# ---------------------------------------------------------------------------


def test_criterion_07_box_game():
    violations = []
    for r in range(1, 6):
        for k in range(1, 5):
            for b in range(1, 4):
                won_c, _ = verify_box_strategy(r, k, b, "classic")
                if cz_criterion(r, k, b) and not won_c:
                    violations.append(("classic", r, k, b))
                won_t, _ = verify_box_strategy(r, k, b, "twobox")
                if two_box_criterion(r, k, b) and not won_t:
                    violations.append(("twobox", r, k, b))
    t = breaker_bias_threshold(10 ** 6)
    ratio = t * math.log(10 ** 6) / 10 ** 6
    rate_ok = 0.9 <= ratio <= 1.1
    ok = not violations and rate_ok
    report(
        7,
        ok,
        f"criterion=>win violations={violations or 'none'}; threshold(1e6)={t}, "
        f"rate={ratio:.4f} vs stated [0.9, 1.1]"
        + ("" if ok else " (asymptotic forms miss at these sizes)"),
    )


# ---------------------------------------------------------------------------
# 8. Breaker box pipeline at n=12, b=6
# ---------------------------------------------------------------------------


def test_criterion_08_breaker_box_pipeline():
    good = 0
    total = 0
    for make_maker in (lambda: RandomStrategy(MAKER), lambda: MakerGreedyAttack(range(6))):
        for seed in range(100):
            cfg = GameConfig(n=12, p=1, q=6, prop=MinInDegreePositive(), seed=seed,
                             early_stop=False)
            rec = play_game(cfg, make_maker(), BreakerBoxHamilton())
            board = replay(rec)
            total += 1
            good += min(board.in_degree(v) for v in range(12)) == 0
    report(8, good == total == 200, f"{good}/{total} games end with a 0 in-degree vertex")


# ---------------------------------------------------------------------------
# 9. Maker Hamiltonicity pipeline at n=400
# ---------------------------------------------------------------------------


def test_criterion_09_maker_hamilton_pipeline():
    n = 400
    q = math.floor(0.8 * n / math.log(n))
    stage1_ok = 0
    strong = 0
    total = 0
    t0 = time.time()
    reached4 = 0
    for make_breaker in (lambda: RandomStrategy(BREAKER), BreakerGreedyStar):
        for seed in range(25):
            cfg = GameConfig(n=n, p=1, q=q, prop=Hamiltonicity(), seed=seed,
                             early_stop=False)
            maker = MakerHamilton()
            rec = play_game(cfg, maker, make_breaker())
            board = replay(rec)
            total += 1
            s = maker.stats
            if (
                s["stage1_rounds"] <= 8 * n
                and not s["stage1_overran"]
                and s["handoff_min_in"] >= 3
                and s["handoff_min_out"] >= 3
            ):
                stage1_ok += 1
            if s["handoff_min_in"] >= 4 and s["handoff_min_out"] >= 4:
                reached4 += 1
            if is_strongly_connected(board):
                ham = hamilton_cycle(board)
                if ham and sorted(ham) == list(range(n)) and is_directed_cycle(board, ham):
                    strong += 1
    elapsed = time.time() - t0
    ok = stage1_ok == total and strong >= total - 2
    report(
        9,
        ok,
        f"{stage1_ok}/{total} stage-1 within 8n rounds at min degrees >=3 "
        f"(>=4 attained in {reached4}); {strong}/{total} Hamilton-certified; "
        f"q={q}, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 10. C_k machinery
# ---------------------------------------------------------------------------


def test_criterion_10_ck_machinery():
    rng = random.Random(1212)
    extract_failures = 0
    for _ in range(1000):
        k = rng.choice([3, 4, 5, 6])
        r = rng.randint(0, 3)
        length = k + (k - 2) * r
        n = rng.randint(length, length + 5)
        verts = rng.sample(range(n), length)
        board = Board(n)
        for i in range(length):
            board.orient(verts[i], verts[(i + 1) % length])
        for (u, v) in itertools.combinations(range(n), 2):
            if board.is_undirected(u, v):
                board.orient(u, v) if rng.random() < 0.5 else board.orient(v, u)
        out = extract_ck(board, verts, k)
        if len(out) != k or not is_directed_cycle(board, out):
            extract_failures += 1

    wins = 0
    for seed in range(100):
        cfg = GameConfig(n=60, p=1, q=2, prop=CycleLengthK(4), seed=seed,
                         early_stop=False)
        maker = MakerCk(4)
        rec = play_game(cfg, maker, RandomStrategy(BREAKER))
        board = replay(rec)
        won = rec.winner == MAKER and evaluate_property(board, CycleLengthK(4))
        if won and maker.closed is not None:
            c4 = extract_ck(board, maker.closed, 4)
            won = len(c4) == 4 and is_directed_cycle(board, c4)
        wins += won
    report(
        10,
        extract_failures == 0 and wins == 100,
        f"extract_ck 1000 instances {extract_failures} failures; "
        f"maker-ck n=60 q=2: {wins}/100 certified wins",
    )


# ---------------------------------------------------------------------------
# 11. Sigma-ordering H-blocker
# ---------------------------------------------------------------------------


def test_criterion_11_sigma_blocker():
    pattern = FAS2_PATTERN  # FAS 2 on 5 vertices (no 4-vertex graph reaches 2)
    assert fas_exact(pattern)[0] == 2
    blocked = 0
    forward_ok = True
    total = 0
    for make_maker in (
        lambda: RandomStrategy(MAKER),
        lambda: MakerGreedyEmbedding(pattern),
    ):
        for seed in range(100):
            cfg = GameConfig(n=7, p=1, q=20, prop=ContainsH(pattern), seed=seed,
                             early_stop=False)
            rec = play_game(cfg, make_maker(), BreakerSigmaPotential(pattern))
            board = replay(rec)
            total += 1
            for role, move in rec.transcript:
                if role == BREAKER:
                    forward_ok &= all(u < v for (u, v) in move)
            blocked += contains_embedding(board, pattern) is None
    report(
        11,
        blocked == total == 200 and forward_ok,
        f"{blocked}/{total} games with no pattern copy; all breaker arcs forward: {forward_ok}",
    )


# ---------------------------------------------------------------------------
# 12. Determinism
# ---------------------------------------------------------------------------


def test_criterion_12_determinism(tmp_path):
    from orientgames.cli import main

    outs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        main(["play", "--n", "12", "--q", "3", "--maker", "maker-random",
              "--breaker", "breaker-random", "--property", "cycle",
              "--seed", "17", "--out", str(path)])
        outs.append(path.read_text())
    play_same = outs[0] == outs[1]

    csvs = []
    for name, workers in (("s1.csv", "1"), ("s4.csv", "4"), ("s1b.csv", "1")):
        path = tmp_path / name
        main(["sweep", "--n", "8,9", "--bias", "1,2", "--maker", "maker-random",
              "--breaker", "breaker-random", "--property", "cycle",
              "--seeds", "5", "--seed", "23", "--workers", workers,
              "--out", str(path)])
        csvs.append(path.read_text())
    sweep_same = csvs[0] == csvs[1] == csvs[2]
    report(12, play_same and sweep_same,
           f"play byte-identical: {play_same}; sweep serial==parallel: {sweep_same}")
