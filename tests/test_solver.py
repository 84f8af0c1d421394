import copy
import hashlib
import itertools
import random

import pytest

from orientgames import solver
from orientgames.board import Board
from orientgames.engine import (
    BREAKER,
    MAKER,
    ContainsH,
    Cycle,
    CycleLengthK,
    GameConfig,
    Hamiltonicity,
    MinInDegreePositive,
    NonKColorable,
    Strategy,
    apply_move,
    evaluate_property,
    forced_verdict,
    property_from_key,
    validate_move,
)
from orientgames.errors import BadConfig, BudgetExceeded, SizeMismatch
from orientgames.oracles import PatternGraph
from orientgames.solver import (
    solve_orientation_game,
    threshold_scan,
    verify_strategy_vs_all,
)
from orientgames.strategies import (
    BreakerBoxHamilton,
    BreakerOutStar,
    BreakerSigmaPotential,
    MakerCycle,
    RandomStrategy,
)
from orientgames.strategies.potential import es_condition

from conftest import disable_settling_moves, reference_verify
from test_thresholds import THRESHOLDS

ALL_N3_PROPS = [
    Cycle(),
    Hamiltonicity(),
    MinInDegreePositive(),
    CycleLengthK(3),
    NonKColorable(1),
    ContainsH(PatternGraph.cycle(3)),
]


def test_solve_examples():
    assert solve_orientation_game(3, 1, 1, Cycle()).winner == BREAKER
    assert solve_orientation_game(3, 1, 1, MinInDegreePositive()).winner == BREAKER
    assert solve_orientation_game(4, 1, 2, Cycle()).winner == BREAKER


def test_minindeg_equals_cycle_at_n3():
    # The only cyclic 3-vertex tournament is the directed triangle, which
    # is also the only one with positive minimum in-degree.
    for p, q in itertools.product((1, 2), repeat=2):
        a = solve_orientation_game(3, p, q, Cycle()).winner
        b = solve_orientation_game(3, p, q, MinInDegreePositive()).winner
        assert a == b


# One property of each kind; the solver takes every property up to
# SOLVER_MAX_N vertices and bias SOLVER_MAX_BIAS.
SOLVER_PROPS = [
    Cycle(),
    CycleLengthK(3),
    CycleLengthK(4),
    ContainsH(PatternGraph.cycle(3)),
    ContainsH(PatternGraph(4, frozenset({(0, 1), (1, 2), (2, 3)}))),
    Hamiltonicity(),
    MinInDegreePositive(),
    NonKColorable(2),
]


def test_budget_errors():
    assert (solver.SOLVER_MAX_N, solver.SOLVER_MAX_BIAS) == (6, 3)
    for prop in SOLVER_PROPS:
        with pytest.raises(BudgetExceeded, match="capped at n=6 and bias 3"):
            solve_orientation_game(7, 1, 1, prop)
    for p, q in [(4, 1), (1, 4)]:
        with pytest.raises(BudgetExceeded, match="capped at n=6 and bias 3"):
            solve_orientation_game(3, p, q, Cycle())


@pytest.mark.parametrize("p, q", [(0, 1), (1, 0), (0, 0), (-1, 2)])
def test_solve_refuses_a_bias_below_one(p, q):
    # A game with no move for one side has no value; the config check the
    # engine and the verifier make applies here too.
    with pytest.raises(BadConfig, match="both biases must be >= 1"):
        solve_orientation_game(4, p, q, Cycle())


def test_start_board_must_match_n():
    with pytest.raises(SizeMismatch):
        solve_orientation_game(4, 1, 1, Cycle(), start_board=Board(2))
    # A 7-vertex start board, past the size cap, must not slip past it
    # under a smaller n.
    with pytest.raises(SizeMismatch):
        solve_orientation_game(3, 1, 1, Hamiltonicity(), start_board=Board(7))


def test_start_board_with_a_cycle_is_judged_at_the_root():
    start = Board(4)
    for arc in [(0, 1), (1, 2), (2, 0)]:
        start.orient(*arc)
    r = solve_orientation_game(4, 1, 3, Cycle(), start_board=start)
    assert (r.winner, r.nodes, r.pv) == (MAKER, 1, [])


def test_verifier_judges_a_decided_root():
    # n=1 is a finished tournament before anyone moves: no cycle, so the
    # Maker strategy has lost with an empty transcript and is never asked
    # for a move; Breaker's goal is met.
    r = verify_strategy_vs_all(MakerCycle, MAKER, 1, 1, 1, Cycle())
    assert (r.ok, r.counterexample, r.nodes) == (False, [], 0)
    r = verify_strategy_vs_all(BreakerOutStar, BREAKER, 1, 1, 1, Cycle())
    assert (r.ok, r.counterexample, r.nodes) == (True, None, 0)


def test_verdict_invariant_under_relabeling(rng):
    for _ in range(10):
        start = Board(4)
        for (u, v) in [(0, 1), (2, 3)]:
            if rng.random() < 0.5:
                u, v = v, u
            start.orient(u, v)
        perm = list(range(4))
        rng.shuffle(perm)
        a = solve_orientation_game(4, 1, 2, Cycle(), start_board=start).winner
        b = solve_orientation_game(4, 1, 2, Cycle(), start_board=start.relabeled(perm)).winner
        assert a == b


def test_principal_variation_replays_to_winner():
    for (n, p, q, prop) in [
        (3, 1, 1, Cycle()),
        (4, 1, 2, Cycle()),
        (4, 1, 1, Hamiltonicity()),
        (4, 2, 1, Cycle()),
    ]:
        result = solve_orientation_game(n, p, q, prop)
        board = Board(n)
        role = MAKER
        for (mover, move) in result.pv:
            assert mover == role
            bias = p if mover == MAKER else q
            assert validate_move(board, move, bias) is None
            apply_move(board, move)
            role = BREAKER if role == MAKER else MAKER
        if board.is_tournament():
            verdict = evaluate_property(board, prop)
        else:
            verdict = forced_verdict(board, prop)
        assert verdict is not None
        assert (MAKER if verdict else BREAKER) == result.winner


def test_bias_monotonicity_small_boards():
    for n in (3, 4):
        for prop in [Cycle(), Hamiltonicity(), MinInDegreePositive(), CycleLengthK(3)]:
            winners = [
                solve_orientation_game(n, 1, b, prop).winner for b in (1, 2, 3)
            ]
            seen_breaker = False
            for w in winners:
                if w == BREAKER:
                    seen_breaker = True
                else:
                    assert not seen_breaker, (n, prop, winners)


def test_threshold_scan_values():
    assert threshold_scan(3, Cycle()) == 1
    assert threshold_scan(4, Cycle()) == 2


def test_threshold_scan_n6(cached_solves):
    # Maker wins at q = 1 and 2, Breaker at q = 3: inside the paper's
    # bracket (n/2 - 2, n - 2] = (1, 4].
    assert threshold_scan(6, Cycle()) == 3


# Every game up to n = 5, once with the key of the board's isomorphism
# class and once with its raw bytes.  n = 6 is left out: with raw keys the
# cycle game alone takes minutes.  The ids keep the names the cases were
# first filed under, which carried each property's own size cap from
# before the solver had one budget.
RAW_KEY_IDS = [f"{prop!r}-{cap}" for prop, cap in zip(SOLVER_PROPS, (6, 5, 4, 5, 4, 4, 4, 4))]


@pytest.mark.parametrize("prop", SOLVER_PROPS, ids=RAW_KEY_IDS)
def test_isomorphism_key_gives_the_raw_key_winners(prop, monkeypatch):
    games = [(n, 1, q) for n in range(2, 6) for q in (1, 2, 3)]
    keyed = [solve_orientation_game(*g, prop).winner for g in games]
    monkeypatch.setattr(Board, "isomorphism_key", Board.canonical_key)
    assert [solve_orientation_game(*g, prop).winner for g in games] == keyed


def test_pv_walk_is_neither_counted_nor_left_on_the_board(monkeypatch):
    # Every counted node returns a forced verdict, hits the memo, or adds
    # one memo entry.  The walk starts at the first call after the root's
    # that names no new arcs, and must leave the working board as it
    # found it.
    start = Board(5)
    start.orient(0, 1)
    calls = []

    def spy(board, prop, new_arcs=None):
        verdict = forced_verdict(board, prop, new_arcs)
        calls.append((board, new_arcs, verdict))
        return verdict

    monkeypatch.setattr(solver, "forced_verdict", spy)
    r = solve_orientation_game(5, 1, 2, Cycle(), start_board=start)
    walk_start = next(i for i, (_, arcs, _) in enumerate(calls) if arcs is None and i > 0)
    forced = sum(v is not None for (_, _, v) in calls[:walk_start])
    assert r.nodes == forced + r.memo_hits + r.memo_size
    assert len(r.pv) > 1
    board = calls[-1][0]
    assert board is not start and board == start


def test_verifier_matches_solver_side():
    # A verified Breaker strategy is a one-sided certificate: the solver
    # must agree that Breaker wins.
    res = verify_strategy_vs_all(BreakerOutStar, BREAKER, 4, 1, 2, Cycle())
    assert res.ok
    assert solve_orientation_game(4, 1, 2, Cycle()).winner == BREAKER


def test_verifier_produces_counterexample():
    res = verify_strategy_vs_all(MakerCycle, MAKER, 4, 1, 2, Cycle())
    assert not res.ok
    assert res.counterexample is not None
    # The counterexample transcript replays legally to a Maker loss.
    board = Board(4)
    for (role, move) in res.counterexample:
        bias = 1 if role == MAKER else 2
        assert validate_move(board, move, bias) is None
        apply_move(board, move)
    v = forced_verdict(board, Cycle())
    if board.is_tournament():
        v = evaluate_property(board, Cycle())
    assert v is False


def test_maker_cycle_below_its_guarantee_range():
    # At n=4 the guarantee bias floor(n/2)-2 is 0, and indeed the path
    # strategy loses the (1:1) game to an adversarial Breaker even though
    # the game itself is a Maker win (threshold 2): strategy soundness and
    # game value part ways below the theorem's range.
    res = verify_strategy_vs_all(MakerCycle, MAKER, 4, 1, 1, Cycle())
    assert not res.ok
    assert solve_orientation_game(4, 1, 1, Cycle()).winner == MAKER


def _naive_minimax(n, p, q, prop):
    """Whole-move minimax: a turn is one combinatorial multi-arc move.

    Structurally independent of the solver's in-turn decomposition, so
    agreement between the two is a real dual-route check.
    """
    from orientgames.board import Board

    memo = {}

    def moves(board, bias):
        pairs = board.undirected_pairs()
        limit = min(bias, len(pairs))
        for size in range(1, limit + 1):
            for chosen in itertools.combinations(pairs, size):
                for dirs in itertools.product((0, 1), repeat=size):
                    yield tuple(
                        (u, v) if d == 0 else (v, u)
                        for ((u, v), d) in zip(chosen, dirs)
                    )

    def value(board, mover):
        if board.is_tournament():
            return evaluate_property(board, prop)
        key = (board.canonical_key(), mover)
        if key in memo:
            return memo[key]
        want = mover == MAKER
        bias = p if mover == MAKER else q
        result = not want
        for move in moves(board, bias):
            nxt = board.copy()
            apply_move(nxt, move)
            if value(nxt, BREAKER if mover == MAKER else MAKER) == want:
                result = want
                break
        memo[key] = result
        return result

    return MAKER if value(Board(n), MAKER) else BREAKER


def test_solver_agrees_with_naive_whole_move_minimax():
    for prop in ALL_N3_PROPS:
        for p, q in itertools.product((1, 2, 3), repeat=2):
            assert (
                solve_orientation_game(3, p, q, prop).winner
                == _naive_minimax(3, p, q, prop)
            ), (prop, p, q)
    for p, q in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        assert (
            solve_orientation_game(4, p, q, Cycle()).winner
            == _naive_minimax(4, p, q, Cycle())
        ), (p, q)
    assert (
        solve_orientation_game(4, 1, 1, Hamiltonicity()).winner
        == _naive_minimax(4, 1, 1, Hamiltonicity())
    )


class FixedMoveStrategy(Strategy):
    def __init__(self, move):
        self.move = move

    def next_move(self, board, transcript):
        return self.move


# The verifier's checked write must refuse each move whole.
@pytest.mark.parametrize("move, p", [
    (None, 1),
    (((0, 1), (2, 3)), 1),  # two arcs at bias 1
    (((0, 1), (1, 0)), 2),  # one pair twice, within the bias
], ids=["None", "two-arcs-at-p1", "repeated-pair"])
def test_verifier_reports_illegal_move(move, p):
    res = verify_strategy_vs_all(lambda: FixedMoveStrategy(move), MAKER, 4, p, 1, Cycle())
    assert (res.ok, res.counterexample, res.nodes) == (False, [(MAKER, move)], 1)


def test_verifier_node_limit(monkeypatch):
    monkeypatch.setattr(solver, "VERIFY_NODE_LIMIT", 5)
    with pytest.raises(BudgetExceeded, match="exceeded 5 nodes"):
        verify_strategy_vs_all(MakerCycle, MAKER, 6, 1, 1, Cycle())


# Winners and lines captured with adjacency-list oracles, full deep copies
# of the strategy and a memo keyed on raw boards.  The counts are those of
# the memo keyed on isomorphism classes, taken before the PV walk.
SOLVE_PINS = [
    ((4, 1, 1, Cycle()), MAKER, 101, 26,
     [(MAKER, ((0, 1),)), (BREAKER, ((0, 2),)), (MAKER, ((3, 0),)),
      (BREAKER, ((1, 2),)), (MAKER, ((1, 3),))]),
    ((4, 1, 2, Cycle()), BREAKER, 76, 21,
     [(MAKER, ((0, 1),)), (BREAKER, ((0, 2),)), (MAKER, ((0, 3),)),
      (BREAKER, ((1, 2),)), (MAKER, ((1, 3),)), (BREAKER, ((2, 3),))]),
    ((4, 2, 1, Cycle()), MAKER, 88, 23,
     [(MAKER, ((0, 1),)), (BREAKER, ((0, 2),)), (MAKER, ((0, 3),)),
      (BREAKER, ((1, 2),)), (MAKER, ((3, 1), (2, 3)))]),
    ((4, 1, 1, Hamiltonicity()), BREAKER, 53, 18,
     [(MAKER, ((0, 1),)), (BREAKER, ((0, 2),)), (MAKER, ((0, 3),))]),
    ((5, 1, 2, Cycle()), MAKER, 3089, 1326,
     [(MAKER, ((0, 1),)), (BREAKER, ((0, 2),)), (MAKER, ((3, 0),)),
      (BREAKER, ((0, 4),)), (MAKER, ((1, 2),)), (BREAKER, ((1, 3),))]),
    ((5, 1, 1, CycleLengthK(3)), MAKER, 567, 212,
     [(MAKER, ((0, 1),)), (BREAKER, ((0, 2),)), (MAKER, ((0, 3),)),
      (BREAKER, ((0, 4),)), (MAKER, ((1, 2),)), (BREAKER, ((1, 3),)),
      (MAKER, ((4, 1),)), (BREAKER, ((2, 3),)), (MAKER, ((2, 4),))]),
]


# The ids keep the names the pins were first filed under; their numbers are
# the raw-key memo's counts with the PV walk counted.
SOLVE_PIN_IDS = [
    "args0-maker-349-66-pv0", "args1-breaker-867-147-pv1", "args2-maker-344-60-pv2",
    "args3-breaker-747-105-pv3", "args4-maker-55687-20326-pv4",
    "args5-maker-5792-1824-pv5",
]


# The pins above hold for the search without settling moves; with them the
# same winners and lines cost these (nodes, memo hits, memo size, decided).
SETTLED_COUNTS = [
    (82, 23, 51, 11),
    (60, 21, 33, 7),
    (50, 12, 34, 10),
    (46, 18, 23, 5),
    (1989, 846, 802, 221),
    (567, 212, 267, 0),  # ck:3 knows no settling move
]


@pytest.mark.parametrize("args, winner, nodes, memo_hits, pv", SOLVE_PINS, ids=SOLVE_PIN_IDS)
def test_solver_results_pinned(args, winner, nodes, memo_hits, pv, settling_moves_off):
    r = solve_orientation_game(*args)
    assert (r.winner, r.nodes, r.memo_hits, r.pv) == (winner, nodes, memo_hits, pv)
    assert r.decided == 0


@pytest.mark.parametrize("pin, counts", zip(SOLVE_PINS, SETTLED_COUNTS), ids=SOLVE_PIN_IDS)
def test_solver_results_pinned_with_settling_moves(pin, counts):
    args, winner, _, _, pv = pin
    r = solve_orientation_game(*args)
    assert (r.winner, r.pv) == (winner, pv)
    assert (r.nodes, r.memo_hits, r.memo_size, r.decided) == counts


# ---------------------------------------------------------------------------
# Settling moves change node counts, never a value: same winners, same lines
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("key", THRESHOLDS)
def test_settling_moves_keep_every_small_threshold_game(key, monkeypatch):
    # Every (1:q) game of the threshold table up to n = 5, solved both ways.
    prop = property_from_key(key)
    games = [(n, 1, q, prop) for n in (3, 4, 5) for q in range(1, solver.SOLVER_MAX_BIAS + 1)]
    on = [solve_orientation_game(*game) for game in games]
    disable_settling_moves(monkeypatch)
    off = [solve_orientation_game(*game) for game in games]
    for game, a, b in zip(games, on, off):
        assert (a.winner, a.pv) == (b.winner, b.pv), game
        assert a.nodes <= b.nodes and b.decided == 0, game


# The n = 6 games the threshold tests solve, for the properties that know a
# settling move: (winner, nodes, digest of the principal variation).  The
# winners and digests are those of the search without settling moves, which
# took 3,816 / 75,644 / 92,193 nodes on cycle at q = 1 / 2 / 3, 9,524 /
# 171,047 / 69,500 on min-in-degree and 27,051 / 58,269 / 13,281 on
# Hamiltonicity; solving them both ways here would add about 12 s to Tier-1.
N6_GAMES = {
    ("cycle", 1): (MAKER, 754, "4ba40ba11003"),
    ("cycle", 2): (MAKER, 20866, "ad9ffe0e4431"),
    ("cycle", 3): (BREAKER, 18844, "2478881a051c"),
    ("min-indegree-positive", 1): (MAKER, 3711, "f81c2e3f219a"),
    ("min-indegree-positive", 2): (BREAKER, 88299, "bc8e850b7bd3"),
    ("min-indegree-positive", 3): (BREAKER, 16005, "33c1f2db006e"),
    ("hamiltonicity", 1): (MAKER, 21060, "43acd3705079"),
    ("hamiltonicity", 2): (BREAKER, 43146, "f508c8ab294d"),
    ("hamiltonicity", 3): (BREAKER, 2130, "f508c8ab294d"),
}


@pytest.mark.parametrize("key, q", N6_GAMES, ids=[f"{k}-{q}" for k, q in N6_GAMES])
def test_settling_moves_keep_the_n6_threshold_games(key, q, solved):
    r = solved(6, 1, q, key)
    digest = hashlib.sha256(repr(r.pv).encode()).hexdigest()[:12]
    assert (r.winner, r.nodes, digest) == N6_GAMES[key, q]


# The n = 7 games behind t_cycle(7) = 4 and t_mindeg(7) = 3, past both
# caps; they take 13-230 s and up to 0.7 GB each, so they run only under
# `pytest -m slow`.  (winner, nodes, memo hits, memo size, decided)
N7_GAMES = {
    ("cycle", 3): (MAKER, 1513459, 853116, 348486, 134094),
    ("cycle", 4): (BREAKER, 475062, 239698, 121620, 51389),
    ("min-indegree-positive", 2): (MAKER, 5372619, 3231924, 1340475, 430818),
    ("min-indegree-positive", 3): (BREAKER, 10291173, 6434186, 1877847, 576647),
}


@pytest.mark.slow
@pytest.mark.parametrize("key, q", N7_GAMES, ids=[f"{k}-{q}" for k, q in N7_GAMES])
def test_n7_threshold_games(key, q, monkeypatch):
    monkeypatch.setattr(solver, "SOLVER_MAX_N", 7)
    monkeypatch.setattr(solver, "SOLVER_MAX_BIAS", 4)
    r = solve_orientation_game(7, 1, q, property_from_key(key))
    assert (r.winner, r.nodes, r.memo_hits, r.memo_size, r.decided) == N7_GAMES[key, q]


VERIFY_PINS = [
    (MakerCycle, (MAKER, 6, 1, 1, Cycle()), 0, True, 1392, None),
    (MakerCycle, (MAKER, 4, 1, 2, Cycle()), 0, False, 17,
     [(MAKER, ((0, 1),)), (BREAKER, ((3, 2),)), (MAKER, ((1, 2),)),
      (BREAKER, ((0, 2),)), (MAKER, ((1, 3),)), (BREAKER, ((0, 3),))]),
    (BreakerOutStar, (BREAKER, 5, 1, 3, Cycle()), 0, True, 620, None),
    # Random strategies: every branch must continue the same generator stream.
    (lambda: RandomStrategy(MAKER), (MAKER, 5, 3, 2, Cycle()), 1, True, 57, None),
    (lambda: RandomStrategy(MAKER), (MAKER, 5, 3, 1, Hamiltonicity()), 2, True, 51, None),
    (lambda: RandomStrategy(MAKER), (MAKER, 4, 1, 1, Cycle()), 0, False, 3,
     [(MAKER, ((2, 0),)), (BREAKER, ((2, 3),)), (MAKER, ((1, 3),)),
      (BREAKER, ((1, 2),)), (MAKER, ((3, 0),)), (BREAKER, ((1, 0),))]),
    (lambda: RandomStrategy(BREAKER), (BREAKER, 4, 1, 2, Cycle()), 0, False, 6,
     [(MAKER, ((2, 3),)), (BREAKER, ((2, 0), (1, 3))), (MAKER, ((0, 1),)),
      (BREAKER, ((2, 1), (3, 0)))]),
    # Box Breaker on min-in-degree.  The two losses are criterion 7's
    # two-box corners (r, k, b) = (3, 2, 3) and (2, 1, 2): q boxes of
    # n - q items at bias q, where solve_box_game says Box-Breaker wins.
    (BreakerBoxHamilton, (BREAKER, 4, 1, 3, MinInDegreePositive()), 0, True, 60, None),
    (BreakerBoxHamilton, (BREAKER, 6, 1, 4, MinInDegreePositive()), 0, True, 630, None),
    (BreakerBoxHamilton, (BREAKER, 5, 1, 3, MinInDegreePositive()), 0, False, 151,
     [(MAKER, ((4, 2),)), (BREAKER, ((0, 3), (1, 3), (0, 4))), (MAKER, ((2, 0),)),
      (BREAKER, ((1, 4),)), (MAKER, ((2, 1),))]),
    (BreakerBoxHamilton, (BREAKER, 3, 1, 2, MinInDegreePositive()), 0, False, 2,
     [(MAKER, ((2, 1),)), (BREAKER, ((0, 2),)), (MAKER, ((1, 0),))]),
    (BreakerBoxHamilton, (BREAKER, 7, 1, 4, MinInDegreePositive()), 0, True, 27874, None),
    (BreakerBoxHamilton, (BREAKER, 7, 1, 4, Hamiltonicity()), 0, True, 27750, None),
]


@pytest.mark.parametrize("factory, args, seed, ok, nodes, counterexample", VERIFY_PINS)
def test_verifier_results_pinned(factory, args, seed, ok, nodes, counterexample):
    r = verify_strategy_vs_all(factory, *args, seed=seed)
    assert (r.ok, r.nodes, r.counterexample) == (ok, nodes, counterexample)


@pytest.mark.parametrize("factory, args, seed", [pin[:3] for pin in VERIFY_PINS])
def test_verifier_matches_reference(factory, args, seed):
    # No strategy here changes its state key in observe(), so the key taken
    # with the opponent's move pending is the one taken after it: the whole
    # result, node count included, is the reference's.
    r = verify_strategy_vs_all(factory, *args, seed=seed)
    assert (r.ok, r.nodes, r.counterexample) == reference_verify(factory, *args, seed=seed)


# The paper's H-creation Breaker on R5, the regular 5-vertex tournament
# (i->i+1 and i->i+2 mod 5; FAS 3).  Breaker wins each of these games, but
# the potential strategy passes the verifier only at (n, q) = (5, 3).  Its
# losses lie outside its guarantee: the blocking criterion over its
# three-slot winning sets (120 at n = 5, 720 at n = 6) needs q >= 10 at
# n = 5 and q >= 26 at n = 6.  (n, q, ok, nodes)
R5 = PatternGraph(5, frozenset({(i, (i + 1) % 5) for i in range(5)}
                               | {(i, (i + 2) % 5) for i in range(5)}))
SIGMA_R5_PINS = [
    (5, 1, False, 3546),
    (5, 2, False, 1778),
    (5, 3, True, 1076),
    (6, 1, False, 288),
    (6, 2, False, 1452),
    (6, 3, False, 4379),
]


@pytest.mark.parametrize("n, q, ok, nodes", SIGMA_R5_PINS)
def test_sigma_breaker_on_r5_against_the_exact_value(n, q, ok, nodes):
    prop = ContainsH(R5)
    assert solve_orientation_game(n, 1, q, prop).winner == BREAKER
    r = verify_strategy_vs_all(lambda: BreakerSigmaPotential(R5), BREAKER, n, 1, q, prop)
    assert (r.ok, r.nodes) == (ok, nodes)
    strat = BreakerSigmaPotential(R5)
    strat.start(GameConfig(n=n, p=1, q=q, prop=prop), None)
    sets = len(strat.player.state.sets)
    least = next(b for b in itertools.count(1) if es_condition(strat.player.state, 1, b))
    print(f"sigma Breaker on R5 at n={n}, q={q}: {'passes' if ok else 'loses'};"
          f" its criterion over {sets} sets of size {strat.r} needs q >= {least}")
    assert (sets, strat.r, least) == {5: (120, 3, 10), 6: (720, 3, 26)}[n]
    if not ok:
        # Each loss is a real line: it replays to a board holding R5.
        board = Board(n)
        for (role, move) in r.counterexample:
            assert board.apply_checked(move, 1 if role == MAKER else q) is None
        assert forced_verdict(board, prop) is True


def _noting_last_arc(cls):
    """cls, also keying on the opponent's last arc, which observe() sets."""
    class Noting(cls):
        def start(self, config, rng):
            super().start(config, rng)
            self.last = None

        def observe(self, board, role, move):
            super().observe(board, role, move)
            if role != self.role:
                self.last = move[-1]

        def state_key(self):
            return (super().state_key(), self.last)
    return Noting


# Here the key taken before observe() is finer than the one taken after, so
# node counts part (the out-star at n=5, q=3 takes 1,700 nodes against the
# reference's 620), but every verdict and counterexample must agree.
@pytest.mark.parametrize("factory, args", [
    (_noting_last_arc(MakerCycle), (MAKER, 6, 1, 1, Cycle())),
    (_noting_last_arc(MakerCycle), (MAKER, 4, 1, 2, Cycle())),
    (_noting_last_arc(BreakerOutStar), (BREAKER, 5, 1, 3, Cycle())),
    (_noting_last_arc(BreakerBoxHamilton), (BREAKER, 5, 1, 3, MinInDegreePositive())),
], ids=["maker-cycle-6-1-1", "maker-cycle-4-1-2", "outstar-5-1-3", "box-5-1-3"])
def test_verifier_matches_reference_when_observe_moves_the_key(factory, args):
    r = verify_strategy_vs_all(factory, *args)
    ok, _, counterexample = reference_verify(factory, *args)
    assert (r.ok, r.counterexample) == (ok, counterexample)


# The strategy is copied only where it is about to move: every next_move
# call but Maker's first, at the root, runs on a fresh copy, and no forced
# opponent board and no verified one makes a copy.
@pytest.mark.parametrize("cls, args, copies", [
    (MakerCycle, (MAKER, 6, 1, 1, Cycle()), 1123),
    (BreakerOutStar, (BREAKER, 6, 1, 4, Cycle()), 1230),
], ids=["maker-cycle-6-1-1", "outstar-6-1-4"])
def test_verifier_copies_only_a_strategy_about_to_move(monkeypatch, cls, args, copies):
    counts = {"copies": 0, "moves": 0}
    shim = type(copy)("copy")

    def counting_deepcopy(x, memo=None):
        counts["copies"] += 1
        return copy.deepcopy(x, memo)

    shim.deepcopy = counting_deepcopy
    monkeypatch.setattr(solver, "copy", shim)

    class Counted(cls):
        def next_move(self, board, transcript):
            counts["moves"] += 1
            return super().next_move(board, transcript)

    assert verify_strategy_vs_all(Counted, *args).ok
    root_moves = 1 if args[0] == MAKER else 0
    assert counts == {"copies": copies, "moves": copies + root_moves}


# Deterministic strategies hold no generator, so copying one for a verifier
# branch clones none.  The random strategy shows the counter does count.
@pytest.mark.parametrize("cls, args", [
    (MakerCycle, (MAKER, 6, 1, 1, Cycle())),
    (BreakerOutStar, (BREAKER, 6, 1, 4, Cycle())),
], ids=["maker-cycle-6-1-1", "outstar-6-1-4"])
def test_verifier_clones_no_generator_for_deterministic_strategies(monkeypatch, cls, args):
    expected = reference_verify(cls, *args)
    calls = {"getstate": 0}
    getstate = random.Random.getstate

    def counting_getstate(self):
        calls["getstate"] += 1
        return getstate(self)

    monkeypatch.setattr(random.Random, "getstate", counting_getstate)
    r = verify_strategy_vs_all(cls, *args)
    assert calls["getstate"] == 0
    assert (r.ok, r.nodes, r.counterexample) == expected
    verify_strategy_vs_all(lambda: RandomStrategy(MAKER), MAKER, 5, 3, 2, Cycle(), seed=1)
    assert calls["getstate"] > 0


# A strategy that draws keeps its generator, and every verifier branch must
# continue a clone of its stream.
@pytest.mark.parametrize("role", [MAKER, BREAKER])
@pytest.mark.parametrize("n, q", [(4, 1), (4, 2), (5, 1), (5, 2)])
@pytest.mark.parametrize("seed", range(4))
def test_random_strategy_verifier_matches_reference(role, n, q, seed):
    def factory():
        return RandomStrategy(role)

    r = verify_strategy_vs_all(factory, role, n, 1, q, Cycle(), seed=seed)
    assert (r.ok, r.nodes, r.counterexample) == reference_verify(
        factory, role, n, 1, q, Cycle(), seed=seed)


@pytest.mark.parametrize("factory, args, memo_size", [
    (MakerCycle, (MAKER, 6, 1, 1, Cycle()), 1124),
    (BreakerOutStar, (BREAKER, 6, 1, 4, Cycle()), 1230),
], ids=["maker-cycle-6-1-1", "outstar-6-1-4"])
def test_verifier_memo_size_pinned(factory, args, memo_size):
    r = verify_strategy_vs_all(factory, *args)
    assert r.memo_size == memo_size
