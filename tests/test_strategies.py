import copy
import hashlib
import itertools
import json
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import orientgames.strategies as strategies_package
from orientgames.board import Board, pair_count
from orientgames.boxgame import breaker_bias_threshold
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
    play_game,
    replay,
    strategy_rng,
)
from orientgames.errors import CriterionUnmet, FasTooSmall, GameError
from orientgames.oracles import (
    PatternGraph,
    contains_embedding,
    extract_ck,
    fas_exact,
    find_cycle,
    is_directed_cycle,
    k_colorable,
)
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
    MakerNonKColorable,
    PotentialPlay,
    RandomStrategy,
    TemplateCutEngine,
    audit_template,
    build_strategy,
    default_expansion_size,
    generate_template,
    potential_blocker_move,
)
from orientgames.solver import verify_strategy_vs_all
from orientgames.strategies import hamilton
from orientgames.strategies.hamilton import (
    E_BREAKER,
    E_FREE,
    E_MAKER,
    DangerLedger,
    _pair_matrices,
    cut_hypergraph,
)
from orientgames.strategies.random_play import _FreePairList

from conftest import (
    ReferenceFreePairList,
    back_arcs,
    boards,
    reference_audit_template,
    reference_breaker_oriented,
    reference_pipeline_claims,
    reference_sampled_membership,
)

# Lexicographically first strongly connected 5-vertex tournament with
# FAS = 2, frozen from an exhaustive scan (no 4-vertex oriented graph
# reaches FAS 2).
FAS2_PATTERN = PatternGraph(
    5,
    frozenset(
        [(0, 2), (0, 4), (1, 0), (2, 1), (3, 0), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)]
    ),
)


def started(strategy, n=6, p=1, q=1, prop=None, seed=0):
    cfg = GameConfig(n=n, p=p, q=q, prop=prop or Cycle(), seed=seed)
    strategy.start(cfg, strategy_rng(cfg, strategy.role))
    return strategy


# ---------------------------------------------------------------------------
# maker_cycle / maker_ck
# ---------------------------------------------------------------------------


def test_maker_cycle_closes_backward_pair():
    b = Board(3)
    b.orient(0, 1)
    b.orient(1, 2)
    m = started(MakerCycle(), n=3)
    m.path = [0, 1, 2]
    move = m.next_move(b, [])
    assert move == ((2, 0),)
    assert m.closed == [0, 1, 2]


def test_maker_cycle_extension_rule():
    # Path a->b with c->b already oriented and {c,a} free: orient a->c and
    # splice, giving the path a, c, b.
    b = Board(3)
    b.orient(0, 1)
    b.orient(2, 1)
    m = started(MakerCycle(), n=3)
    m.path = [0, 1]
    move = m.next_move(b, [])
    assert move == ((0, 2),)
    assert m.path == [0, 2, 1]


def test_maker_cycle_absorbs_free_arcs():
    b = Board(4)
    b.orient(0, 1)
    b.orient(1, 2)   # breaker arc extends the path for free
    b.orient(3, 0)   # and another prepends
    m = started(MakerCycle(), n=4)
    m.path = [0, 1]
    m.next_move(b, [])
    assert m.path[0] == 3 and m.path[1] == 0


def test_maker_ck_closable_lengths():
    # Maintained path of 6 vertices at k=4: the closable back-pairs are
    # exactly those giving cycle lengths 4 or 6.
    m = MakerCk(4)
    qualifying = [
        (i, j)
        for i in range(6)
        for j in range(i + 2, 6)
        if m._qualifies(j - i + 1)
    ]
    assert qualifying == [(0, 3), (0, 5), (1, 4), (2, 5)]
    m3 = MakerCk(3)
    assert all(m3._qualifies(length) for length in range(3, 12))


def test_maker_ck3_equals_maker_cycle():
    for seed in range(5):
        cfg = GameConfig(n=8, p=1, q=1, prop=Cycle(), seed=seed, early_stop=False)
        rec_a = play_game(cfg, MakerCycle(), RandomStrategy(BREAKER))
        rec_b = play_game(
            GameConfig(n=8, p=1, q=1, prop=CycleLengthK(3), seed=seed, early_stop=False),
            MakerCk(3),
            RandomStrategy(BREAKER),
        )
        assert [m for (r, m) in rec_a.transcript if r == MAKER] == [
            m for (r, m) in rec_b.transcript if r == MAKER
        ]


def test_maker_ck_wins_and_certifies(rng):
    for seed in range(10):
        cfg = GameConfig(n=60, p=1, q=2, prop=CycleLengthK(4), seed=seed,
                         early_stop=False)
        maker = MakerCk(4)
        rec = play_game(cfg, maker, RandomStrategy(BREAKER))
        assert rec.winner == MAKER
        board = replay(rec)
        assert maker.closed is not None
        c4 = extract_ck(board, maker.closed, 4)
        assert len(c4) == 4 and is_directed_cycle(board, c4)


class CheckedMakerCycle(MakerCycle):
    """MakerCycle that checks its path after each of its own moves: the
    path is a directed path on the board and, until a cycle closes, it has
    at least one arc per Maker move."""

    def start(self, config, rng):
        super().start(config, rng)
        self.moves = 0

    def observe(self, board, role, move):
        if role == MAKER:
            self.moves += 1
            path = self.path
            assert all(board.arc(u, v) == 1 for u, v in zip(path, path[1:]))
            if self.closed is None:
                assert len(path) - 1 >= self.moves


def test_maker_cycle_path_tracks_rounds():
    for seed in range(5):
        cfg = GameConfig(n=10, p=1, q=1, prop=Cycle(), seed=seed, early_stop=False)
        maker = CheckedMakerCycle()
        rec = play_game(cfg, maker, RandomStrategy(BREAKER))
        assert rec.winner == MAKER
        assert is_directed_cycle(replay(rec), maker.closed)
        # The out-star Breaker never lets a cycle close, so the path grows
        # while the game lasts.
        cfg = GameConfig(n=10, p=1, q=8, prop=Cycle(), seed=seed, early_stop=False)
        maker = CheckedMakerCycle()
        rec = play_game(cfg, maker, BreakerOutStar())
        assert rec.winner == BREAKER and maker.closed is None
        assert len(maker.path) == 10 and find_cycle(replay(rec)) is None


# ---------------------------------------------------------------------------
# breaker_outstar
# ---------------------------------------------------------------------------


def test_outstar_reply_example():
    b = Board(4)
    strat = started(BreakerOutStar(), n=4, q=2)
    b.orient(0, 1)
    move = strat.next_move(b, [(MAKER, ((0, 1),))])
    assert move == ((0, 2), (0, 3))


def test_outstar_fallback_single_arc():
    b = Board(3)
    strat = started(BreakerOutStar(), n=3, q=1)
    b.orient(0, 1)
    b.orient(0, 2)
    move = strat.next_move(b, [(MAKER, ((0, 1),))])
    assert move == ((1, 2),)


def test_outstar_source_invariant():
    # After every Breaker turn each Maker source is a completed out-star.
    for seed in range(10):
        cfg = GameConfig(n=6, p=1, q=4, prop=Cycle(), seed=seed, early_stop=False)
        board = Board(6)
        maker, breaker = RandomStrategy(MAKER), BreakerOutStar()
        maker.start(cfg, strategy_rng(cfg, MAKER))
        breaker.start(cfg, strategy_rng(cfg, BREAKER))
        transcript = []
        while not board.is_tournament():
            for strat in (maker, breaker):
                if board.is_tournament():
                    break
                move = strat.next_move(board, transcript)
                for (u, v) in move:
                    board.orient(u, v)
                transcript.append((strat.role, move))
                maker.observe(board, strat.role, move)
                breaker.observe(board, strat.role, move)
                if strat.role == BREAKER:
                    for role, mv in transcript:
                        if role == MAKER:
                            for (u, _) in mv:
                                assert all(
                                    board.arc(u, w) != 0
                                    for w in range(6)
                                    if w != u
                                )


def test_outstar_blocks_all_cycles_in_play():
    cfg = GameConfig(n=10, p=1, q=8, prop=Cycle(), seed=3, early_stop=False)
    rec = play_game(cfg, MakerCycle(), BreakerOutStar())
    assert rec.winner == BREAKER
    assert find_cycle(replay(rec)) is None


# ---------------------------------------------------------------------------
# breaker_box pipeline
# ---------------------------------------------------------------------------


def test_breaker_box_criterion_gate():
    cfg = GameConfig(n=12, p=1, q=6, prop=MinInDegreePositive(), seed=0)
    strat = BreakerBoxHamilton()
    strat.start(cfg, strategy_rng(cfg, BREAKER))  # 12 <= 6*H_6 = 14.7
    bad = GameConfig(n=30, p=1, q=6, prop=MinInDegreePositive(), seed=0)
    with pytest.raises(CriterionUnmet):
        BreakerBoxHamilton().start(bad, strategy_rng(bad, BREAKER))


def test_breaker_box_boxes_die_on_in_arc():
    strat = started(BreakerBoxHamilton(), n=12, q=6, prop=MinInDegreePositive())
    board = Board(12)
    board.orient(7, 3)  # arc into box vertex 3
    assert strat.live_boxes(board) == {0: 6, 1: 6, 2: 6, 4: 6, 5: 6}


# Side A is 0..5, side B 6..11 at n=12, q=6.  In-arcs from A (1->0, 0->5,
# 2->3) and from B (7->4) kill boxes; 2->3 is no claim of box 2, 2->11 is.
BOX_ARCS = [(0, 5), (0, 6), (0, 9), (1, 0), (2, 3), (2, 11), (7, 4)]


def _box_board(n, arcs):
    board = Board(n)
    for arc in arcs:
        board.orient(*arc)
    return board


def test_breaker_box_claims_count_only_arcs_into_side_b():
    strat = started(BreakerBoxHamilton(), n=12, q=6, prop=MinInDegreePositive())
    assert strat.live_boxes(_box_board(12, BOX_ARCS)) == {1: 6, 2: 5}


@st.composite
def box_positions(draw):
    """A board and a bias the box Breaker accepts, sometimes above n."""
    board = draw(boards(12, tournament=False))
    low = breaker_bias_threshold(board.n) if board.n >= 2 else 1
    return board, draw(st.integers(low, board.n + 2))


@example(position=(_box_board(12, BOX_ARCS), 6))
@given(position=box_positions())
def test_breaker_box_live_boxes_match_arc_scan(position):
    board, q = position
    n = board.n
    strat = started(BreakerBoxHamilton(), n=n, q=q, prop=MinInDegreePositive())
    b = min(q, n)
    expected = {
        v: sum(board.arc(v, w) == 0 for w in range(b, n))
        for v in range(b)
        if all(board.arc(u, v) != 1 for u in range(n) if u != v)
    }
    assert strat.live_boxes(board) == expected


@st.composite
def box_schedules(draw):
    """Open items by box, often tied and sometimes 0, and a budget below,
    at or above their total."""
    open_items = draw(st.dictionaries(st.integers(0, 40), st.integers(0, 6), max_size=12))
    total = sum(open_items.values())
    where = draw(st.sampled_from(("below", "at", "above")))
    if where == "below" and total > 1:
        budget = draw(st.integers(1, total - 1))
    elif where == "above":
        budget = draw(st.integers(total + 1, total + 8))
    else:
        budget = max(total, 1)
    return open_items, budget


@example(schedule=({0: 3, 1: 3, 2: 3}, 4))  # levelling through a three-way tie
@example(schedule=({4: 1, 7: 1, 9: 1}, 2))  # boxes left at 0 by levelling
@given(schedule=box_schedules())
def test_breaker_box_claims_match_reference(schedule):
    open_items, budget = schedule
    strat = started(BreakerBoxHamilton(), n=1, q=budget, prop=MinInDegreePositive())
    want = reference_pipeline_claims(open_items, budget)
    assert strat._pipeline_claims(dict(open_items)) == want


@pytest.mark.parametrize("q", [5, 6])
def test_breaker_box_bias_above_n(q):
    # Side A is all of the board; each vertex is a box with no items.
    cfg = GameConfig(n=4, p=1, q=q, prop=MinInDegreePositive(), seed=0, early_stop=False)
    rec = play_game(cfg, RandomStrategy(MAKER), BreakerBoxHamilton())
    assert rec.forfeit is None and rec.winner == BREAKER
    assert min(replay(rec).in_degree(v) for v in range(4)) == 0


def test_breaker_box_forces_zero_indegree():
    for seed in range(10):
        cfg = GameConfig(n=12, p=1, q=6, prop=MinInDegreePositive(), seed=seed,
                         early_stop=False)
        rec = play_game(cfg, MakerGreedyAttack(range(6)), BreakerBoxHamilton())
        board = replay(rec)
        assert min(board.in_degree(v) for v in range(12)) == 0
        assert rec.winner == BREAKER


# ---------------------------------------------------------------------------
# stage 1 danger ledger
# ---------------------------------------------------------------------------


def test_danger_value_example():
    # Breaker stars v (arcs v->j), eating the in-defense options of v that
    # live at v's second-copy vertex; one Maker claim there then drops the
    # danger by 2b: 5 - 2*2*1 = 1.
    led = DangerLedger(8, bias=2)
    v = 3
    led.breaker_move([(v, j) for j in (0, 1, 2, 4, 5)])
    assert led.deg_b[8 + v] == 5
    led.maker_claim(6, v)  # orient 6->v: an in-arc for v
    assert led.deg_m[8 + v] == 1
    assert led.danger(8 + v) == 5 - 2 * 2 * 1


def test_danger_monotonicity_invariant():
    led = DangerLedger(6, bias=3)
    before = [led.danger(v) for v in range(12)]
    led.breaker_move([(0, 1)])  # blocker-side claim
    after = [led.danger(v) for v in range(12)]
    assert all(a >= b for a, b in zip(after, before))

    # A bookkeeping Maker claim (mirror already Breaker's) drops the
    # claimed edge's endpoints by exactly 2b and raises nobody.
    led2 = DangerLedger(6, bias=3)
    led2.breaker_move([(0, 2)])  # arc 0->2: edge (2, 0) joins Breaker's graph
    before = [led2.danger(v) for v in range(12)]
    kind = led2.maker_claim(0, 2)  # mirror (2, 0) is Breaker's: bookkeeping
    assert kind == "extra"
    after = [led2.danger(v) for v in range(12)]
    assert after[0] == before[0] - 2 * 3
    assert after[6 + 2] == before[6 + 2] - 2 * 3
    assert all(a <= b for a, b in zip(after, before))


def test_stage1_opening_move_is_seeded_and_lowest_tie():
    from orientgames.strategies import MakerHamilton

    cfg = GameConfig(n=40, p=1, q=4, prop=Cycle(), seed=5)
    maker = MakerHamilton(audit_samples=100)
    maker.start(cfg, strategy_rng(cfg, MAKER))
    board = Board(40)
    move = maker.next_move(board, [])
    (u, v) = move[0]
    assert u == 0  # all dangers 0: the first first-copy vertex is eased
    again = MakerHamilton(audit_samples=100)
    again.start(cfg, strategy_rng(cfg, MAKER))
    assert again.next_move(Board(40), []) == move


def test_real_claim_reduces_both_sides():
    led = DangerLedger(5, bias=1)
    kind = led.maker_claim(1, 4)
    assert kind == "real"
    assert led.deg_m[1] == 1 and led.deg_m[5 + 4] == 1
    # the mirror edge went to the opponent
    assert led.deg_b[4] == 1 and led.deg_b[5 + 1] == 1


def _scalar_pick(led):
    """Stage 1's vertex rule one vertex at a time, with the degrees
    recounted from the edge statuses."""
    n, bias, target = led.n, led.bias, led.target

    def degrees(status):
        first = [int((led.estat[i, :] == status).sum()) for i in range(n)]
        second = [int((led.estat[:, j] == status).sum()) for j in range(n)]
        return first + second

    deg_m, deg_b = degrees(E_MAKER), degrees(E_BREAKER)
    dangerous = [v for v in range(2 * n) if deg_m[v] < target and not led.starved[v]]
    if not dangerous:
        return None

    def pool(w):
        return n - deg_m[w] - deg_b[w]

    def danger(w):
        return deg_b[w] - 2 * bias * deg_m[w]

    critical = [w for w in dangerous if pool(w) <= bias * (target - deg_m[w] + 1)]
    if critical:
        return min(critical, key=lambda w: (pool(w), -danger(w), w))
    return max(dangerous, key=lambda w: (danger(w), -w))


@settings(max_examples=500)
@given(st.data())
def test_pick_vertex_matches_scalar_rule(data):
    # Bias up to 3n reaches the critical branch; bias 1 or 2 with a low
    # target reaches the plain one, whose dangers tie at 0 before any step;
    # starving or filling every vertex gives None.
    n = data.draw(st.integers(1, 8), label="n")
    bias = data.draw(st.one_of(st.integers(1, 2), st.integers(1, 3 * n)), label="bias")
    target = data.draw(st.one_of(st.none(), st.integers(1, n)), label="target")
    led = DangerLedger(n, bias, target=target)
    steps = data.draw(st.lists(st.tuples(st.booleans(), st.integers(0, n - 1),
                                         st.integers(0, n - 1)), max_size=3 * n * n),
                      label="steps")
    for maker, i, j in steps:
        if maker:
            if led.estat[i, j] == E_FREE:
                led.maker_claim(i, j)
        elif i != j:
            led.breaker_move([(i, j)])
    starved = data.draw(st.sets(st.integers(0, 2 * n - 1)), label="starved")
    led.starved[list(starved)] = True
    assert led.pick_vertex() == _scalar_pick(led)


@st.composite
def ledger_and_breaker_move(draw):
    """A DangerLedger after random Maker claims and Breaker arcs, and a
    Breaker move on distinct pairs: an out-star, an in-star (one head
    repeated) or pairs in any direction.  Mirror edges the earlier steps
    took stay taken, so some arcs of the move find their edge gone."""
    n = draw(st.integers(2, 9), label="n")
    led = DangerLedger(n, draw(st.integers(1, 3), label="bias"))
    steps = draw(st.lists(st.tuples(st.booleans(), st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=2 * n * n), label="steps")
    for maker, i, j in steps:
        if maker:
            if led.estat[i, j] == E_FREE:
                led.maker_claim(i, j)
        elif i != j:
            reference_breaker_oriented(led, [(i, j)])
    hub = draw(st.integers(0, n - 1), label="hub")
    others = [w for w in range(n) if w != hub]
    shape = draw(st.sampled_from(["out-star", "in-star", "any"]), label="shape")
    if shape == "any":
        pairs = draw(st.lists(st.sampled_from(list(itertools.combinations(range(n), 2))),
                              min_size=1, unique=True), label="pairs")
        move = [(u, v) if draw(st.booleans()) else (v, u) for (u, v) in pairs]
    else:
        ws = draw(st.lists(st.sampled_from(others), min_size=1, unique=True), label="ws")
        move = [(hub, w) if shape == "out-star" else (w, hub) for w in ws]
    return led, move


@settings(max_examples=300)
@given(ledger_and_breaker_move())
def test_breaker_move_matches_per_arc_reference(case):
    led, move = case
    ref = copy.deepcopy(led)
    led.breaker_move(move)
    reference_breaker_oriented(ref, move)
    assert np.array_equal(led.estat, ref.estat)
    assert np.array_equal(led.deg_m, ref.deg_m)
    assert np.array_equal(led.deg_b, ref.deg_b)


def test_breaker_move_counts_repeated_heads_and_skips_taken_edges():
    # An in-star into 0 repeats head 0; Maker's claim (0, 2) took the
    # edge that arc 2->0 would give Breaker.
    led = DangerLedger(4, bias=1)
    led.maker_claim(0, 2)
    led.breaker_move([(1, 0), (2, 0), (3, 0)])
    assert led.deg_b[0] == 2 and led.deg_b[4 + 1] == 1 and led.deg_b[4 + 2] == 0
    assert led.deg_b[4 + 3] == 1 and led.estat[0, 2] == E_MAKER


# ---------------------------------------------------------------------------
# stage 2 exact potential agreement (n = 12)
# ---------------------------------------------------------------------------


def build_explicit_cut_state(board, tstar, k, threat_bias):
    n = board.n
    sets = []
    for a in itertools.combinations(range(n), k):
        rest = [w for w in range(n) if w not in a]
        for b_ in itertools.combinations(rest, k):
            slots = frozenset((u, v) for u in a for v in b_ if tstar[u, v])
            if slots:
                sets.append(slots)
    elements = [(u, v) for u in range(n) for v in range(n) if tstar[u, v]]
    return HypergraphState(sets, threat_bias=threat_bias, blocker_bias=1,
                           elements=elements)


def test_stage2_exact_mode_agrees_with_potential_blocker(rng):
    n, k, q = 12, 3, 2
    tstar = generate_template(n, seed=7, audit_samples=0, k=k)
    board = Board(n)
    engine = PotentialPlay(cut_hypergraph(tstar, k, q), lambda u, v: tstar[u, v])
    mirror = build_explicit_cut_state(board, tstar, k, q)
    moves = 0
    while board.undirected_count > 40 or moves < 8:
        (choice,) = engine.move(board)
        probe = copy.deepcopy(mirror)
        expected = potential_blocker_move(probe, 1)[0]
        assert choice == expected
        # Apply the choice plus a random opposing arc.
        for arc in [choice]:
            board.orient(*arc)
            engine.observe([arc])
            if mirror.status[arc] == 0:
                mirror.claim_blocker(arc)
        pairs = board.undirected_pairs()
        if not pairs:
            break
        u, v = pairs[rng.randrange(len(pairs))]
        if rng.random() < 0.5:
            u, v = v, u
        board.orient(u, v)
        engine.observe([(u, v)])
        slot = (u, v) if tstar[u, v] else (v, u)
        if mirror.status[slot] == 0:
            if tstar[u, v]:
                mirror.claim_blocker(slot)
            else:
                mirror.claim_threat(slot)
        moves += 1
        if moves >= 14:
            break


def test_cut_hyperedge_count_formulas():
    # Upper-bound form C(n, m)^2 from the two-family construction, and the
    # exact disjoint ordered-pair count at n=12, m=3.  The materialized
    # hypergraph drops cuts with no template arc at all (nothing there for
    # the potential play to protect), so its size is the independently
    # counted number of nonempty cuts.
    import itertools

    assert math.comb(12, 3) ** 2 == 48400
    assert math.comb(12, 3) * math.comb(9, 3) == 18480
    tstar = generate_template(12, seed=3, audit_samples=0, k=3)
    nonempty = 0
    for a in itertools.combinations(range(12), 3):
        rest = [w for w in range(12) if w not in a]
        for b in itertools.combinations(rest, 3):
            if any(tstar[u, v] for u in a for v in b):
                nonempty += 1
    assert len(cut_hypergraph(tstar, 3, threat_bias=1).sets) == nonempty
    assert nonempty <= 18480


# ---------------------------------------------------------------------------
# maker_nonkcolorable
# ---------------------------------------------------------------------------


def test_nonkcolorable_moves_agree_with_template():
    cfg = GameConfig(n=12, p=1, q=1, prop=NonKColorable(2), seed=1, early_stop=False)
    maker = MakerNonKColorable(2)
    rec = play_game(cfg, maker, RandomStrategy(BREAKER))
    tstar = maker.tstar
    for role, move in rec.transcript:
        if role == MAKER:
            for (u, v) in move:
                assert tstar[u, v]


def test_nonkcolorable_beats_random_breaker():
    wins = 0
    for seed in range(10):
        cfg = GameConfig(n=12, p=1, q=1, prop=NonKColorable(2), seed=seed,
                         early_stop=False)
        rec = play_game(cfg, MakerNonKColorable(2), RandomStrategy(BREAKER))
        wins += k_colorable(replay(rec), 2) is None
    assert wins >= 9


# ---------------------------------------------------------------------------
# breaker_sigma
# ---------------------------------------------------------------------------


def test_sigma_refuses_small_fas():
    with pytest.raises(FasTooSmall):
        BreakerSigmaPotential(PatternGraph.cycle(3))


def test_fas2_pattern_is_what_we_think():
    value, _ = fas_exact(FAS2_PATTERN)
    assert value == 2
    assert FAS2_PATTERN.is_tournament()


def test_sigma_plays_forward_and_blocks():
    blocked = 0
    for seed in range(10):
        cfg = GameConfig(n=7, p=1, q=20, prop=ContainsH(FAS2_PATTERN), seed=seed,
                         early_stop=False)
        rec = play_game(cfg, MakerGreedyEmbedding(FAS2_PATTERN), BreakerSigmaPotential(FAS2_PATTERN))
        board = replay(rec)
        for role, move in rec.transcript:
            if role == BREAKER:
                for (u, v) in move:
                    assert u < v  # identity ordering: forward arcs only
        phi = contains_embedding(board, FAS2_PATTERN)
        if phi is None:
            blocked += 1
        else:
            # any copy must take >= FAS(H) arcs backward under sigma
            ranks = [phi[i] for i in range(5)]
            embedded = PatternGraph(
                5, frozenset((u, v) for (u, v) in FAS2_PATTERN.arcs)
            )
            back = back_arcs(embedded, [sorted(ranks).index(r) for r in ranks])
            assert back >= 2
    assert blocked == 10


def test_sigma_breaker_arcs_are_acyclic():
    cfg = GameConfig(n=7, p=1, q=20, prop=ContainsH(FAS2_PATTERN), seed=0,
                     early_stop=False)
    rec = play_game(cfg, RandomStrategy(MAKER), BreakerSigmaPotential(FAS2_PATTERN))
    sub = Board(7)
    for role, move in rec.transcript:
        if role == BREAKER:
            for (u, v) in move:
                sub.orient(u, v)
    assert find_cycle(sub) is None


# ---------------------------------------------------------------------------
# random baselines
# ---------------------------------------------------------------------------


def test_random_strategy_deterministic_per_seed():
    def run(seed):
        cfg = GameConfig(n=7, p=1, q=2, prop=Cycle(), seed=seed, early_stop=False)
        return play_game(cfg, RandomStrategy(MAKER), RandomStrategy(BREAKER)).transcript

    assert run(4) == run(4)
    assert run(4) != run(5)


def test_random_strategy_exhausts_board():
    cfg = GameConfig(n=4, p=3, q=3, prop=Cycle(), seed=0, early_stop=False)
    rec = play_game(cfg, RandomStrategy(MAKER), RandomStrategy(BREAKER))
    assert replay(rec).is_tournament()


def test_random_maker_wins_cycle_at_bias_one():
    for seed in range(10):
        cfg = GameConfig(n=40, p=1, q=1, prop=Cycle(), seed=seed)
        rec = play_game(cfg, RandomStrategy(MAKER), RandomStrategy(BREAKER))
        assert rec.winner == MAKER


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def test_build_strategy_ids(tmp_path):
    assert isinstance(build_strategy("maker-cycle"), MakerCycle)
    assert isinstance(build_strategy("maker-ck:4"), MakerCk)
    assert build_strategy("maker-random").role == MAKER
    assert build_strategy("breaker-random").role == BREAKER
    pattern_file = tmp_path / "h.tour"
    pattern_file.write_text(FAS2_PATTERN.to_text())
    strat = build_strategy(f"breaker-sigma:{pattern_file}")
    assert isinstance(strat, BreakerSigmaPotential)
    from orientgames.errors import UnknownStrategy

    with pytest.raises(UnknownStrategy):
        build_strategy("maker-unknown")
    with pytest.raises(UnknownStrategy):
        build_strategy("breaker-sigma:/nonexistent/file")
    with pytest.raises(UnknownStrategy, match="needs a pattern file"):
        build_strategy("breaker-sigma")


@pytest.mark.parametrize("spec,message", [("maker-ck:2", "cycle target must be >= 3"),
                                          ("maker-nonkcol:0", "k must be >= 1")])
def test_build_strategy_refuses_a_bad_parameter_with_a_game_error(spec, message):
    # Both used to raise a bare ValueError.
    with pytest.raises(GameError, match=message):
        build_strategy(spec)


# Every id build_strategy knows, with a small game it can play.  Only the
# strategies that draw keep the generator start() hands them.
DETERMINISTIC_IDS = [
    ("maker-cycle", dict(n=6, q=1, prop=Cycle())),
    ("maker-ck:3", dict(n=6, q=1, prop=CycleLengthK(3))),
    ("maker-nonkcol:2", dict(n=8, q=1, prop=NonKColorable(2))),
    ("breaker-outstar", dict(n=5, q=3, prop=Cycle())),
    ("breaker-box", dict(n=8, q=4, prop=MinInDegreePositive())),
    ("breaker-sigma", dict(n=7, q=20, prop=ContainsH(FAS2_PATTERN))),
    ("breaker-greedy-star", dict(n=8, q=2, prop=MinInDegreePositive())),
]
DRAWING_IDS = [
    ("maker-random", dict(n=6, q=1, prop=Cycle())),
    ("breaker-random", dict(n=6, q=1, prop=Cycle())),
    ("maker-hamilton", dict(n=10, q=1, prop=Hamiltonicity())),
]


def built(spec, tmp_path):
    if spec == "breaker-sigma":
        pattern_file = tmp_path / "h.tour"
        pattern_file.write_text(FAS2_PATTERN.to_text())
        spec = f"breaker-sigma:{pattern_file}"
    return build_strategy(spec)


def test_generator_tests_cover_every_id():
    # The ids are the ones listed in the strategies package docstring.
    listed = {line.split()[0].partition(":")[0]
              for line in strategies_package.__doc__.splitlines() if line.startswith("    ")}
    assert {spec.partition(":")[0] for spec, _ in DETERMINISTIC_IDS + DRAWING_IDS} == listed


@pytest.mark.parametrize("spec, game", DETERMINISTIC_IDS, ids=[s for s, _ in DETERMINISTIC_IDS])
def test_deterministic_strategies_keep_no_generator(tmp_path, spec, game):
    s = built(spec, tmp_path)
    cfg = GameConfig(p=1, seed=0, **game)
    s.start(cfg, strategy_rng(cfg, s.role))
    assert "rng" not in vars(s)
    # A game calls next_move and observe; one that read self.rng would raise.
    opponent = RandomStrategy(BREAKER if s.role == MAKER else MAKER)
    pair = (s, opponent) if s.role == MAKER else (opponent, s)
    rec = play_game(cfg, *pair)
    assert rec.forfeit is None
    assert "rng" not in vars(s)


@pytest.mark.parametrize("spec, game", DRAWING_IDS, ids=[s for s, _ in DRAWING_IDS])
def test_drawing_strategies_keep_their_generator(tmp_path, spec, game):
    s = built(spec, tmp_path)
    cfg = GameConfig(p=1, seed=0, **game)
    rng = strategy_rng(cfg, s.role)
    s.start(cfg, rng)
    assert vars(s)["rng"] is rng


def test_maker_cycle_guaranteed_range_large_board():
    # At n=50 the cycle guarantee covers biases up to n/2 - 2 = 23.
    for bias in (10, 23):
        for seed in range(3):
            cfg = GameConfig(n=50, p=1, q=bias, prop=Cycle(), seed=seed,
                             early_stop=False)
            rec = play_game(cfg, MakerCycle(), RandomStrategy(BREAKER))
            assert rec.winner == MAKER, (bias, seed)


# ---------------------------------------------------------------------------
# template audit
# ---------------------------------------------------------------------------


def planted_one_way_cut(n):
    """Every arc from the low half to the high half; inside a half i->j
    (i < j) iff j - i is odd, so every vertex has arcs in and out."""
    adj = np.zeros((n, n), dtype=bool)
    half = n // 2
    for u in range(n):
        for v in range(u + 1, n):
            if u < half <= v or (v - u) % 2:
                adj[u, v] = True
            else:
                adj[v, u] = True
    return adj


def transitive(n):
    return np.triu(np.ones((n, n), dtype=bool), 1)


@pytest.mark.parametrize("adj,k", [(planted_one_way_cut(20), 2), (planted_one_way_cut(20), 5),
                                   (transitive(12), 2)])
def test_audit_finds_one_way_cut(adj, k):
    assert not audit_template(adj, k, 10_000, np.random.default_rng(0))


def test_audit_passes_random_tournament():
    adj = generate_template(40, seed=1, audit_samples=0)
    assert audit_template(adj, 15, 10_000, np.random.default_rng(0))


def test_audit_block_check_settles_missed_probes():
    # Each 2+2 cut of this strong 4-tournament has a single slot one way,
    # so about one sample in a hundred misses it with every probe; the
    # exact block check must still see the arc.
    adj = np.zeros((4, 4), dtype=bool)
    for u, v in [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)]:
        adj[u, v] = True
    assert audit_template(adj, 2, 10_000, np.random.default_rng(0))


def test_audit_without_samples_draws_nothing():
    rng = np.random.default_rng(0)
    assert audit_template(planted_one_way_cut(20), 2, 0, rng)
    assert rng.random() == np.random.default_rng(0).random()


def _draws(audit, adj, k, samples=1_000):
    """The audit's answer, and whether it drew from its generator."""
    rng = np.random.default_rng(0)
    ok = audit(adj, k, samples, rng)
    return ok, rng.random() != np.random.default_rng(0).random()


@pytest.mark.parametrize("adj,k", [(planted_one_way_cut(20), 2), (planted_one_way_cut(20), 5)])
def test_audit_samples_a_one_way_cut(adj, k):
    # Two vertices of A share all of B as in-neighbours, so the common
    # in-neighbour bound cannot settle these: they reach the samples.
    assert _draws(audit_template, adj, k) == (False, True)


def test_audit_refuses_a_source_before_anything():
    # A transitive tournament has a source, refused before the bound or
    # any sample, as the sampled-only audit did.
    assert _draws(audit_template, transitive(12), 2) == (False, False)
    assert _draws(reference_audit_template, transitive(12), 2) == (False, False)


def test_audit_bound_needs_a_tournament():
    # Two disjoint directed 10-cycles: no two vertices share an
    # in-neighbour, so the bound alone would pass them, yet a 2-set of
    # each cycle is a cut with no arc either way.
    adj = np.zeros((20, 20), dtype=bool)
    for i in range(20):
        adj[i, i + 1 if i % 10 < 9 else i - 9] = True
    common = adj.T.astype(int) @ adj
    np.fill_diagonal(common, 0)
    assert common.max() == 0
    assert _draws(audit_template, adj, 2) == (False, True)
    assert _draws(reference_audit_template, adj, 2) == (False, True)


def _paley7():
    """The quadratic-residue tournament on 7 vertices: every two vertices
    have exactly one common in-neighbour."""
    b = Board(7)
    for u in range(7):
        for v in range(u + 1, 7):
            b.orient(*((u, v) if (v - u) % 7 in (1, 2, 4) else (v, u)))
    return b


@settings(max_examples=200)
@given(board=boards(9, tournament=True))
@example(board=_paley7())
def test_audit_bound_is_sound(board):
    n = board.n
    adj = np.zeros((n, n), dtype=bool)
    for (u, v) in board.arcs():
        adj[u, v] = True
    common = max((sum(adj[w, a] and adj[w, b] for w in range(n))
                  for a, b in itertools.combinations(range(n), 2)), default=0)
    has_source_or_sink = any(not adj[:, v].any() or not adj[v].any() for v in range(n))
    for k in range(2, n // 2 + 1):
        ok, drew = _draws(audit_template, adj, k)
        ref_ok, ref_drew = _draws(reference_audit_template, adj, k)
        assert ok == ref_ok
        if has_source_or_sink:
            assert (ok, drew, ref_drew) == (False, False, False)
        elif common < k:
            # The bound fired: nothing drawn, and no cut of disjoint
            # k-sets is one-way.
            assert (ok, drew) == (True, False)
            for a in itertools.combinations(range(n), k):
                rest = [w for w in range(n) if w not in a]
                for b in itertools.combinations(rest, k):
                    assert adj[np.ix_(a, b)].any()
        else:
            assert drew and ref_drew


# Sizes where the bound fires (400 at the default k, 100 at k=45), where
# the samples pass (20, 40), and where tries fail (12 at k=3: every
# try on seeds 0 and 1).
TEMPLATE_GRID = [(12, 3), (20, 4), (40, 15), (100, 45), (400, None)]


@pytest.mark.parametrize("n,k", TEMPLATE_GRID)
@pytest.mark.parametrize("seed", [0, 1, 2**40 + 7])
def test_template_matches_sampled_only_audit(monkeypatch, n, k, seed):
    def generate():
        try:
            return generate_template(n, seed, k=k)
        except CriterionUnmet:
            return None

    proved = generate()
    monkeypatch.setattr(hamilton, "audit_template", reference_audit_template)
    sampled = generate()
    assert (proved is None) == (sampled is None)
    assert proved is None or np.array_equal(proved, sampled)


# generate_template(400, seed) at the default k, which audits, as packed
# adjacency hashes; captured while the audit still drew one sample at a time.
PINNED_TEMPLATES = {0: "d2aab19537c3d06e", 1: "bc269aa895d53396", 2: "afce67d6dee8dfe9"}


@pytest.mark.parametrize("seed", sorted(PINNED_TEMPLATES))
def test_template_n400_pinned(seed):
    adj = generate_template(400, seed)
    assert hashlib.sha256(np.packbits(adj).tobytes()).hexdigest()[:16] == PINNED_TEMPLATES[seed]


# ---------------------------------------------------------------------------
# greedy star
# ---------------------------------------------------------------------------


def greedy_star_reference(board, q):
    """BreakerGreedyStar's rule as first written: rebuild the keys, then
    rescan every vertex for each next target."""
    n = board.n
    ins = [board.in_degree(v) for v in range(n)]
    free = [n - 1 - board.out_degree(v) - ins[v] for v in range(n)]
    arcs = []
    budget = q
    excluded = set()
    claimed = set()
    while budget > 0:
        candidates = [(ins[v], free[v], v) for v in range(n) if v not in excluded and free[v]]
        if not candidates:
            break
        target = min(candidates)[2]
        for w in board.undirected_neighbors(target):
            if budget == 0:
                break
            pair = (min(target, w), max(target, w))
            if pair in claimed:
                continue
            arcs.append((target, w))
            claimed.add(pair)
            budget -= 1
        excluded.add(target)
    return tuple(arcs)


@settings(max_examples=300)
@given(st.data())
def test_greedy_star_matches_reference_rule(data):
    board = data.draw(boards(12, False), label="board")
    q = data.draw(st.integers(1, max(1, pair_count(board.n))), label="q")
    breaker = started(BreakerGreedyStar(), n=board.n, q=q)
    assert breaker.next_move(board, []) == greedy_star_reference(board, q)


# ---------------------------------------------------------------------------
# random play's free-pair list
# ---------------------------------------------------------------------------


class CheckedRandom(RandomStrategy):
    """RandomStrategy that checks its free list against the board after
    every half-turn it observes, its own and the opponent's."""

    def start(self, config, rng):
        super().start(config, rng)
        self.checks = 0

    def observe(self, board, role, move):
        super().observe(board, role, move)
        assert sorted(self.free.pairs) == board.undirected_pairs(), (role, move)
        self.checks += 1


@pytest.mark.parametrize("opponent, n, q", [
    ("breaker-random", 9, 3), ("breaker-outstar", 9, 7), ("breaker-greedy-star", 9, 4),
    ("breaker-random", 30, 11),
])
@pytest.mark.parametrize("seed", range(3))
def test_random_free_list_tracks_the_board(opponent, n, q, seed):
    # next_move takes its own pairs off the list and observe skips them, so
    # the list must still be exactly the board's undirected pairs.
    cfg = GameConfig(n=n, p=1, q=q, prop=Cycle(), seed=seed, early_stop=False)
    maker = CheckedRandom(MAKER)
    breaker = CheckedRandom(BREAKER) if opponent == "breaker-random" else build_strategy(opponent)
    rec = play_game(cfg, maker, breaker)
    assert rec.forfeit is None and maker.checks == len(rec.transcript)
    if opponent == "breaker-random":
        assert breaker.checks == len(rec.transcript)


@pytest.mark.parametrize("role, p, q", [(MAKER, 3, 2), (BREAKER, 1, 2)])
def test_random_free_list_tracks_the_board_in_the_verifier(role, p, q):
    # The verifier copies the strategy at each branch and shows it both
    # sides' moves; every copy's list must match its own board.
    res = verify_strategy_vs_all(lambda: CheckedRandom(role), role, 5 if role == MAKER else 4,
                                 p, q, Cycle())
    assert res.nodes > 0


@settings(max_examples=200)
@given(st.data())
def test_free_pair_list_matches_reference(data):
    # A step is a removal, or None for a sample.  Removals come in either
    # argument order and may repeat a removed pair; both sides sample
    # from one seed, so equal lists must also draw equal pairs.
    n = data.draw(st.integers(2, 12), label="n")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    steps = data.draw(st.lists(st.none() | pair, max_size=3 * pair_count(n)), label="steps")
    fast, ref = _FreePairList(n), ReferenceFreePairList(n)
    fast_rng, ref_rng = random.Random(seed), random.Random(seed)
    assert fast.pairs == ref.pairs
    for step in steps:
        if step is None:
            if len(ref):
                assert fast.sample(fast_rng) == ref.sample(ref_rng)
        else:
            fast.remove(*step)
            ref.remove(*step)
        assert fast.pairs == ref.pairs and len(fast) == len(ref)


@pytest.mark.parametrize("n, k, seed", [(12, 3, 0), (12, 7, 1), (40, 8, 5), (400, 53, 2**40 + 7),
                                         (400, default_expansion_size(400), 0)])
def test_sampled_cuts_match_per_sample_permutations(n, k, seed):
    # One permuted() over all rows draws what a permutation() per row drew;
    # (12, 7) has no two disjoint 7-sets, so no samples.
    tstar = generate_template(n, seed, audit_samples=0, k=k)
    engine = TemplateCutEngine(Board(n), tstar, k, threat_bias=3, seed=seed)
    a_mem, b_mem = reference_sampled_membership(n, k, seed)
    assert np.array_equal(engine.a_mem, a_mem) and np.array_equal(engine.b_mem, b_mem)


@settings(max_examples=100)
@given(board=boards(12, tournament=False))
def test_pair_matrices_match_pair_loops(board):
    n = board.n
    und = np.zeros((n, n), dtype=bool)
    for (u, v) in board.undirected_pairs():
        und[u, v] = und[v, u] = True
    fwd = np.zeros((n, n), dtype=bool)
    for (u, v) in board.arcs():
        fwd[u, v] = True
    got_und, got_fwd = _pair_matrices(board)
    assert np.array_equal(got_und, und) and np.array_equal(got_fwd, fwd)


def test_stage2_config_formulas():
    from orientgames.strategies.hamilton import default_expansion_size

    n = 400
    assert default_expansion_size(n) == math.ceil(n / math.log(n) ** 0.4)
    cfg = GameConfig(n=40, p=1, q=4, prop=Cycle(), seed=0)
    from orientgames.strategies import MakerHamilton

    maker = MakerHamilton(audit_samples=50)
    maker.start(cfg, strategy_rng(cfg, MAKER))
    assert maker.round_cap == 8 * 40
    assert maker.k == default_expansion_size(40)


def test_sigma_sampled_branch_plays_legally():
    # Beyond the exact cap the blocker runs on a seeded sample of winning
    # sets; the game must still run with all arcs forward.
    cfg = GameConfig(n=12, p=1, q=8, prop=ContainsH(FAS2_PATTERN), seed=0,
                     early_stop=False)
    rec = play_game(cfg, RandomStrategy(MAKER), BreakerSigmaPotential(FAS2_PATTERN))
    for role, move in rec.transcript:
        if role == BREAKER:
            assert all(u < v for (u, v) in move)


def test_sigma_plays_a_pattern_larger_than_the_board():
    # Four disjoint directed triangles: t = 12, FAS 4.  At n = 11 the board
    # has no copy to sample, so the Breaker plays with no winning set.
    triangles = PatternGraph(12, frozenset(
        (3 * i + j, 3 * i + (j + 1) % 3) for i in range(4) for j in range(3)))
    assert fas_exact(triangles)[0] == 4
    cfg = GameConfig(n=11, p=1, q=2, prop=ContainsH(triangles), seed=0, early_stop=False)
    rec = play_game(cfg, RandomStrategy(MAKER), BreakerSigmaPotential(triangles))
    assert rec.forfeit is None and rec.winner == BREAKER
    assert all(u < v for role, move in rec.transcript if role == BREAKER for (u, v) in move)


def test_breaker_box_threshold_gate_at_n200():
    t = breaker_bias_threshold(200)
    cfg_low = GameConfig(n=200, p=1, q=t - 1, prop=MinInDegreePositive(), seed=0)
    with pytest.raises(CriterionUnmet):
        BreakerBoxHamilton().start(cfg_low, strategy_rng(cfg_low, BREAKER))
    cfg_ok = GameConfig(n=200, p=1, q=t, prop=MinInDegreePositive(), seed=0)
    BreakerBoxHamilton().start(cfg_ok, strategy_rng(cfg_ok, BREAKER))


# ---------------------------------------------------------------------------
# seeded records, pinned
# ---------------------------------------------------------------------------


def _records_hash(make_maker, n, q, prop, make_breaker, seeds=range(5), early_stop=False):
    """sha256 over every seed's round digests, verdict and Maker stats."""
    docs = []
    for seed in seeds:
        cfg = GameConfig(n=n, p=1, q=q, prop=prop, seed=seed, early_stop=early_stop,
                         keep_digests=True)
        maker = make_maker()
        rec = play_game(cfg, maker, make_breaker())
        docs.append({
            "digests": rec.digests,
            "winner": rec.winner,
            "rounds": rec.rounds,
            "forced_round": rec.forced_round,
            "forfeit": rec.forfeit,
            "stats": getattr(maker, "stats", None),
        })
    return hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()[:16]


# Captured before the stage-1 pick and the stage-2 cut memberships were
# vectorised; any change here is a change to seeded play.  q=8 at n=40 and
# q=11 at n=60 are criterion 9's floor(0.8 n / ln n): stage 1 runs mostly
# on critical vertices and rarely hands off.  At q=3 stage 1 hands off on
# plain danger ranking, and k=8 makes stage 2 sample 4096 cuts (the
# default k leaves no two disjoint k-sets at n=60).  MakerNonKColorable
# tracks cuts exactly at n=12 and samples them at n=15; at q >= 2 its
# exact cut weights are floats.
PINNED_RECORDS = [
    ("hamilton", 40, 8, "random", "c3b567329edf977c"),
    ("hamilton", 40, 8, "greedy-star", "c3d917a00362c076"),
    ("hamilton", 60, 11, "random", "d22f223df4c2f675"),
    ("hamilton", 60, 11, "greedy-star", "2b522526747f01a8"),
    ("hamilton-k8", 60, 3, "random", "ed081b40da3e4a8c"),
    ("hamilton-k8", 60, 3, "greedy-star", "2461c0ca6f55f1f6"),
    ("nonkcol", 12, 1, "random", "a35ac3bdc38c9957"),
    ("nonkcol", 15, 1, "random", "a59f35f5c0eea8ff"),
    ("nonkcol", 12, 2, "random", "31741749784204d0"),
    ("nonkcol", 12, 3, "random", "a0e2ea8d33944c33"),
    ("nonkcol", 12, 2, "greedy-star", "d5c4913ca27b15b5"),
]


@pytest.mark.parametrize("maker,n,q,breaker,expected", PINNED_RECORDS)
def test_seeded_records_pinned(maker, n, q, breaker, expected):
    make_breaker = {
        "random": lambda: RandomStrategy(BREAKER),
        "greedy-star": BreakerGreedyStar,
    }[breaker]
    if maker == "nonkcol":
        make_maker, prop = (lambda: MakerNonKColorable(2)), NonKColorable(2)
    else:
        k = 8 if maker == "hamilton-k8" else None
        make_maker, prop = (lambda: MakerHamilton(k=k)), Hamiltonicity()
    assert _records_hash(make_maker, n, q, prop, make_breaker) == expected


# Cycle games with early stop, captured while every early-stop check still
# judged the board from scratch.  The out-star rows run to the final
# tournament through Breaker batches of up to n-2 arcs; the random rows
# stop at a forced_round, closed by batches of one or three arcs.
PINNED_EARLY_STOP_RECORDS = [
    ("outstar", 8, 6, "ac2474aa53dd8f30"),
    ("outstar", 12, 10, "b7d415709bc44e0f"),
    ("random", 8, 1, "258f2c1cd62188eb"),
    ("random", 8, 3, "3e3e69af731b7e4f"),
    ("random", 12, 1, "b08fc860a89d17b3"),
    ("random", 12, 3, "87fd3275383ac330"),
]


@pytest.mark.parametrize("breaker,n,q,expected", PINNED_EARLY_STOP_RECORDS)
def test_early_stop_records_pinned(breaker, n, q, expected):
    make_breaker = {
        "outstar": BreakerOutStar,
        "random": lambda: RandomStrategy(BREAKER),
    }[breaker]
    got = _records_hash(lambda: RandomStrategy(MAKER), n, q, Cycle(), make_breaker,
                        early_stop=True)
    assert got == expected


# The box Breaker, captured before it read its boxes off the board.  The
# first row is early-stop-n100's box pairing; the other two run without
# early stop into the endgame star and the fallback pair.
PINNED_BOX_RECORDS = [
    ("random", 100, 30, MinInDegreePositive(), True, "03b5f10c82fa397b"),
    ("greedy-attack", 12, 6, MinInDegreePositive(), False, "d317b82b480bb57d"),
    ("random", 40, 13, Hamiltonicity(), False, "4e20ce5fd1e3e98f"),
]


@pytest.mark.parametrize("maker,n,q,prop,early_stop,expected", PINNED_BOX_RECORDS)
def test_box_records_pinned(maker, n, q, prop, early_stop, expected):
    make_maker = {
        "random": lambda: RandomStrategy(MAKER),
        "greedy-attack": lambda: MakerGreedyAttack(range(6)),
    }[maker]
    got = _records_hash(make_maker, n, q, prop, BreakerBoxHamilton, early_stop=early_stop)
    assert got == expected


# The sigma Breaker's potential play, captured while its scores were still
# Fractions: n=8 scores the exact set family, n=12 the seeded sample.
PINNED_SIGMA_RECORDS = [
    ("random", 8, 3, "6eb0314971e7a11f"),
    ("greedy-embedding", 8, 3, "c025dff61d614bf3"),
    ("random", 12, 8, "2d17f7387dbcd51a"),
    ("greedy-embedding", 12, 8, "0ccfbe823300e58f"),
]


@pytest.mark.parametrize("maker,n,q,expected", PINNED_SIGMA_RECORDS)
def test_sigma_records_pinned(maker, n, q, expected):
    make_maker = {
        "random": lambda: RandomStrategy(MAKER),
        "greedy-embedding": lambda: MakerGreedyEmbedding(FAS2_PATTERN),
    }[maker]
    got = _records_hash(make_maker, n, q, ContainsH(FAS2_PATTERN),
                        lambda: BreakerSigmaPotential(FAS2_PATTERN))
    assert got == expected
