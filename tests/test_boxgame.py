import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orientgames.boxgame import (
    BOX_BREAKER,
    BOX_MAKER,
    CLASSIC,
    SOLVE_MAX_B,
    SOLVE_MAX_K,
    SOLVE_MAX_R,
    TWOBOX,
    BoxGameState,
    box_maker_move,
    breaker_bias_threshold,
    cz_criterion,
    harmonic,
    solve_box_game,
    two_box_criterion,
    verify_box_strategy,
)
from orientgames.errors import AllDestroyed, BudgetExceeded

from conftest import ReferenceBoxGameState, reference_box_maker_move

BUDGET = [(r, k, b) for r in range(1, 6) for k in range(1, 5) for b in range(1, 4)]

# Cells where the harmonic criterion holds but exhaustive minimax says
# Box-Breaker wins: the criterion is the asymptotic form and fails at
# integer-tight corners (b=1 can never finish a k=2 box, etc.).
KNOWN_CLASSIC_GAPS = {(4, 2, 1), (5, 2, 1)}
KNOWN_TWOBOX_GAPS = {(2, 1, 2), (2, 1, 3), (3, 2, 3)}


def test_harmonic_values():
    assert harmonic(1) == 1
    assert harmonic(2) == Fraction(3, 2)
    assert harmonic(4) == Fraction(25, 12)
    assert isinstance(harmonic(10_001), float)
    assert abs(harmonic(10_001) - (math.log(10_001) + 0.5772156649)) < 1e-3


def test_criteria_examples():
    assert cz_criterion(2, 1, 1)            # 1 <= 1.5
    assert not two_box_criterion(2, 1, 1)   # 2 <= 1.5 fails
    assert two_box_criterion(64, 20, 10)    # 30 <= 10*H_64 ~ 47.44
    assert 12 <= 6 * harmonic(6)            # the n=12, b=6 pipeline gate


def test_box_maker_move_examples():
    st = BoxGameState(sizes=[1, 1])
    claims = box_maker_move(st, 1)
    assert claims == [(0, "real")]
    assert st.completed_count() == 1

    # Sizes (3, 1, 2) at b=2: finish box 1, then balance into the largest
    # deficit (box 0).  The fewest-unclaimed rule would pick box 2 instead,
    # but that realization provably loses winnable games.
    st = BoxGameState(sizes=[3, 1, 2])
    claims = box_maker_move(st, 2)
    assert claims == [(1, "real"), (0, "real")]


def test_box_maker_move_real_before_virtual():
    st = BoxGameState(sizes=[2], virtual_pad=2)
    claims = box_maker_move(st, 3)
    assert [kind for (_, kind) in claims] == ["real", "real", "virtual"]


def test_box_maker_move_all_destroyed():
    st = BoxGameState(sizes=[1])
    st.destroy(0)
    with pytest.raises(AllDestroyed):
        box_maker_move(st, 1)


def test_solver_trivials():
    assert solve_box_game(2, 1, 1, "twobox") == BOX_BREAKER
    assert solve_box_game(1, 1, 1, "classic") == BOX_MAKER
    assert solve_box_game(1, 3, 3, "classic") == BOX_MAKER
    assert solve_box_game(1, 4, 3, "classic") == BOX_BREAKER
    with pytest.raises(BudgetExceeded):
        solve_box_game(7, 1, 1)


def test_solver_monotonicity():
    for variant in ("classic", "twobox"):
        for (r, k, b) in BUDGET:
            if solve_box_game(r, k, b, variant) == BOX_MAKER:
                if k > 1:
                    assert solve_box_game(r, k - 1, b, variant) == BOX_MAKER
                assert solve_box_game(r, k, b + 1, variant) == BOX_MAKER


def test_strategy_exactly_matches_minimax():
    # Strongest certification available: the realized strategy wins
    # precisely the positions minimax says Box-Maker wins.
    for variant in ("classic", "twobox"):
        for (r, k, b) in BUDGET:
            won, _ = verify_box_strategy(r, k, b, variant)
            assert won == (solve_box_game(r, k, b, variant) == BOX_MAKER)


def test_criterion_implication_with_known_corners():
    # The harmonic criteria imply a Box-Maker win except at the frozen
    # integer-tight corners, where minimax itself loses.
    classic_gaps = set()
    twobox_gaps = set()
    for (r, k, b) in BUDGET:
        if cz_criterion(r, k, b) and solve_box_game(r, k, b, "classic") != BOX_MAKER:
            classic_gaps.add((r, k, b))
        if two_box_criterion(r, k, b) and solve_box_game(r, k, b, "twobox") != BOX_MAKER:
            twobox_gaps.add((r, k, b))
    assert classic_gaps == KNOWN_CLASSIC_GAPS
    assert twobox_gaps == KNOWN_TWOBOX_GAPS


def test_twobox_padded_win_implies_two_real():
    for (r, k, b) in BUDGET:
        if two_box_criterion(r, k, b):
            won, claim_ok = verify_box_strategy(r, k, b, "twobox")
            if won:
                assert claim_ok


def test_breaker_bias_threshold_values():
    assert breaker_bias_threshold(2) == 2
    assert breaker_bias_threshold(100) == 26
    assert 25 * harmonic(25) < 100 <= 26 * harmonic(26)


def test_breaker_bias_threshold_large_rate():
    # Frozen regression value: the minimal b with b*H_b >= 10^6 and the
    # t*ln(n)/n rate it implies; the rate approaches 1 only around
    # n ~ e^32, far beyond any scan.
    t = breaker_bias_threshold(10 ** 6)
    assert t == 83929
    ratio = t * math.log(10 ** 6) / 10 ** 6
    assert abs(ratio - 1.1595) < 0.001


def test_box_maker_move_spends_full_budget():
    st = BoxGameState(sizes=[3, 3, 3])
    claims = box_maker_move(st, 2)
    assert len(claims) == 2
    st2 = BoxGameState(sizes=[1])
    claims = box_maker_move(st2, 4)  # only one item remains
    assert len(claims) == 1


# solve_box_game and verify_box_strategy over the whole solver budget, as
# first computed: one row per r, one group per k, one letter per b.
# "M": the solver's winner is Box-Maker and the strategy wins every line;
# "B": the solver's winner is Box-Breaker and the strategy loses a line;
# "x": as "B", and on some line a padded win left fewer than two real
# boxes complete (claim_ok is False).
BOX_CELLS = {"M": (BOX_MAKER, True, True), "B": (BOX_BREAKER, False, True),
             "x": (BOX_BREAKER, False, False)}
BOX_PINS = {
    CLASSIC: [
        "MMMM BMMM BBMM BBBM BBBB",
        "MMMM BMMM BMMM BBMM BBBM",
        "MMMM BMMM BMMM BBMM BBMM",
        "MMMM BMMM BMMM BMMM BBMM",
        "MMMM BMMM BMMM BMMM BBMM",
        "MMMM BMMM BMMM BMMM BBMM",
    ],
    TWOBOX: [
        "BBBB BBBB BBBB BBBB BBBB",
        "BBBB BBBB BBBB BBBB BBBB",
        "xMMM BxxM BBxx BBBx BBBB",
        "MMMM BMMM BBMM BBxM BBBx",
        "MMMM BMMM BxMM BBxM BBBM",
        "MMMM BMMM BMMM BBMM BBxM",
    ],
}


@pytest.mark.parametrize("variant", [CLASSIC, TWOBOX])
def test_box_results_pinned(variant):
    codes = {cell: code for code, cell in BOX_CELLS.items()}
    got = [
        " ".join(
            "".join(
                codes.get((solve_box_game(r, k, b, variant),)
                          + verify_box_strategy(r, k, b, variant), "?")
                for b in range(1, SOLVE_MAX_B + 1)
            )
            for k in range(1, SOLVE_MAX_K + 1)
        )
        for r in range(1, SOLVE_MAX_R + 1)
    ]
    assert got == BOX_PINS[variant]


def same_state(state, ref):
    boxes = range(len(ref.sizes))
    assert [state.deficit(i) for i in boxes] == [ref.deficit(i) for i in boxes]
    assert [state.real_deficit(i) for i in boxes] == [ref.real_deficit(i) for i in boxes]
    assert state.live_incomplete() == ref.live_incomplete()
    assert state.completed_count() == ref.completed_count()


OPS = st.tuples(st.sampled_from(("claim", "destroy", "clone", "move")),
                st.integers(0, 9), st.integers(0, 99))


@settings(max_examples=300)
@given(sizes=st.lists(st.integers(0, 5), max_size=6), pad=st.integers(0, 4),
       ops=st.lists(OPS, max_size=30))
def test_box_state_matches_reference(sizes, pad, ops):
    # Each op acts on one of the (state, reference) pairs made so far;
    # "clone" adds a pair, so a clone must not share lists with its source.
    pairs = [(BoxGameState(list(sizes), pad), ReferenceBoxGameState(list(sizes), pad))]
    for op, which, x in ops:
        state, ref = pairs[which % len(pairs)]
        if op == "claim" and ref.live_incomplete():
            live = ref.live_incomplete()
            i = live[x % len(live)]
            assert state.claim(i) == ref.claim(i)
        elif op == "destroy" and sizes:
            state.destroy(x % len(sizes))
            ref.destroy(x % len(sizes))
        elif op == "clone":
            pairs.append((state.clone(), ref.clone()))
        elif op == "move":
            b = x % 7 + 1
            want = reference_box_maker_move(ref, b)
            if want is None:
                with pytest.raises(AllDestroyed):
                    box_maker_move(state, b)
            else:
                assert box_maker_move(state, b) == want
        for state, ref in pairs:
            same_state(state, ref)
