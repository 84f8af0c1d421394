"""Exact thresholds, tournament theorems and the paper strategies' gaps.

One module-wide table of exact solves serves the threshold table at
n = 3..5 and the relations that hold on every tournament, checked at
n = 3..5 and p, q <= 3.  The relations are theorems, not solver output,
so they check the solver:

- a tournament with a cycle has a 3-cycle, and a tournament is
  transitive, so 1-colourable, iff it has no cycle;
- Camion (1959): a tournament on n >= 3 vertices is Hamiltonian iff it
  is strongly connected, so every in-degree is then positive;
- Moon (1966): a strong tournament has cycles of every length 3..n, and
  a tournament has a k-cycle iff a strong component has >= k vertices.
"""

import functools
from types import SimpleNamespace

import pytest

from orientgames import solver
from orientgames.engine import BREAKER, MAKER, property_from_key
from orientgames.errors import BudgetExceeded
from orientgames.solver import (
    SOLVER_MAX_BIAS,
    solve_orientation_game,
    threshold_scan,
    verify_strategy_vs_all,
)
from orientgames.strategies import BreakerOutStar, MakerCk, MakerCycle

TT4 = "contains:4:0>1,0>2,0>3,1>2,1>3,2>3"  # the transitive tournament TT_4
C3 = "contains:3:0>1,1>2,2>0"
C4 = "contains:4:0>1,1>2,2>3,3>0"
C5 = "contains:5:0>1,1>2,2>3,3>4,4>0"

# t_P(n), the least Breaker bias that wins the (1:q) game, for n = 3..6.
THRESHOLDS = {
    "cycle": (1, 2, 3, 3),
    "ck:3": (1, 2, 3, 3),
    "ck:4": (1, 1, 2, 3),
    "ck:5": (1, 1, 2, 2),
    "hamiltonicity": (1, 1, 2, 2),
    "min-indegree-positive": (1, 1, 2, 2),
    "nonkcol:1": (1, 2, 3, 3),
    "nonkcol:2": (1, 1, 1, 1),
    TT4: (1, 1, 2, 3),
    C5: (1, 1, 2, 2),
}
# The n = 6 scans run here take 0.5-4 s each; the cycle row is
# test_solver's, and the other rows take 3-17 s each.
CHEAP_AT_N6 = ["hamiltonicity", "min-indegree-positive", "nonkcol:2"]

SMALL_NS = (3, 4, 5)
BIASES = range(1, SOLVER_MAX_BIAS + 1)


@pytest.fixture(scope="module")
def winner():
    """winner(property key, n, p, q), each game solved once per module."""
    @functools.cache
    def solve(key, n, p, q):
        return solve_orientation_game(n, p, q, property_from_key(key)).winner
    return solve


def games():
    return [(n, p, q) for n in SMALL_NS for p in BIASES for q in BIASES]


@pytest.mark.parametrize("key", THRESHOLDS)
def test_threshold_table_up_to_n5(key, winner, monkeypatch):
    # threshold_scan's bracket check, run over the module's solves.
    def solve(n, p, q, prop):
        return SimpleNamespace(winner=winner(prop.key(), n, p, q))

    monkeypatch.setattr(solver, "solve_orientation_game", solve)
    assert [threshold_scan(n, property_from_key(key)) for n in SMALL_NS] == list(
        THRESHOLDS[key][:3])


@pytest.mark.parametrize("key", CHEAP_AT_N6)
def test_threshold_table_at_n6(key):
    assert threshold_scan(6, property_from_key(key)) == THRESHOLDS[key][3]


def test_a_pattern_every_tournament_contains_cannot_be_bracketed():
    # Rédei (1934): every tournament has a Hamilton path, so Maker wins the
    # path game at every bias and no Breaker bias brackets it.
    path = property_from_key("contains:5:0>1,1>2,2>3,3>4")
    with pytest.raises(BudgetExceeded, match="cannot bracket"):
        threshold_scan(5, path)


@pytest.mark.parametrize("group", [
    ["cycle", "ck:3", "nonkcol:1", C3],
    ["ck:4", C4],
], ids=["cycle", "four-cycle"])
def test_properties_equal_on_every_tournament_have_equal_winners(group, winner):
    for game in games():
        assert len({winner(key, *game) for key in group}) == 1, (group, game)


def test_hamiltonicity_is_the_n_cycle(winner):
    for game in games():
        assert winner("hamiltonicity", *game) == winner(f"ck:{game[0]}", *game), game


def test_maker_wins_imply_maker_wins(winner):
    for game in games():
        n = game[0]
        implied = [("hamiltonicity", "min-indegree-positive")]
        implied += [("hamiltonicity", f"ck:{k}") for k in range(3, n + 1)]
        implied += [(f"ck:{k}", "cycle") for k in range(3, n + 1)]
        for a, b in implied:
            if winner(a, *game) == MAKER:
                assert winner(b, *game) == MAKER, (a, b, game)


# The biases q <= 3 at which a paper strategy passes verify_strategy_vs_all
# at p = 1, and q <= 4 for the out-star, whose first win at n = 6 is past
# the solver's bias cap.  MakerCycle wins only at q = 1, though Maker wins
# the cycle game up to q = t - 1 = 2 at n = 5 and 6.  The out-star first
# wins at t(n) for n = 4 and 5 and one bias past t(6) = 3.  MakerCk(4)
# never wins, though Maker wins the ck:4 game at q = 1 for n = 5 and at
# q <= 2 for n = 6.
STRATEGY_GAPS = [
    (MakerCycle, MAKER, "cycle", 4, []),
    (MakerCycle, MAKER, "cycle", 5, [1]),
    (MakerCycle, MAKER, "cycle", 6, [1]),
    (BreakerOutStar, BREAKER, "cycle", 4, [2, 3, 4]),
    (BreakerOutStar, BREAKER, "cycle", 5, [3, 4]),
    (BreakerOutStar, BREAKER, "cycle", 6, [4]),
    (lambda: MakerCk(4), MAKER, "ck:4", 4, []),
    (lambda: MakerCk(4), MAKER, "ck:4", 5, []),
    (lambda: MakerCk(4), MAKER, "ck:4", 6, []),
]


@pytest.mark.parametrize("factory, role, key, n, passing", STRATEGY_GAPS,
                         ids=[f"{role}-{key}-{n}" for (_, role, key, n, _) in STRATEGY_GAPS])
def test_strategy_gaps(factory, role, key, n, passing):
    prop = property_from_key(key)
    qs = range(1, 5) if role == BREAKER else BIASES
    assert [q for q in qs
            if verify_strategy_vs_all(factory, role, n, 1, q, prop).ok] == passing
