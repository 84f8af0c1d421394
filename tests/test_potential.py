import copy
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orientgames.errors import NoFreeElements
from orientgames.strategies import (
    HypergraphState,
    es_condition,
    es_condition_families,
    potential_blocker_move,
)
from orientgames.strategies.potential import es_condition_log_families

from conftest import ReferencePotentials


def test_es_condition_arithmetic():
    assert es_condition([3], 1, 1)          # 1/8 < 1/2
    assert not es_condition([1], 1, 1)      # boundary: 1/2 < 1/2 fails
    assert es_condition([4, 4, 4], 1, 1)    # 3/16 < 1/2
    assert not es_condition([2, 2], 1, 1)   # 1/2 < 1/2 fails


def test_es_condition_on_state_uses_live_sets():
    state = HypergraphState([{1, 2, 3}, {3, 4, 5}], 1, 1)
    assert es_condition(state, 1, 1)
    state.claim_blocker(3)
    assert es_condition(state, 1, 1)  # both sets dead: empty sum


def test_es_condition_families_matches_exact():
    rng = random.Random(5)
    for _ in range(50):
        sizes = [rng.randint(1, 10) for _ in range(rng.randint(1, 6))]
        q = rng.randint(1, 4)
        exact = sum(Fraction(1, (q + 1) ** s) for s in sizes) < Fraction(1, q + 1)
        assert es_condition_families([(1, s) for s in sizes], 1, q) == exact


def test_stage2_cut_instance_threshold():
    # The two-family cut instance: 2*C(n,k)^2 sets of size
    # 0.99 n^2 / (2 (ln n)^0.8) at threat bias n/ln n.  It holds only for
    # astronomically large boards; the crossover is near ln n = 110
    # (n ~ 10^48), found by bisection in log space.
    def holds(ln_n):
        n = math.exp(ln_n)
        k = n / ln_n ** 0.4
        size = 0.99 * n * n / (2 * ln_n ** 0.8)
        p = max(1, int(n / ln_n))
        log_pairs = math.log(2) + 2 * k * (math.log(n / k) + 1)
        return es_condition_log_families([(log_pairs, size)], p=p, q=1)

    assert not holds(math.log(400))
    assert not holds(math.log(10 ** 6))
    lo, hi = 10.0, 200.0
    assert not holds(lo) and holds(hi)
    for _ in range(50):
        mid = (lo + hi) / 2
        if holds(mid):
            hi = mid
        else:
            lo = mid
    assert 108.0 < hi < 113.0


def test_blocker_picks_shared_element():
    state = HypergraphState([{1, 2}, {2, 3}], 1, 1)
    assert potential_blocker_move(state, 1) == [2]
    assert [state.weight(i) for i in range(2)] == [0, 0]


def test_dead_set_contributes_zero():
    state = HypergraphState([{1, 2, 3}], 1, 1)
    state.claim_blocker(1)
    assert state.weight(0) == 0
    state.claim_threat(2)
    assert state.weight(0) == 0
    assert not state.threat_completed


def test_no_free_elements():
    state = HypergraphState([{1}], 1, 1)
    state.claim_blocker(1)
    with pytest.raises(NoFreeElements):
        potential_blocker_move(state, 1)


def test_ledger_consistency_incremental_vs_scratch(rng):
    # Replaying the claim history into a fresh state must reproduce every
    # weight exactly (integers when the threat bias is 1).
    for _ in range(30):
        n_el = rng.randint(4, 10)
        sets = [
            frozenset(rng.sample(range(n_el), rng.randint(1, n_el)))
            for _ in range(rng.randint(1, 6))
        ]
        p, q = rng.randint(1, 3), rng.randint(1, 3)
        state = HypergraphState(sets, p, q, elements=range(n_el))
        history = []
        for _ in range(rng.randint(0, n_el)):
            free = state.free_elements()
            if not free:
                break
            e = rng.choice(free)
            side = rng.random() < 0.5
            (state.claim_threat if side else state.claim_blocker)(e)
            history.append((e, side))
        fresh = HypergraphState(sets, p, q, elements=range(n_el))
        for (e, side) in history:
            (fresh.claim_threat if side else fresh.claim_blocker)(e)
        for i in range(len(sets)):
            assert state.weight(i) == fresh.weight(i)


def blocker_never_loses(sets, n_elements):
    """Exhaustive (1:1) threat search against the greedy potential blocker."""
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


def test_blocker_never_loses_small_sample(rng):
    # Module-level slice of the acceptance sweep: criterion-true random
    # hypergraphs, exhaustive opposition at (1:1).
    tried = 0
    while tried < 25:
        n_el = rng.randint(6, 10)
        sets = [
            frozenset(rng.sample(range(n_el), rng.randint(3, min(6, n_el))))
            for _ in range(rng.randint(2, 6))
        ]
        if not es_condition([len(s) for s in sets], 1, 1):
            continue
        tried += 1
        assert blocker_never_loses(sets, n_el)


def test_deepcopy_shares_only_the_set_family():
    state = HypergraphState([{0, 1, 2}, {2, 3}, {3, 4, 5}], 1, 1)
    state.claim_threat(2)
    clone = copy.deepcopy(state)
    shared = {name for name, value in vars(clone).items()
              if isinstance(value, (list, dict, set)) and value is vars(state)[name]}
    assert shared == {"sets", "elements", "member_of"}
    before = (dict(state.status), state.remaining[:], state.dead[:])
    clone.claim_blocker(3)
    clone.claim_threat(0)
    clone.claim_threat(1)
    assert clone.threat_completed and not state.threat_completed
    assert (state.status, state.remaining, state.dead) == before
    state.claim_threat(4)
    assert clone.status[4] == 0 and clone.remaining[2] == 3


@settings(max_examples=300)
@given(st.data())
def test_scores_and_picks_match_reference(data):
    # Integer weights at threat bias 1 and floats above it must pick what
    # the Fraction/float scorer picked, and be its potentials in weight
    # units: scaled by base**top at threat bias 1, as they are above it.
    n_el = data.draw(st.integers(1, 10), label="elements")
    sets = data.draw(st.lists(st.frozensets(st.integers(0, n_el - 1), min_size=1),
                              min_size=1, max_size=8), label="sets")
    p = data.draw(st.integers(1, 3), label="threat bias")
    q = data.draw(st.integers(1, 6), label="blocker bias")
    state = HypergraphState(sets, p, q, elements=range(n_el))
    ref = ReferencePotentials(sets, p, q, range(n_el))
    scale = (q + 1) ** state.top if p == 1 else 1
    while True:
        assert [state.weight(i) for i in range(len(sets))] == [
            ref.potential(i) * scale for i in range(len(sets))]
        free = state.free_elements()
        if not free:
            break
        if data.draw(st.booleans(), label="threat claims"):
            e = data.draw(st.sampled_from(free), label="threat claim")
            state.claim_threat(e)
            ref.threat.add(e)
        else:
            budget = data.draw(st.integers(1, q), label="budget")
            assert potential_blocker_move(state, budget) == ref.blocker_move(budget)
