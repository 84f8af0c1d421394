"""Potential-function blocking for biased hypergraph games.

The blocker's side of the classical sufficient condition: with threat bias
p and blocker bias q, if

    sum over winning sets A of (q+1)^(-|A|/p)  <  1/(q+1)

then the blocker can keep every winning set from being completed by always
claiming the element whose removal kills the most potential.  A set's live
potential is (q+1) to the power -(its unclaimed-by-threat remainder)/p; a
set containing any blocker-claimed element is dead and contributes 0.

At threat bias 1 the scores are exact integers: every potential is
scaled by one common power of q+1, which changes no comparison.  Above
it they are floats.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ..errors import NoFreeElements

FREE = 0
THREAT = 1
BLOCKER = 2


class HypergraphState:
    """Winning sets with live potentials over a fixed element universe.

    Elements may be any sortable hashable ids.  Potentials are always
    recomputed from the per-set remaining counts, so incremental state and
    a from-scratch recount can never drift apart.  Scores are kept in
    weight units: with threat bias 1 every potential is scaled by
    (blocker_bias+1)^top, top the largest set size at construction, which
    makes each weight an exact integer and leaves every comparison as it
    was.
    """

    def __init__(self, sets, threat_bias: int = 1, blocker_bias: int = 1, elements=None):
        if threat_bias < 1 or blocker_bias < 1:
            raise ValueError("both biases must be >= 1")
        self.threat_bias = threat_bias
        self.blocker_bias = blocker_bias
        self.sets = [frozenset(s) for s in sets]
        universe = set()
        for s in self.sets:
            universe |= s
        if elements is not None:
            universe |= set(elements)
        self.elements = sorted(universe)
        self.status = {e: FREE for e in self.elements}
        self.member_of: dict = {e: [] for e in self.elements}
        for i, s in enumerate(self.sets):
            for e in s:
                self.member_of[e].append(i)
        self.remaining = [len(s) for s in self.sets]
        self.top = max(self.remaining, default=0)
        self.dead = [False] * len(self.sets)
        self.threat_completed = False

    def __deepcopy__(self, memo):
        """Independent claim state over the same set family.

        ``sets``, ``elements`` and ``member_of`` are never mutated after
        construction, so the copy shares them; ``status``, ``remaining``
        and ``dead`` are copied.
        """
        clone = type(self).__new__(type(self))
        clone.__dict__.update(self.__dict__)
        clone.status = dict(self.status)
        clone.remaining = self.remaining[:]
        clone.dead = self.dead[:]
        memo[id(self)] = clone
        return clone

    # -- claims ------------------------------------------------------------

    def claim_threat(self, e) -> None:
        assert self.status[e] == FREE
        self.status[e] = THREAT
        for i in self.member_of[e]:
            if not self.dead[i]:
                self.remaining[i] -= 1
                if self.remaining[i] == 0:
                    self.threat_completed = True

    def claim_blocker(self, e) -> None:
        assert self.status[e] == FREE
        self.status[e] = BLOCKER
        for i in self.member_of[e]:
            self.dead[i] = True

    def free_elements(self):
        return [e for e in self.elements if self.status[e] == FREE]

    # -- potentials ----------------------------------------------------------

    def weight(self, i: int):
        """Set i's live potential in weight units; 0 once it is dead."""
        if self.dead[i]:
            return 0
        base = self.blocker_bias + 1
        if self.threat_bias == 1:
            return base ** (self.top - self.remaining[i])
        return base ** (-self.remaining[i] / self.threat_bias)

    def removal_score(self, e):
        """Weight of the live sets a blocker claim of e would kill."""
        return sum(self.weight(i) for i in self.member_of[e] if not self.dead[i])

    def best_free(self):
        """The free element of largest removal score, lowest id on ties;
        None when nothing is free."""
        best, best_score = None, -1
        for e in self.elements:
            if self.status[e] == FREE:
                score = self.removal_score(e)
                if score > best_score:
                    best, best_score = e, score
        return best


def es_condition(sets, p: int = 1, q: int = 1) -> bool:
    """The blocking criterion, evaluated on a state or on raw set sizes."""
    if isinstance(sets, HypergraphState):
        sizes = [sets.remaining[i] for i in range(len(sets.sets)) if not sets.dead[i]]
    else:
        sizes = list(sets)
    return es_condition_families([(1, s) for s in sizes], p, q)


def es_condition_families(families, p: int = 1, q: int = 1) -> bool:
    """Criterion for families given as (count, size) pairs.

    Counts may be astronomically large (e.g. binomials of huge boards), so
    the sum is taken in log space unless exact rational evaluation is
    cheap.
    """
    families = [(c, s) for (c, s) in families if c > 0]
    if not families:
        return True
    if p == 1 and all(s <= 512 for (_, s) in families):
        total = sum(Fraction(c, (q + 1) ** s) for (c, s) in families)
        return total < Fraction(1, q + 1)
    return es_condition_log_families(
        [(math.log(c), s) for (c, s) in families], p, q
    )


def es_condition_log_families(log_families, p: int = 1, q: int = 1) -> bool:
    """Criterion for families given as (log count, size) pairs.

    For boards too large for their binomial counts to be materialized;
    callers supply log counts (e.g. via lgamma) and sizes may be floats.
    """
    log_families = list(log_families)
    if not log_families:
        return True
    logs = [lc - (s / p) * math.log(q + 1) for (lc, s) in log_families]
    peak = max(logs)
    log_sum = peak + math.log(math.fsum(math.exp(x - peak) for x in logs))
    return log_sum < -math.log(q + 1)


def potential_blocker_move(state: HypergraphState, budget: int) -> list:
    """Claim up to budget elements greedily by removed potential.

    Each pick is the state's best_free(), rescored between picks.  Marks
    are updated in place; returns the claimed elements, and raises
    NoFreeElements when the first pick finds nothing free.
    """
    claimed = []
    for _ in range(budget):
        best = state.best_free()
        if best is None:
            if not claimed:
                raise NoFreeElements("blocker has nothing to claim")
            break
        state.claim_blocker(best)
        claimed.append(best)
    return claimed
