"""The box game: disjoint element sets fought over at bias b vs 1.

Box-Maker tries to claim every element of a box (two boxes in the TwoBox
variant) before Box-Breaker destroys it; a breaker-touched box is dead.
This sub-game drives the box Breaker strategy for the Hamiltonicity
orientation game, and the harmonic-sum criteria here are the constructive
gate for it.

A box is its deficit, the number of its items not yet claimed.  Real
items are claimed before virtual ones, so one number per box says how
many of each are left and whether the box is complete; the solver, the
verifier and the box Breaker all read boxes that way.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import AllDestroyed, BudgetExceeded

CLASSIC = "classic"
TWOBOX = "twobox"

BOX_MAKER = "box-maker"
BOX_BREAKER = "box-breaker"

HARMONIC_EXACT_MAX = 10_000

SOLVE_MAX_R = 6
SOLVE_MAX_K = 5
SOLVE_MAX_B = 4


def harmonic(r: int):
    """H_r = sum_{i=1..r} 1/i, exact Fraction up to r=10^4, float beyond.

    The float branch accumulates error orders of magnitude below any
    threshold comparison made here.
    """
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    if r <= HARMONIC_EXACT_MAX:
        return sum(Fraction(1, i) for i in range(1, r + 1))
    return math.fsum(1.0 / i for i in range(1, r + 1))


def cz_criterion(r: int, k: int, b: int) -> bool:
    """Box-Maker win guarantee for the classic game: k <= b * H_r."""
    return k <= b * harmonic(r)


def two_box_criterion(r: int, k: int, b: int) -> bool:
    """Box-Maker guarantee to complete two boxes: k + b <= b * H_r.

    The harmonic sum runs to r, the box count.
    """
    return k + b <= b * harmonic(r)


def breaker_bias_threshold(n: int) -> int:
    """Minimal b with b * H_b >= n, by monotone scan.

    The smallest bias at which the box reduction lets Breaker force an
    in-degree-0 vertex when he owns a b-vertex side A and plays boxes of
    size n - b.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    h = 0.0
    b = 0
    while True:
        b += 1
        h += 1.0 / b
        if b * h >= n:
            # Re-check the boundary in exact arithmetic when cheap.
            if b <= HARMONIC_EXACT_MAX and b * harmonic(b) < n:
                continue
            return b


class BoxGameState:
    """Live state of a box game, with optional virtual padding (TwoBox).

    A box is its deficit: the items of it not yet claimed, padding
    included.  Virtual items realize the reduction of the two-box game to
    the classic one: each box is padded with ``pad`` phantom elements,
    claimed only after all real elements of that box (claims of them cost
    budget but do nothing).  So a box's real deficit is its deficit above
    the pad, and a box is complete once its deficit is at most the pad.
    That count is exact: only a live box is ever claimed, so a box with no
    real items left was completed while alive, and destroying it
    afterwards changes nothing.
    """

    def __init__(self, sizes: list[int], virtual_pad: int = 0):
        self.pad = virtual_pad
        self.deficits = [k + virtual_pad for k in sizes]
        self.destroyed = [False] * len(self.deficits)

    def clone(self) -> "BoxGameState":
        twin = BoxGameState.__new__(BoxGameState)
        twin.pad = self.pad
        twin.deficits, twin.destroyed = list(self.deficits), list(self.destroyed)
        return twin

    def live_incomplete(self) -> list[int]:
        return [i for i, d in enumerate(self.deficits) if d > 0 and not self.destroyed[i]]

    def completed_count(self) -> int:
        return sum(d <= self.pad for d in self.deficits)

    def claim(self, i: int) -> str:
        """Claim one item from box i, real before virtual; returns the kind."""
        assert not self.destroyed[i] and self.deficits[i] > 0
        self.deficits[i] -= 1
        return "real" if self.deficits[i] >= self.pad else "virtual"

    def destroy(self, i: int) -> None:
        self.destroyed[i] = True


def box_maker_move(state: BoxGameState, b: int) -> list[tuple[int, str]]:
    """Distribute b claims over the surviving boxes and apply them.

    Allocation, one claim at a time: if some box's whole real deficit fits
    in the remaining budget, claim from the smallest such box until it is
    finished; otherwise claim from the box with the largest real deficit,
    leveling the boxes down toward equality; once no live box has real
    items left, claim a virtual item of the first live box.  Ties break
    toward the lowest box index.

    Balancing is the load-bearing half.  A "fewest unclaimed items first"
    rule loses three boxes of size 3 at b=2 even though the harmonic
    criterion holds there: Box-Breaker just kills whichever box got ahead.
    Keeping the deficits level denies Box-Breaker a preferred target, which
    is exactly what the criterion's harmonic recursion charges for, and the
    exhaustive solver certifies this realization over its whole budget.
    """
    if not state.live_incomplete():
        raise AllDestroyed("no surviving incomplete box")
    claims: list[tuple[int, str]] = []
    for budget in range(b, 0, -1):
        live = state.live_incomplete()
        if not live:
            break
        real = [(d - state.pad, i) for i in live if (d := state.deficits[i]) > state.pad]
        fits = [c for c in real if c[0] <= budget]
        if fits:
            i = min(fits)[1]
        elif real:
            i = max(real, key=lambda c: (c[0], -c[1]))[1]
        else:
            i = live[0]
        claims.append((i, state.claim(i)))
    return claims


def _solve(deficits: tuple[int, ...], completed: int, target: int, b: int, mover: str, memo) -> str:
    # deficits: sorted real deficits of live incomplete boxes.
    if completed >= target:
        return BOX_MAKER
    if not deficits:
        return BOX_BREAKER
    key = (deficits, completed, mover)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if mover == BOX_BREAKER:
        # Destroy some live incomplete box; equal deficits are
        # interchangeable.  Destroying a completed box is a pass and never
        # better for Breaker than a real destruction.
        result = BOX_MAKER
        seen = set()
        for i, d in enumerate(deficits):
            if d in seen:
                continue
            seen.add(d)
            rest = deficits[:i] + deficits[i + 1 :]
            if _solve(rest, completed, target, b, BOX_MAKER, memo) == BOX_BREAKER:
                result = BOX_BREAKER
                break
        memo[key] = result
        return result
    total = sum(deficits)
    budget = min(b, total)
    result = BOX_BREAKER
    for alloc in _allocations(deficits, budget):
        new = []
        done = completed
        for d, a in zip(deficits, alloc):
            if d - a == 0:
                done += 1
            else:
                new.append(d - a)
        if done >= target:
            result = BOX_MAKER
            break
        if _solve(tuple(sorted(new)), done, target, b, BOX_BREAKER, memo) == BOX_MAKER:
            result = BOX_MAKER
            break
    memo[key] = result
    return result


def _allocations(deficits, budget):
    """All ways to split the budget over the boxes, capped per deficit."""
    r = len(deficits)

    def rec(i, left):
        if i == r - 1:
            if left <= deficits[i]:
                yield (left,)
            return
        hi = min(left, deficits[i])
        lo = max(0, left - sum(deficits[i + 1 :]))
        for a in range(hi, lo - 1, -1):
            for rest in rec(i + 1, left - a):
                yield (a,) + rest

    yield from rec(0, budget)


def solve_box_game(r: int, k: int, b: int, variant: str = CLASSIC) -> str:
    """Exact minimax winner of the box game under optimal play.

    Classic: Box-Maker claims b elements, then Box-Breaker destroys a box;
    Box-Maker needs one completed box.  TwoBox: Box-Breaker destroys first
    and Box-Maker needs two completed boxes.  Memoized on the multiset of
    surviving box deficits.
    """
    if r > SOLVE_MAX_R or k > SOLVE_MAX_K or b > SOLVE_MAX_B:
        raise BudgetExceeded(
            f"solver budget is r<={SOLVE_MAX_R}, k<={SOLVE_MAX_K}, b<={SOLVE_MAX_B}"
        )
    if min(r, k, b) < 1:
        raise ValueError("need r, k, b >= 1")
    deficits = tuple([k] * r)
    memo: dict = {}
    if variant == CLASSIC:
        return _solve(deficits, 0, 1, b, BOX_MAKER, memo)
    if variant == TWOBOX:
        return _solve(deficits, 0, 2, b, BOX_BREAKER, memo)
    raise ValueError(f"unknown variant {variant!r}")


def verify_box_strategy(r: int, k: int, b: int, variant: str = CLASSIC):
    """Check box_maker_move against every Box-Breaker line.

    Returns (won_all_lines, padded_win_implies_two_real) where the second
    flag only matters for TwoBox: on every line where the padded game was
    fully won, two real boxes were complete.  The strategy plays the
    padded game in the TwoBox variant (each box carries b virtual items);
    Breaker destruction choices are expanded exhaustively.
    """
    target = 1 if variant == CLASSIC else 2
    pad = 0 if variant == CLASSIC else b
    claim_ok = True

    def maker_then_breaker(state: BoxGameState) -> bool:
        nonlocal claim_ok
        if state.completed_count() >= target:
            return True
        if not state.live_incomplete():
            return False
        box_maker_move(state, b)
        # A padded game won on this line: the reduction promises two
        # complete real boxes.
        if pad and state.completed_count() < 2 and any(
            not state.destroyed[i] and state.deficits[i] == 0 for i in range(r)
        ):
            claim_ok = False
        if state.completed_count() >= target:
            return True
        return breaker_branches(state)

    def breaker_branches(state: BoxGameState) -> bool:
        candidates = state.live_incomplete()
        if not candidates:
            return state.completed_count() >= target
        # Boxes with equal deficits are interchangeable.
        seen = set()
        for i in candidates:
            if state.deficits[i] in seen:
                continue
            seen.add(state.deficits[i])
            nxt = state.clone()
            nxt.destroy(i)
            if not maker_then_breaker(nxt):
                return False
        return True

    start = BoxGameState(sizes=[k] * r, virtual_pad=pad)
    if variant == CLASSIC:
        won = maker_then_breaker(start)
    else:
        won = breaker_branches(start)
    return won, claim_ok
