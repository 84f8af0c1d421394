"""Breaker's box reduction for the Hamiltonicity game.

Breaker fixes a split of the vertices into A (his b lowest indices) and
B (the rest) and plays Box-Maker over the boxes X_v = {v->w : w in B} for
v in A: completing a box leaves v with every B-arc outgoing and in-degree
0 so far.  Maker kills a box by orienting any arc into its vertex.  The
two-box variant (virtual padding) covers the one kill Maker gets between
Breaker turns: once two boxes are complete Breaker finishes one of them
into a full out-star, pinning its in-degree to 0 for good.

The board is the whole box state: box v is alive iff v has in-degree 0,
and its open items are the B-vertices w with v->w not yet oriented.
Virtual items are never read off the board because claiming one yields
no arc: it is claimed only on a box with no real items left, and while
real items remain every box carries all b of its virtual ones.

Constructible only when n <= b * H_b; at smaller bias the constructor
refuses with the computed threshold.
"""

from __future__ import annotations

from bisect import bisect_left, insort

from ..board import Board
from ..boxgame import breaker_bias_threshold, harmonic
from ..engine import BREAKER, Strategy
from ..errors import CriterionUnmet


class BreakerBoxHamilton(Strategy):
    role = BREAKER

    def start(self, config, rng):
        super().start(config, rng)
        n, q = config.n, config.q
        if n > q * harmonic(q):
            raise CriterionUnmet(
                f"n={n} needs bias >= {breaker_bias_threshold(n)}, got {q}"
            )
        # Side A names only vertices on the board; the bias still caps a move.
        self.b = min(q, n)
        self.side_b = (1 << n) - (1 << self.b)  # bits b..n-1

    def _pipeline_claims(self, open_items: dict[int, int]) -> list[int]:
        """Claim schedule for the real game, unlike the abstract box game.

        There a completion is banked forever; here Maker can still kill a
        completed box until the endgame star is played, so lone early
        completions are wasted tempo.  Finish real boxes only two at a
        time (Maker can kill just one before our next turn) or as the last
        survivor; otherwise keep deficits level so that two boxes ripen
        together.  Returns the box of each claimed item, in order.

        The boxes stay in one ascending list of (open items, box): the two
        cheapest to finish are its first two entries, and a levelling
        claim takes the lowest box of the largest open count and puts it
        back one lower, so a move costs O((q + b) log b).
        """
        order = sorted((k, v) for v, k in open_items.items())
        claims: list[int] = []
        budget = self.config.q
        while budget > 0 and order:
            finish = order[:2]
            cost = sum(k for k, _ in finish)
            if cost <= budget:
                for k, v in finish:
                    claims += [v] * k
                del order[:2]
                budget -= cost
                continue
            k, v = order.pop(bisect_left(order, (order[-1][0], -1)))
            claims.append(v)
            insort(order, (k - 1, v))
            budget -= 1
        return claims

    def live_boxes(self, board: Board) -> dict[int, int]:
        """Open items of each live box, by box vertex, ascending."""
        return {
            v: (self.side_b & ~board.out_mask(v)).bit_count()
            for v in range(self.b)
            if board.in_degree(v) == 0
        }

    def next_move(self, board: Board, transcript):
        boxes = self.live_boxes(board)
        # Endgame: a complete live box becomes a full out-star; once all
        # n-1 arcs at v point outward its in-degree is 0 forever.
        for v, k in boxes.items():
            if k == 0 and (star := board.undirected_neighbors(v)):
                return tuple((v, w) for w in star[: self.config.q])
        claims = self._pipeline_claims({v: k for v, k in boxes.items() if k})
        # A live box has no B->v arc, so its free items are its free pairs.
        arcs = []
        free = {}
        for v in claims:
            m = free.get(v, self.side_b & ~board.out_mask(v))
            arcs.append((v, (m & -m).bit_length() - 1))
            free[v] = m & (m - 1)
        if arcs:
            return tuple(arcs)
        # Boxes gone or all complete: burn a pair without feeding an
        # in-arc to any live box vertex.
        for (u, v) in board.undirected_pairs():
            if v not in boxes:
                return ((u, v),)
            if u not in boxes:
                return ((v, u),)
        return (board.lowest_undirected(),)
