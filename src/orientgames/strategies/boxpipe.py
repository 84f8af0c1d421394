"""Breaker's box reduction for the Hamiltonicity game.

Breaker fixes a split of the vertices into A (his b lowest indices) and
B (the rest) and plays Box-Maker over the boxes X_v = {v->w : w in B} for
v in A: completing a box leaves v with every B-arc outgoing and in-degree
0 so far.  Maker kills a box by orienting any arc into its vertex.  The
two-box variant (virtual padding) covers the one kill Maker gets between
Breaker turns: once two boxes are complete Breaker finishes one of them
into a full out-star, pinning its in-degree to 0 for good.

Constructible only when n <= b * H_b; at smaller bias the constructor
refuses with the computed threshold.
"""

from __future__ import annotations

from ..board import Board
from ..boxgame import BoxGameState, breaker_bias_threshold, harmonic
from ..engine import BREAKER, Strategy
from ..errors import CriterionUnmet


class BreakerBoxHamilton(Strategy):
    role = BREAKER

    def start(self, config, rng):
        super().start(config, rng)
        n, b = config.n, config.q
        if n > b * harmonic(b):
            raise CriterionUnmet(
                f"n={n} needs bias >= {breaker_bias_threshold(n)}, got {b}"
            )
        self.b = b
        self.side_a = list(range(b))
        self.side_b = list(range(b, n))
        self.boxes = BoxGameState(sizes=[len(self.side_b)] * b, virtual_pad=b)

    def observe(self, board, role, move):
        for (u, v) in move:
            if v < self.b and not self.boxes.destroyed[v]:
                self.boxes.destroy(v)

    def _sync_claims(self, board: Board):
        # Items claimed by arcs v->w regardless of who oriented them.
        side_b = (1 << board.n) - (1 << self.b)  # bits b..n-1
        for v in self.side_a:
            if self.boxes.destroyed[v]:
                continue
            have = (board.out_mask(v) & side_b).bit_count()
            while self.boxes.claimed_real[v] < have:
                self.boxes.claim(v)

    def _pipeline_claims(self, b: int) -> list[tuple[int, str]]:
        """Claim schedule for the real game, unlike the abstract box game.

        There a completion is banked forever; here Maker can still kill a
        completed box until the endgame star is played, so lone early
        completions are wasted tempo.  Finish real boxes only two at a
        time (Maker can kill just one before our next turn) or as the last
        survivor; otherwise keep padded deficits level so that two boxes
        ripen together, with real items before virtual inside a box.
        """
        state = self.boxes
        claims: list[tuple[int, str]] = []
        budget = b
        while budget > 0:
            live = state.live_incomplete()
            if not live:
                break
            bearing = sorted(
                (i for i in live if state.real_deficit(i) > 0),
                key=lambda i: (state.real_deficit(i), i),
            )
            pair_cost = (
                state.real_deficit(bearing[0]) + state.real_deficit(bearing[1])
                if len(bearing) >= 2
                else None
            )
            if pair_cost is not None and pair_cost <= budget:
                for i in bearing[:2]:
                    for _ in range(state.real_deficit(i)):
                        claims.append((i, state.claim(i)))
                        budget -= 1
                continue
            if len(bearing) == 1 and state.real_deficit(bearing[0]) <= budget:
                i = bearing[0]
                for _ in range(state.real_deficit(i)):
                    claims.append((i, state.claim(i)))
                    budget -= 1
                continue
            pool = bearing or live
            i = max(pool, key=lambda j: (state.deficit(j), -j))
            claims.append((i, state.claim(i)))
            budget -= 1
        return claims

    def next_move(self, board: Board, transcript):
        self._sync_claims(board)
        # Endgame: a complete live box becomes a full out-star; once all
        # n-1 arcs at u point outward its in-degree is 0 forever.
        for u in self.side_a:
            if self.boxes.completed[u] and board.in_degree(u) == 0:
                arcs = [(u, w) for w in board.undirected_neighbors(u)]
                if arcs:
                    return tuple(arcs[: self.config.q])
        if self.boxes.live_incomplete():
            claims = self._pipeline_claims(self.b)
        else:
            claims = []
        arcs = []
        taken = set()
        for (v, kind) in claims:
            if kind != "real":
                continue
            for w in self.side_b:
                if (v, w) not in taken and board.is_undirected(v, w):
                    arcs.append((v, w))
                    taken.add((v, w))
                    break
        if not arcs:
            # Boxes gone or only virtual claims: burn a pair without
            # feeding an in-arc to any live box vertex.
            def live_box(x):
                return x < self.b and not self.boxes.destroyed[x]

            fallback = None
            for (u, v) in board.undirected_pairs():
                if not live_box(v):
                    fallback = (u, v)
                    break
                if not live_box(u):
                    fallback = (v, u)
                    break
            arcs = [fallback or board.lowest_undirected()]
        return tuple(arcs)
