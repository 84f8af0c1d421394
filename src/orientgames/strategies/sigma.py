"""Breaker's ordering strategy against pattern creation.

Breaker only ever orients pairs forward under the vertex order, low to
high (the ordering sigma is the identity), so his own arcs stay acyclic
and any copy of the target pattern H must take all of its feedback arcs
(at least r = FAS(H) of them) from Maker's backward orientations.  Pair
selection is potential play over the reduction hypergraph: one winning
set per (t-subset S, r-subset of pair-slots inside S), where a slot is
Breaker's once oriented forward and threatened once oriented backward.
It is the shared PotentialPlay with the vertex order as its reference
tournament, the same player the non-k-colourable Maker runs against T*.

Worth blocking only when r >= 2: at r <= 1 the criterion cannot hold at
any polynomial bias, so construction is refused.
"""

from __future__ import annotations

import itertools
import math
import random

from ..board import Board
from ..engine import BREAKER, MAKER, Strategy
from ..errors import BudgetExceeded, FasTooSmall
from ..oracles import PatternGraph, fas_exact
from .potential import HypergraphState, PotentialPlay

SIGMA_EXACT_MAX_N = 10
SIGMA_SAMPLE_SETS = 20_000


class BreakerSigmaPotential(Strategy):
    role = BREAKER

    def __init__(self, pattern: PatternGraph):
        self.pattern = pattern
        value, _ = fas_exact(pattern)
        if value <= 1:
            raise FasTooSmall(f"FAS(H)={value}; ordering play needs >= 2")
        self.r = value

    def start(self, config, rng):
        super().start(config, rng)
        n = config.n
        t, r = self.pattern.t, self.r
        pair_pool = list(itertools.combinations(range(n), 2))
        if n <= SIGMA_EXACT_MAX_N:
            sets = [
                frozenset(chosen)
                for sub in itertools.combinations(range(n), t)
                for chosen in itertools.combinations(
                    list(itertools.combinations(sub, 2)), r
                )
            ]
        else:
            # Beyond exact scale: a fixed seeded sample of (subset, slots)
            # winning sets keeps the same shape at bounded cost.  A pattern
            # larger than the board has no copy to sample.
            sample_rng = random.Random(f"sigma/{config.seed}")
            sets = []
            for _ in range(SIGMA_SAMPLE_SETS if t <= n else 0):
                sub = sorted(sample_rng.sample(range(n), t))
                slots = sample_rng.sample(list(itertools.combinations(sub, 2)), r)
                sets.append(frozenset(slots))
        state = HypergraphState(sets, threat_bias=1, blocker_bias=config.q, elements=pair_pool)
        # Elements are the (low, high) pair slots, so every claim is a
        # forward arc.
        self.player = PotentialPlay(state, lambda u, v: u < v)

    def observe(self, board, role, move):
        self.player.observe(move)

    def next_move(self, board: Board, transcript):
        return self.player.move(board, min(self.config.q, board.undirected_count))


class MakerGreedyEmbedding(Strategy):
    """Stuff backward arcs into the t-subset that is furthest along.

    The natural adversary for the ordering Breaker: every move orients an
    undirected pair inside the currently most backward-loaded t-subset
    against the identity ordering.
    """

    role = MAKER

    def __init__(self, pattern: PatternGraph):
        self.t = pattern.t

    def start(self, config, rng):
        super().start(config, rng)
        if math.comb(config.n, self.t) > 200_000:
            raise BudgetExceeded("greedy embedding adversary is exhaustive over t-subsets")
        self.subsets = list(itertools.combinations(range(config.n), self.t))

    def next_move(self, board: Board, transcript):
        best_move = None
        best_score = -1
        for sub in self.subsets:
            free = None
            score = 0
            for (u, v) in itertools.combinations(sub, 2):
                a = board.arc(u, v)
                if a == -1:  # v -> u with u < v: backward under the identity order
                    score += 1
                elif a == 0 and free is None:
                    free = (v, u)  # orient high to low: a new backward arc
            if free is not None and score > best_score:
                best_score = score
                best_move = free
        if best_move is None:
            u, v = board.lowest_undirected()
            return ((v, u),)
        return (best_move,)
