"""Random baseline and greedy adversary strategies.

These are the opponents the pipeline suites run against.  The random
strategy keeps its own free-pair list so a move costs O(bias), not O(n^2);
the greedy ones read vertex degrees straight from the board."""

from __future__ import annotations

import heapq
import itertools

from ..board import Board
from ..engine import BREAKER, MAKER, Strategy


class _FreePairList:
    """Undirected pairs with O(1) removal and uniform sampling."""

    def __init__(self, n: int):
        self.n = n
        self.pairs = list(itertools.combinations(range(n), 2))
        # pos[pair_index(n, u, v)] is where (u, v) sits in pairs, -1 once removed.
        self.pos = list(range(len(self.pairs)))

    def remove(self, u: int, v: int):
        # pair_index(n, u, v), written out: this runs once per drawn pair.
        if u > v:
            u, v = v, u
        m = 2 * self.n - 1
        pos = self.pos
        k = u * (m - u) // 2 + v - u - 1
        i = pos[k]
        if i < 0:
            return
        pos[k] = -1
        pairs = self.pairs
        last = pairs.pop()
        if i < len(pairs):
            pairs[i] = last
            a, b = last
            pos[a * (m - a) // 2 + b - a - 1] = i

    def sample(self, rng):
        return self.pairs[rng.randrange(len(self.pairs))]

    def __len__(self):
        return len(self.pairs)


class RandomStrategy(Strategy):
    """Uniformly random undirected pairs, each direction a fair coin."""

    def __init__(self, role: str):
        self.role = role

    def start(self, config, rng):
        super().start(config, rng)
        self.rng = rng
        self.free = _FreePairList(config.n)

    def observe(self, board, role, move):
        # next_move already took its own pairs off the list.
        if role == self.role:
            return
        for (u, v) in move:
            self.free.remove(u, v)

    def next_move(self, board: Board, transcript):
        bias = self.config.p if self.role == MAKER else self.config.q
        want = min(bias, len(self.free))
        arcs = []
        for _ in range(want):
            u, v = self.free.sample(self.rng)
            self.free.remove(u, v)
            arcs.append((u, v) if self.rng.random() < 0.5 else (v, u))
        return tuple(arcs)


class BreakerGreedyStar(Strategy):
    """Point every arc away from one starvation target.

    Each turn it picks the vertex closest to becoming an in-degree-0
    source (fewest in-arcs, then fewest undirected pairs left, then lowest
    index) and orients that vertex's undirected pairs outward.
    """

    role = BREAKER

    def next_move(self, board: Board, transcript):
        # The keys are read once, so the targets come in ascending key
        # order; a pair between two targets went to the earlier one.  Key
        # (in, free, v) is packed as the int (in*n + free)*n + v: each part
        # is below n, so the ints order as the tuples would.
        n = board.n
        last = n - 1
        outs, ins = board.degrees()
        keys = [(i * n + last - o - i) * n + v for v, (o, i) in enumerate(zip(outs, ins))
                if o + i < last]
        heapq.heapify(keys)
        budget = self.config.q
        arcs = []
        targets: set[int] = set()
        while keys:
            target = heapq.heappop(keys) % n
            for w in board.undirected_neighbors(target):
                if w not in targets:
                    arcs.append((target, w))
                    if len(arcs) == budget:
                        return tuple(arcs)
            targets.add(target)
        return tuple(arcs)


class MakerGreedyAttack(Strategy):
    """Feed in-arcs to a fixed target set, lowest live target first.

    Built as the adversary of the box Breaker: orient some edge into the
    lowest target vertex that still has in-degree 0, killing its box.
    """

    role = MAKER

    def __init__(self, targets):
        self.targets = sorted(targets)

    def next_move(self, board: Board, transcript):
        n = board.n
        for v in self.targets:
            if board.in_degree(v) == 0 and board.out_degree(v) < n - 1:
                return ((board.undirected_neighbors(v)[0], v),)
        # Nothing left to kill: lowest undirected pair, low to high.
        return (board.lowest_undirected(),)
