"""Random baseline and greedy adversary strategies.

These are the opponents the pipeline suites run against.  The random
strategy keeps its own free-pair list so a move costs O(bias), not O(n^2);
the greedy ones read vertex degrees straight from the board."""

from __future__ import annotations

from ..board import Board, all_pairs
from ..engine import BREAKER, MAKER, Strategy


class _FreePairList:
    """Undirected pairs with O(1) removal and uniform sampling."""

    def __init__(self, n: int):
        self.pairs = list(all_pairs(n))
        self.pos = {p: i for i, p in enumerate(self.pairs)}

    def remove(self, u: int, v: int):
        p = (u, v) if u < v else (v, u)
        i = self.pos.pop(p, None)
        if i is None:
            return
        last = self.pairs.pop()
        if last != p:
            self.pairs[i] = last
            self.pos[last] = i

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
        self.free = _FreePairList(config.n)

    def observe(self, board, role, move):
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
        n = board.n
        ins = [board.in_degree(v) for v in range(n)]
        free = [n - 1 - board.out_degree(v) - ins[v] for v in range(n)]
        arcs = []
        budget = self.config.q
        excluded: set[int] = set()
        claimed: set[tuple[int, int]] = set()
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
