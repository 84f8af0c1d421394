"""Path-growing Maker strategies and the out-star Breaker.

The cycle Maker maintains a directed path that gains at least one arc per
round: it first absorbs any free extensions the board already offers
(prepend, append, or splice of an outside vertex), then either closes a
cycle over an undirected back-pair of the path or orients one new arc that
inserts an outside vertex.  The k-cycle variant only closes back-pairs
whose cycle length is k plus a multiple of k-2, which is exactly what the
chord recursion needs to pull an actual k-cycle out of the final
tournament.
"""

from __future__ import annotations

from ..board import Board
from ..engine import BREAKER, MAKER, Strategy
from ..errors import BadConfig, StrategyStuck


class MakerCycle(Strategy):
    """Close a cycle as soon as an undirected back-pair allows, else extend."""

    role = MAKER

    def __init__(self, cycle_length: int | None = None):
        # cycle_length=None plays the plain cycle game; k >= 3 restricts
        # closing to lengths k + (k-2)r.
        self.k = cycle_length

    def start(self, config, rng):
        super().start(config, rng)
        self.path: list[int] = []
        self.closed: list[int] | None = None

    def state_key(self):
        return (tuple(self.path), tuple(self.closed) if self.closed else None)

    def _qualifies(self, length: int) -> bool:
        if self.k is None:
            return length >= 3
        return length >= self.k and (length - self.k) % (self.k - 2) == 0

    def _absorb(self, board: Board):
        """Grow the path along arcs that already exist, until stable."""
        path = self.path
        on_path = set(path)
        changed = True
        while changed:
            changed = False
            for w in range(board.n):
                if w in on_path:
                    continue
                if board.arc(w, path[0]) == 1:
                    path.insert(0, w)
                    on_path.add(w)
                    changed = True
                    break
                if board.arc(path[-1], w) == 1:
                    path.append(w)
                    on_path.add(w)
                    changed = True
                    break
                spliced = False
                for i in range(len(path) - 1):
                    if board.arc(path[i], w) == 1 and board.arc(w, path[i + 1]) == 1:
                        path.insert(i + 1, w)
                        on_path.add(w)
                        changed = True
                        spliced = True
                        break
                if spliced:
                    break

    def next_move(self, board: Board, transcript):
        if self.closed is not None:
            return (self._filler(board),)
        if not self.path:
            pair = board.lowest_undirected()
            self.path = [pair[0], pair[1]]
            return (pair,)
        self._absorb(board)
        path = self.path
        r = len(path)
        # Closing rule: an undirected pair of path vertices, oriented from
        # the later one back to the earlier, closes a cycle of their index
        # distance plus one.
        for i in range(r - 2):
            for j in range(i + 2, r):
                if self._qualifies(j - i + 1) and board.is_undirected(path[i], path[j]):
                    self.closed = path[i : j + 1]
                    return ((path[j], path[i]),)
        # Extension rule: lowest outside vertex; orient from the highest
        # path position whose pair with it is undirected.
        for v in range(board.n):
            if v in path:
                continue
            ks = [k for k in range(r) if board.is_undirected(v, path[k])]
            if not ks:
                raise StrategyStuck(
                    f"outside vertex {v} fully decided against path {path}"
                )
            k = max(ks)
            self.path = path[: k + 1] + [v] + path[k + 1 :]
            return ((path[k], v),)
        # Path spans every vertex and no back-pair qualifies: mark time.
        return (self._filler(board),)

    def _filler(self, board: Board):
        pair = board.lowest_undirected()
        if pair is None:
            raise StrategyStuck("asked to move on a complete board")
        return pair


class MakerCk(MakerCycle):
    """Cycle Maker restricted to closing lengths k + (k-2)r."""

    def __init__(self, k: int):
        if k < 3:
            raise BadConfig("cycle target must be >= 3")
        super().__init__(cycle_length=k)


class BreakerOutStar(Strategy):
    """Answer each Maker arc u->v by orienting every undirected pair at u
    away from u.

    Needs bias q >= n-2 (and Maker at bias 1) to be guaranteed legal; the
    resulting tournament is acyclic in every line because the first arc of
    any would-be cycle gets its predecessor arc reversed on the spot.
    """

    role = BREAKER

    def next_move(self, board: Board, transcript):
        last = None
        for role, move in reversed(transcript):
            if role == MAKER:
                last = move
                break
        arcs = []
        if last is not None:
            for u in dict.fromkeys(u for (u, _v) in last):
                arcs.extend((u, w) for w in board.undirected_neighbors(u))
        if len(arcs) > self.config.q:
            arcs = arcs[: self.config.q]
        if not arcs:
            arcs = [board.lowest_undirected()]
        return tuple(arcs)
