"""Partial orientations of the complete graph K_n.

A board tracks, for every unordered vertex pair {u, v}, whether the pair is
still undirected or has been oriented one way.  Orientation is write-once:
an oriented pair never changes.  When no undirected pair remains the board
is a tournament.

Pairs are stored in a flat triangular bytearray indexed by (u, v) with
u < v, one state byte per pair (0 undirected, 1 low-to-high, 2
high-to-low).  The raw bytes double as the canonical board encoding used
for solver memoization: a base-3 digit string in pair-index order, which is
injective and cheap to hash.  Per-vertex out- and in-degree counts and
out-neighbour bitmasks are kept beside the bytes, updated on every
orientation, so degree queries are O(1) and graph searches can walk a
vertex's out-neighbours with bit operations.  A whole move is checked by
the game's rules and written in one pass over its arcs (apply_checked).
"""

from __future__ import annotations

import hashlib

from .errors import AlreadyOriented, OutOfRange, ParseError, SelfLoop

UNDIRECTED = 0
LOW_HIGH = 1
HIGH_LOW = 2


def pair_index(n: int, u: int, v: int) -> int:
    """Index of pair {u, v} (u < v required) in the triangular table."""
    return u * (2 * n - u - 1) // 2 + (v - u - 1)


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def all_pairs(n: int):
    """All unordered pairs (u, v), u < v, in canonical lexicographic order."""
    for u in range(n):
        for v in range(u + 1, n):
            yield (u, v)


class Board:
    """A partial orientation of K_n on vertices 0..n-1."""

    __slots__ = ("n", "_st", "undirected_count", "_out", "_in", "_outm")

    def __init__(self, n: int):
        if n < 1:
            raise OutOfRange(f"need n >= 1, got {n}")
        self.n = n
        self._st = bytearray(pair_count(n))
        self.undirected_count = pair_count(n)
        self._out = [0] * n
        self._in = [0] * n
        self._outm = [0] * n  # bit w of _outm[v] is set iff v->w

    # -- basic queries -------------------------------------------------

    def _check_pair(self, u: int, v: int):
        if u == v:
            raise SelfLoop(f"pair ({u},{v})")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise OutOfRange(f"pair ({u},{v}) outside 0..{self.n - 1}")

    def arc(self, u: int, v: int) -> int:
        """+1 if u->v is oriented, -1 if v->u, 0 if the pair is undirected."""
        self._check_pair(u, v)
        if u < v:
            s = self._st[pair_index(self.n, u, v)]
            return 0 if s == UNDIRECTED else (1 if s == LOW_HIGH else -1)
        s = self._st[pair_index(self.n, v, u)]
        return 0 if s == UNDIRECTED else (1 if s == HIGH_LOW else -1)

    def is_undirected(self, u: int, v: int) -> bool:
        return self.arc(u, v) == 0

    def orient(self, u: int, v: int) -> None:
        """Record the arc u->v.  The pair must currently be undirected."""
        self._check_pair(u, v)
        a, b = (u, v) if u < v else (v, u)
        i = pair_index(self.n, a, b)
        if self._st[i] != UNDIRECTED:
            raise AlreadyOriented(f"pair ({a},{b}) already oriented")
        self._st[i] = LOW_HIGH if u < v else HIGH_LOW
        self.undirected_count -= 1
        self._out[u] += 1
        self._in[v] += 1
        self._outm[u] |= 1 << v

    # -- moves -------------------------------------------------------------

    def check_move(self, move, bias: int) -> str | None:
        """Reason the move is illegal on this board, or None if it is fine.

        A move is a tuple or list of at least one arc, at most bias (or all
        remaining pairs if fewer), no pair repeated, and every pair
        undirected.  The reason names the first broken rule, arc by arc.
        """
        if not isinstance(move, (tuple, list)):
            return f"malformed move {move!r}"
        if not move:
            return "empty move"
        limit = min(bias, self.undirected_count)
        if len(move) > limit:
            return f"{len(move)} arcs exceeds allowance {limit}"
        n, st = self.n, self._st
        row = 2 * n - 1  # pair_index, inlined
        seen = set()
        for arc in move:
            if not isinstance(arc, (tuple, list)) or len(arc) != 2:
                return f"malformed arc {arc!r}"
            u, v = arc
            # Exactly int: a bool would pass as one but be recorded as "True>2".
            if type(u) is not int or type(v) is not int:
                return f"non-integer vertex in arc {arc!r}"
            if u == v:
                return f"self-loop at {u}"
            if not (0 <= u < n and 0 <= v < n):
                return f"arc ({u},{v}) out of range"
            a, b = (u, v) if u < v else (v, u)
            i = a * (row - a) // 2 + (b - a - 1)
            if i in seen:
                return f"pair {(a, b)} repeated in move"
            if st[i] != UNDIRECTED:
                return f"pair {(a, b)} already oriented"
            seen.add(i)
        return None

    def apply_checked(self, move, bias: int) -> str | None:
        """Play the move if it is legal; else leave the board untouched.

        Returns the reason the move is illegal, or None once it is played.
        """
        reason = self.check_move(move, bias)
        if reason is None:
            st, out, inn, outm = self._st, self._out, self._in, self._outm
            row = 2 * self.n - 1
            # The pair indices are worked out again, not kept from
            # check_move: a list of them per move, allocated between the
            # game's long-lived move tuples, raised the peak RSS of an
            # n=400 game by about 0.5 MB.
            for (u, v) in move:
                if u < v:
                    st[u * (row - u) // 2 + (v - u - 1)] = LOW_HIGH
                else:
                    st[v * (row - v) // 2 + (u - v - 1)] = HIGH_LOW
                out[u] += 1
                inn[v] += 1
                outm[u] |= 1 << v
            self.undirected_count -= len(move)
        return reason

    def _undo_orient(self, u: int, v: int) -> None:
        # Solver-internal: make the pair {u, v} undirected again.  The arc's
        # direction is read from the stored byte, not from the argument order.
        a, b = (u, v) if u < v else (v, u)
        i = pair_index(self.n, a, b)
        s = self._st[i]
        assert s != UNDIRECTED
        tail, head = (a, b) if s == LOW_HIGH else (b, a)
        self._st[i] = UNDIRECTED
        self.undirected_count += 1
        self._out[tail] -= 1
        self._in[head] -= 1
        self._outm[tail] &= ~(1 << head)

    def is_tournament(self) -> bool:
        return self.undirected_count == 0

    def lowest_undirected(self) -> tuple[int, int] | None:
        """First undirected pair in canonical order, or None on a tournament."""
        i = self._st.find(UNDIRECTED)
        if i < 0:
            return None
        u = 0
        while i >= self.n - 1 - u:
            i -= self.n - 1 - u
            u += 1
        return (u, u + 1 + i)

    def undirected_pairs(self) -> list[tuple[int, int]]:
        """Undirected pairs in canonical (u < v) lexicographic order."""
        st = self._st
        n = self.n
        out = []
        i = 0
        for u in range(n):
            for v in range(u + 1, n):
                if st[i] == UNDIRECTED:
                    out.append((u, v))
                i += 1
        return out

    def arcs(self):
        """All oriented arcs (tail, head), in pair-index order."""
        st = self._st
        i = 0
        for u in range(self.n):
            for v in range(u + 1, self.n):
                s = st[i]
                if s == LOW_HIGH:
                    yield (u, v)
                elif s == HIGH_LOW:
                    yield (v, u)
                i += 1

    # -- neighborhoods ---------------------------------------------------

    def undirected_neighbors(self, v: int) -> list[int]:
        """Vertices w whose pair with v is still undirected, ascending."""
        n, st = self.n, self._st
        out = []
        i = v - 1  # index of pair (0, v); pair (w+1, v) sits n-2-w further on
        for w in range(v):
            if st[i] == UNDIRECTED:
                out.append(w)
            i += n - 2 - w
        base = pair_index(n, v, v + 1)
        row = st[base : base + n - 1 - v]
        out.extend(v + 1 + j for j, s in enumerate(row) if s == UNDIRECTED)
        return out

    def out_degree(self, v: int) -> int:
        return self._out[v]

    def in_degree(self, v: int) -> int:
        return self._in[v]

    def degrees(self) -> tuple[list[int], list[int]]:
        """Out- and in-degree of every vertex, as two fresh lists."""
        return self._out[:], self._in[:]

    def out_mask(self, v: int) -> int:
        """Out-neighbours of v as a bitmask: bit w is set iff v->w."""
        return self._outm[v]

    def out_set(self, vertices) -> set[int]:
        """N+(A): vertices outside A receiving an arc from A."""
        a = set(vertices)
        return {
            w
            for w in range(self.n)
            if w not in a and any(self.arc(u, w) == 1 for u in a)
        }

    def in_set(self, vertices) -> set[int]:
        """N-(A): vertices outside A sending an arc into A."""
        a = set(vertices)
        return {
            w
            for w in range(self.n)
            if w not in a and any(self.arc(u, w) == -1 for u in a)
        }

    # -- copying / hashing -------------------------------------------------

    def copy(self) -> "Board":
        b = Board.__new__(Board)
        b.n = self.n
        b._st = bytearray(self._st)
        b.undirected_count = self.undirected_count
        b._out = self._out[:]
        b._in = self._in[:]
        b._outm = self._outm[:]
        return b

    def canonical_key(self) -> bytes:
        """Injective encoding of the arc states, for memo tables."""
        return bytes(self._st)

    def digest(self) -> str:
        h = hashlib.sha256(self.n.to_bytes(4, "big"))
        h.update(self._st)
        return h.hexdigest()[:16]

    def relabeled(self, perm) -> "Board":
        """Board with vertex i renamed perm[i]; arcs carried along."""
        b = Board(self.n)
        for (u, v) in self.arcs():
            b.orient(perm[u], perm[v])
        return b

    def induced(self, vertices) -> "Board":
        """Sub-board on the given vertices, renumbered in sorted order."""
        vs = sorted(set(vertices))
        index = {v: i for i, v in enumerate(vs)}
        b = Board(len(vs))
        for u in vs:
            for v in vs:
                if u < v:
                    a = self.arc(u, v)
                    if a == 1:
                        b.orient(index[u], index[v])
                    elif a == -1:
                        b.orient(index[v], index[u])
        return b

    def __eq__(self, other):
        return (
            isinstance(other, Board)
            and self.n == other.n
            and self._st == other._st
        )

    def __hash__(self):
        return hash((self.n, bytes(self._st)))

    def __repr__(self):
        return f"Board(n={self.n}, oriented={pair_count(self.n) - self.undirected_count})"

    # -- text format -------------------------------------------------------
    # First line "n=<int>", then one line "u>v" per oriented arc.
    # Undirected pairs are omitted; round-trips losslessly.

    def to_text(self) -> str:
        lines = [f"n={self.n}"]
        lines.extend(f"{u}>{v}" for (u, v) in self.arcs())
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Board":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("n="):
            raise ParseError("expected first line 'n=<int>'")
        try:
            n = int(lines[0][2:])
        except ValueError:
            raise ParseError(f"bad vertex count: {lines[0]!r}") from None
        board = cls(n)
        for ln in lines[1:]:
            if ">" not in ln:
                raise ParseError(f"bad arc line: {ln!r}")
            left, right = ln.split(">", 1)
            try:
                u, v = int(left), int(right)
            except ValueError:
                raise ParseError(f"bad arc line: {ln!r}") from None
            try:
                board.orient(u, v)
            except (SelfLoop, OutOfRange, AlreadyOriented) as e:
                raise ParseError(f"illegal arc {ln!r}: {e}") from None
        return board


def new_board(n: int) -> Board:
    """Fresh board with all C(n,2) pairs undirected."""
    return Board(n)
