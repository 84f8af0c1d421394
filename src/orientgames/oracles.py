"""Exact graph-property oracles.

These serve three roles: win-condition judges for the engine, subroutines
inside strategies, and ground truth for the exhaustive test suites.  All
functions are pure; none mutate their inputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .board import Board
from .errors import (
    BadLength,
    BudgetExceeded,
    InvalidCycle,
    NotATournament,
    ParseError,
)

FAS_EXACT_MAX = 12
KCOLOR_MAX_N = 15
KCOLOR_MAX_K = 4


# ---------------------------------------------------------------------------
# Pattern graphs (fixed oriented graphs used as creation targets)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PatternGraph:
    """A fixed oriented graph on vertices 0..t-1, given by its arc set."""

    t: int
    arcs: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.t < 1:
            raise ParseError(f"need t >= 1, got {self.t}")
        object.__setattr__(self, "arcs", frozenset(self.arcs))
        for (u, v) in self.arcs:
            if u == v:
                raise ParseError(f"loop at {u}")
            if not (0 <= u < self.t and 0 <= v < self.t):
                raise ParseError(f"arc ({u},{v}) outside 0..{self.t - 1}")
            if (v, u) in self.arcs:
                raise ParseError(f"pair {{{u},{v}}} oriented both ways")

    def is_tournament(self) -> bool:
        return len(self.arcs) == self.t * (self.t - 1) // 2

    def out_mask(self, v: int) -> int:
        m = 0
        for (a, b) in self.arcs:
            if a == v:
                m |= 1 << b
        return m

    def to_text(self) -> str:
        lines = [f"n={self.t}"]
        lines.extend(f"{u}>{v}" for (u, v) in sorted(self.arcs))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "PatternGraph":
        b = Board.from_text(text)
        return cls(b.n, frozenset(b.arcs()))

    @classmethod
    def from_board(cls, board: Board) -> "PatternGraph":
        return cls(board.n, frozenset(board.arcs()))

    @classmethod
    def cycle(cls, k: int) -> "PatternGraph":
        """The directed cycle C_k."""
        return cls(k, frozenset((i, (i + 1) % k) for i in range(k)))


# ---------------------------------------------------------------------------
# Cycles and connectivity
# ---------------------------------------------------------------------------


def find_cycle(board: Board):
    """Some directed cycle as a vertex list, or None if the graph is acyclic.

    Depth-first search over the out-neighbour masks, lowest vertex first.
    On a complete tournament the returned cycle is shortened to length 3
    (a tournament with any cycle has a directed triangle).
    """
    n = board.n
    masks = [board.out_mask(v) for v in range(n)]
    seen = 0  # bitmask of vertices entered: on the stack or done
    done = 0  # bitmask of vertices whose search has finished
    parent = [-1] * n
    for root in range(n):
        if seen >> root & 1:
            continue
        seen |= 1 << root
        stack = [(root, masks[root])]
        while stack:
            v, m = stack[-1]
            m &= ~done
            if not m:
                done |= 1 << v
                stack.pop()
                continue
            bit = m & -m
            w = bit.bit_length() - 1
            stack[-1] = (v, m ^ bit)
            if seen & bit:  # w is on the stack: v->w closes a cycle
                cyc = [v]
                x = v
                while x != w:
                    x = parent[x]
                    cyc.append(x)
                cyc.reverse()
                if board.is_tournament():
                    cyc = _shorten_in_tournament(board, cyc)
                return cyc
            seen |= bit
            parent[w] = v
            stack.append((w, masks[w]))
    return None


def topological_order(board: Board):
    """The vertices in an order with every arc pointing forward, or None
    if the board has a cycle (Kahn's algorithm over the out-neighbour
    masks)."""
    indeg = board.degrees()[1]
    ready = [v for v in range(board.n) if not indeg[v]]
    order = []
    while ready:
        v = ready.pop()
        order.append(v)
        m = board.out_mask(v)
        while m:
            bit = m & -m
            m ^= bit
            w = bit.bit_length() - 1
            indeg[w] -= 1
            if not indeg[w]:
                ready.append(w)
    return order if len(order) == board.n else None


def reaches(board: Board, src: int, dst: int) -> bool:
    """True iff a directed path leads from src to dst (src reaches itself)."""
    return reaches_from(board, 1 << src, dst)


def reaches_from(board: Board, sources: int, dst: int) -> bool:
    """True iff a directed path leads to dst from some vertex of the
    bitmask sources (a source reaches itself).

    Breadth-first over the out-neighbour masks, a whole frontier per step:
    the frontier's masks are ORed into the next frontier, and the search
    stops as soon as dst's bit appears.
    """
    out_mask = board.out_mask
    target = 1 << dst
    seen = frontier = sources
    while frontier:
        if frontier & target:
            return True
        reach = 0
        while frontier:
            bit = frontier & -frontier
            frontier ^= bit
            reach |= out_mask(bit.bit_length() - 1)
        frontier = reach & ~seen
        seen |= reach
    return False


def _shorten_in_tournament(board: Board, cycle: list[int]) -> list[int]:
    # Repeatedly use the chord between cycle[0] and cycle[2]: either it
    # closes a triangle or it shortcuts the cycle by one vertex.
    cyc = list(cycle)
    while len(cyc) > 3:
        if board.arc(cyc[2], cyc[0]) == 1:
            return [cyc[0], cyc[1], cyc[2]]
        cyc = [cyc[0]] + cyc[2:]
    return cyc


def is_directed_cycle(board: Board, cycle) -> bool:
    """True iff the vertex list is a simple directed cycle in the board."""
    m = len(cycle)
    if m < 3 or len(set(cycle)) != m:
        return False
    return all(board.arc(cycle[i], cycle[(i + 1) % m]) == 1 for i in range(m))


def scc_sizes(board: Board) -> list[int]:
    """Sizes of the strongly connected components (iterative Tarjan).

    Out-neighbours are walked lowest vertex first.
    """
    n = board.n
    masks = [board.out_mask(v) for v in range(n)]
    index = [-1] * n
    low = [0] * n
    entered = 0  # bitmask of vertices with an index
    on_stack = 0  # bitmask of vertices on comp_stack
    comp_stack: list[int] = []
    sizes = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, masks[root])]
        index[root] = low[root] = counter
        counter += 1
        comp_stack.append(root)
        entered |= 1 << root
        on_stack |= 1 << root
        while work:
            v, m = work[-1]
            # Entered vertices off the stack are in finished components.
            m &= ~entered | on_stack
            advanced = False
            while m:
                bit = m & -m
                m ^= bit
                w = bit.bit_length() - 1
                if not entered & bit:
                    work[-1] = (v, m)
                    work.append((w, masks[w]))
                    index[w] = low[w] = counter
                    counter += 1
                    comp_stack.append(w)
                    entered |= bit
                    on_stack |= bit
                    advanced = True
                    break
                if index[w] < low[v]:
                    low[v] = index[w]
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                size = 0
                while True:
                    w = comp_stack.pop()
                    on_stack &= ~(1 << w)
                    size += 1
                    if w == v:
                        break
                sizes.append(size)
            if work:
                pv, _ = work[-1]
                low[pv] = min(low[pv], low[v])
    return sizes


def is_strongly_connected(board: Board) -> bool:
    return max(scc_sizes(board)) == board.n


def max_scc_size(board: Board) -> int:
    return max(scc_sizes(board))


# ---------------------------------------------------------------------------
# Hamilton cycles in tournaments
# ---------------------------------------------------------------------------


def hamilton_cycle(board: Board):
    """Hamilton cycle of a strongly connected tournament, or None.

    Builds the cycle by repeated extension: start from a directed triangle;
    an outside vertex either splices in at a consecutive in/out switch, or,
    when all its arcs to the cycle point one way, is routed in through a
    shortest outside path (which exists by strong connectivity).

    Convention: the one-vertex tournament counts as Hamiltonian and yields
    the trivial cycle [0], keeping "Hamiltonian iff strongly connected"
    true for every n >= 1.
    """
    if not board.is_tournament():
        raise NotATournament(f"{board.undirected_count} pairs undirected")
    n = board.n
    if n == 1:
        return [0]
    if not is_strongly_connected(board):
        return None
    cyc = find_cycle(board)
    assert cyc is not None and len(cyc) == 3
    in_cyc = [False] * n
    for v in cyc:
        in_cyc[v] = True
    while len(cyc) < n:
        v = next(w for w in range(n) if not in_cyc[w])
        r = len(cyc)
        spliced = False
        for i in range(r):
            if board.arc(cyc[i], v) == 1 and board.arc(v, cyc[(i + 1) % r]) == 1:
                cyc = cyc[: i + 1] + [v] + cyc[i + 1 :]
                in_cyc[v] = True
                spliced = True
                break
        if spliced:
            continue
        # All arcs between v and the cycle point the same way.
        if board.arc(cyc[0], v) == 1:
            # Cycle dominates v: shortest path from v back to the cycle.
            path = _path_to_targets(board, v, in_cyc)
            i = cyc.index(path[-1])
            cyc = cyc[:i] + path[:-1] + cyc[i:]
        else:
            # v dominates the cycle: shortest path from the cycle to v,
            # found by walking backward from v.
            path = _path_to_targets(board, v, in_cyc, backward=True)
            path.reverse()  # now starts at a cycle vertex, ends at v
            j = cyc.index(path[0])
            cyc = cyc[: j + 1] + path[1:] + cyc[j + 1 :]
        for w in path:
            if not in_cyc[w]:
                in_cyc[w] = True
    return cyc


def _path_to_targets(board: Board, start: int, target: list[bool], backward=False):
    """BFS path [start, ..., t] whose interior avoids targets, t a target."""
    n = board.n
    prev = [-1] * n
    seen = [False] * n
    seen[start] = True
    queue = [start]
    want = -1 if backward else 1
    while queue:
        nxt = []
        for v in queue:
            for w in range(n):
                if w == v or seen[w]:
                    continue
                if board.arc(v, w) != want:
                    continue
                prev[w] = v
                if target[w]:
                    path = [w]
                    x = w
                    while x != start:
                        x = prev[x]
                        path.append(x)
                    path.reverse()
                    return path
                seen[w] = True
                nxt.append(w)
        queue = nxt
    raise AssertionError("no path found; board not strongly connected?")


# ---------------------------------------------------------------------------
# Cycle length surgery
# ---------------------------------------------------------------------------


def extract_ck(board: Board, cycle, k: int):
    """Shrink a directed cycle of length k+(k-2)r down to one of length k.

    Looks at the chord between the k-th and first cycle vertices: either it
    closes a k-cycle directly, or it shortcuts the cycle by k-2 vertices,
    and the recursion repeats.  Requires the board to be a tournament so
    the chord is always oriented.
    """
    if k < 3:
        raise BadLength(f"need k >= 3, got {k}")
    if not board.is_tournament():
        raise NotATournament("chord recursion needs all pairs oriented")
    cyc = list(cycle)
    if not is_directed_cycle(board, cyc):
        raise InvalidCycle(f"not a directed cycle: {cyc}")
    if (len(cyc) - k) % (k - 2) != 0 or len(cyc) < k:
        raise BadLength(f"length {len(cyc)} not of the form {k}+({k}-2)r")
    while len(cyc) > k:
        if board.arc(cyc[k - 1], cyc[0]) == 1:
            return cyc[:k]
        # Chord points forward: drop cyc[1..k-2], keeping a shorter cycle.
        cyc = [cyc[0]] + cyc[k - 1 :]
    return cyc


# ---------------------------------------------------------------------------
# Feedback arc sets
# ---------------------------------------------------------------------------


def fas_exact(pattern: PatternGraph) -> tuple[int, tuple[int, ...]]:
    """Minimum feedback arc set value and a witness ordering.

    Subset DP over 2^t states: append one vertex last within the subset;
    its arcs into the rest of the subset are the back-arcs it pays for.
    O(2^t * t) after bitmask precomputation.
    """
    t = pattern.t
    if t > FAS_EXACT_MAX:
        raise BudgetExceeded(f"fas_exact capped at t={FAS_EXACT_MAX}")
    out_mask = [pattern.out_mask(v) for v in range(t)]
    full = (1 << t) - 1
    dp = [0] * (1 << t)
    for mask in range(1, full + 1):
        best = None
        m = mask
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            rest = mask & ~(1 << v)
            cost = dp[rest] + bin(out_mask[v] & rest).count("1")
            if best is None or cost < best:
                best = cost
        dp[mask] = best
    # Reconstruct: peel off the last-ranked vertex of each prefix set.
    sigma = [0] * t
    mask = full
    rank = t - 1
    while mask:
        m = mask
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            rest = mask & ~(1 << v)
            if dp[rest] + bin(out_mask[v] & rest).count("1") == dp[mask]:
                sigma[v] = rank
                mask = rest
                rank -= 1
                break
    return dp[full], tuple(sigma)


# ---------------------------------------------------------------------------
# Pattern embedding
# ---------------------------------------------------------------------------


def contains_embedding(board: Board, pattern: PatternGraph):
    """Injective map phi with every pattern arc realized, or None.

    Backtracking over pattern vertices in decreasing-degree order, with
    degree pruning against the board.  Non-arcs of the pattern are
    unconstrained.
    """
    t, n = pattern.t, board.n
    if t > n:
        return None
    deg_out = [0] * t
    deg_in = [0] * t
    for (u, v) in pattern.arcs:
        deg_out[u] += 1
        deg_in[v] += 1
    order = sorted(range(t), key=lambda v: -(deg_out[v] + deg_in[v]))
    b_out = [board.out_degree(v) for v in range(n)]
    b_in = [board.in_degree(v) for v in range(n)]
    phi = [-1] * t
    used = [False] * n

    def place(i):
        if i == len(order):
            return True
        pv = order[i]
        earlier = [q for q in order[:i]]
        for cand in range(n):
            if used[cand]:
                continue
            if b_out[cand] < deg_out[pv] or b_in[cand] < deg_in[pv]:
                continue
            ok = True
            for q in earlier:
                if (pv, q) in pattern.arcs and board.arc(cand, phi[q]) != 1:
                    ok = False
                    break
                if (q, pv) in pattern.arcs and board.arc(phi[q], cand) != 1:
                    ok = False
                    break
            if not ok:
                continue
            phi[pv] = cand
            used[cand] = True
            if place(i + 1):
                return True
            used[cand] = False
            phi[pv] = -1
        return False

    if place(0):
        return {v: phi[v] for v in range(t)}
    return None


# ---------------------------------------------------------------------------
# Colorability into transitive parts
# ---------------------------------------------------------------------------


def k_colorable(board: Board, k: int):
    """Partition into <= k transitive parts, or None; k=1 tests transitivity.

    Exact backtracking, vertex by vertex; a part stays valid iff adding the
    vertex creates no cyclic triangle inside it.  Budget n <= 15, k <= 4.
    """
    if not board.is_tournament():
        raise NotATournament("colorability is judged on tournaments")
    n = board.n
    if n > KCOLOR_MAX_N or k > KCOLOR_MAX_K:
        raise BudgetExceeded(f"k_colorable capped at n<={KCOLOR_MAX_N}, k<={KCOLOR_MAX_K}")
    if k < 1:
        return None
    parts: list[list[int]] = [[] for _ in range(k)]

    def fits(part, v):
        for a, b in itertools.combinations(part, 2):
            # cyclic triangle test on {a, b, v}
            ab = board.arc(a, b)
            if ab == 1 and board.arc(b, v) == 1 and board.arc(v, a) == 1:
                return False
            if ab == -1 and board.arc(v, b) == 1 and board.arc(a, v) == 1:
                return False
        return True

    def assign(v):
        if v == n:
            return True
        for j in range(k):
            if j > 0 and not parts[j - 1]:
                break  # empty parts are interchangeable
            if fits(parts[j], v):
                parts[j].append(v)
                if assign(v + 1):
                    return True
                parts[j].pop()
        return False

    if assign(0):
        return [list(p) for p in parts]
    return None
