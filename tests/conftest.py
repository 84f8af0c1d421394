"""Shared brute-force oracles for the test suite.

Everything here is deliberately independent of the package's algorithms:
factorial enumerations, bitmask DFS, and exhaustive generation, kept to
sizes where being dumb is affordable.  Package code must never be used to
compute an expected value that a test then asserts against package code.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from orientgames.board import Board, all_pairs

# Property tests draw the same examples on every run, so a Tier-1 result
# never depends on which examples a run happened to try; no deadline,
# because a loaded machine can stall a single example past any limit.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


def all_tournaments(n):
    """Every tournament on n labeled vertices, as Boards."""
    pairs = list(all_pairs(n))
    for bits in range(1 << len(pairs)):
        b = Board(n)
        for i, (u, v) in enumerate(pairs):
            if (bits >> i) & 1:
                b.orient(u, v)
            else:
                b.orient(v, u)
        yield b


def random_tournament(n, rng):
    b = Board(n)
    for (u, v) in all_pairs(n):
        if rng.random() < 0.5:
            b.orient(u, v)
        else:
            b.orient(v, u)
    return b


@st.composite
def boards(draw, max_n, tournament):
    """A board on 1..max_n vertices; every pair oriented if tournament."""
    n = draw(st.integers(1, max_n))
    states = st.sampled_from([1, -1] if tournament else [0, 1, -1])
    b = Board(n)
    for (u, v) in all_pairs(n):
        s = draw(states)
        if s:
            b.orient(*((u, v) if s == 1 else (v, u)))
    return b


def random_oriented_graph(n, rng, density=0.5):
    """Random partial orientation: each pair oriented with prob density."""
    b = Board(n)
    for (u, v) in all_pairs(n):
        if rng.random() < density:
            if rng.random() < 0.5:
                b.orient(u, v)
            else:
                b.orient(v, u)
    return b


def reference_move_reason(board, move, bias):
    """Why a move is illegal, or None: the rules one arc at a time through
    arc(), reporting the first arc that breaks one."""
    if not isinstance(move, (tuple, list)):
        return f"malformed move {move!r}"
    if not move:
        return "empty move"
    limit = min(bias, board.undirected_count)
    if len(move) > limit:
        return f"{len(move)} arcs exceeds allowance {limit}"
    seen = set()
    for arc in move:
        if not isinstance(arc, (tuple, list)) or len(arc) != 2:
            return f"malformed arc {arc!r}"
        u, v = arc
        if type(u) is not int or type(v) is not int:
            return f"non-integer vertex in arc {arc!r}"
        if u == v:
            return f"self-loop at {u}"
        if not (0 <= u < board.n and 0 <= v < board.n):
            return f"arc ({u},{v}) out of range"
        pair = (min(u, v), max(u, v))
        if pair in seen:
            return f"pair {pair} repeated in move"
        seen.add(pair)
        if board.arc(u, v) != 0:
            return f"pair {pair} already oriented"
    return None


def brute_fas_min(t, arcs):
    """Minimum back-arc count over all t! orderings."""
    best = None
    for perm in itertools.permutations(range(t)):
        rank = [0] * t
        for pos, v in enumerate(perm):
            rank[v] = pos
        back = sum(1 for (u, v) in arcs if rank[u] > rank[v])
        if best is None or back < best:
            best = back
    return best


def brute_hamilton_cycle(board):
    """Bitmask DFS for a Hamilton cycle, anchored at vertex 0."""
    n = board.n
    if n == 1:
        return [0]
    adj = [[w for w in range(n) if w != v and board.arc(v, w) == 1] for v in range(n)]
    path = [0]

    def visit(v, visited):
        if visited == (1 << n) - 1:
            return board.arc(v, 0) == 1
        for w in adj[v]:
            if not (visited >> w) & 1:
                path.append(w)
                if visit(w, visited | (1 << w)):
                    return True
                path.pop()
        return False

    if visit(0, 1):
        return list(path)
    return None


def brute_longest_path(board):
    """Exhaustive DFS over all simple directed paths; returns best length
    in arcs."""
    n = board.n
    adj = [[w for w in range(n) if w != v and board.arc(v, w) == 1] for v in range(n)]
    best = 0

    def visit(v, visited, length):
        nonlocal best
        best = max(best, length)
        for w in adj[v]:
            if not (visited >> w) & 1:
                visit(w, visited | (1 << w), length + 1)

    for v in range(n):
        visit(v, 1 << v, 0)
    return best


def brute_embedding_exists(board, t, arcs):
    """Check all injections of 0..t-1 into the board."""
    for image in itertools.permutations(range(board.n), t):
        if all(board.arc(image[u], image[v]) == 1 for (u, v) in arcs):
            return True
    return False


def is_transitive_set(board, vertices):
    vs = list(vertices)
    for a, b, c in itertools.combinations(vs, 3):
        arcs = [(a, b), (b, c), (a, c)]
        # cyclic iff the three arcs do not admit a topological order
        for perm in itertools.permutations((a, b, c)):
            if (
                board.arc(perm[0], perm[1]) == 1
                and board.arc(perm[1], perm[2]) == 1
                and board.arc(perm[0], perm[2]) == 1
            ):
                break
        else:
            return False
    return True


def brute_two_colorable(board):
    """Enumerate every bipartition; True iff both sides are transitive."""
    n = board.n
    for bits in range(1 << (n - 1)):  # vertex n-1 fixed on side 0
        side0 = [v for v in range(n) if not (bits >> v) & 1]
        side1 = [v for v in range(n) if (bits >> v) & 1]
        if is_transitive_set(board, side0) and is_transitive_set(board, side1):
            return True
    return False


def kahn_topological_order(board):
    """Topological order of the oriented graph, or None if cyclic."""
    n = board.n
    indeg = [0] * n
    for (_, v) in board.arcs():
        indeg[v] += 1
    queue = sorted(v for v in range(n) if indeg[v] == 0)
    order = []
    while queue:
        v = queue.pop(0)
        order.append(v)
        for w in [w for w in range(n) if w != v and board.arc(v, w) == 1]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
        queue.sort()
    return order if len(order) == n else None


@pytest.fixture
def rng():
    return random.Random(20260810)
