import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orientgames.board import Board, all_pairs
from orientgames.errors import (
    BadLength,
    BudgetExceeded,
    InvalidCycle,
    NotATournament,
    ParseError,
)
from orientgames.oracles import (
    PatternGraph,
    contains_embedding,
    extract_ck,
    fas_exact,
    find_cycle,
    hamilton_cycle,
    is_directed_cycle,
    is_strongly_connected,
    k_colorable,
    scc_sizes,
    topological_order,
)

from conftest import (
    all_tournaments,
    back_arcs,
    boards,
    brute_embedding_exists,
    brute_fas_min,
    brute_hamilton_cycle,
    brute_two_colorable,
    is_transitive_set,
    kahn_topological_order,
    random_oriented_graph,
    random_tournament,
)


def cyclic_triangle():
    b = Board(3)
    b.orient(0, 1)
    b.orient(1, 2)
    b.orient(2, 0)
    return b


def transitive_tournament(n):
    b = Board(n)
    for (u, v) in all_pairs(n):
        b.orient(u, v)
    return b


# ---------------------------------------------------------------------------
# find_cycle / strong connectivity
# ---------------------------------------------------------------------------


def test_find_cycle_triangle():
    cyc = find_cycle(cyclic_triangle())
    assert sorted(cyc) == [0, 1, 2]
    assert is_directed_cycle(cyclic_triangle(), cyc)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_find_cycle_transitive_absent(n):
    assert find_cycle(transitive_tournament(n)) is None


def test_find_cycle_unique_cyclic_triple():
    # Transitive order on 5 vertices with the single pair (0,2) flipped:
    # brute force over all C(5,3) triples confirms {0,1,2} is the only
    # cyclic one, and find_cycle must return exactly it.
    b = Board(5)
    for (u, v) in all_pairs(5):
        if (u, v) == (0, 2):
            b.orient(v, u)
        else:
            b.orient(u, v)
    cyclic_triples = []
    for tri in itertools.combinations(range(5), 3):
        sub_arcs = [
            (x, y) for x in tri for y in tri if x != y and b.arc(x, y) == 1
        ]
        if brute_fas_min(5, sub_arcs) > 0:
            cyclic_triples.append(tri)
    assert cyclic_triples == [(0, 1, 2)]
    cyc = find_cycle(b)
    assert sorted(cyc) == [0, 1, 2]
    assert is_directed_cycle(b, cyc)


def test_find_cycle_agrees_with_topological_order(rng):
    for _ in range(60):
        b = random_oriented_graph(rng.randint(2, 10), rng, density=rng.random())
        has_cycle = find_cycle(b) is not None
        assert has_cycle == (kahn_topological_order(b) is None)


@settings(max_examples=300)
@given(board=boards(9, False))
def test_topological_order_points_every_arc_forward(board):
    order = topological_order(board)
    assert (order is None) == (kahn_topological_order(board) is None)
    if order is not None:
        assert sorted(order) == list(range(board.n))
        rank = {v: i for i, v in enumerate(order)}
        assert all(rank[u] < rank[v] for (u, v) in board.arcs())


def test_strong_connectivity_trivials():
    assert is_strongly_connected(cyclic_triangle())
    assert not is_strongly_connected(transitive_tournament(4))
    assert is_strongly_connected(Board(1))


# ---------------------------------------------------------------------------
# hamilton_cycle
# ---------------------------------------------------------------------------


def _check_hamilton(board):
    ham = hamilton_cycle(board)
    strong = is_strongly_connected(board)
    assert (ham is not None) == strong
    if ham is not None and board.n > 1:
        assert sorted(ham) == list(range(board.n))
        assert is_directed_cycle(board, ham)


def test_hamilton_trivials():
    assert hamilton_cycle(cyclic_triangle()) is not None
    assert hamilton_cycle(transitive_tournament(5)) is None
    assert hamilton_cycle(Board(1)) == [0]
    with pytest.raises(NotATournament):
        hamilton_cycle(Board(3))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_hamilton_exhaustive_small(n):
    for t in all_tournaments(n):
        _check_hamilton(t)


def test_hamilton_matches_bitmask_search(rng):
    for _ in range(150):
        t = random_tournament(rng.randint(4, 7), rng)
        ham = hamilton_cycle(t)
        brute = brute_hamilton_cycle(t)
        assert (ham is None) == (brute is None)
        _check_hamilton(t)


# ---------------------------------------------------------------------------
# extract_ck
# ---------------------------------------------------------------------------


def test_extract_ck_identity():
    t = cyclic_triangle()
    assert extract_ck(t, [0, 1, 2], 3) == [0, 1, 2]


def test_extract_ck_chord_case():
    # 5-cycle 0..4 with the chord 2->0: first branch returns [0, 1, 2].
    b = Board(5)
    for i in range(5):
        b.orient(i, (i + 1) % 5)
    b.orient(2, 0)
    b.orient(3, 0)
    b.orient(1, 3)
    b.orient(1, 4)
    b.orient(2, 4)
    assert b.is_tournament()
    assert extract_ck(b, [0, 1, 2, 3, 4], 3) == [0, 1, 2]


def test_extract_ck_errors():
    t = cyclic_triangle()
    with pytest.raises(BadLength):
        extract_ck(t, [0, 1, 2], 4)  # 3 is not 4 + 2r
    with pytest.raises(InvalidCycle):
        extract_ck(transitive_tournament(3), [0, 1, 2], 3)


def _planted_cycle_tournament(n, length, rng):
    verts = rng.sample(range(n), length)
    b = Board(n)
    for i in range(length):
        b.orient(verts[i], verts[(i + 1) % length])
    for (u, v) in all_pairs(n):
        if b.is_undirected(u, v):
            if rng.random() < 0.5:
                b.orient(u, v)
            else:
                b.orient(v, u)
    return b, verts


def test_extract_ck_random_instances(rng):
    for _ in range(300):
        k = rng.choice([3, 4, 5])
        r = rng.randint(0, 3)
        length = k + (k - 2) * r
        n = rng.randint(length, length + 4)
        board, cycle = _planted_cycle_tournament(n, length, rng)
        out = extract_ck(board, cycle, k)
        assert len(out) == k and len(set(out)) == k
        assert is_directed_cycle(board, out)


def test_extract_ck_cross_checked_against_embedding(rng):
    # k=4 out of a 6-cycle; a C_4 must exist and be found.
    for _ in range(50):
        board, cycle = _planted_cycle_tournament(8, 6, rng)
        out = extract_ck(board, cycle, 4)
        assert len(out) == 4 and is_directed_cycle(board, out)
        assert brute_embedding_exists(board, 4, PatternGraph.cycle(4).arcs)


# ---------------------------------------------------------------------------
# Out-mask walks against adjacency-list walks
# ---------------------------------------------------------------------------
# The reference versions below build adjacency lists from board.arcs() and
# walk them in list order, as the oracles did before they read the board's
# out-neighbour masks.  Both visit out-neighbours lowest first, so they must
# return the same cycle and the same size list.


def _ref_adjacency(board):
    adj = [[] for _ in range(board.n)]
    for (u, v) in board.arcs():
        adj[u].append(v)
    return adj


def _ref_find_cycle(board):
    n = board.n
    adj = _ref_adjacency(board)
    color = [0] * n
    parent = [-1] * n
    for root in range(n):
        if color[root]:
            continue
        stack = [(root, iter(adj[root]))]
        color[root] = 1
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if color[w] == 0:
                    color[w] = 1
                    parent[w] = v
                    stack.append((w, iter(adj[w])))
                    advanced = True
                    break
                if color[w] == 1:
                    cyc = [v]
                    x = v
                    while x != w:
                        x = parent[x]
                        cyc.append(x)
                    cyc.reverse()
                    if board.is_tournament():
                        while len(cyc) > 3:
                            if board.arc(cyc[2], cyc[0]) == 1:
                                return cyc[:3]
                            cyc = [cyc[0]] + cyc[2:]
                    return cyc
            if not advanced:
                color[v] = 2
                stack.pop()
    return None


def _ref_scc_sizes(board):
    n = board.n
    adj = _ref_adjacency(board)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    comp_stack = []
    sizes = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                comp_stack.append(v)
                on_stack[v] = True
            advanced = False
            while pi < len(adj[v]):
                w = adj[v][pi]
                pi += 1
                if index[w] == -1:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                size = 0
                while True:
                    w = comp_stack.pop()
                    on_stack[w] = False
                    size += 1
                    if w == v:
                        break
                sizes.append(size)
            if work:
                pv, _ = work[-1]
                low[pv] = min(low[pv], low[v])
    return sizes


@pytest.mark.parametrize("tournament", [True, False])
@settings(max_examples=300)
@given(data=st.data())
def test_mask_walks_match_adjacency_walks(tournament, data):
    b = data.draw(boards(12, tournament))
    assert find_cycle(b) == _ref_find_cycle(b)
    assert scc_sizes(b) == _ref_scc_sizes(b)


# ---------------------------------------------------------------------------
# FAS oracles
# ---------------------------------------------------------------------------


def test_pattern_rejects_two_cycles_and_loops():
    with pytest.raises(ParseError):
        PatternGraph(2, frozenset({(0, 1), (1, 0)}))
    with pytest.raises(ParseError):
        PatternGraph(2, frozenset({(1, 1)}))


def test_fas_exact_trivials():
    assert fas_exact(PatternGraph.cycle(3))[0] == 1
    acyclic = PatternGraph(4, frozenset({(0, 1), (1, 2), (0, 3)}))
    value, sigma = fas_exact(acyclic)
    assert value == 0
    assert back_arcs(acyclic, sigma) == 0
    with pytest.raises(BudgetExceeded):
        fas_exact(PatternGraph(13, frozenset()))


def test_fas_exact_witness_attains_value(rng):
    for _ in range(40):
        t = rng.randint(2, 7)
        arcs = set()
        for (u, v) in itertools.combinations(range(t), 2):
            roll = rng.random()
            if roll < 0.4:
                arcs.add((u, v))
            elif roll < 0.8:
                arcs.add((v, u))
        p = PatternGraph(t, frozenset(arcs))
        value, sigma = fas_exact(p)
        assert back_arcs(p, sigma) == value


def test_fas_exact_exhaustive_small_tournaments():
    for n in (3, 4, 5):
        for t in all_tournaments(n):
            arcs = list(t.arcs())
            p = PatternGraph(n, frozenset(arcs))
            value, _ = fas_exact(p)
            assert value == brute_fas_min(n, arcs)
            assert value <= (n * (n - 1) // 2) // 2


def test_fas_exact_random_patterns_vs_bruteforce(rng):
    for _ in range(25):
        t = rng.randint(6, 7)
        p = PatternGraph.from_board(random_tournament(t, rng))
        assert fas_exact(p)[0] == brute_fas_min(t, list(p.arcs))


def test_every_4_tournament_has_fas_at_most_1():
    # On 4 vertices no oriented graph reaches FAS 2; several spec-level
    # examples assume otherwise, so the fact is pinned here.
    assert max(fas_exact(PatternGraph.from_board(t))[0] for t in all_tournaments(4)) == 1


# ---------------------------------------------------------------------------
# contains_embedding
# ---------------------------------------------------------------------------


def test_embedding_trivials():
    c3 = PatternGraph.cycle(3)
    phi = contains_embedding(cyclic_triangle(), c3)
    assert phi is not None
    tri = cyclic_triangle()
    for (u, v) in c3.arcs:
        assert tri.arc(phi[u], phi[v]) == 1
    assert contains_embedding(transitive_tournament(6), c3) is None


def test_embedding_matches_bruteforce(rng):
    for _ in range(40):
        arcs = set()
        for (u, v) in itertools.combinations(range(4), 2):
            roll = rng.random()
            if roll < 0.4:
                arcs.add((u, v))
            elif roll < 0.8:
                arcs.add((v, u))
        h = PatternGraph(4, frozenset(arcs))
        t = random_tournament(6, rng)
        phi = contains_embedding(t, h)
        assert (phi is not None) == brute_embedding_exists(t, 4, h.arcs)
        if phi is not None:
            assert len(set(phi.values())) == 4
            for (u, v) in h.arcs:
                assert t.arc(phi[u], phi[v]) == 1


def test_embedding_monotone_under_arc_deletion(rng):
    for _ in range(20):
        t = random_tournament(7, rng)
        full = PatternGraph.from_board(random_tournament(4, rng))
        sub_arcs = frozenset(list(full.arcs)[:3])
        sub = PatternGraph(4, sub_arcs)
        if contains_embedding(t, full) is not None:
            assert contains_embedding(t, sub) is not None


# ---------------------------------------------------------------------------
# k_colorable
# ---------------------------------------------------------------------------


def test_k_colorable_trivials():
    tri = cyclic_triangle()
    assert k_colorable(tri, 1) is None
    part = k_colorable(tri, 2)
    assert part is not None
    assert sorted(v for p in part for v in p) == [0, 1, 2]
    assert all(len(p) <= 2 for p in part if p)


def test_k_colorable_budget():
    with pytest.raises(BudgetExceeded):
        k_colorable(transitive_tournament(16), 2)
    with pytest.raises(NotATournament):
        k_colorable(Board(4), 1)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_two_colorable_exhaustive(n):
    for t in all_tournaments(n):
        part = k_colorable(t, 2)
        assert (part is not None) == brute_two_colorable(t)
        if part is not None:
            for p in part:
                assert is_transitive_set(t, p)


def test_one_colorable_is_transitivity(rng):
    for _ in range(30):
        t = random_tournament(6, rng)
        assert (k_colorable(t, 1) is not None) == (find_cycle(t) is None)


def test_random_tournament_fas_mean_at_t10(rng):
    # Truth pin: the t=10 random-tournament mean FAS sits near 9, well
    # below t(t-1)/4 = 22.5 (the closeness statement is asymptotic).
    values = [
        fas_exact(PatternGraph.from_board(random_tournament(10, rng)))[0]
        for _ in range(200)
    ]
    mean = sum(values) / len(values)
    assert 8.0 <= mean <= 10.2
    assert max(values) <= 22


def test_transitive_subset_via_induced_one_coloring(rng):
    # A transitive-subset check: 1-colorability of the induced sub-board.
    t = random_tournament(9, rng)
    for vs in ([0, 1, 2], [2, 4, 6, 8], [1, 3, 5, 7]):
        sub = t.induced(vs)
        assert (k_colorable(sub, 1) is not None) == (find_cycle(sub) is None)
