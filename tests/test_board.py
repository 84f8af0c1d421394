import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orientgames.board import MAX_VERTICES, Board, pair_count, pair_index, parse_arcs
from orientgames.engine import apply_move, validate_move
from orientgames.errors import AlreadyOriented, OutOfRange, ParseError, SelfLoop

from conftest import (
    boards,
    brute_isomorphism_class,
    random_oriented_graph,
    reference_move_reason,
)


def test_fresh_board_sizes():
    assert Board(3).undirected_count == 3
    assert Board(1).undirected_count == 0
    assert Board(5).undirected_count == 10


def test_fresh_board_rejects_zero():
    with pytest.raises(OutOfRange):
        Board(0)


@pytest.mark.parametrize("n", [10**20, MAX_VERTICES + 1])
def test_fresh_board_refuses_n_above_the_limit(n):
    # Refused before the pair table is allocated: 10**20 used to end in an
    # OverflowError, and a size just past the limit used to be built.
    tracemalloc.start()
    try:
        with pytest.raises(OutOfRange, match=f"need n <= {MAX_VERTICES}"):
            Board(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_pair_index_is_bijective():
    n = 7
    seen = {pair_index(n, u, v) for (u, v) in itertools.combinations(range(n), 2)}
    assert seen == set(range(pair_count(n)))


def test_orient_records_direction():
    b = Board(3)
    b.orient(0, 1)
    assert b.arc(0, 1) == 1
    assert b.arc(1, 0) == -1
    assert b.undirected_count == 2
    b2 = Board(3)
    b2.orient(1, 0)
    assert b2.arc(0, 1) == -1


def test_orient_errors():
    b = Board(3)
    b.orient(0, 1)
    with pytest.raises(AlreadyOriented):
        b.orient(0, 1)
    with pytest.raises(AlreadyOriented):
        b.orient(1, 0)
    with pytest.raises(SelfLoop):
        b.orient(2, 2)
    with pytest.raises(OutOfRange):
        b.orient(0, 3)


def test_undirected_pairs_order_and_tournament_flag():
    b = Board(3)
    assert b.undirected_pairs() == [(0, 1), (0, 2), (1, 2)]
    assert not b.is_tournament()
    b.orient(0, 1)
    b.orient(2, 0)
    b.orient(1, 2)
    assert b.undirected_pairs() == []
    assert b.is_tournament()
    assert Board(1).is_tournament()


def test_degree_sum_invariant(rng):
    for _ in range(20):
        b = random_oriented_graph(8, rng, density=rng.random())
        oriented = pair_count(8) - b.undirected_count
        total = sum(b.in_degree(v) + b.out_degree(v) for v in range(8))
        assert total == 2 * oriented


def test_tournament_degree_identity(rng):
    from conftest import random_tournament

    t = random_tournament(9, rng)
    for v in range(9):
        assert t.in_degree(v) + t.out_degree(v) == 8


def test_cross_arc_counting_matches(rng):
    b = random_oriented_graph(9, rng)
    a_set, b_set = {0, 2, 4}, {1, 3, 7}
    from_a = sum(1 for u in a_set for v in b_set if b.arc(u, v) == 1)
    into_b = sum(1 for v in b_set for u in a_set if b.arc(v, u) == -1)
    assert from_a == into_b


def test_replay_determinism(rng):
    moves = []
    b1 = Board(6)
    while b1.undirected_count:
        pairs = b1.undirected_pairs()
        u, v = pairs[rng.randrange(len(pairs))]
        if rng.random() < 0.5:
            u, v = v, u
        moves.append((u, v))
        b1.orient(u, v)
    b2 = Board(6)
    for (u, v) in moves:
        b2.orient(u, v)
    assert b1 == b2
    assert b1.canonical_key() == b2.canonical_key()
    assert b1.digest() == b2.digest()


def test_canonical_key_injective_small():
    from conftest import all_tournaments

    keys = {t.canonical_key() for t in all_tournaments(4)}
    assert len(keys) == 2 ** 6


@settings(max_examples=300)
@given(st.data())
def test_isomorphism_key_same_under_relabeling(data):
    board = data.draw(boards(6, False))
    perm = data.draw(st.permutations(range(board.n)))
    assert board.relabeled(perm).isomorphism_key() == board.isomorphism_key()


def assert_keys_split_like_brute_force(boards_):
    """Two boards share an isomorphism key iff brute force finds them
    isomorphic; returns the number of classes."""
    by_key, by_class = {}, {}
    for b in boards_:
        by_key.setdefault(b.isomorphism_key(), set()).add(b.canonical_key())
        by_class.setdefault(brute_isomorphism_class(b), set()).add(b.canonical_key())
    assert sorted(map(sorted, by_key.values())) == sorted(map(sorted, by_class.values()))
    return len(by_key)


def test_isomorphism_key_classes_exhaustive_n4():
    pairs = list(itertools.combinations(range(4), 2))
    everyone = []
    for states in itertools.product((0, 1, -1), repeat=len(pairs)):
        b = Board(4)
        for (u, v), s in zip(pairs, states):
            if s:
                b.orient(*((u, v) if s == 1 else (v, u)))
        everyone.append(b)
    assert len(everyone) == 729
    assert assert_keys_split_like_brute_force(everyone) == 42


def test_isomorphism_key_classes_sampled_n5(rng):
    # Sparse boards and their relabellings, so that classes have several
    # members and keys have chances to collide wrongly.
    sample = []
    for _ in range(500):
        b = random_oriented_graph(5, rng, density=rng.choice([0.2, 0.4, 0.6, 1.0]))
        perm = list(range(5))
        rng.shuffle(perm)
        sample += [b, b.relabeled(perm)]
    classes = assert_keys_split_like_brute_force(sample)
    assert 1 < classes < len(sample)


def test_text_round_trip(rng):
    b = random_oriented_graph(7, rng)
    text = b.to_text()
    again = Board.from_text(text)
    assert again == b
    assert again.to_text() == text


def test_text_format_shape():
    b = Board(3)
    b.orient(2, 1)
    assert b.to_text() == "n=3\n2>1\n"


def test_from_text_errors():
    with pytest.raises(ParseError):
        Board.from_text("3\n0>1\n")
    with pytest.raises(ParseError):
        Board.from_text("n=3\n0-1\n")
    with pytest.raises(ParseError):
        Board.from_text("n=3\n0>1\n1>0\n")


# Counts and arcs in ASCII digits alone, as game records read them.
@pytest.mark.parametrize("text", [
    "n=1_0\n", "n=+3\n", "n=\u0663\n", "n=3\n+0>1\n", "n=3\n0>\u0661\n",
    "n=3\n0>1_0\n", "n=3\n0 > 1\n", "n=3\n0>1,1>2\n",
], ids=repr)
def test_from_text_reads_ascii_digits_only(text):
    with pytest.raises(ParseError):
        Board.from_text(text)


def test_counts_past_the_int_digit_limit_are_parse_errors():
    # int() converts at most 4,300 digits; past that it raised a bare ValueError.
    digits = "1" * 5000
    for text in (f"n={digits}\n", f"n=3\n0>{digits}\n"):
        with pytest.raises(ParseError):
            Board.from_text(text)
    with pytest.raises(ParseError):
        parse_arcs([f"0>{digits}"])


def test_relabeled_preserves_structure(rng):
    b = random_oriented_graph(6, rng)
    perm = [3, 1, 4, 5, 0, 2]
    r = b.relabeled(perm)
    for (u, v) in itertools.combinations(range(6), 2):
        assert b.arc(u, v) == r.arc(perm[u], perm[v])


def scan_vertices(b):
    """Out-degrees, in-degrees, undirected neighbours and out-neighbour
    masks, through arc()."""
    def where(v, a):
        return [w for w in range(b.n) if w != v and b.arc(v, w) == a]

    return ([len(where(v, 1)) for v in range(b.n)],
            [len(where(v, -1)) for v in range(b.n)],
            [where(v, 0) for v in range(b.n)],
            [sum(1 << w for w in where(v, 1)) for v in range(b.n)])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_board_counters_match_scans(data):
    b = Board(data.draw(st.integers(1, 7)))
    kept = None  # the source of the last copy, which must not share counters
    for _ in range(data.draw(st.integers(0, 40))):
        op = data.draw(st.sampled_from(
            ["orient", "undo", "copy", "relabeled", "from_text"]))
        if op == "orient" and b.undirected_count:
            u, v = data.draw(st.sampled_from(b.undirected_pairs()))
            b.orient(*data.draw(st.sampled_from([(u, v), (v, u)])))
        elif op == "undo" and b.undirected_count < pair_count(b.n):
            u, v = data.draw(st.sampled_from(list(b.arcs())))
            # Either argument order: the direction comes from the stored state.
            b._undo_orient(*data.draw(st.sampled_from([(u, v), (v, u)])))
        elif op == "copy":
            kept, b = b, b.copy()
        elif op == "relabeled":
            b = b.relabeled(data.draw(st.permutations(range(b.n))))
        elif op == "from_text":
            b = Board.from_text(b.to_text())
        for x in (b, kept):
            if x is not None:
                assert ([x.out_degree(v) for v in range(x.n)],
                        [x.in_degree(v) for v in range(x.n)],
                        [x.undirected_neighbors(v) for v in range(x.n)],
                        [x.out_mask(v) for v in range(x.n)]) == scan_vertices(x)
                assert x.lowest_undirected() == (x.undirected_pairs() or [None])[0]


def board_state(b):
    return (b.canonical_key(), b.undirected_count, b.degrees(),
            [b.out_mask(v) for v in range(b.n)])


# Arcs no rule admits: malformed, non-int or bool vertices.
ODD_ARCS = [None, 5, (), (5,), (0, 1, 2), "01", (True, 1), (0, False), (0.0, 1), (1, 2.5)]


def either_way(draw, pair):
    return pair if draw(st.booleans()) else pair[::-1]


@st.composite
def moves(draw, board):
    """Up to four legal arcs, then maybe one flaw put in among them: an
    odd arc, a self-loop, a vertex that may be out of range, a pair
    already oriented or one repeated; the move itself may be no sequence."""
    n = board.n
    free = board.undirected_pairs()
    # Leave a pair free when there are two, so a flaw often fits the allowance.
    most = min(4, max(1, len(free) - 1))
    picked = draw(st.lists(st.sampled_from(free), min_size=1, max_size=most, unique=True)
                  ) if free else []
    arcs = [either_way(draw, p) for p in picked]
    # 0-2 none, 3-4 odd arc, 5 self-loop, 6 any vertices, 7-8 oriented, 9-10 repeated
    flaw = draw(st.integers(0, 10))
    extra = None
    if flaw in (3, 4):
        extra = draw(st.sampled_from(ODD_ARCS))
    elif flaw == 5:
        v = draw(st.integers(0, n - 1))
        extra = (v, v)
    elif flaw == 6:
        extra = draw(st.tuples(st.integers(-2, n + 1), st.integers(-2, n + 1)))
    elif flaw in (7, 8) and board.undirected_count < pair_count(n):
        extra = either_way(draw, draw(st.sampled_from(list(board.arcs()))))
    elif flaw in (9, 10) and arcs:
        extra = either_way(draw, draw(st.sampled_from(arcs)))
    if extra is not None:
        arcs.insert(draw(st.integers(0, len(arcs))), extra)
    shape = draw(st.integers(0, 9))  # mostly a tuple, else a list or no sequence
    return tuple(arcs) if shape < 7 else [list(arcs), None, 5][shape - 7]


@settings(max_examples=1000, deadline=None)
@given(st.data())
def test_apply_checked_matches_validate_and_apply(data):
    b = data.draw(boards(7, False), label="board")
    move = data.draw(moves(b), label="move")
    most = pair_count(b.n) + 1  # often enough for any move, else maybe too small
    bias = most if data.draw(st.integers(0, 3)) else data.draw(st.integers(1, most))
    want = reference_move_reason(b, move, bias)
    assert validate_move(b, move, bias) == want
    before = board_state(b)
    ref = b.copy()
    assert b.apply_checked(move, bias) == want
    if want is not None:
        assert board_state(b) == before
        return
    apply_move(ref, move)
    assert b == ref and board_state(b) == board_state(ref)
    outs, ins, free, masks = scan_vertices(b)
    assert b.degrees() == (outs, ins)
    assert [b.out_mask(v) for v in range(b.n)] == masks
    assert b.undirected_count == sum(map(len, free)) // 2


# Board(5) with 0->1 and 3->2 played; LEGAL names three free pairs.
LEGAL = ((1, 2), (4, 3), (0, 4))
ILLEGAL_ARCS = [
    ((2, 1), "pair (1, 2) repeated in move"),
    ((1, 0), "pair (0, 1) already oriented"),
    ((4, 5), "arc (4,5) out of range"),
    ((0, 1, 2), "malformed arc (0, 1, 2)"),
    ((True, 2), "non-integer vertex in arc (True, 2)"),
    ((3, 3), "self-loop at 3"),
]


@pytest.mark.parametrize("at", [0, 1, len(LEGAL)], ids=["first", "middle", "last"])
@pytest.mark.parametrize("arc, reason", ILLEGAL_ARCS, ids=[r for _, r in ILLEGAL_ARCS])
def test_apply_checked_illegal_arc_leaves_board_untouched(arc, reason, at):
    b = Board(5)
    b.orient(0, 1)
    b.orient(3, 2)
    before = board_state(b)
    move = LEGAL[:at] + (arc,) + LEGAL[at:]
    assert b.apply_checked(move, len(move)) == reason
    assert board_state(b) == before


def test_apply_checked_pair_oriented_before_the_move_is_not_a_repeat():
    b = Board(3)
    b.orient(0, 1)
    before = board_state(b)
    assert b.apply_checked(((1, 0), (0, 1)), 2) == "pair (0, 1) already oriented"
    assert board_state(b) == before
