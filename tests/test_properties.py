"""Each property judges itself: holds, forced and the solver cap.

The solver and the verifier trust ``forced_verdict`` to be the final
verdict on a tournament and a sound early verdict elsewhere; these tests
pin both, the verdict judged from the newest arcs alone, and the
properties' parameter checks.
"""

import itertools
import json
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orientgames.board import Board
from orientgames.engine import (
    BREAKER,
    MAKER,
    ContainsH,
    Cycle,
    CycleLengthK,
    GameRecord,
    Hamiltonicity,
    MinInDegreePositive,
    NonKColorable,
    evaluate_property,
    forced_verdict,
    property_from_key,
)
from orientgames.errors import BadConfig, GameError, NotATournament, ParseError
from orientgames.oracles import (
    PatternGraph,
    contains_embedding,
    find_cycle,
    is_strongly_connected,
    k_colorable,
    max_scc_size,
    reaches_from,
)

from conftest import all_tournaments, boards, random_oriented_graph

PATH4 = PatternGraph(4, frozenset({(0, 1), (1, 2), (2, 3)}))

PROPS = [
    Cycle(),
    Hamiltonicity(),
    MinInDegreePositive(),
    CycleLengthK(3),
    CycleLengthK(4),
    NonKColorable(1),
    NonKColorable(2),
    ContainsH(PatternGraph.cycle(3)),
    ContainsH(PATH4),
]


def test_forced_equals_holds_on_every_small_tournament():
    # Why the solver and the verifier may ask forced_verdict alone.
    checks = 0
    for n in range(1, 6):
        for board in all_tournaments(n):
            for prop in PROPS:
                assert prop.forced(board) == prop.holds(board), (prop, board.to_text())
                assert forced_verdict(board, prop) == evaluate_property(board, prop)
                checks += 1
    assert checks == 1099 * len(PROPS)


def completions(board):
    """Every tournament extending the board."""
    free = board.undirected_pairs()
    for dirs in itertools.product((False, True), repeat=len(free)):
        b = board.copy()
        for (u, v), flip in zip(free, dirs):
            b.orient(*((v, u) if flip else (u, v)))
        yield b


def test_forced_verdicts_are_sound_on_small_partial_boards(rng):
    forced = 0
    for n in (4, 5):
        for _ in range(600):
            board = random_oriented_graph(n, rng, density=rng.random())
            for prop in PROPS:
                verdict = forced_verdict(board, prop)
                if verdict is None:
                    continue
                forced += 1
                for final in completions(board):
                    assert evaluate_property(final, prop) == verdict, (prop, board.to_text())
    assert forced > 2000


def reference_evaluate(board, prop):
    """The isinstance chain that judged tournaments before each property
    judged itself, kept as the differential reference."""
    if not board.is_tournament():
        raise NotATournament("property is judged on the final tournament")
    if isinstance(prop, Cycle):
        return find_cycle(board) is not None
    if isinstance(prop, Hamiltonicity):
        return is_strongly_connected(board)
    if isinstance(prop, MinInDegreePositive):
        return all(board.in_degree(v) >= 1 for v in range(board.n))
    if isinstance(prop, CycleLengthK):
        if prop.k < 3:
            raise BadConfig("cycle length must be >= 3")
        return max_scc_size(board) >= prop.k
    if isinstance(prop, NonKColorable):
        return k_colorable(board, prop.k) is None
    if isinstance(prop, ContainsH):
        return contains_embedding(board, prop.pattern) is not None
    raise BadConfig(f"unknown property {prop!r}")


def reference_forced_verdict(board, prop):
    """The matching isinstance chain for forced verdicts."""
    n = board.n
    if isinstance(prop, Cycle):
        if find_cycle(board) is not None:
            return True
        return False if board.is_tournament() else None
    if isinstance(prop, CycleLengthK):
        if max_scc_size(board) >= prop.k:
            return True
        return None if not board.is_tournament() else False
    if isinstance(prop, Hamiltonicity):
        if n > 1 and any(
            board.out_degree(v) == n - 1 or board.in_degree(v) == n - 1
            for v in range(n)
        ):
            return False
        if is_strongly_connected(board):
            return True
        return None if not board.is_tournament() else False
    if isinstance(prop, MinInDegreePositive):
        if n > 1 and any(board.out_degree(v) == n - 1 for v in range(n)):
            return False
        if all(board.in_degree(v) >= 1 for v in range(n)):
            return True
        return None if not board.is_tournament() else False
    if isinstance(prop, ContainsH):
        if contains_embedding(board, prop.pattern) is not None:
            return True
        return None if not board.is_tournament() else False
    if board.is_tournament():
        return reference_evaluate(board, prop)
    return None


@pytest.mark.parametrize("tournament", [True, False])
@pytest.mark.parametrize("prop", PROPS, ids=lambda p: p.key())
@settings(max_examples=150)
@given(data=st.data())
def test_forced_verdict_matches_reference_chain(tournament, prop, data):
    board = data.draw(boards(8, tournament))
    assert forced_verdict(board, prop) is reference_forced_verdict(board, prop)
    if tournament:
        assert evaluate_property(board, prop) is reference_evaluate(board, prop)


# The exact solver memoizes positions up to isomorphism, which is sound only
# for properties that do not read vertex labels.
@pytest.mark.parametrize("prop", PROPS, ids=lambda p: p.key())
@settings(max_examples=150)
@given(data=st.data())
def test_verdicts_invariant_under_relabeling(prop, data):
    board = data.draw(boards(6, data.draw(st.booleans())))
    other = board.relabeled(data.draw(st.permutations(range(board.n))))

    def outcome(judge, b):
        # Non-k-colourability is judged on tournaments alone.
        try:
            return judge(b)
        except NotATournament:
            return NotATournament

    for judge in (prop.holds, prop.forced):
        assert outcome(judge, other) == outcome(judge, board)


# ---------------------------------------------------------------------------
# Verdicts judged from the newest arcs agree with the verdict from scratch
# ---------------------------------------------------------------------------


def bfs_reachable(board, src):
    """Vertices reachable from src, by breadth-first search over arc() scans."""
    found = {src}
    queue = deque([src])
    while queue:
        v = queue.popleft()
        for w in range(board.n):
            if w not in found and w != v and board.arc(v, w) == 1:
                found.add(w)
                queue.append(w)
    return found


@settings(max_examples=300)
@given(board=boards(10, False))
def test_reaches_matches_bfs(board):
    for src in range(board.n):
        found = bfs_reachable(board, src)
        for dst in range(board.n):
            assert reaches_from(board, 1 << src, dst) is (dst in found), (src, dst, board.to_text())


@st.composite
def undecided_board_and_batch(draw, prop):
    """A board on 2..8 vertices forcing nothing for prop, and a batch of 1
    to all of its undirected pairs, each oriented either way, in drawn
    order."""
    n = draw(st.integers(2, 8))
    board = Board(n)
    for (u, v) in itertools.combinations(range(n), 2):
        s = draw(st.sampled_from([0, 1, -1]))
        if s:
            b2 = board.copy()
            b2.orient(*((u, v) if s == 1 else (v, u)))
            if forced_verdict(b2, prop) is None:
                board = b2
    free = draw(st.permutations(board.undirected_pairs()))
    size = draw(st.integers(1, len(free)))
    batch = tuple((u, v) if draw(st.booleans()) else (v, u) for (u, v) in free[:size])
    return board, batch


@pytest.mark.parametrize("prop", PROPS, ids=lambda p: p.key())
@settings(max_examples=150)
@given(data=st.data())
def test_forced_after_matches_full_verdict(prop, data):
    parent, batch = data.draw(undecided_board_and_batch(prop))
    assert forced_verdict(parent, prop) is None
    board = parent.copy()
    for arc in batch:
        board.orient(*arc)
    assert forced_verdict(board, prop, batch) is forced_verdict(board, prop), (
        parent.to_text(), batch)


@st.composite
def undecided_board_and_star_batch(draw, prop):
    """A board on 3..10 vertices forcing nothing for prop, and a batch
    shaped like out-star moves: one to three tails, each orienting some of
    its undirected pairs away from it, cut into runs that may interleave
    (tail a, then b, then a again).  Also returns the runs, as (tail,
    heads)."""
    n = draw(st.integers(3, 10))
    board = Board(n)
    for (u, v) in itertools.combinations(range(n), 2):
        s = draw(st.sampled_from([0, 0, 1, -1]))
        if s:
            b2 = board.copy()
            b2.orient(*((u, v) if s == 1 else (v, u)))
            if forced_verdict(b2, prop) is None:
                board = b2
    open_tails = [v for v in range(n) if board.undirected_neighbors(v)]
    tails = draw(st.lists(st.sampled_from(open_tails), min_size=1, max_size=3, unique=True))
    used = set()
    runs = []
    for t in tails:
        free = [w for w in board.undirected_neighbors(t) if frozenset((t, w)) not in used]
        heads = draw(st.permutations(free))
        heads = heads[: draw(st.integers(min(1, len(heads)), len(heads)))]
        used.update(frozenset((t, w)) for w in heads)
        cuts = sorted(draw(st.sets(st.integers(1, max(1, len(heads) - 1)), max_size=2)))
        bounds = [0] + [c for c in cuts if c < len(heads)] + [len(heads)]
        runs += [(t, heads[a:b]) for a, b in zip(bounds, bounds[1:]) if b > a]
    runs = draw(st.permutations(runs))
    batch = tuple((t, h) for t, heads in runs for h in heads)
    return board, batch, runs


@pytest.mark.parametrize("prop", PROPS, ids=lambda p: p.key())
@settings(max_examples=150)
@given(data=st.data())
def test_forced_after_matches_full_verdict_on_star_batches(prop, data):
    # The out-star Breaker's moves: many arcs out of few tails.  The cycle
    # verdict walks once per run of one tail, from all of the run's heads.
    parent, batch, runs = data.draw(undecided_board_and_star_batch(prop))
    assert forced_verdict(parent, prop) is None
    board = parent.copy()
    for arc in batch:
        board.orient(*arc)
    assert forced_verdict(board, prop, batch) is forced_verdict(board, prop), (
        parent.to_text(), batch)
    for _tail, heads in runs:
        found = set().union(*(bfs_reachable(board, h) for h in heads))
        mask = sum(1 << h for h in heads)
        for dst in range(board.n):
            assert reaches_from(board, mask, dst) is (dst in found), (heads, dst, board.to_text())


# ---------------------------------------------------------------------------
# A settling move is legal within the turn and forces the mover's verdict
# ---------------------------------------------------------------------------

# The properties that know a settling move, and for which sides.
SETTLERS = {
    "cycle": (MAKER, BREAKER),
    "min-indegree-positive": (MAKER, BREAKER),
    "hamiltonicity": (BREAKER,),
}


@st.composite
def undecided_board(draw, prop, max_n=7):
    """A board on 2..max_n vertices forcing nothing for prop.  Pairs are
    tried in a drawn order, each left open or oriented either way; an arc
    that would force a verdict is left out, so dense boards sit just short
    of a decision."""
    n = draw(st.integers(2, max_n))
    states = st.sampled_from([0] * draw(st.integers(0, 3)) + [1, -1])
    board = Board(n)
    for (u, v) in draw(st.permutations(list(itertools.combinations(range(n), 2)))):
        s = draw(states)
        if s:
            b2 = board.copy()
            b2.orient(*((u, v) if s == 1 else (v, u)))
            if forced_verdict(b2, prop) is None:
                board = b2
    return board


def settles(prop, board, mover, budget):
    """Whether decided_within names a move; if so it must be legal at the
    budget and leave a board that forces the mover's verdict."""
    move = prop.decided_within(board, mover, budget)
    if move is None:
        return False
    after = board.copy()
    assert after.apply_checked(move, budget) is None, (board.to_text(), mover, budget, move)
    assert prop.forced(after) is (mover == MAKER), (board.to_text(), mover, budget, move)
    return True


@pytest.mark.parametrize("prop", PROPS, ids=lambda p: p.key())
@settings(max_examples=150)
@given(data=st.data())
def test_settling_move_is_legal_and_forces_the_movers_verdict(prop, data):
    board = data.draw(undecided_board(prop))
    assert forced_verdict(board, prop) is None
    for mover in (MAKER, BREAKER):
        for budget in (1, 2, 3):
            settled = settles(prop, board, mover, budget)
            assert not settled or mover in SETTLERS.get(prop.key(), ())


def test_every_settling_rule_fires(rng):
    # The rules are sound (above) and not idle: each one names a move on
    # many undecided boards, and a bigger budget never loses a move.
    fired = {}
    for prop in PROPS:
        for _ in range(300):
            n = rng.randint(2, 7)
            board = Board(n)
            pairs = list(itertools.combinations(range(n), 2))
            rng.shuffle(pairs)
            for (u, v) in pairs[: rng.randint(0, len(pairs))]:
                b2 = board.copy()
                b2.orient(*((u, v) if rng.random() < 0.5 else (v, u)))
                if forced_verdict(b2, prop) is None:
                    board = b2
            for mover in (MAKER, BREAKER):
                found = [settles(prop, board, mover, b) for b in (1, 2, 3)]
                assert found == sorted(found)
                fired[prop.key(), mover] = fired.get((prop.key(), mover), 0) + any(found)
    assert {k for k, count in fired.items() if count} == {
        (key, mover) for key, movers in SETTLERS.items() for mover in movers}
    assert min(count for count in fired.values() if count) >= 30, fired


# ---------------------------------------------------------------------------
# Parameters are checked when a property is built, not when it is judged
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("make", [
    lambda: CycleLengthK(2),
    lambda: CycleLengthK(1),
    lambda: CycleLengthK(0),
    lambda: NonKColorable(0),
    lambda: NonKColorable(-1),
])
def test_bad_property_parameters_raise_bad_config(make):
    with pytest.raises(BadConfig):
        make()


@pytest.mark.parametrize("key", [
    "ck:2", "ck:1", "ck:x", "ck:", "nonkcol:0", "nonkcol:two",
    "contains:x:0>1", "contains:3", "contains:3:0-1", "contains:3:0>x", "contains:2:0>5",
    "contains:-2:", "contains:0:", "bogus",
    # Counts and arcs in ASCII digits alone, as game records read them.
    "ck:+3", "ck: 3", "ck:\u0663", "nonkcol:1_0", "contains:+3:0>1", "contains:3:0>\u0661",
    "contains:3:0>1,", "contains:3:0>1,,1>2", "contains:3: 0>1",
])
def test_bad_property_keys_raise_parse_error(key):
    with pytest.raises(ParseError):
        property_from_key(key)


def test_property_keys_round_trip():
    for key in ["cycle", "hamiltonicity", "min-indegree-positive", "ck:4", "nonkcol:2",
                "contains:3:0>1,1>2,2>0", "contains:2:"]:
        assert property_from_key(key).key() == key


@settings(max_examples=400)
@given(key=st.builds(
    str.__add__,
    st.sampled_from(["", "ck:", "nonkcol:", "contains:", "contains:3:", "hamilton", "cycle"]),
    st.text(st.one_of(st.sampled_from("0123456789:>,"), st.characters()), max_size=12),
))
@example(key="hamilton")
@example(key="min-indegree")
@example(key="ck:03")
@example(key="contains:3:1>0,0>2,1>0")
@example(key="ck:" + "9" * 5000)
def test_every_property_key_reads_or_raises_a_game_error(key):
    try:
        prop = property_from_key(key)
    except GameError:
        return
    assert property_from_key(prop.key()) == prop


def test_record_with_bad_property_key_is_a_parse_error():
    doc = {"format": "orientgames-record/1", "n": 3, "p": 1, "q": 1,
           "property": "ck:x", "seed": 0, "moves": [], "winner": "maker", "rounds": 0}
    with pytest.raises(ParseError):
        GameRecord.from_json(json.dumps(doc))
