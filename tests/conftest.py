"""Shared brute-force oracles for the test suite.

Everything here is deliberately independent of the package's algorithms:
factorial enumerations, bitmask DFS, and exhaustive generation, kept to
sizes where being dumb is affordable.  Package code must never be used to
compute an expected value that a test then asserts against package code.
"""

from __future__ import annotations

import copy
import functools
import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from orientgames import solver
from orientgames.board import Board, all_pairs
from orientgames.engine import (
    BREAKER,
    MAKER,
    GameConfig,
    GameRecord,
    Property,
    Strategy,
    apply_move,
    evaluate_property,
    forced_verdict,
    other,
    property_from_key,
    strategy_rng,
)
from orientgames.errors import BadConfig
from orientgames.solver import solve_orientation_game
from orientgames.strategies.hamilton import AUDIT_CHUNK, AUDIT_PROBES, E_BREAKER, E_FREE

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


def brute_isomorphism_class(board):
    """Least sorted arc list over all n! relabellings: equal for two boards
    exactly when some relabelling carries one onto the other."""
    arcs = list(board.arcs())
    return min(
        tuple(sorted((perm[u], perm[v]) for (u, v) in arcs))
        for perm in itertools.permutations(range(board.n))
    )


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


def back_arcs(pattern, rank):
    """Pattern arcs that run backward under rank (rank[v] is v's place,
    0-based), after checking that rank is an ordering of the vertices."""
    assert sorted(rank) == list(range(pattern.t)), f"not an ordering: {rank}"
    return sum(1 for (u, v) in pattern.arcs if rank[u] > rank[v])


class ReferencePotentials:
    """HypergraphState's scoring as first written: Fractions at threat bias
    1, floats above it, every potential recounted from the claim sets, and
    the blocker's pick a max() over (removal score, reversed id)."""

    def __init__(self, sets, threat_bias, blocker_bias, elements):
        self.sets = [frozenset(s) for s in sets]
        self.p, self.base = threat_bias, blocker_bias + 1
        self.elements = sorted(set(elements).union(*self.sets))
        self.threat, self.blocker = set(), set()

    def potential(self, i):
        s = self.sets[i]
        exact = self.p == 1
        if s & self.blocker:
            return Fraction(0) if exact else 0.0
        left = len(s - self.threat)
        return Fraction(1, self.base ** left) if exact else self.base ** (-left / self.p)

    def removal_score(self, e):
        return sum((self.potential(i) for i, s in enumerate(self.sets)
                    if e in s and not s & self.blocker),
                   Fraction(0) if self.p == 1 else 0.0)

    def blocker_move(self, budget):
        """Up to budget greedy claims; elements must be numbers."""
        claimed = []
        for _ in range(budget):
            free = [e for e in self.elements if e not in self.threat | self.blocker]
            if not free:
                break
            best = max(free, key=lambda e: (self.removal_score(e), -e))
            self.blocker.add(best)
            claimed.append(best)
        return claimed


def reference_pipeline_claims(open_items, budget):
    """BreakerBoxHamilton's claim schedule as first written: every claim
    re-sorts the open boxes for the two cheapest to finish, and a levelling
    claim takes max() over (open items, reversed box)."""
    open_items = dict(open_items)
    claims = []
    while budget > 0 and open_items:
        finish = sorted(open_items, key=lambda v: (open_items[v], v))[:2]
        cost = sum(open_items[v] for v in finish)
        if cost <= budget:
            for v in finish:
                claims += [v] * open_items.pop(v)
            budget -= cost
            continue
        v = max(open_items, key=lambda j: (open_items[j], -j))
        claims.append(v)
        open_items[v] -= 1
        budget -= 1
    return claims


@dataclass
class ReferenceBoxGameState:
    """boxgame.BoxGameState as first written: real and virtual claims,
    destruction and completion each kept per box."""

    sizes: list[int]
    virtual_pad: int = 0
    claimed_real: list[int] = field(default_factory=list)
    claimed_virtual: list[int] = field(default_factory=list)
    destroyed: list[bool] = field(default_factory=list)
    completed: list[bool] = field(default_factory=list)

    def __post_init__(self):
        r = len(self.sizes)
        if not self.claimed_real:
            self.claimed_real = [0] * r
        if not self.claimed_virtual:
            self.claimed_virtual = [0] * r
        if not self.destroyed:
            self.destroyed = [False] * r
        if not self.completed:
            self.completed = [
                self.sizes[i] - self.claimed_real[i] == 0 and not self.destroyed[i]
                for i in range(r)
            ]

    def clone(self):
        return ReferenceBoxGameState(
            sizes=list(self.sizes),
            virtual_pad=self.virtual_pad,
            claimed_real=list(self.claimed_real),
            claimed_virtual=list(self.claimed_virtual),
            destroyed=list(self.destroyed),
            completed=list(self.completed),
        )

    def deficit(self, i):
        real = self.sizes[i] - self.claimed_real[i]
        virt = self.virtual_pad - self.claimed_virtual[i]
        return real + virt

    def real_deficit(self, i):
        return self.sizes[i] - self.claimed_real[i]

    def live_incomplete(self):
        return [
            i
            for i in range(len(self.sizes))
            if not self.destroyed[i] and self.deficit(i) > 0
        ]

    def completed_count(self):
        return sum(self.completed)

    def claim(self, i):
        assert not self.destroyed[i] and self.deficit(i) > 0
        if self.real_deficit(i) > 0:
            self.claimed_real[i] += 1
            if self.real_deficit(i) == 0:
                self.completed[i] = True
            return "real"
        self.claimed_virtual[i] += 1
        return "virtual"

    def destroy(self, i):
        self.destroyed[i] = True


def reference_box_maker_move(state, b):
    """boxgame.box_maker_move as first written, on a ReferenceBoxGameState:
    a box that fits the budget is finished in one burst of claims.  None
    when no live box is left to claim from."""
    if not state.live_incomplete():
        return None
    claims = []
    budget = b
    while budget > 0:
        live = state.live_incomplete()
        if not live:
            break
        real_live = [i for i in live if state.real_deficit(i) > 0]
        if not real_live:
            i = live[0]
            claims.append((i, state.claim(i)))
            budget -= 1
            continue
        finishable = [i for i in real_live if state.real_deficit(i) <= budget]
        if finishable:
            i = min(finishable, key=lambda j: (state.real_deficit(j), j))
            for _ in range(state.real_deficit(i)):
                claims.append((i, state.claim(i)))
                budget -= 1
            continue
        i = max(real_live, key=lambda j: (state.real_deficit(j), -j))
        claims.append((i, state.claim(i)))
        budget -= 1
    return claims


class ReferenceFreePairList:
    """RandomStrategy's free-pair list as first written: positions kept in
    a dict keyed by the pair tuple, swap-with-last removal."""

    def __init__(self, n):
        self.pairs = list(all_pairs(n))
        self.pos = {p: i for i, p in enumerate(self.pairs)}

    def remove(self, u, v):
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


def reference_breaker_oriented(ledger, move):
    """DangerLedger's Breaker update as first written: one arc at a time,
    each arc u->v giving Breaker the bipartite edge (v, u) if still free."""
    for (u, v) in move:
        if ledger.estat[v, u] == E_FREE:
            ledger.estat[v, u] = E_BREAKER
            ledger.deg_b[v] += 1
            ledger.deg_b[ledger.n + u] += 1


def reference_sampled_membership(n, k, seed, budget=4096):
    """TemplateCutEngine's sampled cut membership as first written: one
    rng.permutation(n) per sample, A its first k vertices, B the next k.
    Takes an int seed, split into two 32-bit words as the engine does."""
    rng = np.random.default_rng([k, budget, seed & 0xFFFFFFFF, (seed >> 32) & 0xFFFFFFFF])
    budget = budget if 2 * k <= n else 0
    a_mem = np.zeros((n, budget), dtype=bool)
    b_mem = np.zeros((n, budget), dtype=bool)
    for s in range(budget):
        perm = rng.permutation(n)
        a_mem[perm[:k], s] = True
        b_mem[perm[k : 2 * k], s] = True
    return a_mem, b_mem


def reference_audit_template(adj: np.ndarray, k: int, samples: int, rng) -> bool:
    """Sampled check that every size-k cut has arcs both ways.

    audit_template as it was before it proved its answer from common
    in-neighbour counts: it samples whenever samples > 0, kept verbatim
    as the oracle for the proved audit.

    Each sample draws disjoint k-sets A, B (the head of a random
    permutation) and probes random slot pairs for an arc in each
    direction, a batch of samples at a time.  A random tournament passes
    a probe with probability about 1/2, so only the rare sample whose
    probes all miss one way gets the exact check of its whole block.
    """
    n = adj.shape[0]
    if (adj.sum(axis=0) == 0).any() or (adj.sum(axis=1) == 0).any():
        return n <= 2
    if 2 * k > n:
        return True
    for done in range(0, samples, AUDIT_CHUNK):
        m = min(AUDIT_CHUNK, samples - done)
        perms = rng.permuted(np.tile(np.arange(n, dtype=np.min_scalar_type(n)), (m, 1)), axis=1)
        u = np.take_along_axis(perms, rng.integers(0, k, (m, AUDIT_PROBES)), axis=1)
        v = np.take_along_axis(perms, rng.integers(k, 2 * k, (m, AUDIT_PROBES)), axis=1)
        seen_both = adj[u, v].any(axis=1) & adj[v, u].any(axis=1)
        for s in np.flatnonzero(~seen_both):
            a, b = perms[s, :k], perms[s, k : 2 * k]
            if not adj[np.ix_(a, b)].any() or not adj[np.ix_(b, a)].any():
                return False
    return True


def reference_opponent_boards(board, bias):
    """(move, board) for every board one turn of 1..bias arcs reaches, in
    canonical_key order.  Breadth first over single arcs; the first move,
    in key then pair order, to reach a board stands for it."""
    seen, frontier = {}, {board.canonical_key(): (board, ())}
    for _ in range(min(bias, board.undirected_count)):
        nxt = {}
        for _, (b, moves) in sorted(frontier.items()):
            for (u, v) in b.undirected_pairs():
                for arc in ((u, v), (v, u)):
                    b2 = b.copy()
                    b2.orient(*arc)
                    key = b2.canonical_key()
                    if key not in seen and key not in nxt:
                        nxt[key] = (b2, moves + (arc,))
        seen.update(nxt)
        frontier = nxt
    return [(seen[key][1], seen[key][0]) for key in sorted(seen)]


def reference_verify(strategy_factory, role, n, p, q, prop, seed=0):
    """(ok, nodes, counterexample) of the strategy verifier as first
    written: every opponent board gets its own deep copy of the strategy,
    which observes the move before the verdict is judged and before the
    memo key (board, strategy state, last move) is taken."""
    config = GameConfig(n=n, p=p, q=q, prop=prop, seed=seed, early_stop=False)
    goal = role == MAKER
    opp_role = BREAKER if role == MAKER else MAKER
    own_bias, opp_bias = (p, q) if role == MAKER else (q, p)
    nodes = [0]
    verified = set()

    def strategy_turn(board, strat, transcript):
        nodes[0] += 1
        last_move = transcript[-1][1] if transcript else ()
        key = (board.canonical_key(), strat.state_key(), last_move)
        if key in verified:
            return None
        move = strat.next_move(board, transcript)
        b2 = board.copy()
        if b2.apply_checked(move, own_bias) is not None:
            return transcript + [(role, move)]
        move = tuple(move)
        strat.observe(b2, role, move)
        bad = after_move(b2, strat, transcript + [(role, move)])
        if bad is None:
            verified.add(key)
        return bad

    def after_move(board, strat, transcript):
        mover, move = transcript[-1]
        v = forced_verdict(board, prop, move)
        if v is not None:
            return None if v == goal else transcript
        if mover == opp_role:
            return strategy_turn(board, strat, transcript)
        return opponent_turn(board, strat, transcript)

    def opponent_turn(board, strat, transcript):
        for moves, b2 in reference_opponent_boards(board, opp_bias):
            s2 = copy.deepcopy(strat)
            s2.observe(b2, opp_role, moves)
            bad = after_move(b2, s2, transcript + [(opp_role, moves)])
            if bad is not None:
                return bad
        return None

    strat = strategy_factory()
    strat.start(config, strategy_rng(config, role))
    board = Board(n)
    v = forced_verdict(board, prop)
    if v is not None:
        return v == goal, 0, None if v == goal else []
    turn = strategy_turn if role == MAKER else opponent_turn
    bad = turn(board, strat, [])
    return bad is None, nodes[0], bad


# The turn loop as it was written with a nested half-turn closure, kept
# verbatim as the oracle for play_game's flat loop.  It shares the
# package's move check, verdicts and record, so the two agree on any game
# exactly when their loops walk the same half-turns.
def reference_play_game(config: GameConfig, maker: Strategy, breaker: Strategy) -> GameRecord:
    """Run one game to its verdict.

    Alternates Maker then Breaker until the board is complete, stopping
    early when the verdict is forced (if enabled).  An illegal move
    forfeits the offending side; this is recorded separately from a
    property loss.
    """
    if maker.role != MAKER or breaker.role != BREAKER:
        raise BadConfig("strategies do not match their roles")
    board = Board(config.n)
    if board.is_tournament():  # n=1: nothing to orient, judge immediately
        winner = MAKER if evaluate_property(board, config.prop) else BREAKER
        digests = [board.digest()] if config.keep_digests else None
        return GameRecord(config=config, transcript=[], winner=winner, rounds=0,
                          digests=digests)
    maker.start(config, strategy_rng(config, MAKER))
    breaker.start(config, strategy_rng(config, BREAKER))
    transcript: list = []
    digests: list = [] if config.keep_digests else None
    rounds = 0
    winner = None
    forced_round = None
    forfeit = None
    forfeit_reason = None

    def half_turn(strategy: Strategy, bias: int):
        nonlocal winner, forced_round, forfeit, forfeit_reason
        move = strategy.next_move(board, transcript)
        reason = apply_move(board, move, bias)
        if reason is not None:
            forfeit = strategy.role
            forfeit_reason = reason
            winner = other(strategy.role)
            return False
        move = tuple(move)
        transcript.append((strategy.role, move))
        maker.observe(board, strategy.role, move)
        breaker.observe(board, strategy.role, move)
        if config.early_stop and not board.is_tournament():
            # Every earlier half-turn was judged and forced nothing; the
            # empty board before the first one was never judged.
            new_arcs = move if len(transcript) > 1 else None
            verdict = forced_verdict(board, config.prop, new_arcs)
            if verdict is not None:
                winner = MAKER if verdict else BREAKER
                forced_round = rounds
                return False
        return not board.is_tournament()

    while True:
        rounds += 1
        if not half_turn(maker, config.p):
            break
        cont = half_turn(breaker, config.q)
        if digests is not None and forfeit is None:
            digests.append(board.digest())
        if not cont:
            break

    if winner is None:
        winner = MAKER if evaluate_property(board, config.prop) else BREAKER
    if digests is not None:
        digests.append(board.digest())
    return GameRecord(
        config=config,
        transcript=transcript,
        winner=winner,
        rounds=rounds,
        forced_round=forced_round,
        forfeit=forfeit,
        forfeit_reason=forfeit_reason,
        digests=digests,
    )


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


@pytest.fixture(scope="session")
def solved():
    """solved(n, p, q, property key): the exact solve of each game, run once
    per session.  Only for tests that leave the solver unpatched."""
    @functools.cache
    def solve(n, p, q, key):
        return solve_orientation_game(n, p, q, property_from_key(key))
    return solve


@pytest.fixture
def cached_solves(solved, monkeypatch):
    """Callers of solver.solve_orientation_game, threshold_scan among them,
    read the session's solves."""
    monkeypatch.setattr(solver, "solve_orientation_game",
                        lambda n, p, q, prop: solved(n, p, q, prop.key()))


def disable_settling_moves(monkeypatch):
    """No property knows a settling move: the exact search as it was before
    Property.decided_within, which expands every node it does not judge
    forced or find in the memo."""
    todo = [Property]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "decided_within" in vars(cls):
            monkeypatch.setattr(cls, "decided_within", Property.decided_within)


@pytest.fixture
def settling_moves_off(monkeypatch):
    disable_settling_moves(monkeypatch)
