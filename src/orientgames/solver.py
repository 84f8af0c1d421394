"""Exact game-tree solving and exhaustive strategy verification.

Small orientation games are solved by depth-first minimax with a
transposition table.  Multi-arc turns are expanded into sequences of
single orientations plus a voluntary end-of-turn (legal once at least one
arc is down); the opponent never observes mid-turn states, so this is
value-preserving and lets transpositions collapse.  Monotone properties
cut whole subtrees via forced verdicts, each judged from the arc the node
was entered through.  A node the memo does not hold first asks the
property for a settling move (``Property.decided_within``): arcs the side
to move can still play this turn after which the verdict is forced its
way.  If there is one, the node is the mover's win without expanding a
child; it is stored in the memo like any other value, so the values, and
with them the winners and principal variations, are those of the full
search.  One step order, ``first_step``'s, serves the search and the
principal variation.  Every property is solved up to
``SOLVER_MAX_N`` vertices and bias ``SOLVER_MAX_BIAS``, one budget for
all of them.  The strategy verifier expands every opponent turn and
deep-copies the strategy only on branches where it is about to move.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass

from .board import Board
from .engine import (
    BREAKER,
    MAKER,
    GameConfig,
    forced_verdict,
    other,
    strategy_rng,
)
from .errors import BadConfig, BudgetExceeded, SizeMismatch

SOLVER_MAX_N = 6
SOLVER_MAX_BIAS = 3
VERIFY_NODE_LIMIT = 50_000_000
END_TURN = "end-turn"  # the voluntary end of a turn, as a solver step


@dataclass
class SolveResult:
    winner: str
    nodes: int
    pv: list  # principal variation as (role, move) pairs
    memo_hits: int
    memo_size: int  # memo entries, one per (board class, mover, budget, opened)
    decided: int  # memo misses settled by Property.decided_within


def solve_orientation_game(n: int, p: int, q: int, prop,
                           start_board: Board | None = None) -> SolveResult:
    """Exact winner of the (p:q) orientation game under optimal play."""
    if p < 1 or q < 1:
        raise BadConfig("both biases must be >= 1")
    if start_board is not None and start_board.n != n:
        raise SizeMismatch(f"start board has {start_board.n} vertices, game has {n}")
    if n > SOLVER_MAX_N or p > SOLVER_MAX_BIAS or q > SOLVER_MAX_BIAS:
        raise BudgetExceeded(
            f"solver capped at n={SOLVER_MAX_N} and bias {SOLVER_MAX_BIAS}, "
            f"got n={n}, p={p}, q={q} for {prop!r}"
        )
    board = start_board.copy() if start_board is not None else Board(n)
    memo: dict = {}
    iso_keys: dict = {}  # raw board -> isomorphism key, for this solve only
    stats = {"nodes": 0, "hits": 0, "decided": 0}

    def search(mover: str, budget: int, opened: bool, new_arcs=None) -> bool:
        """True iff Maker wins from here with mover to continue the turn.

        new_arcs is the arc the node was entered through, judged against a
        parent that forced nothing; () when the parent ended its turn on
        the same board, which then needs no judging; None at the root.
        """
        stats["nodes"] += 1
        if new_arcs != ():
            verdict = forced_verdict(board, prop, new_arcs)
            if verdict is not None:  # always so on a tournament
                return verdict
        raw = board.canonical_key()
        iso = iso_keys.get(raw)
        if iso is None:
            iso = iso_keys[raw] = board.isomorphism_key()
        key = (iso, mover, min(budget, board.undirected_count), opened)
        hit = memo.get(key)
        if hit is not None:
            stats["hits"] += 1
            return hit
        want = mover == MAKER
        if budget > 0 and prop.decided_within(board, mover, budget) is not None:
            stats["decided"] += 1
            result = want
        else:
            result = want if first_step(mover, budget, opened, want) is not None else not want
        memo[key] = result
        return result

    def first_step(mover: str, budget: int, opened: bool, value: bool):
        """The first step, in the solver's order, whose subgame has the
        given value: END_TURN, an arc, or None.  The voluntary end of the
        turn comes first once the turn is opened, then ``_arcs(board)``."""
        if opened:
            nxt = other(mover)
            if search(nxt, q if nxt == BREAKER else p, False, ()) == value:
                return END_TURN
        if budget > 0:
            for arc in _arcs(board):
                board.orient(*arc)
                sub = search(mover, budget - 1, True, (arc,))
                board._undo_orient(*arc)
                if sub == value:
                    return arc
        return None

    maker_wins = search(MAKER, p, False)
    solved = SolveResult(
        winner=MAKER if maker_wins else BREAKER,
        nodes=stats["nodes"],
        pv=[],
        memo_hits=stats["hits"],
        memo_size=len(memo),
        decided=stats["decided"],
    )

    # Principal variation: follow first_step along the game values, which
    # the memo mostly already holds.  Its searches are not counted.
    mover, budget, opened = MAKER, p, False
    turn_arcs: list = []
    played: list = []
    while forced_verdict(board, prop) is None:
        step = first_step(mover, budget, opened, search(mover, budget, opened, ()))
        assert step is not None, "no step keeps the game value"
        if step == END_TURN:
            solved.pv.append((mover, tuple(turn_arcs)))
            turn_arcs.clear()
            mover = other(mover)
            budget, opened = (q if mover == BREAKER else p), False
            continue
        board.orient(*step)
        turn_arcs.append(step)
        played.append(step)
        budget, opened = budget - 1, True
    if turn_arcs:
        solved.pv.append((mover, tuple(turn_arcs)))
    for arc in reversed(played):
        board._undo_orient(*arc)
    return solved


def _arcs(board: Board):
    """Both directions of every undirected pair, in the solver's order."""
    for (u, v) in board.undirected_pairs():
        yield (u, v)
        yield (v, u)


# ---------------------------------------------------------------------------
# Exhaustive strategy verification
# ---------------------------------------------------------------------------


@dataclass
class VerifyResult:
    ok: bool
    counterexample: list | None  # transcript of (role, move) pairs
    nodes: int = 0
    memo_size: int = 0  # verified (board, strategy state, last move) keys

    def __bool__(self):
        return self.ok


def _opponent_turn_boards(board: Board, bias: int):
    """Distinct boards one opponent turn of 1..bias arcs can reach.

    Yields (move, resulting board) in canonical_key order.  Each set of
    open pairs is oriented every way once; arc order within a turn is
    unobservable, and the move lists its arcs in descending pair order.
    """
    ways = [((u, v), (v, u)) for (u, v) in reversed(board.undirected_pairs())]
    turns = []
    for k in range(1, min(bias, len(ways)) + 1):
        for chosen in itertools.combinations(ways, k):
            for arcs in itertools.product(*chosen):
                b2 = board.copy()
                for arc in arcs:
                    b2.orient(*arc)
                turns.append((b2.canonical_key(), arcs, b2))
    turns.sort()  # the keys are distinct, so no two boards are compared
    for _, move, b2 in turns:
        yield move, b2


def verify_strategy_vs_all(strategy_factory, role: str, n: int, p: int, q: int, prop,
                           seed: int = 0) -> VerifyResult:
    """Check a deterministic strategy against every legal opponent line.

    The fixed side plays the strategy; the opponent's turns are expanded
    exhaustively (deduplicated by reached board).  Returns ok=True iff the
    strategy achieves its goal on every branch, else a counterexample
    transcript.  Memoization keys on (board, strategy state, opponent's
    last move), since strategies may read both their own state and that
    move.  The key is taken before the strategy observes the move, so that
    an opponent board that is forced or already verified costs no copy of
    the strategy; only a memo miss copies it, shows it the move and asks
    for its reply.
    """
    config = GameConfig(n=n, p=p, q=q, prop=prop, seed=seed, early_stop=False)
    goal = role == MAKER  # desired property verdict
    own_bias = p if role == MAKER else q
    opp_bias = q if role == MAKER else p
    opp_role = other(role)
    stats = {"nodes": 0}
    verified: set = set()

    def strategy_turn(board: Board, strat, transcript, pending=False):
        """Returns None if the subtree is fine, else a counterexample.  A
        pending strat has yet to observe the opponent's last move and is
        shared with sibling branches, so it is copied only on a memo miss."""
        stats["nodes"] += 1
        if stats["nodes"] > VERIFY_NODE_LIMIT:
            raise BudgetExceeded(f"verification exceeded {VERIFY_NODE_LIMIT} nodes")
        last_move = transcript[-1][1] if transcript else ()
        key = (board.canonical_key(), strat.state_key(), last_move)
        if key in verified:
            return None
        if pending:
            strat = copy.deepcopy(strat)
            strat.observe(board, opp_role, last_move)
        move = strat.next_move(board, transcript)
        b2 = board.copy()
        if b2.apply_checked(move, own_bias) is not None:
            return transcript + [(role, move)]
        move = tuple(move)
        strat.observe(b2, role, move)
        transcript.append((role, move))
        # The board before this move forced nothing, or play would have
        # stopped there (the root is judged below).
        v = forced_verdict(b2, prop, move)
        if v is None:
            bad = opponent_turn(b2, strat, transcript)
        else:
            bad = None if v == goal else list(transcript)
        transcript.pop()
        if bad is None:
            verified.add(key)
        return bad

    def opponent_turn(board: Board, strat, transcript):
        for moves, b2 in _opponent_turn_boards(board, opp_bias):
            transcript.append((opp_role, moves))
            v = forced_verdict(b2, prop, moves)
            if v is None:
                bad = strategy_turn(b2, strat, transcript, pending=True)
            else:
                bad = None if v == goal else list(transcript)
            transcript.pop()
            if bad is not None:
                return bad
        return None

    strat = strategy_factory()
    strat.start(config, strategy_rng(config, role))
    board = Board(n)
    v = forced_verdict(board, prop)
    if v is not None:  # decided before anyone moves, e.g. n = 1
        return VerifyResult(ok=v == goal, counterexample=None if v == goal else [])
    if role == MAKER:
        bad = strategy_turn(board, strat, [])
    else:
        bad = opponent_turn(board, strat, [])
    return VerifyResult(ok=bad is None, counterexample=bad, nodes=stats["nodes"],
                        memo_size=len(verified))


# ---------------------------------------------------------------------------
# Threshold scans
# ---------------------------------------------------------------------------


def threshold_scan(n: int, prop) -> int:
    """Minimal Breaker bias winning the (1:b) game, verified monotone.

    Scans every bias from 1 up to the solver's bias cap, solving each
    exactly, and checks the scan is a clean Maker-prefix / Breaker-suffix
    split before returning the threshold.
    """
    winners = [solve_orientation_game(n, 1, b, prop).winner
               for b in range(1, SOLVER_MAX_BIAS + 1)]
    if BREAKER not in winners:
        raise BudgetExceeded(f"Breaker never wins up to bias {SOLVER_MAX_BIAS}; cannot bracket")
    t = winners.index(BREAKER) + 1
    for b, w in enumerate(winners, start=1):
        expected = MAKER if b < t else BREAKER
        if w != expected:
            raise AssertionError(
                f"bias monotonicity violated at n={n}: winners={winners}"
            )
    return t
