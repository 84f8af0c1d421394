"""Turn loop for the (p:q) orientation game.

Maker moves first and orients at least 1 and at most p undirected pairs;
Breaker answers with at least 1 and at most q.  When every pair is
oriented the board is a tournament and the configured property decides
the winner.  The engine validates every move, can stop early once the
verdict is forced, and produces a replayable record.
"""

from __future__ import annotations

import copy
import json
import random
from dataclasses import dataclass, field

from .board import Board, parse_arcs, parse_count
from .errors import BadConfig, CorruptTranscript, NotATournament, ParseError
from .oracles import (
    PatternGraph,
    contains_embedding,
    find_cycle,
    is_strongly_connected,
    k_colorable,
    max_scc_size,
    reaches_from,
    topological_order,
)

MAKER = "maker"
BREAKER = "breaker"

RECORD_FORMAT = "orientgames-record/2"
# Read as well: /1 records carry no early_stop and were written with the default.
_OLD_RECORD_FORMAT = "orientgames-record/1"


def other(role: str) -> str:
    return BREAKER if role == MAKER else MAKER


# ---------------------------------------------------------------------------
# Target properties
# ---------------------------------------------------------------------------


class Property:
    """What Maker wants to be true of the final tournament.

    ``holds`` judges the board's arcs, ``forced`` tells whether a partial
    board already fixes the verdict, ``forced_after`` does the same given
    that the board without the newest arcs fixed nothing, and
    ``decided_within`` finds a move that lets the side to move force its
    verdict within the arcs left in its turn.  The exact
    solver's size and bias budget is one for every property
    (``solver.SOLVER_MAX_N``, ``solver.SOLVER_MAX_BIAS``).

    Every property must be invariant under relabelling: ``holds`` and
    ``forced`` give the same answer on a board and on
    ``board.relabeled(perm)``.  The solver memoizes positions up to
    isomorphism (``Board.isomorphism_key``), so one relabelling's value
    stands for them all.
    """

    def key(self) -> str:
        raise NotImplementedError

    def holds(self, board: Board) -> bool:
        """The property on the board's arcs; the verdict on a tournament."""
        raise NotImplementedError

    def forced(self, board: Board):
        """The verdict the board already forces, or None; here only a tournament."""
        return self.holds(board) if board.is_tournament() else None

    def forced_after(self, board: Board, new_arcs):
        """``forced(board)``, given that the board without new_arcs forced
        nothing; a property with no cheaper check judges from scratch."""
        return self.forced(board)

    def decided_within(self, board: Board, mover: str, budget: int):
        """A move of 1..budget arcs after which ``forced`` gives the mover's
        verdict (True for Maker, False for Breaker), or None: sound, not
        complete.  The board must force nothing and budget be at least 1.
        The exact solver asks it before expanding a node; by default no
        move is known."""
        return None


class MonotoneProperty(Property):
    """Once it holds it holds on every completion: orientation only adds
    arcs, so a cycle, a strong component or an embedding is never undone."""

    def forced(self, board: Board):
        if self.holds(board):
            return True
        return False if board.is_tournament() else None


@dataclass(frozen=True)
class Cycle(MonotoneProperty):
    def key(self):
        return "cycle"

    def holds(self, board):
        return find_cycle(board) is not None

    def forced_after(self, board, new_arcs):
        # The board without new_arcs was acyclic, so a cycle must run
        # through some new arc u->v and back along a path v ~> u.  A run of
        # consecutive arcs out of one tail u takes one walk from all their
        # heads.
        tail, heads = None, 0
        for (u, v) in new_arcs:
            if u != tail:
                if heads and reaches_from(board, heads, tail):
                    return True
                tail, heads = u, 0
            heads |= 1 << v
        if heads and reaches_from(board, heads, tail):
            return True
        return False if board.is_tournament() else None

    def decided_within(self, board, mover, budget):
        # The board forces nothing, so it is acyclic.  Breaker with a
        # budget for every open pair orients them all along a topological
        # order.  Maker closes a cycle with one arc v->u wherever an open
        # pair {u, v} has a path u ~> v.  A shortest such path has two
        # arcs u->w->v: on a longer one the pair {u, x2} is open, or
        # oriented u->x2, which shortens it.  And for any u->w->v, v->u
        # would close a cycle, so {u, v} is open exactly when u->v is not.
        n = board.n
        if mover == BREAKER:
            if budget < board.undirected_count:
                return None
            rank = [0] * n
            for i, v in enumerate(topological_order(board)):
                rank[v] = i
            return tuple((u, v) if rank[u] < rank[v] else (v, u)
                         for (u, v) in board.undirected_pairs())
        out_mask = board.out_mask
        for u in range(n):
            outs = m = out_mask(u)
            while m:
                bit = m & -m
                m ^= bit
                beyond = out_mask(bit.bit_length() - 1) & ~outs
                if beyond:
                    return (((beyond & -beyond).bit_length() - 1, u),)
        return None


@dataclass(frozen=True)
class Hamiltonicity(MonotoneProperty):
    def key(self):
        return "hamiltonicity"

    def holds(self, board):
        # On a tournament, equivalent to a Hamilton cycle and much cheaper.
        return is_strongly_connected(board)

    def forced(self, board):
        # A vertex whose n-1 arcs all point one way lies on no cycle.
        n = board.n
        outs, ins = board.degrees()
        if n > 1 and (n - 1 in outs or n - 1 in ins):
            return False
        return super().forced(board)

    def decided_within(self, board, mover, budget):
        # Breaker points every open pair of a vertex out of it, or into
        # it, once its arcs so far all point that way.
        if mover != BREAKER:
            return None
        n = board.n
        outs, ins = board.degrees()
        for v in range(n):
            if n - 1 - outs[v] - ins[v] <= budget:
                if not ins[v]:
                    return tuple((v, w) for w in board.undirected_neighbors(v))
                if not outs[v]:
                    return tuple((w, v) for w in board.undirected_neighbors(v))
        return None


@dataclass(frozen=True)
class MinInDegreePositive(MonotoneProperty):
    def key(self):
        return "min-indegree-positive"

    def holds(self, board):
        return 0 not in board.degrees()[1]

    def forced(self, board):
        # A vertex whose n-1 arcs all point out keeps in-degree 0.
        n = board.n
        if n > 1 and n - 1 in board.degrees()[0]:
            return False
        return super().forced(board)

    def decided_within(self, board, mover, budget):
        # Breaker points every open pair of an in-degree-0 vertex out of
        # it.  Maker gives each in-degree-0 vertex an arc in, each on its
        # own pair, chosen greedily.
        n = board.n
        outs, ins = board.degrees()
        zeros = [v for v in range(n) if not ins[v]]
        if mover == BREAKER:
            for v in zeros:
                if n - 1 - outs[v] <= budget:
                    return tuple((v, w) for w in board.undirected_neighbors(v))
            return None
        if len(zeros) > budget:
            return None
        move = []
        used = set()  # (head, tail) of each arc chosen so far
        for v in zeros:
            for w in board.undirected_neighbors(v):
                if (w, v) not in used:
                    used.add((v, w))
                    move.append((w, v))
                    break
            else:
                return None
        return tuple(move)


@dataclass(frozen=True)
class CycleLengthK(MonotoneProperty):
    k: int

    def __post_init__(self):
        if self.k < 3:
            raise BadConfig(f"cycle length must be >= 3, got {self.k}")

    def key(self):
        return f"ck:{self.k}"

    def holds(self, board):
        # A tournament has a k-cycle iff some strong component has >= k
        # vertices (strong tournaments are vertex-pancyclic; Moon's theorem).
        return max_scc_size(board) >= self.k


@dataclass(frozen=True)
class NonKColorable(Property):
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise BadConfig(f"colour count must be >= 1, got {self.k}")

    def key(self):
        return f"nonkcol:{self.k}"

    def holds(self, board):
        return k_colorable(board, self.k) is None


@dataclass(frozen=True)
class ContainsH(MonotoneProperty):
    pattern: PatternGraph

    def key(self):
        arcs = ",".join(f"{u}>{v}" for (u, v) in sorted(self.pattern.arcs))
        return f"contains:{self.pattern.t}:{arcs}"

    def holds(self, board):
        return contains_embedding(board, self.pattern) is not None


def property_from_key(key: str) -> Property:
    if key == "cycle":
        return Cycle()
    if key in ("hamiltonicity", "hamilton"):
        return Hamiltonicity()
    if key in ("min-indegree-positive", "min-indegree"):
        return MinInDegreePositive()
    try:
        if key.startswith("ck:"):
            return CycleLengthK(parse_count(key.split(":", 1)[1], "cycle length"))
        if key.startswith("nonkcol:"):
            return NonKColorable(parse_count(key.split(":", 1)[1], "colour count"))
        if key.startswith("contains:"):
            _, t, arcs = key.split(":", 2)
            pairs = frozenset(parse_arcs(arcs.split(",") if arcs else []))
            return ContainsH(PatternGraph(parse_count(t, "vertex count"), pairs))
    except (ValueError, BadConfig, ParseError) as e:
        raise ParseError(f"bad property key {key!r}: {e}") from None
    raise ParseError(f"unknown property key {key!r}")


def evaluate_property(board: Board, prop: Property) -> bool:
    """Judge the property on a finished tournament."""
    if not board.is_tournament():
        raise NotATournament("property is judged on the final tournament")
    return prop.holds(board)


def forced_verdict(board: Board, prop: Property, new_arcs=None):
    """The verdict a board already forces, or None: sound, not complete.

    Passing new_arcs promises that the board without those arcs forced
    nothing, so a property may judge from them alone.
    """
    if new_arcs is None:
        return prop.forced(board)
    return prop.forced_after(board, new_arcs)


# ---------------------------------------------------------------------------
# Config, moves, records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GameConfig:
    n: int
    p: int = 1
    q: int = 1
    prop: Property = field(default_factory=Cycle)
    seed: int = 0
    early_stop: bool = True
    keep_digests: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise BadConfig(f"n must be >= 1, got {self.n}")
        if self.p < 1 or self.q < 1:
            raise BadConfig("both biases must be >= 1")


Move = tuple  # tuple of (u, v) arc declarations


def validate_move(board: Board, move, bias: int):
    """Reason the move is illegal on this board, or None if it is fine.

    Board.apply_checked's answer, played on a copy so that this board is
    not written.
    """
    return board.copy().apply_checked(move, bias)


def apply_move(board: Board, move, bias: int | None = None):
    """Orient the move's arcs.

    Without a bias each arc must be legal, as for Board.orient.  Given
    the mover's bias this is Board.apply_checked: each arc is checked and
    written in one pass, and the reason the move is illegal is returned
    with the board untouched, or None once it is played.  The bias form
    is there for play_game alone, so that a game's writes stay the traced
    ``engine.apply_move`` span of perfbench; replay calls apply_checked
    itself.
    """
    if bias is not None:
        return board.apply_checked(move, bias)
    for (u, v) in move:
        board.orient(u, v)
    return None


@dataclass
class GameRecord:
    """Full replayable transcript of one game."""

    config: GameConfig
    transcript: list  # list of (role, move) pairs
    winner: str
    rounds: int
    forced_round: int | None = None
    forfeit: str | None = None
    forfeit_reason: str | None = None
    digests: list | None = None  # per-round board digests (the round trace)

    def to_json(self) -> str:
        doc = {
            "format": RECORD_FORMAT,
            "n": self.config.n,
            "p": self.config.p,
            "q": self.config.q,
            "property": self.config.prop.key(),
            "seed": self.config.seed,
            "early_stop": self.config.early_stop,
            "moves": [
                {"role": role, "arcs": [f"{u}>{v}" for (u, v) in move]}
                for (role, move) in self.transcript
            ],
            "winner": self.winner,
            "rounds": self.rounds,
            "forced_round": self.forced_round,
            "forfeit": self.forfeit,
            "forfeit_reason": self.forfeit_reason,
            "digests": self.digests,
        }
        return json.dumps(doc, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "GameRecord":
        """The record in ``text``; ParseError if it is not a well-formed one."""
        try:
            doc = json.loads(text)
        except ValueError as e:
            raise ParseError(f"record is not JSON: {e}") from None
        if not isinstance(doc, dict):
            raise ParseError("record is not a JSON object")
        fmt = doc.get("format")
        if fmt not in (RECORD_FORMAT, _OLD_RECORD_FORMAT):
            raise ParseError(f"unsupported record format {fmt!r}")
        early_stop = doc.get("early_stop") if fmt == RECORD_FORMAT else True
        if type(early_stop) is not bool:
            raise ParseError(f"bad early_stop {early_stop!r}")
        try:
            n, p, q, seed, rounds = (doc[k] for k in ("n", "p", "q", "seed", "rounds"))
            key, moves, winner = doc["property"], doc["moves"], doc["winner"]
            if any(type(x) is not int for x in (n, p, q, seed, rounds)):
                raise ParseError("n, p, q, seed and rounds must be integers")
            if not isinstance(key, str):
                raise ParseError(f"bad property key {key!r}")
            if not isinstance(moves, list) or not all(isinstance(m, dict) for m in moves):
                raise ParseError("moves must be a list of objects")
            # An empty move is well formed here; replay rejects it.
            transcript = [(m["role"], parse_arcs(m["arcs"])) for m in moves]
        except KeyError as e:
            raise ParseError(f"record lacks key {e}") from None
        forced_round, forfeit, reason, digests = (
            doc.get(k) for k in ("forced_round", "forfeit", "forfeit_reason", "digests")
        )
        if winner not in (MAKER, BREAKER):
            raise ParseError(f"bad winner {winner!r}")
        if forced_round is not None and type(forced_round) is not int:
            raise ParseError(f"bad forced_round {forced_round!r}")
        if forfeit not in (None, MAKER, BREAKER):
            raise ParseError(f"bad forfeit {forfeit!r}")
        if reason is not None and not isinstance(reason, str):
            raise ParseError(f"bad forfeit_reason {reason!r}")
        if digests is not None and not (
            isinstance(digests, list) and all(isinstance(d, str) for d in digests)
        ):
            raise ParseError("digests must be a list of strings")
        try:
            config = GameConfig(n=n, p=p, q=q, prop=property_from_key(key), seed=seed,
                                early_stop=early_stop, keep_digests=digests is not None)
        except BadConfig as e:
            raise ParseError(f"bad config: {e}") from None
        return cls(
            config=config,
            transcript=transcript,
            winner=winner,
            rounds=rounds,
            forced_round=forced_round,
            forfeit=forfeit,
            forfeit_reason=reason,
            digests=digests,
        )


# ---------------------------------------------------------------------------
# Strategy interface
# ---------------------------------------------------------------------------


class Strategy:
    """Base class for both sides.

    A strategy is bound to one game: start() hands it the config and a
    private seeded generator, then next_move() is called whenever it is to
    move.  A strategy that draws keeps that generator as ``self.rng``; a
    deterministic one does not keep it.  Given the same seed and transcript
    a strategy must propose the same move, and it must never propose an
    illegal one (the engine forfeits it if it does).
    """

    role = MAKER

    def start(self, config: GameConfig, rng: random.Random) -> None:
        """Bind to a game.  Stores only ``config``: a strategy that draws
        sets ``self.rng = rng`` in its own start()."""
        self.config = config

    def next_move(self, board: Board, transcript) -> Move:
        raise NotImplementedError

    def observe(self, board: Board, role: str, move) -> None:
        """Called after every applied move (own and opponent's)."""

    def state_key(self):
        """Hashable digest of private state, for the exhaustive verifier.

        The verifier takes the key with the opponent's move pending, before
        observe() is shown it; the move itself is part of its memo key.
        """
        return None

    def __deepcopy__(self, memo):
        """Independent copy for exhaustive search, made cheaply.

        The frozen config is shared.  A strategy that draws keeps its
        generator as ``rng``, which is cloned through its state rather than
        its internals; every other attribute is deep-copied with the same
        memo, so an alias of ``rng`` stays an alias of the clone.  A
        deterministic strategy holds no generator, so nothing is cloned.
        """
        cls = type(self)
        clone = cls.__new__(cls)
        memo[id(self)] = clone
        attrs = self.__dict__
        config = attrs.get("config")
        if config is not None:
            memo[id(config)] = config
        rng = attrs.get("rng")
        if rng is not None and id(rng) not in memo:
            twin = type(rng).__new__(type(rng))
            twin.setstate(rng.getstate())
            memo[id(rng)] = twin
        for name, value in attrs.items():
            setattr(clone, name, copy.deepcopy(value, memo))
        return clone


def strategy_rng(config: GameConfig, role: str) -> random.Random:
    # String seeding is stable across processes (no hash randomization).
    return random.Random(f"{config.seed}/{role}")


# ---------------------------------------------------------------------------
# Playing and replaying
# ---------------------------------------------------------------------------


def play_game(config: GameConfig, maker: Strategy, breaker: Strategy) -> GameRecord:
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


def replay(record: GameRecord) -> Board:
    """Reconstruct the final board from a record, validating as it goes.

    The round count, forfeit and forced round must be the ones the
    transcript's length implies: a game ends after its last recorded
    move, or in the next half-turn when the side due to move forfeits.
    A side that forfeits does not win, and a verdict is forced only
    with early stop on and before the board is complete.
    Then one pass over the transcript: roles alternate from Maker, and
    every move is checked and played by the game's rules.  When the
    record carries digests (one per completed round plus the final board)
    each one is checked against the rebuilt board.
    """
    moves = len(record.transcript)
    if record.forfeit is None:
        rounds = (moves + 1) // 2
    else:
        rounds = moves // 2 + 1
        due = BREAKER if moves % 2 else MAKER
        if record.forfeit != due:
            raise CorruptTranscript(f"forfeit by {record.forfeit}, but {due} was to move")
    if record.rounds != rounds:
        raise CorruptTranscript(f"{record.rounds} rounds, but the transcript makes {rounds}")
    if record.forced_round is not None and (record.forfeit or record.forced_round != rounds):
        raise CorruptTranscript(
            f"forced_round {record.forced_round} in {rounds} rounds with forfeit {record.forfeit}"
        )
    if record.forfeit is not None and record.winner == record.forfeit:
        raise CorruptTranscript(f"{record.winner} wins, but forfeited")
    config = record.config
    board = Board(config.n)
    check_digests = record.digests is not None
    round_digests = []
    for i, (role, move) in enumerate(record.transcript):
        expect = BREAKER if i % 2 else MAKER
        if role != expect:
            raise CorruptTranscript(f"move {i}: expected {expect}, got {role}")
        reason = board.apply_checked(move, config.q if i % 2 else config.p)
        if reason is not None:
            raise CorruptTranscript(f"move {i} ({role}): {reason}")
        if check_digests and i % 2:
            round_digests.append(board.digest())
    if check_digests:
        if record.digests != round_digests + [board.digest()]:
            raise CorruptTranscript("per-round digest trace mismatch")
    if record.forced_round is not None:
        if board.is_tournament():
            raise CorruptTranscript(f"forced_round {record.forced_round} on a complete board")
        if not config.early_stop:
            raise CorruptTranscript(f"forced_round {record.forced_round} without early stop")
    return board
