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
import re
from dataclasses import dataclass, field

from .board import Board
from .errors import BadConfig, CorruptTranscript, NotATournament, ParseError
from .oracles import (
    PatternGraph,
    contains_embedding,
    find_cycle,
    is_strongly_connected,
    k_colorable,
    max_scc_size,
    reaches,
)

MAKER = "maker"
BREAKER = "breaker"

RECORD_FORMAT = "orientgames-record/1"


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
    ``solver_max_n`` caps exact solving.
    """

    solver_max_n = 4

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


class MonotoneProperty(Property):
    """Once it holds it holds on every completion: orientation only adds
    arcs, so a cycle, a strong component or an embedding is never undone."""

    def forced(self, board: Board):
        if self.holds(board):
            return True
        return False if board.is_tournament() else None


@dataclass(frozen=True)
class Cycle(MonotoneProperty):
    solver_max_n = 5

    def key(self):
        return "cycle"

    def holds(self, board):
        return find_cycle(board) is not None

    def forced_after(self, board, new_arcs):
        # The board without new_arcs was acyclic, so a cycle must run
        # through some new arc u->v and back along a path v ~> u.
        for (u, v) in new_arcs:
            if reaches(board, v, u):
                return True
        return False if board.is_tournament() else None


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


@dataclass(frozen=True)
class CycleLengthK(MonotoneProperty):
    k: int

    def __post_init__(self):
        if self.k < 3:
            raise BadConfig(f"cycle length must be >= 3, got {self.k}")

    @property
    def solver_max_n(self):
        return 5 if self.k == 3 else 4

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

    @property
    def solver_max_n(self):
        return 5 if self.pattern.t <= 3 else 4

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
            return CycleLengthK(int(key.split(":", 1)[1]))
        if key.startswith("nonkcol:"):
            return NonKColorable(int(key.split(":", 1)[1]))
        if key.startswith("contains:"):
            _, t, arcs = key.split(":", 2)
            pairs = frozenset(
                (int(a), int(b))
                for a, b in (part.split(">") for part in arcs.split(",") if part)
            )
            return ContainsH(PatternGraph(int(t), pairs))
    except (ValueError, BadConfig) as e:
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

    The rules are Board.check_move's; the board is not written.
    """
    return board.check_move(move, bias)


def apply_move(board: Board, move, bias: int | None = None):
    """Orient the move's arcs.

    Without a bias each arc must be legal, as for Board.orient.  Given
    the mover's bias this is Board.apply_checked: the move is checked
    whole first, and the reason it is illegal is returned with the board
    untouched, or None once it is played.  The bias form is there for
    play_game alone, so that a game's writes stay the traced
    ``engine.apply_move`` span of perfbench; replay calls apply_checked
    itself.
    """
    if bias is not None:
        return board.apply_checked(move, bias)
    for (u, v) in move:
        board.orient(u, v)
    return None


# A recorded move's arcs joined by commas: "u>v" each, in ASCII digits.
_ARC_LIST = re.compile(r"[0-9]+>[0-9]+(?:,[0-9]+>[0-9]+)*")


def _parse_arcs(arcs) -> tuple:
    """The arcs of one recorded move, from their "u>v" strings.

    One regex matches the whole move, joined by commas: a regex per arc
    takes about 1.5 times as long on an n=400 record.
    """
    if arcs == []:
        return ()  # well formed; replay rejects the empty move
    text = None
    if isinstance(arcs, list):
        try:
            text = ",".join(arcs)
        except TypeError:  # an arc that is not a string
            pass
    # Each arc is one "u>v" of the text only if none holds a comma itself.
    if text is None or text.count(",") != len(arcs) - 1 or not _ARC_LIST.fullmatch(text):
        raise ParseError(f"bad arcs in move {arcs!r}")
    ends = map(int, text.replace(",", ">").split(">"))
    return tuple(zip(ends, ends))


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
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "GameRecord":
        doc = json.loads(text)
        if doc.get("format") != RECORD_FORMAT:
            raise ParseError(f"unsupported record format {doc.get('format')!r}")
        config = GameConfig(
            n=doc["n"],
            p=doc["p"],
            q=doc["q"],
            prop=property_from_key(doc["property"]),
            seed=doc["seed"],
        )
        transcript = []
        for entry in doc["moves"]:
            transcript.append((entry["role"], _parse_arcs(entry["arcs"])))
        return cls(
            config=config,
            transcript=transcript,
            winner=doc["winner"],
            rounds=doc["rounds"],
            forced_round=doc.get("forced_round"),
            forfeit=doc.get("forfeit"),
            forfeit_reason=doc.get("forfeit_reason"),
            digests=doc.get("digests"),
        )


# ---------------------------------------------------------------------------
# Strategy interface
# ---------------------------------------------------------------------------


class Strategy:
    """Base class for both sides.

    A strategy is bound to one game: start() hands it the config and a
    private seeded generator, then next_move() is called whenever it is to
    move.  Given the same seed and transcript a strategy must propose the
    same move, and it must never propose an illegal one (the engine
    forfeits it if it does).
    """

    role = MAKER

    def start(self, config: GameConfig, rng: random.Random) -> None:
        self.config = config
        self.rng = rng

    def next_move(self, board: Board, transcript) -> Move:
        raise NotImplementedError

    def observe(self, board: Board, role: str, move) -> None:
        """Called after every applied move (own and opponent's)."""

    def state_key(self):
        """Hashable digest of private state, for the exhaustive verifier."""
        return None

    def __deepcopy__(self, memo):
        """Independent copy for exhaustive search, made cheaply.

        The frozen config is shared, and the generator is cloned through
        its state rather than its internals; every other attribute is
        deep-copied with the same memo, so an alias of ``rng`` stays an
        alias of the clone.
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
        return GameRecord(config=config, transcript=[], winner=winner, rounds=0)
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

    One pass over the transcript: roles alternate from Maker, and every
    move is checked and played by the game's rules.  When the record
    carries digests (one per completed round plus the final board) each
    one is checked against the rebuilt board.
    """
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
    return board
