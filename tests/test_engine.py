import copy
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orientgames.board import Board, pair_count
from orientgames.engine import (
    BREAKER,
    MAKER,
    ContainsH,
    Cycle,
    CycleLengthK,
    GameConfig,
    GameRecord,
    Hamiltonicity,
    MinInDegreePositive,
    NonKColorable,
    RECORD_FORMAT,
    Strategy,
    evaluate_property,
    forced_verdict,
    other,
    play_game,
    property_from_key,
    replay,
    strategy_rng,
    validate_move,
)
from orientgames.errors import CorruptTranscript, NotATournament, ParseError
from orientgames.oracles import PatternGraph
from orientgames.strategies import RandomStrategy

from conftest import random_tournament, reference_move_reason


class FirstPairStrategy(Strategy):
    """Always the lowest undirected pair, oriented low to high."""

    def __init__(self, role):
        self.role = role

    def next_move(self, board, transcript):
        return (board.undirected_pairs()[0],)


class BadMoveStrategy(Strategy):
    def __init__(self, role):
        self.role = role

    def next_move(self, board, transcript):
        return ((0, 0),)


def tri():
    b = Board(3)
    b.orient(0, 1)
    b.orient(1, 2)
    b.orient(2, 0)
    return b


def trans(n):
    b = Board(n)
    for u in range(n):
        for v in range(u + 1, n):
            b.orient(u, v)
    return b


# ---------------------------------------------------------------------------
# property evaluation
# ---------------------------------------------------------------------------


def test_evaluate_property_trivials():
    assert evaluate_property(tri(), Cycle())
    assert not evaluate_property(trans(4), Hamiltonicity())
    assert evaluate_property(tri(), Hamiltonicity())
    assert evaluate_property(tri(), MinInDegreePositive())
    assert not evaluate_property(trans(4), MinInDegreePositive())
    assert evaluate_property(tri(), CycleLengthK(3))
    assert not evaluate_property(tri(), NonKColorable(2))
    assert evaluate_property(tri(), ContainsH(PatternGraph.cycle(3)))
    with pytest.raises(NotATournament):
        evaluate_property(Board(3), Cycle())


def test_zero_indegree_kills_hamiltonicity(rng):
    for _ in range(20):
        t = random_tournament(5, rng)
        if any(t.in_degree(v) == 0 for v in range(5)):
            assert not evaluate_property(t, Hamiltonicity())


def test_property_keys_round_trip():
    props = [
        Cycle(),
        Hamiltonicity(),
        MinInDegreePositive(),
        CycleLengthK(3),  # the smallest parameters accepted
        CycleLengthK(4),
        NonKColorable(1),
        NonKColorable(2),
        ContainsH(PatternGraph.cycle(3)),
    ]
    for p in props:
        assert property_from_key(p.key()) == p


# ---------------------------------------------------------------------------
# forced verdicts
# ---------------------------------------------------------------------------


def test_forced_verdict_rules():
    b = Board(4)
    assert forced_verdict(b, Cycle()) is None
    b.orient(0, 1)
    b.orient(1, 2)
    b.orient(2, 0)
    assert forced_verdict(b, Cycle()) is True
    assert forced_verdict(b, CycleLengthK(3)) is True
    assert forced_verdict(b, CycleLengthK(4)) is None

    c = Board(4)
    c.orient(0, 1)
    c.orient(0, 2)
    c.orient(0, 3)
    assert forced_verdict(c, Hamiltonicity()) is False
    assert forced_verdict(c, MinInDegreePositive()) is False

    d = Board(4)
    for i in range(4):
        d.orient(i, (i + 1) % 4)
    assert forced_verdict(d, Hamiltonicity()) is True
    assert forced_verdict(d, MinInDegreePositive()) is True


# ---------------------------------------------------------------------------
# move validation
# ---------------------------------------------------------------------------


def test_validate_move_rules():
    b = Board(4)
    assert validate_move(b, (), 2) is not None
    assert validate_move(b, ((0, 1),), 2) is None
    assert validate_move(b, ((0, 1), (2, 3)), 2) is None
    assert validate_move(b, ((0, 1), (2, 3), (1, 2)), 2) is not None
    assert validate_move(b, ((0, 1), (1, 0)), 2) is not None
    assert validate_move(b, ((0, 0),), 2) is not None
    b.orient(0, 1)
    assert validate_move(b, ((1, 0),), 2) is not None


def test_move_allowance_shrinks_with_board():
    b = Board(3)
    b.orient(0, 1)
    b.orient(0, 2)
    # One pair left: bias 3 but only one arc allowed.
    assert validate_move(b, ((1, 2), (2, 1)), 3) is not None
    assert validate_move(b, ((2, 1),), 3) is None


# ---------------------------------------------------------------------------
# play_game
# ---------------------------------------------------------------------------


def test_low_high_play_is_transitive_breaker_win():
    cfg = GameConfig(n=3, p=1, q=1, prop=Cycle(), seed=0, early_stop=False)
    rec = play_game(cfg, FirstPairStrategy(MAKER), FirstPairStrategy(BREAKER))
    assert rec.winner == BREAKER
    assert replay(rec) == trans(3)


def test_forfeit_recorded_distinctly():
    cfg = GameConfig(n=3, prop=Cycle(), seed=0)
    rec = play_game(cfg, BadMoveStrategy(MAKER), FirstPairStrategy(BREAKER))
    assert rec.winner == BREAKER
    assert rec.forfeit == MAKER
    assert rec.forfeit_reason


class FixedMoveStrategy(Strategy):
    def __init__(self, role, move):
        self.role = role
        self.move = move

    def next_move(self, board, transcript):
        return self.move


@pytest.mark.parametrize("move", [((0.5, 1),), ((True, 2),)])
def test_non_int_vertex_forfeits(move):
    cfg = GameConfig(n=3, prop=Cycle(), seed=0)
    rec = play_game(cfg, FixedMoveStrategy(MAKER, move), FirstPairStrategy(BREAKER))
    assert (rec.forfeit, rec.winner, rec.transcript) == (MAKER, BREAKER, [])
    assert "non-integer" in rec.forfeit_reason
    assert GameRecord.from_json(rec.to_json()).forfeit == MAKER


@pytest.mark.parametrize("move", [(5,), (None,), ("01",)])
def test_malformed_arc_forfeits(move):
    cfg = GameConfig(n=3, prop=Cycle(), seed=0)
    rec = play_game(cfg, FixedMoveStrategy(MAKER, move), FirstPairStrategy(BREAKER))
    assert (rec.forfeit, rec.winner, rec.transcript) == (MAKER, BREAKER, [])
    assert "malformed arc" in rec.forfeit_reason


@pytest.mark.parametrize("move", [None, 5])
def test_non_sequence_move_forfeits(move):
    cfg = GameConfig(n=3, prop=Cycle(), seed=0)
    rec = play_game(cfg, FixedMoveStrategy(MAKER, move), FirstPairStrategy(BREAKER))
    assert (rec.forfeit, rec.winner, rec.transcript) == (MAKER, BREAKER, [])
    assert "malformed move" in rec.forfeit_reason


@pytest.mark.parametrize("move", [((0.5, 1),), ((True, 2),)])
def test_replay_rejects_non_int_vertex(move):
    cfg = GameConfig(n=3, prop=Cycle(), seed=0)
    rec = GameRecord(config=cfg, transcript=[(MAKER, move)], winner=BREAKER, rounds=1)
    with pytest.raises(CorruptTranscript):
        replay(rec)


def test_round_count_lower_bound(rng):
    for p, q in [(1, 1), (1, 3), (2, 2)]:
        cfg = GameConfig(n=6, p=p, q=q, prop=Cycle(), seed=rng.randrange(1 << 20),
                         early_stop=False)
        rec = play_game(cfg, RandomStrategy(MAKER), RandomStrategy(BREAKER))
        assert rec.rounds >= math.ceil(pair_count(6) / (p + q))
        total = sum(len(m) for (_, m) in rec.transcript)
        assert total == pair_count(6)


def test_replay_round_trip_random_games():
    for seed in range(1000):
        cfg = GameConfig(n=5, p=1, q=2, prop=Cycle(), seed=seed, early_stop=False,
                         keep_digests=True)
        rec = play_game(cfg, RandomStrategy(MAKER), RandomStrategy(BREAKER))
        board = replay(rec)
        assert board.is_tournament()
        assert (rec.winner == MAKER) == evaluate_property(board, Cycle())


def test_replay_rejects_repeated_pair():
    cfg = GameConfig(n=3, prop=Cycle(), seed=0)
    rec = GameRecord(
        config=cfg,
        transcript=[(MAKER, ((0, 1),)), (BREAKER, ((1, 0),))],
        winner=BREAKER,
        rounds=1,
    )
    with pytest.raises(CorruptTranscript):
        replay(rec)


def test_replay_empty_transcript_is_fresh_board():
    cfg = GameConfig(n=4, prop=Cycle(), seed=0)
    rec = GameRecord(config=cfg, transcript=[], winner=BREAKER, rounds=0)
    assert replay(rec) == Board(4)


def test_replay_rejects_empty_digest_list():
    # A game played with keep_digests records at least the final digest.
    cfg = GameConfig(n=4, p=1, q=2, prop=Cycle(), seed=5, keep_digests=True)
    rec = play_game(cfg, RandomStrategy(MAKER), RandomStrategy(BREAKER))
    rec.digests = []
    with pytest.raises(CorruptTranscript, match="digest"):
        replay(GameRecord.from_json(rec.to_json()))


def reference_replay(record):
    """Why replay must refuse the record, or None: the transcript checked
    one move at a time by the reference rules, played through orient()."""
    board = Board(record.config.n)
    digests = []
    for i, (role, move) in enumerate(record.transcript):
        expect = BREAKER if i % 2 else MAKER
        if role != expect:
            return f"move {i}: expected {expect}, got {role}"
        bias = record.config.q if i % 2 else record.config.p
        reason = reference_move_reason(board, move, bias)
        if reason is not None:
            return f"move {i} ({role}): {reason}"
        for (u, v) in move:
            board.orient(u, v)
        if i % 2:
            digests.append(board.digest())
    if record.digests is not None and record.digests != digests + [board.digest()]:
        return "per-round digest trace mismatch"
    return None


TAMPERS = ("none", "role", "allowance", "reuse", "digest", "no-digests")


@settings(max_examples=300)
@given(st.data())
def test_replay_matches_reference_on_tampered_records(data):
    cfg = GameConfig(n=5, p=1, q=2, prop=Cycle(), seed=data.draw(st.integers(0, 999)),
                     early_stop=False, keep_digests=True)
    rec = play_game(cfg, RandomStrategy(MAKER), RandomStrategy(BREAKER))
    transcript, digests = list(rec.transcript), list(rec.digests)
    kind = data.draw(st.sampled_from(TAMPERS), label="kind")
    i = data.draw(st.integers(0, len(transcript) - 1), label="move")
    role, move = transcript[i]
    if kind == "role":
        transcript[i] = (other(role), move)
    elif kind == "allowance":  # one arc more than the bias, whatever the arcs
        transcript[i] = (role, move + move[:1] * (cfg.q if i % 2 else cfg.p))
    elif kind == "reuse" and i > 0:  # a pair some earlier move oriented
        u, v = data.draw(st.sampled_from([a for _, m in transcript[:i] for a in m]))
        transcript[i] = (role, (data.draw(st.sampled_from([(u, v), (v, u)])),) + move[1:])
    elif kind == "digest":
        digests[data.draw(st.integers(0, len(digests) - 1))] = "0" * 16
    elif kind == "no-digests":
        digests = []
    tampered = GameRecord(config=cfg, transcript=transcript, winner=rec.winner,
                          rounds=rec.rounds, digests=digests)
    want = reference_replay(tampered)
    assert (want is None) == (kind == "none" or (kind == "reuse" and i == 0))
    if want is None:
        assert replay(tampered) == replay(rec)
    else:
        with pytest.raises(CorruptTranscript) as err:
            replay(tampered)
        assert str(err.value) == want


def n4_records():
    """Seeded n=4 cycle records: one stopped early, one Maker and one
    Breaker forfeit."""
    cfg = GameConfig(n=4, p=1, q=1, prop=Cycle(), seed=14)
    early = play_game(cfg, RandomStrategy(MAKER), RandomStrategy(BREAKER))
    maker_out = play_game(cfg, BadMoveStrategy(MAKER), FirstPairStrategy(BREAKER))
    breaker_out = play_game(cfg, FirstPairStrategy(MAKER), BadMoveStrategy(BREAKER))
    assert early.forced_round == early.rounds and early.forfeit is None
    assert (maker_out.forfeit, breaker_out.forfeit) == (MAKER, BREAKER)
    return {"early": early, "maker-forfeit": maker_out, "breaker-forfeit": breaker_out}


def test_replay_accepts_played_round_counts():
    for rec in n4_records().values():
        replay(GameRecord.from_json(rec.to_json()))


# (record, fields to overwrite): each contradicts the record's transcript.
CONTRADICTIONS = [
    ("early", {"rounds": -3}),
    ("early", {"rounds": 5}),
    ("early", {"forced_round": -1}),
    ("early", {"forfeit": MAKER}),
    ("early", {"forfeit": BREAKER}),
    ("maker-forfeit", {"forfeit": BREAKER}),
    ("breaker-forfeit", {"forfeit": MAKER}),
    ("breaker-forfeit", {"rounds": 2}),
    ("maker-forfeit", {"forced_round": 1}),
]


@pytest.mark.parametrize("name, fields", CONTRADICTIONS,
                         ids=[n + "".join(f"-{k}={v}" for k, v in f.items())
                              for n, f in CONTRADICTIONS])
def test_replay_rejects_fields_the_transcript_contradicts(name, fields):
    doc = json.loads(n4_records()[name].to_json())
    doc.update(fields)
    rec = GameRecord.from_json(json.dumps(doc))
    with pytest.raises(CorruptTranscript):
        replay(rec)


def full_board_record():
    """A seeded n=4 cycle game played to a tournament in 3 rounds, without
    early stop."""
    cfg = GameConfig(n=4, p=1, q=1, prop=Cycle(), seed=14, early_stop=False)
    rec = play_game(cfg, RandomStrategy(MAKER), RandomStrategy(BREAKER))
    assert replay(rec).is_tournament() and (rec.rounds, rec.forced_round) == (3, None)
    return rec


# (record, fields to overwrite, why replay refuses): endings no game plays.
ENDINGS = [
    ("maker-forfeit", {"winner": MAKER}, "forfeited"),
    ("breaker-forfeit", {"winner": BREAKER}, "forfeited"),
    ("full-board", {"forced_round": 3}, "complete board"),
    ("early", {"early_stop": False}, "without early stop"),
]


@pytest.mark.parametrize("name, fields, match", ENDINGS,
                         ids=["maker-forfeit-wins", "breaker-forfeit-wins",
                              "forced-on-tournament", "forced-without-early-stop"])
def test_replay_rejects_endings_the_transcript_contradicts(name, fields, match):
    rec = full_board_record() if name == "full-board" else n4_records()[name]
    doc = json.loads(rec.to_json())
    doc.update(fields)
    with pytest.raises(CorruptTranscript, match=match):
        replay(GameRecord.from_json(json.dumps(doc)))


def record_with_arcs(arcs):
    cfg = GameConfig(n=4, p=1, q=2, prop=Cycle(), seed=2, keep_digests=True)
    doc = json.loads(play_game(cfg, RandomStrategy(MAKER), RandomStrategy(BREAKER)).to_json())
    doc["moves"][1]["arcs"] = arcs
    return json.dumps(doc)


# One arc that is not "<digits>><digits>", or a move's arcs that are no list.
@pytest.mark.parametrize("arcs", [[t] for t in ["0>1>2", "a>b", "0_1>2", " 1>2", "+1>2", "1>",
                                                ">2", "12", "1>2,0>3", "\u0661>2", 5, None]]
                         + [None, 5, "0>1", {"0": 1}], ids=repr)
def test_from_json_rejects_bad_arc(arcs):
    with pytest.raises(ParseError):
        GameRecord.from_json(record_with_arcs(arcs))


# A record document broken whole, not in one arc.
@pytest.mark.parametrize("text_or_edit", [
    "{", "[]", "5", json.dumps({"format": RECORD_FORMAT}),
    lambda d: d.pop("winner"), lambda d: d.pop("moves"), lambda d: d["moves"][0].pop("role"),
    lambda d: d.update(n="5"), lambda d: d.update(p=1.0), lambda d: d.update(q=None),
    lambda d: d.update(seed=True), lambda d: d.update(rounds="3"),
    lambda d: d.update(property=5), lambda d: d.update(moves={}),
    lambda d: d.update(moves=[["maker", ["0>1"]]]),
    lambda d: d.update(winner=5), lambda d: d.update(winner="nobody"),
    lambda d: d.update(forced_round="x"), lambda d: d.update(forced_round=1.0),
    lambda d: d.update(forfeit=5), lambda d: d.update(forfeit="nobody"),
    lambda d: d.update(forfeit_reason=5), lambda d: d.update(digests="ab"),
    lambda d: d.update(digests=[5]),
    lambda d: d.pop("early_stop"), lambda d: d.update(early_stop=0),
    lambda d: d.update(early_stop="false"), lambda d: d.update(early_stop=None),
    lambda d: d.update(n=0), lambda d: d.update(p=0), lambda d: d.update(q=-1),
    lambda d: d.update(format="orientgames-record/3"),
], ids=["truncated", "list", "number", "format-only", "no-winner", "no-moves", "no-role",
        "str-n", "float-p", "null-q", "bool-seed", "str-rounds", "int-property",
        "moves-object", "move-list", "int-winner", "unknown-winner", "str-forced-round",
        "float-forced-round", "int-forfeit", "unknown-forfeit", "int-forfeit-reason",
        "str-digests", "int-digest", "no-early-stop", "int-early-stop",
        "str-early-stop", "null-early-stop", "zero-n", "zero-p", "negative-q",
        "unknown-format"])
def test_from_json_rejects_malformed_record(text_or_edit):
    if callable(text_or_edit):
        doc = json.loads(record_with_arcs(["0>1"]))
        text_or_edit(doc)
        text = json.dumps(doc)
    else:
        text = text_or_edit
    with pytest.raises(ParseError):
        GameRecord.from_json(text)


def test_from_json_reads_decimal_arcs():
    rec = GameRecord.from_json(record_with_arcs(["03>1"]))
    assert rec.transcript[1][1][0] == (3, 1)


def test_early_stop_records_forced_round():
    cfg = GameConfig(n=6, p=1, q=1, prop=Cycle(), seed=11, early_stop=True)
    rec = play_game(cfg, RandomStrategy(MAKER), RandomStrategy(BREAKER))
    if rec.forced_round is not None:
        board = replay(rec)
        assert not board.is_tournament()
        assert forced_verdict(board, Cycle()) == (rec.winner == MAKER)


def test_record_json_round_trip():
    cfg = GameConfig(n=4, p=1, q=2, prop=CycleLengthK(3), seed=9, keep_digests=True)
    rec = play_game(cfg, RandomStrategy(MAKER), RandomStrategy(BREAKER))
    text = rec.to_json()
    assert text.count("\n") == 1  # one compact line: the C encoder's form
    back = GameRecord.from_json(text)
    assert back.winner == rec.winner
    assert back.transcript == rec.transcript
    assert back.config.prop == rec.config.prop
    assert replay(back) == replay(rec)
    assert back.to_json() == text


@pytest.mark.parametrize("early_stop", [False, True])
def test_record_json_keeps_early_stop(early_stop):
    cfg = GameConfig(n=5, p=1, q=2, prop=Cycle(), seed=3, early_stop=early_stop)
    rec = play_game(cfg, RandomStrategy(MAKER), RandomStrategy(BREAKER))
    assert GameRecord.from_json(rec.to_json()).config == cfg


@pytest.mark.parametrize("keep_digests", [False, True])
@pytest.mark.parametrize("n", [1, 5])
def test_record_json_keeps_keep_digests(n, keep_digests):
    cfg = GameConfig(n=n, p=1, q=2, prop=Cycle(), seed=3, keep_digests=keep_digests)
    rec = play_game(cfg, RandomStrategy(MAKER), RandomStrategy(BREAKER))
    back = GameRecord.from_json(rec.to_json())
    assert back.config == cfg
    assert replay(back) == replay(rec)


def test_from_json_reads_format_1_with_early_stop_on():
    cfg = GameConfig(n=5, p=1, q=2, prop=Cycle(), seed=3, early_stop=False)
    doc = json.loads(play_game(cfg, RandomStrategy(MAKER), RandomStrategy(BREAKER)).to_json())
    doc["format"] = "orientgames-record/1"
    del doc["early_stop"]
    back = GameRecord.from_json(json.dumps(doc))
    assert back.config == GameConfig(n=5, p=1, q=2, prop=Cycle(), seed=3, early_stop=True)


def test_replay_reads_format_1_forced_round_as_early_stop():
    # /1 records carry no early_stop; they were played with it on, so a
    # forced_round there is one that play_game recorded.
    doc = json.loads(n4_records()["early"].to_json())
    doc["format"] = "orientgames-record/1"
    del doc["early_stop"]
    back = GameRecord.from_json(json.dumps(doc))
    assert back.forced_round is not None
    assert replay(back) == replay(n4_records()["early"])


def test_same_seed_same_game():
    def run():
        cfg = GameConfig(n=6, p=1, q=2, prop=Cycle(), seed=77, early_stop=False)
        return play_game(cfg, RandomStrategy(MAKER), RandomStrategy(BREAKER))

    a, b = run(), run()
    assert a.transcript == b.transcript
    assert a.winner == b.winner


# ---------------------------------------------------------------------------
# relabeling equivariance
# ---------------------------------------------------------------------------


class RelabeledStrategy(Strategy):
    """Conjugates a base strategy by a vertex permutation."""

    def __init__(self, base, perm):
        self.base = base
        self.role = base.role
        self.perm = perm
        self.inv = [0] * len(perm)
        for i, p in enumerate(perm):
            self.inv[p] = i

    def start(self, config, rng):
        super().start(config, rng)
        self.base.start(config, rng)

    def _pull(self, board):
        return board.relabeled(self.inv)

    def next_move(self, board, transcript):
        inner_transcript = [
            (role, tuple((self.inv[u], self.inv[v]) for (u, v) in move))
            for (role, move) in transcript
        ]
        move = self.base.next_move(self._pull(board), inner_transcript)
        return tuple((self.perm[u], self.perm[v]) for (u, v) in move)

    def observe(self, board, role, move):
        self.base.observe(
            self._pull(board), role, tuple((self.inv[u], self.inv[v]) for (u, v) in move)
        )


def test_verdict_invariant_under_common_relabeling():
    perm = [2, 0, 3, 4, 1]
    for seed in range(10):
        cfg = GameConfig(n=5, p=1, q=1, prop=Cycle(), seed=seed, early_stop=False)
        plain = play_game(cfg, RandomStrategy(MAKER), RandomStrategy(BREAKER))
        relabeled = play_game(
            cfg,
            RelabeledStrategy(RandomStrategy(MAKER), perm),
            RelabeledStrategy(RandomStrategy(BREAKER), perm),
        )
        assert plain.winner == relabeled.winner
        assert replay(relabeled) == replay(plain).relabeled(perm)


def test_one_vertex_games_judge_immediately():
    cfg = GameConfig(n=1, prop=Hamiltonicity(), seed=0)
    rec = play_game(cfg, FirstPairStrategy(MAKER), FirstPairStrategy(BREAKER))
    assert rec.winner == MAKER and rec.rounds == 0
    cfg2 = GameConfig(n=1, prop=MinInDegreePositive(), seed=0)
    rec2 = play_game(cfg2, FirstPairStrategy(MAKER), FirstPairStrategy(BREAKER))
    assert rec2.winner == BREAKER
    assert forced_verdict(Board(1), Hamiltonicity()) is True


# ---------------------------------------------------------------------------
# Strategy copies (the exhaustive verifier deep-copies per opponent branch)
# ---------------------------------------------------------------------------


def started(strategy, seed=5):
    cfg = GameConfig(n=5, prop=Cycle(), seed=seed)
    strategy.start(cfg, strategy_rng(cfg, strategy.role))
    return strategy


def test_strategy_deepcopy_shares_config_and_clones_rng():
    s = started(RandomStrategy(MAKER))
    s.rng.random()  # a generator part-way through its stream
    c = copy.deepcopy(s)
    assert type(c) is RandomStrategy
    assert c.config is s.config
    assert c.rng is not s.rng
    assert c.rng.getstate() == s.rng.getstate()
    assert c.free is not s.free and c.free.pairs == s.free.pairs
    state = s.rng.getstate()
    drawn = [c.rng.random() for _ in range(3)]
    assert s.rng.getstate() == state
    assert [s.rng.random() for _ in range(3)] == drawn


class AliasingStrategy(Strategy):
    def start(self, config, rng):
        super().start(config, rng)
        self.rng = rng
        self.sampler = rng
        self.pair = [rng, rng]


def test_strategy_deepcopy_keeps_rng_aliases():
    s = started(AliasingStrategy())
    c = copy.deepcopy(s)
    assert c.rng is not s.rng
    assert c.sampler is c.rng
    assert c.pair[0] is c.rng and c.pair[1] is c.rng
