"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/tests
"""

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import run  # noqa: E402

run.load_package()

import spans  # noqa: E402
import workloads  # noqa: E402
from orientgames import engine  # noqa: E402
from orientgames.board import Board  # noqa: E402
from orientgames.engine import MAKER, GameConfig, MinInDegreePositive  # noqa: E402
from orientgames.strategies import MakerCycle  # noqa: E402


def small_game(seed=1):
    config = GameConfig(n=12, p=1, q=2, prop=MinInDegreePositive(), seed=seed,
                        early_stop=True, keep_digests=True)
    return workloads.GameOp(config, "maker-random", "breaker-greedy-star")


# -- self time ---------------------------------------------------------------


def test_self_time_of_hand_built_tree():
    # a [0,10] has children b [1,4] and c [5,9]; c has child d [6,8];
    # a second "b" [11,12] is a root.
    names = ["a", "b", "c", "d"]
    name_id = [0, 1, 2, 3, 1]
    parent = [-1, 0, 0, 2, -1]
    start = [0.0, 1.0, 5.0, 6.0, 11.0]
    end = [10.0, 4.0, 9.0, 8.0, 12.0]
    st = spans.self_times(names, name_id, parent, start, end)
    assert st == {"a": [1, 3.0], "b": [2, 4.0], "c": [1, 2.0], "d": [1, 2.0]}
    # A slice treats parents before its start as roots.
    assert spans.self_times(names, name_id, parent, start, end, lo=2, hi=4) == {
        "c": [1, 2.0], "d": [1, 2.0]}


def test_tracer_nests_spans_and_self_times_add_up():
    tracer = spans.Tracer()
    inner = tracer.span("inner", lambda: sum(range(1000)))
    outer = tracer.span("outer", lambda: inner() + inner())
    tracer.operation(outer)
    assert [tracer.names[i] for i in tracer.name_id] == ["bench.op", "outer", "inner", "inner"]
    assert list(tracer.parent) == [-1, 0, 1, 1]
    assert set(tracer.op) == {0}
    st = tracer.self_times()
    total = tracer.end[0] - tracer.start[0]
    assert st["inner"][0] == 2
    assert sum(row[1] for row in st.values()) == pytest.approx(total)


# -- output gate ---------------------------------------------------------------


def tampering(monkeypatch, tamper):
    play = engine.play_game

    def play_and_tamper(*args):
        return tamper(play(*args))

    monkeypatch.setattr(workloads.engine, "play_game", play_and_tamper)


def flip_winner(rec):
    rec.winner = "breaker" if rec.winner == MAKER else MAKER
    return rec


def truncate(rec):
    rec.transcript = rec.transcript[:-1]
    return rec


@pytest.mark.parametrize("tamper", [flip_winner, truncate])
def test_tampered_record_is_one_failed_operation(monkeypatch, tamper):
    ops = [small_game(1), small_game(2)]
    results, _, _ = run.run_pass(ops)
    gate = run.Gate(ops)
    gate.check(results)
    assert (gate.attempted, gate.failed) == (2, 0)

    tampering(monkeypatch, tamper)
    bad, _, _ = run.run_pass(ops[:1])
    monkeypatch.undo()
    good, _, _ = run.run_pass(ops[1:])
    fresh = run.Gate(ops)
    fresh.check(bad + good)  # the run goes on past the failure
    assert (fresh.attempted, fresh.failed) == (2, 1)


def test_judge_rederives_forced_and_final_winners():
    op = small_game(3)
    res = op.run()
    rec, board = res["record"], res["board"]
    assert rec.forced_round is not None
    assert workloads.judge(rec, board) == rec.winner
    rec.forced_round += 1
    assert workloads.judge(rec, board) is None


class SmallSweep(workloads.SweepOp):
    workers = 1
    weight = 3


def test_sweep_rows_must_match_in_process_replay(tmp_path):
    op = SmallSweep(7, str(tmp_path / "s.csv"))
    res = op.run()
    assert op.check(res) == (0, [])
    failed, msgs, job_s = op.replay_in_process(res)
    assert (failed, msgs) == (0, []) and job_s > 0
    lines = res["csv"].splitlines()
    row = lines[1].split(",")
    row[10] = str(int(row[10]) + 1)  # rounds
    lines[1] = ",".join(row)
    res["csv"] = "\n".join(lines) + "\n"
    assert op.replay_in_process(res)[0] == 1


# -- inputs ------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_changes_the_inputs(name, tmp_path):
    build = workloads.WORKLOADS[name].build
    labels = [[op.label for op in build(seed, str(tmp_path))] for seed in (0, 0, 1)]
    assert labels[0] == labels[1]
    assert labels[0] != labels[2]


def test_golden_covers_every_input_set(tmp_path):
    with open(run.GOLDEN) as fh:
        golden = json.load(fh)
    for name, wl in workloads.WORKLOADS.items():
        labels = set()
        for seed in range(workloads.INPUT_SETS):
            labels |= {op.label for op in wl.build(seed, str(tmp_path))}
        assert labels == set(golden[name])
        # Any seed, however large, maps onto a captured input set.
        assert {op.label for op in wl.build(10**9 + 7, str(tmp_path))} <= labels



def test_scaled_pass_factors_come_from_the_reference_loop():
    ops = [small_game(1), small_game(2)]
    _, times, factors = run.run_pass(ops, scale=True)
    assert len(times) == len(factors) == 2
    assert all(f > 0 and f != 1.0 for f in factors)
    assert run.run_pass(ops)[2] == [1.0, 1.0]


# -- tracing -------------------------------------------------------------------


def test_class_level_strategy_wrapper_survives_deepcopy():
    tracer = spans.Tracer()
    traced = tracer.strategy_class(MakerCycle)
    config = GameConfig(n=5, p=1, q=1, seed=0)
    s = traced()
    s.start(config, engine.strategy_rng(config, MAKER))
    twin = copy.deepcopy(s)
    assert type(twin) is traced and isinstance(twin, MakerCycle)
    twin.next_move(Board(5), [])
    assert tracer.self_times()["strategies.maker.next_move"][0] == 1


def test_tracing_leaves_records_identical_and_uninstalls():
    originals = (engine.forced_verdict, Board.arc, workloads.strategies.build_strategy)
    op = small_game(4)
    plain = op.fingerprint(op.run())
    tracer = spans.Tracer()
    workloads.install_tracing(tracer, workloads.LAYERS)
    try:
        assert engine.forced_verdict is not originals[0]
        res = tracer.operation(op.run)
    finally:
        tracer.uninstall()
    assert op.fingerprint(res) == plain
    assert (engine.forced_verdict, Board.arc, workloads.strategies.build_strategy) == originals
    st = tracer.self_times()
    assert st["engine.play_game"][0] == 1
    assert st["strategies.breaker.next_move"][0] >= 1
    assert tracer.counts["board.arc.calls"][0] > 0
    # replay is opaque: the moves it re-applies are not apply_move spans.
    assert st["engine.replay"][0] == 1
    assert st["engine.apply_move"][0] == len(res["record"].transcript)


# -- benchmark definition ----------------------------------------------------


def test_metric_names_match_benchmark_json():
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path) as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()}
