import csv
import json
import re

import pytest

from orientgames import cli
from orientgames.board import Board
from orientgames.cli import main
from orientgames.engine import GameRecord, MAKER, evaluate_property, replay


def run(args):
    return main(args)


def read(path):
    with open(path) as fh:
        return fh.read()


def test_play_writes_record_and_round_trips(tmp_path, capsys):
    out = tmp_path / "rec.json"
    code = run([
        "play", "--n", "10", "--q", "8", "--maker", "maker-cycle",
        "--breaker", "breaker-outstar", "--property", "cycle", "--seed", "7",
        "--out", str(out),
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "winner: breaker" in printed
    rec = GameRecord.from_json(read(out))
    assert rec.winner == "breaker"
    board = replay(rec)
    if board.is_tournament():
        assert not evaluate_property(board, rec.config.prop)


def test_play_random_verdict_matches_replay(tmp_path):
    out = tmp_path / "rec.json"
    run([
        "play", "--n", "6", "--q", "1", "--maker", "maker-random",
        "--breaker", "breaker-random", "--property", "cycle", "--seed", "3",
        "--out", str(out), "--no-early-stop",
    ])
    rec = GameRecord.from_json(read(out))
    board = replay(rec)
    assert (rec.winner == MAKER) == evaluate_property(board, rec.config.prop)


@pytest.mark.parametrize("key", ["ck:2", "ck:x", "nonkcol:0", "contains:0:"])
def test_play_rejects_bad_property_parameter(key, capsys):
    # ck:2 used to play on and hand Maker a "win" from the first arc.
    args = ["play", "--n", "5", "--maker", "maker-random", "--breaker",
            "breaker-random", "--property", key, "--seed", "0"]
    assert run(args) == 2
    assert "winner" not in capsys.readouterr().out


@pytest.mark.parametrize("maker,message", [
    ("maker-ck:1_0", "bad cycle length: '1_0'"),
    ("maker-ck:+3", "bad cycle length: '+3'"),
    ("maker-ck:", "bad cycle length: ''"),
    ("maker-ck:2", "cycle target must be >= 3"),
    ("maker-nonkcol: 2", "bad colour count: ' 2'"),
    ("maker-nonkcol:0", "k must be >= 1"),
    ("breaker-random", "strategies do not match their roles"),
])
def test_play_rejects_bad_maker(maker, message, capsys):
    args = ["play", "--n", "5", "--maker", maker, "--breaker", "breaker-random",
            "--property", "cycle", "--seed", "0"]
    assert run(args) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "winner" not in captured.out


def test_play_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["play", "--n", "8", "--q", "2", "--maker", "maker-random",
            "--breaker", "breaker-random", "--property", "cycle", "--seed", "5"]
    run(args + ["--out", str(a)])
    run(args + ["--out", str(b)])
    assert read(a) == read(b)


def test_play_missing_pattern_file(tmp_path, capsys):
    code = run([
        "play", "--n", "7", "--q", "20", "--maker", "maker-random",
        "--breaker", "breaker-sigma:/no/such/file", "--property", "cycle",
        "--out", str(tmp_path / "x.json"),
    ])
    assert code == 2


def test_play_pattern_over_fas_cap_is_budget_exit(tmp_path, capsys):
    # A 13-vertex pattern is past fas_exact's size cap: a budget, not bad input.
    path = tmp_path / "p13.tour"
    path.write_text("n=13\n" + "".join(f"{i}>{i + 1}\n" for i in range(12)))
    code = run([
        "play", "--n", "20", "--maker", "maker-random",
        "--breaker", f"breaker-sigma:{path}", "--property", "cycle",
        "--out", str(tmp_path / "x.json"),
    ])
    assert code == 3
    assert "fas_exact capped" in capsys.readouterr().err


def test_play_box_criterion_surfaced(tmp_path, capsys):
    code = run([
        "play", "--n", "30", "--q", "6", "--maker", "maker-random",
        "--breaker", "breaker-box", "--property", "hamiltonicity",
        "--out", str(tmp_path / "x.json"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "bias" in err  # message names the computed threshold


@pytest.mark.parametrize("q", ["5", "6"])
def test_play_box_bias_above_n(tmp_path, capsys, q):
    code = run([
        "play", "--n", "4", "--q", q, "--maker", "maker-random",
        "--breaker", "breaker-box", "--property", "min-indegree",
        "--out", str(tmp_path / "x.json"),
    ])
    assert code == 0
    assert "winner: breaker" in capsys.readouterr().out


def test_sweep_deterministic_across_workers(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["sweep", "--n", "8,10", "--bias", "1,2", "--maker", "maker-random",
            "--breaker", "breaker-random", "--property", "cycle",
            "--seeds", "4", "--seed", "9"]
    assert run(base + ["--out", str(a), "--workers", "1"]) == 0
    assert run(base + ["--out", str(b), "--workers", "3"]) == 0
    assert read(a) == read(b)


SMALL_SWEEP = ["sweep", "--n", "6", "--bias", "1", "--maker", "maker-random",
               "--breaker", "breaker-random", "--property", "cycle", "--seed", "4"]


@pytest.mark.parametrize("flag,value", [("--seeds", "-3"), ("--seeds", "0"),
                                        ("--workers", "0"), ("--workers", "-1")])
def test_sweep_rejects_empty_runs(tmp_path, capsys, flag, value):
    args = SMALL_SWEEP + ["--seeds", "3", "--workers", "2", "--out", str(tmp_path / "x.csv")]
    args[args.index(flag) + 1] = value
    assert run(args) == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("seeds,workers,pool_size", [("3", "64", 3), ("5", "2", 2),
                                                     ("1", "8", None)])
def test_sweep_forks_no_more_workers_than_jobs(tmp_path, monkeypatch, seeds, workers,
                                               pool_size):
    pools = []

    class InlinePool:
        """Records how the pool was asked to run and maps in this process,
        so the test starts no worker."""

        def __init__(self, max_workers):
            self.max_workers = max_workers
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, **kwargs):
            self.map_kwargs = kwargs
            return map(fn, *iterables)

    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", InlinePool)
    base = SMALL_SWEEP + ["--seeds", seeds]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(base + ["--workers", workers, "--out", str(a)]) == 0
    if pool_size is None:
        assert pools == []
    else:
        [pool] = pools
        assert pool.max_workers == pool_size
        assert pool.map_kwargs == {}  # jobs are dealt one at a time
    assert run(base + ["--workers", "1", "--out", str(b)]) == 0
    assert read(a) == read(b)


def test_sweep_aggregate_matches_rows(tmp_path):
    out = tmp_path / "s.csv"
    run(["sweep", "--n", "6", "--bias", "1", "--maker", "maker-random",
         "--breaker", "breaker-random", "--property", "cycle",
         "--seeds", "6", "--seed", "2", "--out", str(out)])
    rows = list(csv.DictReader(open(out)))
    games = [r for r in rows if r["kind"] == "game"]
    aggs = [r for r in rows if r["kind"] == "aggregate"]
    assert len(games) == 6 and len(aggs) == 1
    rate = sum(1 for r in games if r["winner"] == "maker") / 6
    assert abs(float(aggs[0]["maker_win_rate"]) - rate) < 1e-9
    seeds = [r["seed"] for r in games]
    assert len(set(seeds)) == 6  # distinct per cell


def test_sweep_empty_bias_is_bad_config(tmp_path):
    code = run(["sweep", "--n", "6", "--bias", "", "--maker", "maker-random",
                "--breaker", "breaker-random", "--property", "cycle",
                "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_sweep_bias_formula(tmp_path):
    out = tmp_path / "f.csv"
    assert run(["sweep", "--n", "50", "--bias-coef", "0.5", "--maker", "maker-random",
                "--breaker", "breaker-random", "--property", "cycle",
                "--seeds", "1", "--out", str(out)]) == 0
    rows = list(csv.DictReader(open(out)))
    # floor(0.5 * 50 / ln 50) = floor(6.39) = 6
    assert rows[0]["q"] == "6"


def test_solve_command_and_cache(tmp_path, capsys):
    cache = tmp_path / "cache.json"
    code = run(["solve", "--n", "4", "--p", "1", "--q", "2", "--property", "cycle",
                "--cache", str(cache), "--pv"])
    assert code == 0
    out = capsys.readouterr().out
    assert "winner: breaker" in out
    doc = json.loads(read(cache))
    assert doc["results"]["n=4;p=1;q=2;prop=cycle"]["winner"] == "breaker"
    code = run(["solve", "--n", "4", "--p", "1", "--q", "2", "--property", "cycle",
                "--cache", str(cache)])
    assert code == 0
    assert "cached" in capsys.readouterr().out


def test_solve_prints_memo_size_and_rate(capsys, settling_moves_off):
    assert run(["solve", "--n", "4", "--p", "1", "--q", "2", "--property", "cycle"]) == 0
    out = capsys.readouterr().out
    m = re.fullmatch(r"winner: breaker  nodes: 76  memo hits: 21  memo size: 37"
                     r"  decided: 0  nodes/s: ([0-9]+)\n", out)
    assert m and int(m.group(1)) > 0, out


def test_solve_prints_nodes_settled_by_a_settling_move(capsys):
    assert run(["solve", "--n", "4", "--p", "1", "--q", "2", "--property", "cycle"]) == 0
    out = capsys.readouterr().out
    m = re.fullmatch(r"winner: breaker  nodes: 60  memo hits: 21  memo size: 33"
                     r"  decided: 7  nodes/s: ([0-9]+)\n", out)
    assert m and int(m.group(1)) > 0, out
    assert run(["solve", "--n", "6", "--q", "3", "--property", "hamiltonicity"]) == 0
    assert capsys.readouterr().out.startswith(
        "winner: breaker  nodes: 2130  memo hits: 580  memo size: 919  decided: 185  ")


@pytest.mark.parametrize("bias", [["--p", "0"], ["--q", "0"], ["--q", "-1"]])
def test_solve_refuses_a_bias_below_one(capsys, bias):
    assert run(["solve", "--n", "4", *bias, "--property", "cycle"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: both biases must be >= 1\n"
    assert captured.out == ""


def test_solve_cache_survives_failed_write(tmp_path, monkeypatch, capsys):
    cache = tmp_path / "cache.json"
    assert run(["solve", "--n", "3", "--p", "1", "--q", "1", "--property", "cycle",
                "--cache", str(cache)]) == 0
    before = read(cache)

    def crash(doc, fh, **kwargs):
        fh.write('{"schema": ')
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", crash)
    assert run(["solve", "--n", "4", "--p", "1", "--q", "2", "--property", "cycle",
                "--cache", str(cache)]) == 2
    assert read(cache) == before
    assert [p.name for p in tmp_path.iterdir()] == ["cache.json"]


def test_solve_budget_exit_code(capsys, settling_moves_off):
    # One size cap for every property: n=7 is past it, n=6 is solved.
    for key in ["cycle", "hamiltonicity", "hamilton", "min-indegree-positive",
                "min-indegree", "ck:3", "nonkcol:2", "contains:3:0>1,1>2,2>0"]:
        assert run(["solve", "--n", "7", "--property", key]) == 3, key
    assert "capped at n=6 and bias 3" in capsys.readouterr().err
    assert run(["solve", "--n", "6", "--q", "3", "--property", "hamiltonicity"]) == 0
    assert capsys.readouterr().out.startswith("winner: breaker  nodes: 13281  ")


def test_boxgame_command(capsys):
    assert run(["boxgame", "--boxes", "2", "--size", "1", "--bias", "1"]) == 0
    out = capsys.readouterr().out
    assert "winner: box-maker" in out and "criterion: holds" in out
    assert run(["boxgame", "--boxes", "2", "--size", "1", "--bias", "1",
                "--variant", "twobox"]) == 0
    out = capsys.readouterr().out
    assert "winner: box-breaker" in out


def test_analyze_cyclic_triangle(tmp_path, capsys):
    b = Board(3)
    b.orient(0, 1)
    b.orient(1, 2)
    b.orient(2, 0)
    f = tmp_path / "tri.tour"
    f.write_text(b.to_text())
    assert run(["analyze", str(f)]) == 0
    out = capsys.readouterr().out
    assert "FAS = 1" in out
    assert "strongly connected: yes" in out
    assert "hamilton cycle: [0, 1, 2]" in out
    assert "1-colorable: no" in out
    assert "2-colorable: yes" in out
    assert "cyclic triangle count: 1" in out


def test_analyze_transitive(tmp_path, capsys):
    b = Board(5)
    for u in range(5):
        for v in range(u + 1, 5):
            b.orient(u, v)
    f = tmp_path / "t.tour"
    f.write_text(b.to_text())
    assert run(["analyze", str(f)]) == 0
    out = capsys.readouterr().out
    assert "FAS = 0" in out
    assert "strongly connected: no" in out
    assert "hamilton cycle: none" in out


def test_analyze_parse_error(tmp_path):
    f = tmp_path / "bad.tour"
    f.write_text("not a tournament\n")
    assert run(["analyze", str(f)]) == 2


def test_template_generate_and_verify(tmp_path, capsys):
    out = tmp_path / "t.tour"
    assert run(["template", "--n", "60", "--seed", "4", "--samples", "500",
                "--out", str(out)]) == 0
    board = Board.from_text(read(out))
    assert board.n == 60 and board.is_tournament()
    assert run(["template", "--verify", str(out), "--samples", "500"]) == 0
    assert "pass" in capsys.readouterr().out


def test_template_verify_rejects_transitive_tournament(tmp_path, capsys):
    b = Board(12)
    for u in range(12):
        for v in range(u + 1, 12):
            b.orient(u, v)
    f = tmp_path / "trans.tour"
    f.write_text(b.to_text())
    assert run(["template", "--verify", str(f), "--k", "2", "--samples", "500"]) == 2
    assert "FAIL" in capsys.readouterr().out


def test_play_maker_hamilton_smoke(tmp_path, capsys):
    out = tmp_path / "h.json"
    code = run(["play", "--n", "30", "--q", "2", "--maker", "maker-hamilton",
                "--breaker", "breaker-random", "--property", "hamiltonicity",
                "--seed", "1", "--out", str(out), "--no-early-stop"])
    assert code == 0
    rec = GameRecord.from_json(read(out))
    assert replay(rec).is_tournament()


def test_analyze_partial_board(tmp_path, capsys):
    b = Board(4)
    b.orient(0, 1)
    b.orient(1, 2)
    f = tmp_path / "p.tour"
    f.write_text(b.to_text())
    assert run(["analyze", str(f)]) == 0
    out = capsys.readouterr().out
    assert "not a tournament" in out


def test_sweep_spec_file(tmp_path):
    out = tmp_path / "spec.csv"
    spec = tmp_path / "sweep.spec"
    spec.write_text(
        "# cycle game cell\n"
        "n = 6\n"
        "bias = 1,2\n"
        "maker = maker-random\n"
        "breaker = breaker-random\n"
        "property = cycle\n"
        "seeds = 3\n"
        f"out = {out}\n"
    )
    assert run(["sweep", "--spec-file", str(spec)]) == 0
    rows = list(csv.DictReader(open(out)))
    assert len([r for r in rows if r["kind"] == "game"]) == 6
    # explicit flags win over the file
    out2 = tmp_path / "spec2.csv"
    assert run(["sweep", "--spec-file", str(spec), "--seeds", "2",
                "--out", str(out2)]) == 0
    rows2 = list(csv.DictReader(open(out2)))
    assert len([r for r in rows2 if r["kind"] == "game"]) == 4


def test_sweep_spec_file_reads_a_negative_seed(tmp_path):
    # A seed is not a count: the spec file reads it as --seed does.
    spec = tmp_path / "sweep.spec"
    common = ["--n", "5", "--bias", "1", "--maker", "maker-random", "--breaker",
              "breaker-random", "--property", "cycle", "--seeds", "2"]
    spec.write_text("seed = -3\n")
    assert run(["sweep", *common, "--spec-file", str(spec), "--out", str(tmp_path / "a.csv")]) == 0
    assert run(["sweep", *common, "--seed", "-3", "--out", str(tmp_path / "b.csv")]) == 0
    assert read(tmp_path / "a.csv") == read(tmp_path / "b.csv")


def test_sweep_spec_file_refuses_an_unknown_key(tmp_path, capsys):
    spec = tmp_path / "sweep.spec"
    spec.write_text(
        "n = 6\nbias = 1\nmaker = maker-random\nbreaker = breaker-random\n"
        f"property = cycle\nsead = 5\nout = {tmp_path / 'spec.csv'}\n"
    )
    assert run(["sweep", "--spec-file", str(spec)]) == 2
    assert "unknown spec key 'sead'" in capsys.readouterr().err
    assert not (tmp_path / "spec.csv").exists()


def test_boxgame_solve_subcommand_form(capsys):
    assert run(["boxgame", "solve", "--boxes", "3", "--size", "2", "--bias", "2"]) == 0
    assert "winner:" in capsys.readouterr().out


def test_sweep_cycle_guarantee_rate(tmp_path):
    # Within the cycle maker's guaranteed bias range the cell rate is 1.0.
    out = tmp_path / "rate.csv"
    assert run(["sweep", "--n", "50", "--bias", "23", "--maker", "maker-cycle",
                "--breaker", "breaker-random", "--property", "cycle",
                "--seeds", "3", "--out", str(out)]) == 0
    rows = list(csv.DictReader(open(out)))
    agg = [r for r in rows if r["kind"] == "aggregate"][0]
    assert float(agg["maker_win_rate"]) == 1.0


def test_sweep_bias_coef_needs_two_vertices(tmp_path, capsys):
    # ln 1 = 0: the bias formula has no value at n = 1.
    assert run(["sweep", "--n", "1", "--bias-coef", "0.5", "--maker", "maker-random",
                "--breaker", "breaker-random", "--property", "cycle",
                "--out", str(tmp_path / "x.csv")]) == 2
    assert "n >= 2" in capsys.readouterr().err


def test_template_without_n_or_verify(tmp_path, capsys):
    assert run(["template", "--out", str(tmp_path / "t.tour")]) == 2
    assert "needs --n or --verify" in capsys.readouterr().err
    assert not (tmp_path / "t.tour").exists()


@pytest.mark.parametrize("args,message", [
    (["--n", "5", "--k", "0"], "--k must be at least 1, got 0"),
    (["--n", "6", "--samples", "-5"], "--samples must be at least 0, got -5"),
    (["--verify", "TRI", "--k", "0"], "--k must be at least 1, got 0"),
])
def test_template_refuses_a_bad_count(tmp_path, capsys, args, message):
    # --k 0 used to reach numpy ("high <= 0") or, with --verify, to audit
    # at the default k; --samples -5 wrote an unaudited template.
    tri = tmp_path / "tri.tour"
    tri.write_text("n=3\n0>1\n1>2\n2>0\n")
    out = tmp_path / "t.tour"
    args = [str(tri) if a == "TRI" else a for a in args]
    assert run(["template", *args, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_solve_cache_is_keyed_on_the_property(tmp_path, capsys):
    # The spellings "hamilton" and "hamiltonicity" name one property.
    cache = tmp_path / "cache.json"
    args = ["solve", "--n", "4", "--q", "2", "--cache", str(cache), "--property"]
    assert run(args + ["hamilton"]) == 0
    assert "cached" not in capsys.readouterr().out
    assert run(args + ["hamiltonicity"]) == 0
    assert "cached" in capsys.readouterr().out
    assert list(json.loads(read(cache))["results"]) == ["n=4;p=1;q=2;prop=hamiltonicity"]


@pytest.mark.parametrize("text,message", [
    ("n=x\n", "bad vertex count: 'x'"),
    ("n=3\n0>x\n", "bad arc line: '0>x'"),
    (None, "cannot read"),
])
def test_analyze_refuses_a_bad_file(tmp_path, capsys, text, message):
    f = tmp_path / "bad.tour"
    if text is not None:
        f.write_text(text)
    assert run(["analyze", str(f)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flags,spec,message", [
    (["--n", "5,x", "--bias", "1"], None, "bad n list '5,x'"),
    (["--n", ",", "--bias", "1"], None, "empty n list"),
    (["--n", "5", "--bias-coef", ","], None, "empty bias coefficient list"),
    ([], "n 5\n", "bad spec line 'n 5'"),
    ([], "n = 6\nbias = 1\n", "sweep needs --out"),
    # Counts are ASCII digits, as everywhere else in the package.
    (["--n", "1_0,+3, 4", "--bias", "1"], None, "bad n list '1_0,+3, 4' entry: '1_0'"),
    (["--n", "5,+3", "--bias", "1"], None, "bad n list '5,+3' entry: '+3'"),
    (["--n", "5", "--bias", "1, 4"], None, "bad bias list '1, 4' entry: ' 4'"),
    ([], "n = 5\nbias = 1\np = +1\n", "bad p in"),
    ([], "n = 5\nbias = 1\nseeds = 1_0\n", "bad seeds in"),
    ([], "n = 5\nbias = 1\nworkers = ２\n", "bad workers in"),
    # ln n scales a finite coefficient only.
    (["--n", "10", "--bias-coef", "inf"], None, "bias coefficient must be finite, got inf"),
    (["--n", "10", "--bias-coef", "1,-inf"], None, "bias coefficient must be finite, got -inf"),
    (["--n", "10", "--bias-coef", "nan"], None, "bias coefficient must be finite, got nan"),
])
def test_sweep_refuses_bad_input(tmp_path, capsys, flags, spec, message):
    out = tmp_path / "x.csv"
    args = ["sweep", *flags, "--maker", "maker-random", "--breaker", "breaker-random",
            "--property", "cycle"]
    if spec is None:
        args += ["--out", str(out)]
    else:
        (tmp_path / "sweep.spec").write_text(spec)
        args += ["--spec-file", str(tmp_path / "sweep.spec")]
    assert run(args) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_solve_refuses_a_cache_of_another_schema(tmp_path, capsys):
    cache = tmp_path / "cache.json"
    cache.write_text(json.dumps({"schema": "orientgames-solve-cache/0", "results": {}}))
    before = read(cache)
    assert run(["solve", "--n", "3", "--property", "cycle", "--cache", str(cache)]) == 2
    assert "unexpected cache schema" in capsys.readouterr().err
    assert read(cache) == before
