"""Tests of the benchmark itself: small-size smoke runs, the self-time
arithmetic, traced-versus-untraced outputs, and the checks' teeth.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

import gen
import run
import spans
import verify
import worker
from siglex import cli

SMALL = {"stream_symbolic": 3000, "ldo_band": 200, "match_chatter": 600}


def _small(workload, tmp_path, seed=3):
    return gen.make_inputs(workload, seed, tmp_path / "inputs", rows=SMALL[workload])


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_smoke_run_passes_checks(workload, tmp_path):
    manifest = _small(workload, tmp_path)
    res = worker.run(manifest, tmp_path / "out", seconds=0.0, trace=False)
    assert res["messages"] == []
    assert res["failed"] == 0
    # warm-up plus three timed iterations
    assert res["attempted"] == 4 * len(manifest["invocations"])
    assert len(res["run_s"]) == 3 and all(t > 0 for t in res["run_s"])
    assert len(res["setup_s"]) == worker.SETUP_RUNS
    assert all(t > 0 for t in res["setup_s"])
    assert 0 < res["peak_rss_mb"] <= res["peak_rss_with_checks_mb"]


def test_inputs_depend_only_on_seed(tmp_path):
    a = gen.make_inputs("match_chatter", 7, tmp_path / "a", rows=300)
    b = gen.make_inputs("match_chatter", 7, tmp_path / "b", rows=300)
    c = gen.make_inputs("match_chatter", 8, tmp_path / "c", rows=300)
    text = [Path(m["input"]).read_bytes() for m in (a, b, c)]
    assert text[0] == text[1] != text[2]


def test_self_time_of_hand_built_tree():
    S = spans.Span
    tree = [
        S("root", 0.0, 10.0, -1, 0),
        S("a", 1.0, 3.0, 0, 0),
        S("b", 2.0, 5.0, 0, 0),     # overlaps a: the union [1, 5] counts once
        S("c", 6.0, 7.0, 0, 0),
        S("c1", 6.2, 6.5, 3, 0),    # grandchild: only c loses it
        S("d", 9.0, 12.0, 0, 0),    # clipped to the parent's end
        S("leaf", 20.0, 21.5, -1, 1),
    ]
    got = spans.self_times(tree)
    want = [10.0 - 4.0 - 1.0 - 1.0, 2.0, 3.0, 1.0 - 0.3, 0.3, 3.0, 1.5]
    assert got == pytest.approx(want)


def test_tracer_attributes_self_time_and_counts():
    ticks = iter(range(100))
    tr = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tr.wrap("scla.compress_runs", lambda s: list(s))
    outer = tr.wrap("cli.run_pipeline", lambda s: inner(s))
    assert outer("abc") == ["a", "b", "c"]
    per = tr.iteration_metrics()[0]
    assert per["cli.run_pipeline.calls"] == per["scla.compress_runs.calls"] == 1
    assert per["scla.compress_runs.tokens"] == 3
    # outer [0, 5] holds inner [1, 2] and the count hook's harness [3, 4]
    assert per["scla.compress_runs.self_s"] == 1.0
    assert per["cli.run_pipeline.self_s"] == 3.0


def test_traced_run_passes_same_checks(tmp_path):
    manifest = _small("stream_symbolic", tmp_path)
    original = cli.main
    res = worker.run(manifest, tmp_path / "out", seconds=0.0, trace=True,
                     spans_path=tmp_path / "spans.json")
    # one Checker sees untraced and traced iterations: equal digests required
    assert res["messages"] == [] and res["failed"] == 0
    assert cli.main is original
    summary, drift = spans.summarize(res["layers"])
    assert drift == []
    assert summary["cli.main.calls"] == len(manifest["invocations"])
    assert summary["cli.ingest_csv.rows"] == 5 * SMALL["stream_symbolic"]
    assert summary["operators.assemble_ldo.calls"] == 0
    assert summary["pattern.find_all.calls"] == 2 * len(manifest["invocations"])
    assert json.loads((tmp_path / "spans.json").read_text())["spans"]


def _one_iteration(manifest, out):
    checker = verify.Checker(manifest)
    codes = []
    for inv in manifest["invocations"]:
        codes.append(cli.main([inv[0], "--config", manifest["config"], "--input",
                               manifest["input"], "--out", str(out), *inv[1:]]))
    assert checker.check(out, codes) == {}
    return checker, codes


def test_checks_reject_wrong_outputs(tmp_path):
    manifest = _small("stream_symbolic", tmp_path)
    out = tmp_path / "o"
    checker, codes = _one_iteration(manifest, out)
    derived = out / "drive.derived.csv"
    lines = derived.read_text().splitlines()
    i, t, v = lines[5].split(",")
    lines[5] = f"{i},{t},{float(v) + 1e-3!r}"
    derived.write_text("\n".join(lines) + "\n")
    (out / "histogram.json").write_text('{"total": 1}\n')
    failed = checker.check(out, codes)
    commands = [manifest["invocations"][k][0] for k in failed]
    assert "derive" in commands and "hist" in commands


def test_checks_reject_missed_match_and_digest_drift(tmp_path):
    manifest = _small("match_chatter", tmp_path)
    out = tmp_path / "o"
    checker, codes = _one_iteration(manifest, out)
    path = out / "y_tail.matches.csv"
    keep = path.read_bytes()
    path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")
    assert set(checker.check(out, codes)) == {0}
    # a matcher that stops short: [s, e) becomes [s, s+1) and [s+1, e); both
    # fullmatch `d+`, start leftmost and do not overlap, yet neither is longest
    rows = path.read_text().splitlines()
    k = next(i for i, r in enumerate(rows[1:], 1)
             if int(r.split(",")[1]) - int(r.split(",")[0]) >= 2)
    s, e = map(int, rows[k].split(","))
    rows[k:k + 1] = [f"{s},{s + 1}", f"{s + 1},{e}"]
    path.write_text("\n".join(rows) + "\n")
    assert "longest" in checker.check(out, codes)[0]
    path.write_bytes(keep)
    assert checker.check(out, codes) == {}
    # same rows, other bytes: passes the range checks, fails the digest
    path.write_bytes(keep.replace(b"\n", b"\r\n"))
    assert "digest" in checker.check(out, codes)[0]
    shutil.rmtree(out)
    assert 0 in checker.check(out, [1])


def test_benchmark_json_matches_reported_metrics():
    bench = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == [n for n, _ in spans.metric_names()]
    assert [m["unit"] for m in bench["per_layer"]] == [u for _, u in spans.metric_names()]
    assert [w["name"] for w in bench["workloads"]] == list(gen.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    reported = run.end_to_end({"rows": 10, "invocations": [["x"]]},
                              {"setup_s": [1.0], "run_s": [1.0], "cpu_s": [1.0],
                               "peak_rss_mb": 1.0})
    assert e2e == {k: v["unit"] for k, v in reported.items()}


def test_greedy_match_is_longest(tmp_path):
    """The match check reads the longest match at a start off Python's greedy
    match; for every configured pattern the two agree on random strings."""
    patterns = set()
    for workload in gen.WORKLOADS:
        config = json.loads(Path(_small(workload, tmp_path / workload)["config"]).read_text())
        patterns |= {c["pattern"] for c in config["channels"] if c.get("pattern")}
    assert len(patterns) == 6
    rng = np.random.default_rng(0)
    for pat in sorted(patterns):
        rx = re.compile(pat)
        for _ in range(20):
            syms = "".join(rng.choice(list("dsu"), size=48, p=[0.45, 0.35, 0.2]))
            for start in range(len(syms)):
                ends = [e for e in range(start + 1, len(syms) + 1)
                        if rx.fullmatch(syms, start, e)]
                m = rx.match(syms, start)
                assert (m.end() if m and m.end() > start else None) == max(ends, default=None)
