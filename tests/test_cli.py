import errno
import io
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import siglex
from siglex import cli, csvout, errors, mcla, usd_alphabet
from siglex.cli import (
    OperatorConfig,
    PipelineConfig,
    ingest_csv,
    load_config,
    main,
    run_pipeline,
)
from siglex.errors import (
    ConfigError,
    MalformedCsvError,
    NonMonotoneTimeError,
    NonUniformGridError,
    PipelineError,
    SiglexError,
)

SRC = str(Path(siglex.__file__).resolve().parents[1])


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


TWO_CHANNEL_CONFIG = {
    "time_column": "t",
    "channels": [
        {"name": "ramp", "csv_column": "a",
         "alphabet": {"kind": "usd", "epsilon": 0.5},
         "operator": {"order": 1, "accuracy": 2}},
        {"name": "flat", "csv_column": "b",
         "alphabet": {"kind": "usd", "epsilon": 0.5},
         "operator": {"order": 1, "accuracy": 2}},
    ],
    "combine": ["ramp", "flat"],
    "band": {"level": 0.95},
}


def two_channel_csv(tmp_path, n=24):
    lines = ["t,a,b"]
    for k in range(n):
        lines.append(f"{k},{float(k)},{2.5}")
    return write(tmp_path / "log.csv", "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

def test_ingest_basic(tmp_path):
    p = write(tmp_path / "x.csv", "t,v\n0,1\n1,2\n2,3\n")
    out = ingest_csv(p, "t", ["v"])
    grid, vals = out["v"]
    assert (grid.n, grid.h, grid.t0) == (3, 1.0, 0.0)
    assert np.array_equal(vals, [1.0, 2.0, 3.0])


def test_ingest_shuffled_timestamps(tmp_path):
    p = write(tmp_path / "x.csv", "t,v\n0,1\n2,2\n1,3\n")
    with pytest.raises(NonMonotoneTimeError):
        ingest_csv(p, "t", ["v"])


def test_ingest_non_uniform(tmp_path):
    p = write(tmp_path / "x.csv", "t,v\n0,1\n1,2\n2.5,3\n")
    with pytest.raises(NonUniformGridError):
        ingest_csv(p, "t", ["v"])


def test_ingest_missing_column(tmp_path):
    p = write(tmp_path / "x.csv", "t,v\n0,1\n1,2\n")
    with pytest.raises(MalformedCsvError) as exc:
        ingest_csv(p, "t", ["w"])
    assert exc.value.line == 1


def test_ingest_bad_row(tmp_path):
    p = write(tmp_path / "x.csv", "t,v\n0,1\n1\n2,3\n")
    with pytest.raises(MalformedCsvError) as exc:
        ingest_csv(p, "t", ["v"])
    assert exc.value.line == 3


def test_ingest_nan_cells(tmp_path):
    p = write(tmp_path / "x.csv", "t,v\n0,1\n1,NaN\n2,\n3,4\n")
    _, vals = ingest_csv(p, "t", ["v"])["v"]
    assert np.isnan(vals[1]) and np.isnan(vals[2])
    assert vals[3] == 4.0


def test_ingest_generator_round_trip(tmp_path):
    rng = np.random.default_rng(55)
    n = 100000
    vals = rng.standard_normal(n)
    lines = ["t,v"]
    lines.extend(f"{0.5 * k:.17g},{vals[k]:.17g}" for k in range(n))
    p = write(tmp_path / "big.csv", "\n".join(lines) + "\n")
    grid, got = ingest_csv(p, "t", ["v"])["v"]
    assert grid.n == n and abs(grid.h - 0.5) < 1e-12
    assert np.array_equal(got, vals)


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_config_parses_typed_fields(tmp_path):
    path = write(tmp_path / "c.json", json.dumps(TWO_CHANNEL_CONFIG))
    cfg = load_config(path)
    assert cfg == PipelineConfig.from_json_obj(TWO_CHANNEL_CONFIG)
    ramp = cfg.channels[0]
    assert ramp.alphabet == usd_alphabet(0.5)
    assert ramp.operator == OperatorConfig(1, 2) and ramp.ldo is None
    assert (cfg.combine, cfg.time_column, cfg.band_level) == (["ramp", "flat"], "t", 0.95)


def test_config_rejects_operator_and_ldo(tmp_path):
    bad = {"channels": [{"name": "x", "csv_column": "a",
                         "alphabet": {"kind": "usd", "epsilon": 1.0},
                         "operator": {"order": 1, "accuracy": 2},
                         "ldo": {"degree": 1, "coefficients": [0, 1]}}]}
    with pytest.raises(ConfigError):
        PipelineConfig.from_json_obj(bad)


def test_config_rejects_unknown_combine():
    bad = {"channels": [{"name": "x", "csv_column": "a",
                         "alphabet": {"kind": "usd", "epsilon": 1.0}}],
           "combine": ["x", "y"]}
    with pytest.raises(ConfigError):
        PipelineConfig.from_json_obj(bad)


def test_config_rejects_bad_alphabet():
    bad = {"channels": [{"name": "x", "csv_column": "a",
                         "alphabet": {"kind": "usd", "epsilon": -1.0}}]}
    with pytest.raises(ConfigError):
        PipelineConfig.from_json_obj(bad)


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def test_pipeline_ramp_and_flat(tmp_path):
    cfg = PipelineConfig.from_json_obj(TWO_CHANNEL_CONFIG)
    csv_path = two_channel_csv(tmp_path, n=24)
    ingested = ingest_csv(csv_path, "t", ["a", "b"])
    bundle = run_pipeline(cfg, ingested)
    ramp = bundle.channels["ramp"]
    flat = bundle.channels["flat"]
    assert list(ramp.tokens) == [("u", 22, 0)]
    assert [t.symbol for t in flat.tokens] == ["s"]
    combined = mcla.histogram(cli._combined(bundle))
    assert combined.counts == {"us": 22}
    assert combined.total == 22


def test_pipeline_solve_band(tmp_path):
    cfg = PipelineConfig.from_json_obj({
        "channels": [{"name": "pos", "csv_column": "v",
                      "alphabet": {"kind": "usd", "epsilon": 0.05},
                      "ldo": {"degree": 1, "coefficients": [0.0, 1.0],
                              "accuracy": 2, "constraints": [[0, 0.0]]}}],
    })
    n = 60
    lines = ["t,v"]
    lines.extend(f"{k * 0.1:.17g},1.0" for k in range(n))
    csv_path = write(tmp_path / "g.csv", "\n".join(lines) + "\n")
    ingested = ingest_csv(csv_path, "t", ["v"])
    bundle = run_pipeline(cfg, ingested)
    pos = bundle.channels["pos"]
    t = np.arange(n) * 0.1
    assert np.abs(pos.processed - t).max() < 1e-8
    assert pos.band is not None
    assert pos.band.half_width.min() >= 0.0


# ---------------------------------------------------------------------------
# CLI end to end
# ---------------------------------------------------------------------------

def run_cli(tmp_path, command, config_obj, csv_text, outname, extra=()):
    cfg = write(tmp_path / "config.json", json.dumps(config_obj))
    data = write(tmp_path / "data.csv", csv_text)
    out = tmp_path / outname
    code = main([command, "--config", str(cfg), "--input", str(data),
                 "--out", str(out), *extra])
    return code, out


def ramp_csv_text(n=24):
    lines = ["t,a,b"]
    for k in range(n):
        lines.append(f"{k},{float(k)},2.5")
    return "\n".join(lines) + "\n"


def test_cli_symbolize_and_hist(tmp_path):
    code, out = run_cli(tmp_path, "symbolize", TWO_CHANNEL_CONFIG,
                        ramp_csv_text(), "o1")
    assert code == 0
    tokens = (out / "ramp.tokens.csv").read_text().splitlines()
    assert tokens == ["symbol,runLength,startIndex", "u,22,0"]

    code, out = run_cli(tmp_path, "hist", TWO_CHANNEL_CONFIG,
                        ramp_csv_text(), "o2")
    assert code == 0
    hist = json.loads((out / "histogram.json").read_text())
    assert hist == {"us": 22, "total": 22}


def test_cli_derive_and_combine(tmp_path):
    code, out = run_cli(tmp_path, "derive", TWO_CHANNEL_CONFIG,
                        ramp_csv_text(), "o3")
    assert code == 0
    lines = (out / "ramp.derived.csv").read_text().splitlines()
    assert lines[0] == "index,time,value"
    assert lines[1] == "0,1,1"

    code, out = run_cli(tmp_path, "combine", TWO_CHANNEL_CONFIG,
                        ramp_csv_text(), "o4")
    assert code == 0
    combined = (out / "combined.tokens.csv").read_text().splitlines()
    assert combined == ["symbol,runLength,startIndex", "us,22,0"]


def test_cli_match(tmp_path):
    code, out = run_cli(tmp_path, "match", TWO_CHANNEL_CONFIG,
                        ramp_csv_text(), "o5", extra=["--pattern", "u+"])
    assert code == 0
    assert (out / "ramp.matches.csv").read_text().splitlines() == \
        ["start,end", "0,22"]


def test_cli_solve(tmp_path):
    config = {
        "channels": [{"name": "pos", "csv_column": "v",
                      "alphabet": {"kind": "usd", "epsilon": 0.05},
                      "ldo": {"degree": 1, "coefficients": [0.0, 1.0],
                              "accuracy": 2, "constraints": [[0, 0.0]]}}],
    }
    lines = ["t,v"] + [f"{k * 0.1:.17g},1.0" for k in range(40)]
    code, out = run_cli(tmp_path, "solve", config, "\n".join(lines) + "\n", "o6")
    assert code == 0
    band = (out / "pos.band.csv").read_text().splitlines()
    assert band[0] == "index,center,lower,upper"
    assert len(band) == 41


def test_cli_classify(tmp_path):
    refs = {"steady": {"us": 10, "total": 10}, "other": {"du": 5, "total": 5}}
    ref_path = write(tmp_path / "refs.json", json.dumps(refs))
    code, out = run_cli(tmp_path, "classify", TWO_CHANNEL_CONFIG,
                        ramp_csv_text(), "o7",
                        extra=["--references", str(ref_path), "--window", "11"])
    assert code == 0
    lines = (out / "classify.csv").read_text().splitlines()
    assert lines[0] == "start,end,label,score"
    assert [ln.split(",")[2] for ln in lines[1:]] == ["steady", "steady"]


def test_cli_byte_identical_reruns(tmp_path):
    refs = {"steady": {"us": 10, "total": 10}}
    ref_path = write(tmp_path / "refs.json", json.dumps(refs))
    outputs = {}
    for tag in ("first", "second"):
        for cmd, extra in [("symbolize", ()), ("hist", ()),
                           ("derive", ()), ("combine", ()),
                           ("match", ("--pattern", "u+")),
                           ("classify", ("--references", str(ref_path),
                                         "--window", "11"))]:
            code, out = run_cli(tmp_path, cmd, TWO_CHANNEL_CONFIG,
                                ramp_csv_text(), f"{tag}_{cmd}", extra=extra)
            assert code == 0
            for f in sorted(out.iterdir()):
                outputs.setdefault((cmd, f.name), []).append(f.read_bytes())
    for key, blobs in outputs.items():
        assert len(blobs) == 2 and blobs[0] == blobs[1], key


def test_cli_combines_channels_only_for_the_commands_that_write_them(
        tmp_path, monkeypatch):
    n = 40
    config = {"channels": [
        dict(TWO_CHANNEL_CONFIG["channels"][0], pattern="u+"),
        {"name": "y", "csv_column": "b",
         "alphabet": {"symbols": "lmh", "boundaries": [-0.5, 0.5]},
         "ldo": {"degree": 2, "coefficients": [0.0, 0.0, 1.0], "accuracy": 2,
                 "constraints": [[0, 0.0], [n - 1, 1.0]]}}],
        "combine": ["ramp", "y"]}
    refs = write(tmp_path / "refs.json", json.dumps({"up": {"ul": 1}}))
    calls = []
    combine = mcla.align_and_combine
    monkeypatch.setattr(mcla, "align_and_combine",
                        lambda streams: calls.append(1) or combine(streams))
    counts = {}
    for command in ("derive", "symbolize", "solve", "match", "combine", "hist",
                    "classify"):
        extra = ["--references", str(refs)] if command == "classify" else []
        code, _ = run_cli(tmp_path, command, config, ramp_csv_text(n), command, extra)
        assert code == 0, command
        counts[command] = len(calls)
        calls.clear()
    assert counts == {"derive": 0, "symbolize": 0, "solve": 0, "match": 0,
                      "combine": 1, "hist": 1, "classify": 1}


def test_cli_classify_window_past_int64_is_the_whole_stream(tmp_path, capsys):
    refs = write(tmp_path / "refs.json", json.dumps({"steady": {"us": 10}}))
    outputs = []
    for window in ("100000000000000000000", "22"):  # 22 = the combined length
        code, out = run_cli(tmp_path, "classify", TWO_CHANNEL_CONFIG, ramp_csv_text(),
                            f"o{window}",
                            extra=["--references", str(refs), "--window", window])
        assert code == 0 and capsys.readouterr().err == ""
        outputs.append((out / "classify.csv").read_bytes())
    assert outputs[0] == outputs[1] == b"start,end,label,score\n0,22,steady,0\n"


def test_cli_cosine_classify_of_large_reference_counts(tmp_path, capsys):
    refs = write(tmp_path / "refs.json", json.dumps({"big": {"us": 2 ** 32, "ds": 1}}))
    code, out = run_cli(tmp_path, "classify", TWO_CHANNEL_CONFIG, ramp_csv_text(), "o",
                        extra=["--references", str(refs), "--measure", "cosine"])
    assert code == 0 and capsys.readouterr().err == ""
    assert (out / "classify.csv").read_text() == \
        f"start,end,label,score\n0,22,big,{2 ** 32 / (2 ** 64 + 1) ** 0.5:.17g}\n"
    # a count float64 cannot hold exactly is refused before the log is read
    refs.write_text(json.dumps({"big": {"us": 1, "ds": 2 ** 53}}), encoding="utf-8")
    cfg = write(tmp_path / "c.json", json.dumps(TWO_CHANNEL_CONFIG))
    assert main(["classify", "--config", str(cfg), "--input", str(tmp_path / "none.csv"),
                 "--references", str(refs), "--out", str(tmp_path / "o2")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "references 'big': count of 'ds' is 2^53" in err, err


@pytest.mark.parametrize("what", ["config", "references"])
def test_cli_json_integer_past_the_digit_limit_is_a_usage_error(tmp_path, capsys, what):
    # json.loads raises a plain ValueError past 4300 digits, not JSONDecodeError
    huge = "9" * 5000
    config = json.dumps(TWO_CHANNEL_CONFIG)
    refs = json.dumps({"big": {"us": 1, "ds": 1}})
    if what == "config":
        config = config.replace('"epsilon": 0.5', f'"epsilon": {huge}', 1)
    else:
        refs = refs.replace('"ds": 1', f'"ds": {huge}')
    assert huge in config + refs
    code = main(["classify", "--config", str(write(tmp_path / "c.json", config)),
                 "--input", str(two_channel_csv(tmp_path)),
                 "--references", str(write(tmp_path / "r.json", refs)),
                 "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 1 and err.count("\n") == 1, err
    assert f"usage error: {what} is not valid JSON: " in err, err


def test_cli_subprocess_hash_seed_independence(tmp_path):
    # fresh interpreters with different hash seeds must emit identical bytes
    cfg = write(tmp_path / "c.json", json.dumps(TWO_CHANNEL_CONFIG))
    data = write(tmp_path / "d.csv", ramp_csv_text())
    blobs = []
    for seed in ("1", "271828"):
        out = tmp_path / f"seed{seed}"
        # the child imports the same siglex as this process, installed or not
        path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        res = subprocess.run(
            [sys.executable, "-m", "siglex.cli", "hist", "--config", str(cfg),
             "--input", str(data), "--out", str(out)],
            env=env, capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        blobs.append((out / "histogram.json").read_bytes())
    assert blobs[0] == blobs[1]


def test_cli_subprocess_hash_seed_independence_classify(tmp_path):
    # l1 scores sum over many combined keys, so the summation order shows
    # in the last digits unless it is fixed
    rng = random.Random(5)
    lines = ["t,a,b"] + [f"{k},{rng.choice((-1, 0, 1))},{rng.choice((-1, 0, 1))}"
                         for k in range(400)]
    data = write(tmp_path / "d.csv", "\n".join(lines) + "\n")
    usd = {"kind": "usd", "epsilon": 0.5}
    cfg = write(tmp_path / "c.json", json.dumps({
        "time_column": "t",
        "channels": [{"name": "x", "csv_column": "a", "alphabet": usd},
                     {"name": "y", "csv_column": "b", "alphabet": usd}],
        "combine": ["x", "y"]}))
    refs = {label: {a + b: rng.randint(1, 97) for a in "dsu" for b in "dsu"}
            for label in ("one", "two", "three")}
    ref_path = write(tmp_path / "refs.json", json.dumps(refs))
    blobs = []
    for seed in ("1", "2", "271828"):
        out = tmp_path / f"seed{seed}"
        path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        res = subprocess.run(
            [sys.executable, "-m", "siglex.cli", "classify", "--config", str(cfg),
             "--input", str(data), "--out", str(out), "--references", str(ref_path),
             "--window", "7"],
            env=env, capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        blobs.append((out / "classify.csv").read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


def test_cli_exit_codes(tmp_path, capsys):
    cfg = write(tmp_path / "c.json", json.dumps(TWO_CHANNEL_CONFIG))
    data = write(tmp_path / "d.csv", ramp_csv_text())

    # usage: missing/invalid config
    assert main(["symbolize", "--config", str(tmp_path / "missing.json"),
                 "--input", str(data), "--out", str(tmp_path / "e1")]) == 1
    # usage: unknown channel filter
    assert main(["symbolize", "--config", str(cfg), "--input", str(data),
                 "--out", str(tmp_path / "e2"), "--channel", "nope"]) == 1
    # usage: band level override outside (0, 1), even with no ldo channel
    for level in ("1.5", "0", "x"):
        assert main(["symbolize", "--config", str(cfg), "--input", str(data),
                     "--out", str(tmp_path / "e5"), "--level", level]) == 1
    # data: non-monotone timestamps
    bad = write(tmp_path / "bad.csv", "t,a,b\n0,1,1\n2,2,2\n1,3,3\n")
    assert main(["symbolize", "--config", str(cfg), "--input", str(bad),
                 "--out", str(tmp_path / "e3")]) == 2
    # data: a log that cannot be opened
    capsys.readouterr()
    assert main(["symbolize", "--config", str(cfg), "--input",
                 str(tmp_path / "missing.csv"), "--out", str(tmp_path / "e3")]) == 2
    assert len(capsys.readouterr().err.splitlines()) == 1
    # numerical: constraint count mismatch inside the solve stage
    ncfg = write(tmp_path / "n.json", json.dumps({
        "channels": [{"name": "pos", "csv_column": "a",
                      "alphabet": {"kind": "usd", "epsilon": 0.05},
                      "ldo": {"degree": 1, "coefficients": [0.0, 1.0],
                              "accuracy": 2, "constraints": []}}],
    }))
    assert main(["solve", "--config", str(ncfg), "--input", str(data),
                 "--out", str(tmp_path / "e4")]) == 3
    # data: a constraint index past the log's end, and a log too short for
    # the LDO stencil; one stderr line each
    capsys.readouterr()
    icfg = write(tmp_path / "i.json", json.dumps({
        "channels": [{"name": "pos", "csv_column": "a",
                      "alphabet": {"kind": "usd", "epsilon": 0.05},
                      "ldo": {"degree": 1, "coefficients": [0.0, 1.0],
                              "accuracy": 2, "constraints": [[500, 0.0]]}}],
    }))
    short = write(tmp_path / "short.csv", "t,a,b\n0,1,1\n1,2,2\n")
    for inp in (data, short):
        assert main(["solve", "--config", str(icfg), "--input", str(inp),
                     "--out", str(tmp_path / "e6")]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1
    # usage: stencil accuracy above the supported maximum, operator and ldo
    for channel in ({"operator": {"order": 1, "accuracy": 100}},
                    {"ldo": {"degree": 1, "coefficients": [0.0, 1.0], "accuracy": 13,
                             "constraints": [[0, 0.0]]}}):
        acfg = write(tmp_path / "a.json", json.dumps({"channels": [dict(
            {"name": "pos", "csv_column": "a",
             "alphabet": {"kind": "usd", "epsilon": 0.05}}, **channel)]}))
        assert main(["solve", "--config", str(acfg), "--input", str(data),
                     "--out", str(tmp_path / "e7")]) == 1
        assert len(capsys.readouterr().err.splitlines()) == 1
    # usage: a classify window below 1, rejected before the log is read
    for window in ("0", "-1"):
        assert main(["classify", "--config", str(cfg),
                     "--input", str(tmp_path / "missing.csv"),
                     "--out", str(tmp_path / "e8"), "--window", window]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "--window" in err, err


def _pos_config(**fields) -> dict:
    return {"channels": [dict({"name": "pos", "csv_column": "a",
                               "alphabet": {"kind": "usd", "epsilon": 0.05}}, **fields)]}


# configs refused before the log is read: (config, text of the one stderr line)
CONFIG_ERRORS = [
    ([TWO_CHANNEL_CONFIG], "config must be an object, got [{"),
    ({"channels": _pos_config()["channels"] * 2},
     "duplicate channel names: ['pos', 'pos']"),
    (_pos_config(alphabet={"symbols": "l_h", "boundaries": [-0.5, 0.5]}),
     "channel 'pos': '_' is reserved for gaps"),
    (_pos_config(alphabet={"kind": "foo", "symbols": "lmh", "boundaries": [-0.5, 0.5]}),
     "unknown kind 'foo'"),
    (_pos_config(ldo={"degree": 1, "coefficients": [0.0, 1.0],
                       "constraints": [[0, 0.0], [0, 0.0]]}),
     "constraint indices not distinct: [0, 0]"),
    # a misspelt section, and fields of the other alphabet table, used to be
    # ignored: derive wrote the raw samples as the derivative
    (_pos_config(operater={"order": 1, "accuracy": 2}),
     "channel 0: unknown field 'operater'"),
    (_pos_config(alphabet={"kind": "usd", "epsilon": 0.05, "symbols": "lmh"}),
     "channel 'pos' alphabet: unknown field 'symbols'"),
]


@pytest.mark.parametrize("config, message", CONFIG_ERRORS, ids=[
    "not-an-object", "duplicate-names", "gap-symbol", "unknown-kind", "repeated-index",
    "misspelt-section", "usd-with-symbols"])
def test_cli_config_errors_exit_1_before_reading_the_log(tmp_path, capsys, config,
                                                         message):
    cfg = write(tmp_path / "c.json", json.dumps(config))
    out = tmp_path / "o"
    code = main(["derive", "--config", str(cfg), "--input", str(tmp_path / "missing.csv"),
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1 and len(err.splitlines()) == 1 and message in err, err
    assert not out.exists()


def test_cli_solve_needs_an_ldo_channel(tmp_path, capsys):
    config = {"channels": [
        dict(TWO_CHANNEL_CONFIG["channels"][0]),
        {"name": "pos", "csv_column": "b",
         "alphabet": {"kind": "usd", "epsilon": 0.05},
         "ldo": {"degree": 1, "coefficients": [0.0, 1.0], "accuracy": 2,
                 "constraints": [[0, 0.0]]}}]}
    # no ldo channel in the config, or --channel names one without it
    for cfg, extra in ((TWO_CHANNEL_CONFIG, ()), (config, ("--channel", "ramp"))):
        code, out = run_cli(tmp_path, "solve", cfg, ramp_csv_text(), "o", extra)
        err = capsys.readouterr().err
        assert code == 1 and len(err.splitlines()) == 1 and "'ldo'" in err, err
        assert not out.exists()
    code, out = run_cli(tmp_path, "solve", config, ramp_csv_text(), "o")
    assert code == 0
    assert sorted(p.name for p in out.iterdir()) == ["pos.band.csv", "pos.solution.csv"]


def test_cli_command_requirements_exit_1_before_reading_the_log(tmp_path, capsys):
    one = {"channels": TWO_CHANNEL_CONFIG["channels"][:1]}
    refs = write(tmp_path / "refs.json", json.dumps({"steady": {"us": 1}}))
    combine_list = "needs a 'combine' list of >= 2 channels"
    cases = [
        ("solve", TWO_CHANNEL_CONFIG, (), "solve needs a channel with an 'ldo' entry"),
        ("combine", one, (), "combine " + combine_list),
        ("hist", TWO_CHANNEL_CONFIG, ("--channel", "ramp"), "hist " + combine_list),
        ("classify", one, ("--references", str(refs)), "classify " + combine_list),
        ("classify", TWO_CHANNEL_CONFIG, (), "classify needs --references"),
        ("match", TWO_CHANNEL_CONFIG, (),
         "match needs --pattern or per-channel 'pattern' entries"),
    ]
    for command, config, extra, message in cases:
        cfg = write(tmp_path / "c.json", json.dumps(config))
        code = main([command, "--config", str(cfg), "--input",
                     str(tmp_path / "missing.csv"), "--out", str(tmp_path / "o"), *extra])
        err = capsys.readouterr().err
        assert code == 1 and len(err.splitlines()) == 1 and message in err, (command, err)


def test_cli_out_that_cannot_be_a_directory_exits_1_before_reading_the_log(
        tmp_path, capsys):
    cfg = write(tmp_path / "c.json", json.dumps(TWO_CHANNEL_CONFIG))
    afile = write(tmp_path / "afile", "")
    missing = str(tmp_path / "missing.csv")
    # --out names a file, or a directory under one
    for out in (afile, afile / "sub"):
        code = main(["symbolize", "--config", str(cfg), "--input", missing,
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1 and len(err.splitlines()) == 1, err
        assert f"--out {out}: cannot create the output directory" in err, err
    # a command requirement is reported before the output path
    code = main(["match", "--config", str(cfg), "--input", missing,
                 "--channel", "ramp", "--out", str(afile)])
    err = capsys.readouterr().err
    assert code == 1 and len(err.splitlines()) == 1, err
    assert "match needs --pattern or per-channel 'pattern' entries" in err, err


def test_cli_rejects_reference_labels_a_csv_cannot_carry(tmp_path, capsys):
    cfg = write(tmp_path / "c.json", json.dumps(TWO_CHANNEL_CONFIG))
    for label in ('idle,"x"\nboom', "a\rb", 'q"', "nul\0"):
        refs = write(tmp_path / "refs.json",
                     json.dumps({"ok": {"us": 1}, label: {"us": 1}}))
        code = main(["classify", "--config", str(cfg), "--input",
                     str(tmp_path / "missing.csv"), "--out", str(tmp_path / "o"),
                     "--references", str(refs)])
        err = capsys.readouterr().err
        assert code == 1 and len(err.splitlines()) == 1, err
        assert "cannot be carried by a CSV" in err, err
    assert not (tmp_path / "o").exists()


def test_cli_rejects_symbols_a_stream_or_csv_cannot_carry(tmp_path, capsys):
    # a NUL symbol used to vanish from the stream, a ',' to split token rows
    for alphabet in ({"symbols": ["\u0000", "h"], "boundaries": [0.5]},
                     {"symbols": "lh", "boundaries": [0.5], "range": [-50.0, 50.0],
                      "catch_all": ","}):
        config = {"channels": [{"name": "a", "csv_column": "a", "alphabet": alphabet}]}
        code, out = run_cli(tmp_path, "symbolize", config, ramp_csv_text(), "o")
        err = capsys.readouterr().err
        assert code == 1 and len(err.splitlines()) == 1, err
        assert "cannot be carried" in err, err


def _subclasses(cls) -> set:
    return {c for sub in cls.__subclasses__() for c in (sub, *_subclasses(sub))}


# main's exit code for each library error escaping a run; a new error class
# fails test_cli_exit_code_table until it is entered here
EXIT_CODES = {
    "ConfigError": 1,
    **dict.fromkeys((
        "DataError", "GridTooShortError", "ConstraintIndexError", "AlphabetError",
        "NonpositiveEpsilonError", "OutOfRangeError", "NonFiniteSampleError",
        "MalformedTokensError", "NoOverlapError", "EmptyInputError",
        "InvalidWindowError", "NoReferencesError", "AlphabetMismatchError",
        "MalformedCsvError", "NonMonotoneTimeError", "NonUniformGridError",
        "NullSpaceTooLargeError", "StepOutOfRangeError",
        "CoefficientLengthMismatchError"), 2),
    **dict.fromkeys((
        "OrderExceedsAccuracyError", "AccuracyTooHighError",
        "LeadingCoefficientZeroError",
        "LengthMismatchError", "ConstraintCountMismatchError",
        "SingularConstraintSystemError", "DimensionMismatchError",
        "NotSymmetricError", "InsufficientDofError", "InvalidProbabilityError",
        "InvalidDofError", "NegativeDiagonalError", "HorizonTooLargeError",
        "BothEmptyError", "PatternSyntaxError", "UnknownSymbolError"), 3),
}


def test_cli_exit_code_table(tmp_path, monkeypatch, capsys):
    classes = _subclasses(SiglexError) - {PipelineError}
    assert {c.__name__ for c in classes} == set(EXIT_CODES)
    assert all(getattr(errors, c.__name__) is c for c in classes)
    cfg = write(tmp_path / "c.json", json.dumps(TWO_CHANNEL_CONFIG))
    argv = ["symbolize", "--config", str(cfg), "--input",
            str(two_channel_csv(tmp_path)), "--out", str(tmp_path / "o")]
    for cls in sorted(classes, key=lambda c: c.__name__):
        located = cls in (MalformedCsvError, errors.PatternSyntaxError)
        exc = cls(3, "boom") if located else cls("boom")
        raised = [exc, PipelineError("ramp", "quantize", exc)]
        if cls is ConfigError:  # a stage runs library code, which raises none
            raised = [exc]
        for err in raised:
            def fail(*args, err=err):
                raise err
            monkeypatch.setattr(cli, "run_pipeline", fail)
            assert main(argv) == EXIT_CODES[cls.__name__], (cls, err)
            assert len(capsys.readouterr().err.splitlines()) == 1
    monkeypatch.undo()

    # an OSError: exit 2 while the log is read, exit 1 naming the file while
    # an output is written, also for an errno that names no file
    def unreadable(*args):
        raise OSError(errno.EIO, os.strerror(errno.EIO))

    monkeypatch.setattr(cli, "ingest_csv", unreadable)
    assert main(argv) == 2
    assert len(capsys.readouterr().err.splitlines()) == 1
    monkeypatch.undo()

    class Full(io.BytesIO):
        def write(self, data):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(csvout, "open", lambda path, mode: Full(), raising=False)
    out = tmp_path / "o"
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"siglex: usage error: --out {out}: cannot write {out / 'ramp.tokens.csv'} "
        f"({os.strerror(errno.ENOSPC)})\n")


def test_cli_output_that_cannot_be_written_exits_1_naming_it(tmp_path, capsys):
    cfg = write(tmp_path / "c.json", json.dumps(TWO_CHANNEL_CONFIG))
    data = two_channel_csv(tmp_path)
    for command, name in (("derive", "ramp.derived.csv"), ("hist", "histogram.json")):
        out = tmp_path / command
        (out / name).mkdir(parents=True)
        code = main([command, "--config", str(cfg), "--input", str(data),
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"siglex: usage error: --out {out}: cannot write {out / name} "
            f"({os.strerror(errno.EISDIR)})\n")


def test_cli_bad_pattern_exits_1_before_reading_the_log(tmp_path, capsys):
    missing = str(tmp_path / "missing.csv")
    for text, flag in (("u{", None), ("x+", None), ("u+", "d{2,1}"), (None, "q")):
        channel = dict(TWO_CHANNEL_CONFIG["channels"][0])
        if text is not None:
            channel["pattern"] = text
        cfg = write(tmp_path / "c.json", json.dumps({"channels": [channel]}))
        argv = ["derive", "--config", str(cfg), "--input", missing,
                "--out", str(tmp_path / "out")]
        assert main(argv + (["--pattern", flag] if flag else [])) == 1, (text, flag)
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "pattern" in err, err


def test_cli_oversized_pattern_exits_1_before_reading_the_log(tmp_path, capsys):
    # counted multi-sample bodies still unroll: unrolling stops at the
    # instruction limit, before the log is read, also for bounds past 2^63
    missing = str(tmp_path / "missing.csv")
    bound = "99999999999999999999"
    for huge in ("(ud){100000000}", f"(ud){{{bound}}}", f"(ud){{0,{bound}}}",
                 f"(ud){{2,{bound}}}"):
        for text, flag in ((huge, None), ("u+", huge)):
            channel = dict(TWO_CHANNEL_CONFIG["channels"][0], pattern=text)
            cfg = write(tmp_path / "c.json", json.dumps({"channels": [channel]}))
            argv = ["match", "--config", str(cfg), "--input", missing,
                    "--out", str(tmp_path / "out")]
            t0 = time.perf_counter()
            assert main(argv + (["--pattern", flag] if flag else [])) == 1, (text, flag)
            assert time.perf_counter() - t0 < 1.0
            err = capsys.readouterr().err
            assert (len(err.splitlines()) == 1
                    and "instructions, over the limit of 10000" in err), err
            assert not (tmp_path / "out").exists()


def test_cli_deeply_nested_pattern_exits_1_in_one_line(tmp_path, capsys):
    # deeper than the nesting limit: one error line, not a RecursionError
    missing = str(tmp_path / "missing.csv")
    for deep in ("(" * 400 + "u" + ")" * 400, "u" + "?" * 3000):
        for text, flag in ((deep, None), ("u+", deep)):
            channel = dict(TWO_CHANNEL_CONFIG["channels"][0], pattern=text)
            cfg = write(tmp_path / "c.json", json.dumps({"channels": [channel]}))
            argv = ["match", "--config", str(cfg), "--input", missing,
                    "--out", str(tmp_path / "out")]
            assert main(argv + (["--pattern", flag] if flag else [])) == 1, (text[:9], flag)
            err = capsys.readouterr().err
            assert (len(err.splitlines()) == 1
                    and "nested more than 100 levels deep" in err), err
    # a wide alternation is not deep: it compiles without recursing per
    # branch, and matches what one branch does
    outputs = []
    for text, flag in (("u", None), ("|".join(["u"] * 3000), None),
                       ("d", "|".join(["u"] * 3000))):
        channel = dict(TWO_CHANNEL_CONFIG["channels"][0], pattern=text)
        cfg = write(tmp_path / "c.json", json.dumps({"channels": [channel]}))
        out = tmp_path / f"wide{len(outputs)}"
        argv = ["match", "--config", str(cfg), "--input", str(two_channel_csv(tmp_path)),
                "--out", str(out)]
        assert main(argv + (["--pattern", flag] if flag else [])) == 0, flag
        outputs.append((out / "ramp.matches.csv").read_bytes())
    assert outputs[0].count(b"\n") > 10 and outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("what", ["config", "references"])
def test_cli_deeply_nested_json_is_a_usage_error(tmp_path, capsys, what):
    # json.loads raises RecursionError on deep nesting, not JSONDecodeError
    depth = 100_000
    config = json.dumps(TWO_CHANNEL_CONFIG)
    refs = json.dumps({"big": {"us": 1, "ds": 1}})
    if what == "config":
        config = "[" * depth
    else:
        refs = '{"a": ' * depth + "1" + "}" * depth
    code = main(["classify", "--config", str(write(tmp_path / "c.json", config)),
                 "--input", str(two_channel_csv(tmp_path)),
                 "--references", str(write(tmp_path / "r.json", refs)),
                 "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 1 and err.count("\n") == 1, err[:300]
    assert f"usage error: {what} is not valid JSON: " in err, err


def _run_subprocess(tmp_path, command, config, log_text):
    """Run the CLI in a fresh interpreter, so its stderr holds any warning."""
    cfg = write(tmp_path / "c.json", json.dumps(config))
    data = write(tmp_path / "log.csv", log_text)
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "siglex.cli", command, "--config", str(cfg),
         "--input", str(data), "--out", str(tmp_path / "o")],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)


def test_cli_ldo_channel_refuses_a_non_finite_sample(tmp_path):
    # a gap in g would spread through the back substitution to every free y_j
    n = 40
    config = {"channels": [
        {"name": "y", "csv_column": "g",
         "alphabet": {"symbols": "lmh", "boundaries": [-0.5, 0.5], "nan": "gap"},
         "ldo": {"degree": 2, "coefficients": [0.0, 0.0, 1.0], "accuracy": 2,
                 "constraints": [[0, 0.0], [n - 1, 1.0]]}}]}
    log = "t,g\n" + "".join(f"{k},{'' if k == 17 else 1.0}\n" for k in range(n))
    res = _run_subprocess(tmp_path, "solve", config, log)
    assert res.returncode == 2 and res.stderr.count("\n") == 1, res.stderr
    assert ("channel 'y', stage 'solve': non-finite sample at index 17"
            in res.stderr), res.stderr


def _second_derivative(coefficient, n=200):
    return {"channels": [
        {"name": "y", "csv_column": "g",
         "alphabet": {"symbols": "lmh", "boundaries": [-0.5, 0.5]},
         "ldo": {"degree": 2, "coefficients": [0.0, 0.0, coefficient], "accuracy": 2,
                 "constraints": [[0, 0.0], [n - 1, 1.0]]}}]}


def test_cli_solve_of_a_huge_operator_is_the_scaled_solve(tmp_path):
    # L = 2^500 D2 with g 2^500: the rank search and the solve run on L / 2^e,
    # so the files equal those of D2 and g bit for bit; the power steps on L
    # itself overflowed and found rank n
    n = 200
    g = np.sin(0.01 * np.arange(n))
    outputs = []
    for scale in (1.0, 2.0 ** 500):
        log = "t,g\n" + "".join(f"{0.01 * k:.17g},{v * scale:.17g}\n"
                                for k, v in enumerate(g))
        work = tmp_path / f"{scale:g}"
        work.mkdir()
        res = _run_subprocess(work, "solve", _second_derivative(scale, n), log)
        assert res.returncode == 0 and res.stderr == "", res.stderr
        out = work / "o"
        outputs.append([(out / f).read_bytes() for f in ("y.band.csv", "y.solution.csv")])
    assert outputs[0] == outputs[1]


def test_cli_residuals_that_overflow_exit_3_at_the_covariance_stage(tmp_path):
    # with L = 1e300 D2, rounding leaves residuals near 1e288, whose squares
    # overflow
    n = 200
    log = "t,g\n" + "".join(f"{0.01 * k:.17g},{np.sin(0.01 * k):.17g}\n"
                            for k in range(n))
    res = _run_subprocess(tmp_path, "solve", _second_derivative(1e300, n), log)
    assert res.returncode == 3 and res.stderr.count("\n") == 1, res.stderr
    assert "channel 'y', stage 'covariance': residual sum of squares" in res.stderr


@pytest.mark.parametrize("coefficient, stage", [
    (1e-300, "solve"),   # the variance scaled back by 2^-2e overflows
    (1e-320, "solve"),   # so does the right-hand side scaled by 2^-e
    (1e306, "ldo"),      # 1e306 / h^2 overflows in the band
])
def test_cli_tiny_or_huge_coefficients_exit_3_naming_the_stage(tmp_path, coefficient,
                                                              stage):
    # 1e-300 printed a RuntimeWarning and wrote -inf,inf band bounds with exit 0;
    # 1e306 warned and exited 3 naming no channel or stage
    n = 200
    log = "t,g\n" + "".join(f"{0.01 * k:.17g},{np.sin(0.01 * k):.17g}\n"
                            for k in range(n))
    res = _run_subprocess(tmp_path, "solve", _second_derivative(coefficient, n), log)
    assert res.returncode == 3 and res.stderr.count("\n") == 1, res.stderr
    assert f"channel 'y', stage '{stage}': " in res.stderr, res.stderr
    assert "overflows float64" in res.stderr, res.stderr


@pytest.mark.parametrize("step", [1e200, 1e-200, 1e-160, 1e-155])
@pytest.mark.parametrize("kind, stage", [("operator", "operator"), ("ldo", "ldo")])
def test_cli_step_whose_power_overflows_is_a_data_error(tmp_path, capsys, step, kind,
                                                       stage):
    # h ** 2 raised OverflowError at step 1e200; at 1e-200 it was 0.0, which
    # warned twice and failed later with a misleading stage error; at 1e-160 it
    # is subnormal and at 1e-155 just above, and dividing the weights by it
    # overflowed
    channel = {"name": "y", "csv_column": "g", "alphabet": {"kind": "usd", "epsilon": 0.5},
               "operator": {"order": 2, "accuracy": 2}}
    if kind == "ldo":
        del channel["operator"]
        channel["ldo"] = {"degree": 2, "coefficients": [0.0, 0.0, 1.0], "accuracy": 2,
                          "constraints": [[0, 0.0], [49, 1.0]]}
    log = "t,g\n" + "".join(f"{k * step:.17g},{(k % 7) / 10}\n" for k in range(50))
    code, _ = run_cli(tmp_path, "symbolize", {"channels": [channel]}, log, "o")
    err = capsys.readouterr().err
    assert code == 2 and len(err.splitlines()) == 1, err
    assert f"channel 'y', stage '{stage}': time step {step!r} to the power 2" in err, err


@pytest.mark.parametrize("policy, code, lines", [("gap", 0, 0), ("reject", 2, 1)])
def test_cli_inf_cell_in_an_operator_channel_warns_nothing(tmp_path, policy, code,
                                                          lines):
    config = {"channels": [
        {"name": "ramp", "csv_column": "a",
         "alphabet": {"kind": "usd", "epsilon": 0.5, "nan": policy},
         "operator": {"order": 1, "accuracy": 2}}]}
    log = "t,a\n" + "".join(f"{k},{'inf' if k == 9 else float(k)}\n" for k in range(24))
    res = _run_subprocess(tmp_path, "symbolize", config, log)
    assert res.returncode == code and res.stderr.count("\n") == lines, res.stderr
    if lines:
        assert "stage 'quantize'" in res.stderr, res.stderr


def test_cli_error_names_channel_and_stage(tmp_path, capsys):
    ncfg = write(tmp_path / "n.json", json.dumps({
        "channels": [{"name": "pos", "csv_column": "a",
                      "alphabet": {"kind": "usd", "epsilon": 0.05},
                      "ldo": {"degree": 1, "coefficients": [0.0, 1.0],
                              "accuracy": 2, "constraints": []}}],
    }))
    data = write(tmp_path / "d.csv", ramp_csv_text())
    main(["solve", "--config", str(ncfg), "--input", str(data),
          "--out", str(tmp_path / "e")])
    err = capsys.readouterr().err
    assert "pos" in err and "solve" in err


def test_cli_coefficient_vector_of_the_wrong_length_is_a_data_error(tmp_path, capsys):
    # the log, not the config, decides the grid a per-point vector must fit
    config = {"channels": [{"name": "pos", "csv_column": "a",
                            "alphabet": {"kind": "usd", "epsilon": 0.05},
                            "ldo": {"degree": 1, "coefficients": [0.0, [1.0] * 10],
                                    "constraints": [[0, 0.0]]}}]}
    code, out = run_cli(tmp_path, "solve", config, ramp_csv_text(50), "o")
    err = capsys.readouterr().err
    assert code == 2 and len(err.splitlines()) == 1, err
    assert "channel 'pos', stage 'ldo'" in err and "n=50" in err, err
    config["channels"][0]["ldo"]["coefficients"][1] = [1.0] * 50
    assert run_cli(tmp_path, "solve", config, ramp_csv_text(50), "o")[0] == 0


def test_cli_short_log_blames_the_operator_stage(tmp_path, capsys):
    # a streamed accuracy-2 derivative (w = 1) needs 2w + 2 = 4 rows
    cfg = write(tmp_path / "c.json", json.dumps(TWO_CHANNEL_CONFIG))
    for command in ("derive", "hist"):
        out = tmp_path / command
        argv = [command, "--config", str(cfg), "--input",
                str(two_channel_csv(tmp_path, n=3)), "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert "channel 'ramp', stage 'operator'" in err, err
        assert "3 rows" in err and "at least 4" in err, err
        assert list(out.iterdir()) == []
        argv[4] = str(two_channel_csv(tmp_path, n=4))
        assert main(argv) == 0


def test_cli_null_space_over_the_block_cap_exits_2_quickly(tmp_path, capsys):
    # a per-grid lead that is zero but at one row: the null space has
    # n - 2 dimensions; doubling the search block on to n took 27 s and
    # 205 MB
    n = 2000
    a1 = [0.0] * n
    a1[n // 2] = 1.0
    cfg = write(tmp_path / "c.json", json.dumps({"channels": [
        {"name": "y", "csv_column": "g",
         "alphabet": {"symbols": "lmh", "boundaries": [-0.5, 0.5]},
         "ldo": {"degree": 1, "coefficients": [0.0, a1], "accuracy": 2,
                 "constraints": [[0, 0.0]]}}]}))
    data = write(tmp_path / "log.csv", "t,g\n" + "".join(f"{k},1.0\n" for k in range(n)))
    t0 = time.perf_counter()
    code = main(["solve", "--config", str(cfg), "--input", str(data),
                 "--out", str(tmp_path / "o")])
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert code == 2 and len(err.splitlines()) == 1, err
    assert "channel 'y', stage 'ldo'" in err and "more than the 63 supported" in err, err


def test_cli_solve_memory_is_linear_in_n(tmp_path):
    # y'' = g at n = 4000, where one n x n float64 array is 128 MB; the
    # banded path keeps O(n (w + k + b)) floats for blocks of b = 64 rows
    n, w, k, b = 4000, 1, 2, 64
    config = {"channels": [
        {"name": "y", "csv_column": "g",
         "alphabet": {"symbols": "lmh", "boundaries": [-0.5, 0.5]},
         "ldo": {"degree": 2, "coefficients": [0.0, 0.0, 1.0], "accuracy": 2,
                 "constraints": [[0, 0.0], [n - 1, 1.0]]}}]}
    t = 0.01 * np.arange(n)
    cfg = write(tmp_path / "c.json", json.dumps(config))
    data = write(tmp_path / "log.csv", "t,g\n" + "".join(
        f"{a:.17g},{v:.17g}\n" for a, v in zip(t, np.sin(t))))
    tracemalloc.start()
    try:
        code = main(["solve", "--config", str(cfg), "--input", str(data),
                     "--out", str(tmp_path / "o")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 4 * 8 * n * (w + k + b), f"traced peak {peak} bytes"


@pytest.mark.parametrize("measure", ["l1", "cosine"])
def test_cli_classify_in_blocks_writes_the_bytes_of_one_block(tmp_path, monkeypatch,
                                                             measure):
    # 167 windows scored and written 7 at a time, and all in one block
    n = 500
    rng = np.random.default_rng(62)
    log = "t,x,y\n" + "".join(f"{k},{x - 1},{y - 1}\n"
                              for k, (x, y) in enumerate(rng.integers(0, 3, (n, 2))))
    config = {"channels": [{"name": name, "csv_column": name,
                            "alphabet": {"symbols": "lmh", "boundaries": [-0.5, 0.5]}}
                           for name in ("x", "y")], "combine": ["x", "y"]}
    refs = write(tmp_path / "r.json", json.dumps(
        {"a": {"ll": 5, "mh": 2}, "b": {"hh": 4, "lm": 1, "mm": 3}, "c": {"ml": 1}}))
    outputs = []
    for rows in (csvout.BLOCK_ROWS, 7):
        monkeypatch.setattr(csvout, "BLOCK_ROWS", rows)
        code, out = run_cli(tmp_path, "classify", config, log, f"o{rows}",
                            ["--references", str(refs), "--window", "3",
                             "--measure", measure, "--exclude", "mm,hl"])
        assert code == 0
        outputs.append((out / "classify.csv").read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"\n") == 1 + 167


def test_cli_cosine_of_an_empty_window_and_reference_fails_before_writing(tmp_path,
                                                                         capsys):
    # ramp windows of 3 hold only "us"; excluding it empties all of them
    refs = write(tmp_path / "r.json", json.dumps({"empty": {}, "ramp": {"us": 2}}))
    for exclude, code in (("ds", 0), ("us", 3)):
        out = tmp_path / exclude
        assert main(["classify", "--config", str(write(tmp_path / "c.json",
                                                       json.dumps(TWO_CHANNEL_CONFIG))),
                     "--input", str(write(tmp_path / "d.csv", ramp_csv_text())),
                     "--out", str(out), "--references", str(refs), "--window", "3",
                     "--measure", "cosine", "--exclude", exclude]) == code
        err = capsys.readouterr().err
        assert len(err.splitlines()) == (code != 0), err
        assert (out / "classify.csv").exists() == (code == 0)
    assert "cosine similarity undefined for two empty histograms" in err, err


@pytest.mark.parametrize("measure", ["l1", "cosine"])
def test_cli_classify_memory_does_not_grow_with_the_window_count(tmp_path, measure):
    # windows are scored and written a block at a time: scored at once,
    # --window 1 peaked at 7.4x (l1) and 5.8x (cosine) the --window 600 peak
    n = 200_000
    rng = np.random.default_rng(61)
    x, y = rng.integers(0, 3, (2, n)) - 1.0
    cfg = write(tmp_path / "c.json", json.dumps({
        "channels": [{"name": name, "csv_column": name,
                      "alphabet": {"symbols": "lmh", "boundaries": [-0.5, 0.5]}}
                     for name in ("x", "y")],
        "combine": ["x", "y"]}))
    data = tmp_path / "log.csv"
    np.savetxt(data, np.column_stack([np.arange(n), x, y]), fmt="%d", delimiter=",",
               header="t,x,y", comments="")
    refs = write(tmp_path / "r.json", json.dumps(
        {"a": {"ll": 5, "mh": 2}, "b": {"hh": 4, "lm": 1, "mm": 3}}))
    peaks = {}
    for window in ("1", "600"):
        tracemalloc.start()
        try:
            code = main(["classify", "--config", str(cfg), "--input", str(data),
                         "--out", str(tmp_path / window), "--references", str(refs),
                         "--window", window, "--measure", measure])
            peaks[window] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
    assert peaks["1"] <= 1.25 * peaks["600"], peaks


# traced peak bytes per row of each command on a three-column log; the
# README states these bounds
COMMAND_BYTES_PER_ROW = {
    ("symbolize",): 85, ("derive",): 85, ("solve",): 740, ("combine",): 95,
    ("hist",): 95, ("classify", "--window", "1"): 95, ("classify",): 95, ("match",): 85,
}


def test_cli_memory_per_row_of_every_command(tmp_path):
    # a drive that switches level every 200 rows and a smooth level whose
    # derivative is quantized; solve runs y' = g on the level alone
    def log(n):
        rng = np.random.default_rng(19)
        t = 0.01 * np.arange(n)
        drive = np.repeat(rng.choice([-1.0, 0.0, 1.0], n // 200 + 1), 200)[:n]
        level = 0.5 + 0.3 * np.sin(t / 5.0) + rng.normal(0.0, 1e-6, n)
        path = tmp_path / f"log{n}.csv"
        np.savetxt(path, np.column_stack([t, drive + rng.normal(0.0, 0.02, n), level]),
                   fmt="%.9g", delimiter=",", header="t,drive,level", comments="")
        return path

    symbolic = write(tmp_path / "symbolic.json", json.dumps({
        "channels": [
            {"name": "drive", "csv_column": "drive",
             "alphabet": {"kind": "usd", "epsilon": 0.5}, "pattern": "u+d+"},
            {"name": "level", "csv_column": "level",
             "alphabet": {"kind": "usd", "epsilon": 0.05},
             "operator": {"order": 1, "accuracy": 2}, "pattern": "d.{0,40}u"}],
        "combine": ["drive", "level"]}))
    inverse = write(tmp_path / "inverse.json", json.dumps({"channels": [
        {"name": "y", "csv_column": "level",
         "alphabet": {"symbols": "lmh", "boundaries": [-0.5, 0.5]},
         "ldo": {"degree": 1, "coefficients": [0.0, 1.0], "accuracy": 2,
                 "constraints": [[0, 0.0]]}}]}))
    refs = write(tmp_path / "refs.json", json.dumps(
        {"a": {"uu": 5, "sd": 2}, "b": {"ss": 4, "ds": 1, "su": 3}}))

    def run(command, data):
        cfg = inverse if command[0] == "solve" else symbolic
        extra = ["--references", str(refs)] if command[0] == "classify" else []
        return main([command[0], "--config", str(cfg), "--input", str(data),
                     "--out", str(tmp_path / "out" / "-".join(command)),
                     *command[1:], *extra])

    small = log(1000)  # first calls import lazily; keep that out of the count
    assert all(run(command, small) == 0 for command in COMMAND_BYTES_PER_ROW)
    n = 200_000
    data = log(n)
    per_row = {}
    for command in COMMAND_BYTES_PER_ROW:
        tracemalloc.start()
        try:
            assert run(command, data) == 0
            per_row[command] = tracemalloc.get_traced_memory()[1] / n
        finally:
            tracemalloc.stop()
    assert all(per_row[c] <= bound for c, bound in COMMAND_BYTES_PER_ROW.items()), per_row


def test_cli_solve_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # y'' = g at n = 2000 in fresh interpreters with 1 and 2 OpenBLAS threads
    n = 2000
    cfg = write(tmp_path / "c.json", json.dumps({"channels": [
        {"name": "y", "csv_column": "g",
         "alphabet": {"symbols": "lmh", "boundaries": [-0.5, 0.5]},
         "ldo": {"degree": 2, "coefficients": [0.0, 0.0, 1.0], "accuracy": 2,
                 "constraints": [[0, 0.0], [n - 1, 1.0]]}}]}))
    t = 0.01 * np.arange(n)
    g = np.sin(t) + np.random.default_rng(3).normal(0.0, 0.05, n)
    data = write(tmp_path / "log.csv", "t,g\n" + "".join(
        f"{a:.17g},{v:.17g}\n" for a, v in zip(t, g)))
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        res = subprocess.run(
            [sys.executable, "-m", "siglex.cli", "solve", "--config", str(cfg),
             "--input", str(data), "--out", str(out)],
            env=env, capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        outputs.append({f.name: f.read_bytes() for f in out.iterdir()})
    assert sorted(outputs[0]) == ["y.band.csv", "y.solution.csv"]
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# corrupted inputs: exit 1 or 2 with one stderr line, never a traceback
# ---------------------------------------------------------------------------

MUTATION_CONFIG = {
    "time_column": "t",
    "channels": [
        {"name": "ramp", "csv_column": "a",
         "alphabet": {"kind": "usd", "epsilon": 0.5},
         "operator": {"order": 1, "accuracy": 2}, "pattern": "u+"},
        {"name": "level", "csv_column": "b",
         "alphabet": {"symbols": "lmh", "boundaries": [1.0, 3.0], "nan": "gap",
                      "range": [-10.0, 10.0], "catch_all": "x"}},
        {"name": "pos", "csv_column": "a",
         "alphabet": {"kind": "usd", "epsilon": 0.05},
         "ldo": {"degree": 1, "coefficients": [0.0, 1.0], "accuracy": 2,
                 "constraints": [[0, 0.0]]}},
    ],
    "combine": ["ramp", "level"],
    "band": {"level": 0.95},
}
MUTATION_REFERENCES = {"moving": {"um": 10, "total": 10}, "idle": {"sm": 4, "um": 1}}

# (path into the config, required key, out-of-range values); every site is
# also given a value of the wrong JSON type.  Constraint indices keep their
# value: a bad index is found only after assembly (test_cli_exit_codes pins
# exit 2 for an index outside the log, 3 for a constraint count mismatch).
CONFIG_SITES = [
    (("channels",), True, []),
    (("channels", 0), False, []),
    (("channels", 0, "name"), True, []),
    (("channels", 0, "csv_column"), True, []),
    (("channels", 0, "alphabet"), True, []),
    (("channels", 0, "alphabet", "epsilon"), True, [0.0, -0.5, float("nan")]),
    (("channels", 0, "operator"), False, []),
    (("channels", 0, "operator", "order"), True, [-1, 3]),
    (("channels", 0, "operator", "accuracy"), True, [0, -2]),
    (("channels", 0, "pattern"), False, ["u{", "x+"]),
    (("channels", 1, "alphabet", "symbols"), True, ["lm", "lmhh"]),
    (("channels", 1, "alphabet", "boundaries"), True, [[3.0, 1.0], [1.0]]),
    (("channels", 1, "alphabet", "nan"), False, []),
    (("channels", 1, "alphabet", "range"), False, [[10.0, -10.0], [0.0]]),
    (("channels", 1, "alphabet", "catch_all"), False, []),
    (("channels", 2, "ldo"), False, []),
    (("channels", 2, "ldo", "degree"), True, [-1, 3]),
    (("channels", 2, "ldo", "coefficients"), True, [[0.0, 0.0], [1.0]]),
    (("channels", 2, "ldo", "coefficients", 1), False, []),
    (("channels", 2, "ldo", "accuracy"), False, [0, -1]),
    (("channels", 2, "ldo", "constraints"), False, []),
    (("channels", 2, "ldo", "constraints", 0), False, []),
    (("channels", 2, "ldo", "constraints", 0, 0), False, []),
    (("channels", 2, "ldo", "constraints", 0, 1), False, []),
    (("combine",), False, []),
    (("band",), False, []),
    (("band", "level"), False, [0.0, 1.0, 1.5, -0.25]),
    (("time_column",), False, []),
]


def _wrong_types(value) -> list:
    if isinstance(value, str):
        return [5, {"x": 1}, ["x", 1]]
    if isinstance(value, int):
        return [1.5, "1", True, [1]]
    if isinstance(value, float):
        return ["x", [0.5], True, {}]
    if isinstance(value, list):
        return ["x", 5, {"x": 1}]
    return [5, "x", [1]]


def _config_mutations(rng) -> list:
    out = []
    for path, required, out_of_range in CONFIG_SITES:
        node = MUTATION_CONFIG
        for key in path:
            node = node[key]
        values = [rng.choice(_wrong_types(node))]
        if out_of_range:
            values.append(rng.choice(out_of_range))
        for value in values:
            out.append((f"{path} = {value!r}", path, value))
        if required:
            out.append((f"drop {path}", path, None))
    return out


def _mutated_config(path, value) -> dict:
    cfg = json.loads(json.dumps(MUTATION_CONFIG))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    if value is None:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return cfg


def _csv_mutations(rng, text: str) -> list:
    header, *rows = text.splitlines()
    out = []
    for _ in range(3):
        j = rng.randrange(len(rows))
        cut = rows[:j] + [rows[j][:rows[j].rindex(",")]] + rows[j + 1:]
        out.append((f"truncated row {j}", [header] + cut))
        j, col = rng.randrange(len(rows)), rng.randrange(3)
        cells = rows[j].split(",")
        cells[col] = rng.choice(["abc", "1.2.3", "--"])
        out.append((f"bad cell {j},{col}", [header] + rows[:j] + [",".join(cells)]
                    + rows[j + 1:]))
    out.append(("header without column b", ["t,a"] + [r[:r.rindex(",")] for r in rows]))
    return [(desc, "\n".join(lines) + "\n") for desc, lines in out]


def _references_mutations(rng) -> list:
    text = json.dumps(MUTATION_REFERENCES)
    label = rng.choice(sorted(MUTATION_REFERENCES))
    key = rng.choice(sorted(MUTATION_REFERENCES[label]))
    out = [("truncated JSON", text[:rng.randrange(1, len(text) - 1)]),
           ("top-level list", json.dumps(list(MUTATION_REFERENCES.items()))),
           ("histogram is a list", json.dumps({label: [1, 2]}))]
    for value in (-rng.randint(1, 9), str(rng.randint(1, 9)), 2.5, None):
        refs = json.loads(text)
        refs[label][key] = value
        out.append((f"{label}.{key} = {value!r}", json.dumps(refs)))
    return out


def test_cli_rejects_corrupted_inputs(tmp_path, capsys):
    rng = random.Random(20240611)
    csv_text = ramp_csv_text()
    refs_text = json.dumps(MUTATION_REFERENCES)
    cases = [(desc, _mutated_config(path, value), csv_text, refs_text)
             for desc, path, value in _config_mutations(rng)]
    cases += [(desc, MUTATION_CONFIG, text, refs_text)
              for desc, text in _csv_mutations(rng, csv_text)]
    cases += [(desc, MUTATION_CONFIG, csv_text, text)
              for desc, text in _references_mutations(rng)]

    def run(config, csv_body, refs_body):
        cfg = write(tmp_path / "config.json", json.dumps(config))
        data = write(tmp_path / "data.csv", csv_body)
        refs = write(tmp_path / "refs.json", refs_body)
        code = main(["classify", "--config", str(cfg), "--input", str(data),
                     "--out", str(tmp_path / "out"), "--references", str(refs),
                     "--window", "11"])
        return code, capsys.readouterr().err

    assert run(MUTATION_CONFIG, csv_text, refs_text) == (0, "")
    for desc, config, csv_body, refs_body in cases:
        code, err = run(config, csv_body, refs_body)
        assert code in (1, 2), (desc, code, err)
        assert len(err.splitlines()) == 1 and "Traceback" not in err, (desc, err)


def _config_objects(config):
    """(object, the name its errors start with, its field table) for every
    object of a valid config."""
    yield config, "config", cli._CONFIG
    if "band" in config:
        yield config["band"], "band", cli._BAND
    for i, channel in enumerate(config["channels"]):
        yield channel, f"channel {i}", cli._CHANNEL
        where = f"channel '{channel['name']}'"
        alphabet = channel["alphabet"]
        usd = alphabet.get("kind") == "usd"
        yield alphabet, f"{where} alphabet", cli._USD_ALPHABET if usd else cli._ALPHABET
        for key, table in (("operator", cli._OPERATOR), ("ldo", cli._LDO)):
            if key in channel:
                yield channel[key], f"{where} {key}", table


def _mutate(rng, obj: dict, table) -> str:
    """Apply one mutation to `obj` in place and return the key it concerns."""
    kinds = {key: kind for key, kind, *_ in table}
    # deleting a usd alphabet's `kind` makes it an explicit one, refused
    # for its `epsilon`
    required = [key for key, _, *default in table if not default and key != "kind"]
    mutation = rng.choice(["misspell", "add", "retype"] + ["delete"] * bool(required))
    if mutation == "delete":
        key = rng.choice(required)
        del obj[key]
    elif mutation == "retype":
        key = rng.choice([key for key in obj if key in kinds])
        obj[key] = rng.choice([v for v in (True, "", [], {}) if not cli._is(v, kinds[key])])
    elif mutation == "add":
        key = rng.choice([k for k in ("comment", "_note", "kind", "symbols", "epsilon",
                                      "order", "level") if k not in kinds])
        obj[key] = rng.choice([1, "x", None, [], {}])
    else:  # a one-letter misspelling, in the key's place
        old = key = rng.choice(list(obj))
        while key in kinds:
            j = rng.choice([j for j, c in enumerate(old) if c.isalpha()])
            key = old[:j] + rng.choice("abcdefghijklmnopqrstuvwxyz") + old[j + 1:]
        items = [(key if k == old else k, v) for k, v in obj.items()]
        obj.clear()
        obj.update(items)
    return key


def test_cli_config_mutations_name_the_object_and_the_key(tmp_path, capsys):
    rng = random.Random(20261020)
    bases = [TWO_CHANNEL_CONFIG, MUTATION_CONFIG]
    missing = str(tmp_path / "missing.csv")

    def run(config):
        cfg = write(tmp_path / "c.json", json.dumps(config))
        code = main(["derive", "--config", str(cfg), "--input", missing,
                     "--out", str(tmp_path / "o")])
        return code, capsys.readouterr().err

    for config in bases:  # checked, and then the log cannot be read
        code, err = run(config)
        assert code == 2 and missing in err, err
    for draw in range(400):
        config = json.loads(json.dumps(rng.choice(bases)))
        obj, where, table = rng.choice(list(_config_objects(config)))
        key = _mutate(rng, obj, table)
        code, err = run(config)
        assert code == 1 and len(err.splitlines()) == 1, (draw, config, err)
        assert err.startswith(f"siglex: usage error: {where}:"), (draw, where, err)
        assert f"'{key}'" in err, (draw, key, err)


# every numeric config field goes through one finiteness check
NUMBER_SITES = [
    ("channels", 0, "alphabet", "epsilon"),
    ("channels", 1, "alphabet", "boundaries", 0),
    ("channels", 1, "alphabet", "range", 1),
    ("channels", 2, "ldo", "coefficients", 1),
    ("channels", 2, "ldo", "constraints", 0, 1),
    ("band", "level"),
]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                         ids=["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("path", NUMBER_SITES, ids=lambda p: ".".join(map(str, p)))
def test_cli_non_finite_config_numbers_exit_1_before_reading_the_log(
        tmp_path, capsys, path, value):
    cfg = _mutated_config(path, value)
    text = json.dumps(cfg)
    assert "NaN" in text or "Infinity" in text  # json writes them as literals
    code = main(["derive", "--config", str(write(tmp_path / "c.json", text)),
                 "--input", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 1 and len(err.splitlines()) == 1, err
    assert err.startswith("siglex: usage error: ") and "Traceback" not in err, err
