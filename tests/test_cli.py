import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import siglex
from siglex import usd_alphabet
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
    assert [t.symbol for t in ramp.tokens] == ["u"]
    assert ramp.tokens[0].run_length == 22
    assert [t.symbol for t in flat.tokens] == ["s"]
    assert bundle.histogram.counts == {"us": 22}
    assert bundle.histogram.total == 22


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
    assert np.abs(pos.solution.y - t).max() < 1e-8
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
