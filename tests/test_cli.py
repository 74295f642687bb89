import json
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
import yaml

from swelab.cli import _build_parser, main

BASE = {
    "kind": "qv-time",
    "sigma": "constant:1",
    "replicates": 12,
    "lattice": {"h": 0.0625, "t_max": 1.0, "x_lo": -2.0, "x_hi": 2.0},
    "params": {"t": 0.5, "x": 0.0, "n_pieces": 4},
}


def write_cfg(tmp_path, name="cfg.yaml", **kw):
    d = dict(BASE)
    d.update(kw)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(d))
    return str(path)


def test_the_parser_is_built_once_per_process():
    assert _build_parser() is _build_parser()


def test_no_override_leaks_into_a_later_call(tmp_path, capsys):
    # the bytes of a first call in a fresh process, with out_dir from the config
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, sigma="linear:1", replicates=4, out_dir=str(out))
    proc = subprocess.run([sys.executable, "-m", "swelab.cli", "qv", cfg],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    shutil.rmtree(out)
    assert main(["qv", cfg, "--sigma", "constant:1", "--out-dir", str(tmp_path / "c")]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["qv", cfg, "--no-such-flag"])
    assert exc.value.code == 2
    assert main(["qv", cfg]) == 0
    capsys.readouterr()
    assert {p.name: p.read_bytes() for p in out.iterdir()} == first


def test_exit_zero_without_thresholds(tmp_path, capsys):
    code = main(["qv", write_cfg(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "done (no thresholds declared)" in out
    assert "kind=qv-time" in out


def test_exit_zero_with_passing_thresholds(tmp_path, capsys):
    cfg = write_cfg(tmp_path, thresholds=[
        {"stat": "qv_vs_exact_sigmas", "max": 10.0},
    ])
    code = main(["qv", cfg])
    out = capsys.readouterr().out
    assert code == 0
    assert "check qv_vs_exact_sigmas" in out
    assert out.rstrip().endswith("PASS")


def test_exit_one_when_a_threshold_fails(tmp_path, capsys):
    cfg = write_cfg(tmp_path, thresholds=[{"stat": "qv_mean", "max": -1.0}])
    code = main(["qv", cfg])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


def test_exit_two_for_configuration_problems(tmp_path, capsys):
    code = main(["qv", str(tmp_path / "missing.yaml")])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err

    code = main(["clt", write_cfg(tmp_path)])  # kind does not match subcommand
    err = capsys.readouterr().err
    assert code == 2
    assert "accepts kinds ('clt',)" in err

    code = main(["qv", write_cfg(tmp_path), "--pieces", "5"])
    err = capsys.readouterr().err
    assert code == 2
    assert "not admissible" in err

    bad = tmp_path / "broken.yaml"
    bad.write_text("kind: [unclosed")
    code = main(["qv", str(bad)])
    assert code == 2
    assert "not valid YAML" in capsys.readouterr().err


def test_one_replicate_is_rejected_before_any_work(tmp_path, capsys, monkeypatch):
    import swelab.studies

    def no_replicates(*args, **kwargs):
        raise AssertionError("replicates ran")

    monkeypatch.setattr(swelab.studies, "run_replicates", no_replicates)
    out = tmp_path / "out"
    code = main(["qv", write_cfg(tmp_path), "--replicates", "1", "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "replicates must be >= 2" in err
    assert not out.exists()


def test_exit_three_for_runtime_failures(tmp_path, capsys):
    # an absurd coefficient overflows the field; the failing seed is named
    cfg = write_cfg(tmp_path, sigma="linear:1e300", replicates=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = main(["qv", cfg])
    err = capsys.readouterr().err
    assert code == 3
    assert "runtime error" in err and "seed" in err


def test_multi_count_pieces_require_a_ladder_config(tmp_path, capsys):
    # --pieces fills the kind's own key; one n_pieces refuses a list by key
    code = main(["qv", write_cfg(tmp_path), "--pieces", "2,4"])
    assert code == 2
    assert "params.n_pieces must be an integer, got [2, 4]" in capsys.readouterr().err
    ladder = write_cfg(
        tmp_path, "ladder.yaml", kind="ladder", replicates=110,
        params={"axis": "time", "t": 0.5, "x": 0.0, "counts": [1, 2]},
    )
    code = main(["qv", ladder, "--pieces", "1,2,4"])
    assert code == 0
    capsys.readouterr()


def test_verbose_prints_notes_and_stats(tmp_path, capsys):
    code = main(["qv", write_cfg(tmp_path), "-v"])
    out = capsys.readouterr().out
    assert code == 0
    assert "note: admissible temporal piece counts" in out
    assert "stat qv_mean" in out


def test_seed_override_changes_results(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["qv", cfg, "--seed", "1", "--out-dir", str(out_a)]) == 0
    assert main(["qv", cfg, "--seed", "2", "--out-dir", str(out_b)]) == 0
    capsys.readouterr()
    rep_a = json.loads((out_a / "study_report.json").read_text())
    rep_b = json.loads((out_b / "study_report.json").read_text())
    assert rep_a["config"]["base_seed"] == 1
    assert rep_a["stats"]["qv_mean"] != rep_b["stats"]["qv_mean"]


def test_csv_bytes_are_identical_for_any_worker_count(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out_1, out_2 = tmp_path / "w1", tmp_path / "w2"
    assert main(["qv", cfg, "--workers", "1", "--out-dir", str(out_1)]) == 0
    assert main(["qv", cfg, "--workers", "2", "--out-dir", str(out_2)]) == 0
    capsys.readouterr()
    csv_1 = (out_1 / "study_replicates.csv").read_bytes()
    csv_2 = (out_2 / "study_replicates.csv").read_bytes()
    assert csv_1 == csv_2


def test_report_subcommand_round_trips_the_verdict(tmp_path, capsys):
    cfg = write_cfg(tmp_path, out_dir=str(tmp_path / "out"),
                    thresholds=[{"stat": "qv_vs_exact_sigmas", "max": 10.0}])
    assert main(["qv", cfg]) == 0
    capsys.readouterr()
    report_path = tmp_path / "out" / "study_report.json"
    code = main(["report", str(report_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "kind=qv-time" in out and "PASS" in out

    assert main(["report", str(tmp_path / "nope.json")]) == 2
    capsys.readouterr()
    mangled = tmp_path / "mangled.json"
    mangled.write_text("{not json")
    assert main(["report", str(mangled)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("body", [
    [],
    # a check without its min
    {"config": {}, "passed": True,
     "checks": [{"stat": "qv_mean", "max": 1.0, "value": 0.5, "passed": True}]},
])
def test_report_subcommand_refuses_json_that_is_no_report(tmp_path, capsys, body):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(body))
    assert main(["report", str(path)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "Traceback" not in err


def test_console_script_entry_point(tmp_path):
    cfg = write_cfg(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "swelab.cli", "qv", cfg, "--replicates", "4"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "replicates=4" in proc.stdout


LADDER = dict(BASE, kind="ladder", params={"axis": "time", "t": 0.5, "x": 0.0, "counts": [1, 2]})
CLT = dict(BASE, kind="clt", params={"t": 0.5, "x": 0.0, "scales": [0.125, 0.25]})
LIL = dict(BASE, kind="lil", lattice={"h": 0.0625, "t_max": 4.5, "x_lo": -4.5, "x_hi": 4.5},
           params={"t": 4.0, "x": 0.0, "scales": [0.125, 0.25, 0.5]})
HEAT = {"kind": "linearize", "sigma": "linear:1", "replicates": 4, "equation": "heat",
        "heat_grid": {"dx": 0.125, "t_max": 0.0625, "circumference": 4.0},
        "params": {"t": 0.0625, "x": 0.0, "lags": [0.125, 0.25]}}


@pytest.mark.parametrize("command, config, extra, key", [
    ("qv", dict(BASE, thresholds=[{"stat": "qv_mean", "min": 0.5, "mx": 3}]), [],
     "thresholds[0].mx"),
    ("qv", dict(BASE, thresholds=[{"min": 0.5}]), [], "thresholds[0].stat"),
    ("clt", dict(CLT, params=dict(CLT["params"], standardisation="shell")), [],
     "params.standardisation"),
    ("qv", dict(BASE, sigma="linear:nan"), [], "sigma"),
    ("qv", dict(BASE, lattice=dict(BASE["lattice"], dx=0.0625)), [], "lattice.dx"),
    ("linearize", dict(HEAT, heat_grid=dict(HEAT["heat_grid"], h=0.125)), [],
     "heat_grid.h"),
    ("qv", dict(BASE, workers="two"), [], "workers"),
    ("qv", LADDER, ["--pieces", "2,x"], "params.counts[1]"),
    ("qv", BASE, ["--pieces", "x"], "params.n_pieces"),
    ("lil", LIL, [], "params.scales"),
    ("clt", dict(CLT, params=dict(CLT["params"], t=0)), [], "params.t"),
    ("mart", dict(CLT, kind="mart", params=dict(CLT["params"], t=0)), [], "params.t"),
    # point errors carry the key that places the point
    ("qv", dict(BASE, kind="qv-space",
                params={"t": 1.0, "x_lo": -0.5, "x_hi": 1.5, "n_pieces": 2}), [],
     "params.x_hi"),
    ("clt", dict(CLT, params=dict(CLT["params"], t=0.875)), [], "params.scales"),
    ("simulate", dict(BASE, kind="simulate", params={"probes": [[0.5, 2.5]]}), [],
     "params.probes[0]"),
    ("linearize", dict(HEAT, params=dict(HEAT["params"], lags=[0, 0.125])), [],
     "params.lags"),
    ("linearize", dict(HEAT, params=dict(HEAT["params"], lags=[0.125, 4.0])), [],
     "params.lags"),
    # rules on scales, lags and piece counts name their key too
    ("clt", dict(CLT, params=dict(CLT["params"], scales=[0.0, 0.125])), [], "params.scales"),
    ("linearize", dict(BASE, kind="linearize",
                       params={"t": 0.5, "x": 0.0, "lags": [-0.125, 0.125]}), [],
     "params.lags"),
    ("simulate", dict(BASE, kind="simulate", params={
        "temporal_lags": {"t": 0.25, "x": 0.0, "lags": [0.0, 0.125]}}), [],
     "params.temporal_lags.lags"),
    ("simulate", dict(BASE, kind="simulate", params={
        "spatial_lags": {"t": 0.25, "x": 0.0, "lags": [0.0, 0.125]}}), [],
     "params.spatial_lags.lags"),
    ("lil", dict(BASE, kind="lil", params={"t": 0.5, "x": 0.0, "scales": [0.125]}), [],
     "params.scales"),
    ("qv", dict(BASE, params={"t": 0.9375, "x": 0.0625, "n_pieces": 1}), [], "params.t"),
    ("qv", dict(BASE, kind="qv-space",
                params={"t": 0.5, "x_lo": 0.5, "x_hi": -0.5, "n_pieces": 1}), [],
     "params.x_lo, params.x_hi"),
    ("qv", dict(BASE, params={"t": 1.0, "x": 0.0, "n_pieces": 3}), [], "params.n_pieces"),
    ("qv", dict(LADDER, params=dict(LADDER["params"], counts=[1, 3])), [], "params.counts"),
    ("linearize", dict(HEAT, params=dict(HEAT["params"], lags=[0.125])), [], "params.lags"),
    ("clt", dict(CLT, sigma="linear:1", params=dict(CLT["params"], standardization="shell")),
     [], "params.standardization"),
    # sigma == 0 leaves nothing to measure; refused before any replicate
    ("clt", dict(CLT, sigma="constant:0"), [], "sigma:"),
    ("lil", dict(LIL, sigma="linear:0"), [], "sigma:"),
    ("mart", dict(CLT, kind="mart", sigma="constant:0"), [], "sigma:"),
    ("linearize", dict(BASE, kind="linearize", sigma="sine:0",
                       params={"t": 0.5, "x": 0.0, "lags": [0.125, 0.25]}), [], "sigma:"),
    ("linearize", dict(HEAT, sigma="affine:0,0"), [], "sigma:"),
    # a ladder value given twice would count twice in a fit
    ("qv", LADDER, ["--pieces", "2,2"], "params.counts"),
    ("linearize", dict(HEAT, params=dict(HEAT["params"], lags=[0.125, 0.125, 0.25])), [],
     "params.lags"),
    ("mart", dict(CLT, kind="mart", params=dict(CLT["params"], scales=[0.125, 0.125])), [],
     "params.scales"),
    ("simulate", dict(BASE, kind="simulate", params={
        "temporal_lags": {"t": 0.25, "x": 0.0, "lags": [0.125, 0.125]}}), [],
     "params.temporal_lags.lags"),
    ("simulate", dict(BASE, kind="simulate", params={
        "spatial_lags": {"t": 0.25, "x": 0.0, "lags": [0.25, 0.125, 0.25]}}), [],
     "params.spatial_lags.lags"),
    # a stat the study does not produce is refused after aggregation, by key
    ("qv", dict(BASE, thresholds=[{"stat": "qv_mena", "max": 1.0}]), [],
     "thresholds[0].stat"),
    # only linearize runs on the heat equation; the rest would run the wave
    # equation under the heat label
    ("qv", dict(BASE, equation="heat"), [], "equation"),
    # every kind but simulate refuses sigma == 0; qv-space and the time-axis
    # ladder would divide zero by zero after every replicate
    ("qv", dict(BASE, sigma="constant:0"), [], "sigma:"),
    ("qv", dict(BASE, kind="qv-space", sigma="constant:0",
                params={"t": 0.5, "x_lo": -0.5, "x_hi": 0.5, "n_pieces": 2}), [], "sigma:"),
    ("qv", dict(LADDER, sigma="linear:0"), [], "sigma:"),
    # out_dir is created before the first replicate: an existing file, or a
    # path under one, is refused by key
    ("qv", BASE, ["--out-dir", __file__], "out_dir"),
    ("qv", BASE, ["--out-dir", str(Path(__file__) / "out")], "out_dir"),
    # label prefixes every output file inside out_dir
    ("qv", dict(BASE, label="a/b"), [], "label"),
    # dt: 0 is a step of zero, not the default
    ("linearize", dict(HEAT, heat_grid=dict(HEAT["heat_grid"], dt=0)), [], "heat_grid: dt"),
    # no file name holds a NUL byte; refused before the first replicate
    ("qv", dict(BASE, label="a\0b"), [], "label"),
    ("qv", dict(BASE, out_dir="o\0x"), [], "out_dir"),
    ("qv", BASE, ["--out-dir", "o\0x"], "out_dir"),
    # at t = 0 no read point has a cone below it, and the heat march takes
    # no step: every defect and increment would vanish
    ("linearize", dict(BASE, kind="linearize",
                       params={"t": 0.0, "x": 0.0, "lags": [0.125, 0.25]}), [], "params.t"),
    ("linearize", dict(HEAT, params=dict(HEAT["params"], t=0.0)), [], "params.t"),
    # a block or key the study never reads is refused, not echoed in the report
    ("qv", dict(BASE, heat_grid=HEAT["heat_grid"]), [], "heat_grid"),
    ("qv", dict(LADDER, params=dict(LADDER["params"], x_lo=-7.3)), [], "params.x_lo"),
    ("qv", dict(LADDER, params=dict(LADDER["params"], x_hi=7.3)), [], "params.x_hi"),
    ("qv", dict(LADDER, params={"axis": "space", "t": 0.5, "x": 0.3, "x_lo": -0.5,
                                "x_hi": 0.5, "counts": [1, 2]}), [], "params.x"),
    # an odd multiple of h is refused once, by the read of its lagged point
    ("clt", dict(CLT, params=dict(CLT["params"], scales=[0.125, 0.1875])), [],
     "params.scales"),
    ("mart", dict(CLT, kind="mart", params=dict(CLT["params"], scales=[0.125, 0.1875])), [],
     "params.scales"),
    ("lil", dict(LIL, params=dict(LIL["params"], scales=[0.125, 0.1875])), [],
     "params.scales"),
    ("simulate", dict(BASE, kind="simulate", params={
        "temporal_lags": {"t": 0.25, "x": 0.0, "lags": [0.125, 0.1875]}}), [],
     "params.temporal_lags.lags"),
    ("simulate", dict(BASE, kind="simulate", params={
        "spatial_lags": {"t": 0.5, "x": 0.0, "lags": [0.125, 0.1875]}}), [],
     "params.spatial_lags.lags"),
    ("linearize", dict(BASE, kind="linearize",
                       params={"t": 0.5, "x": 0.0, "lags": [0.125, 0.1875]}), [],
     "params.lags"),
    # a lag at or below zero, with one text on either equation
    ("linearize", dict(BASE, kind="linearize",
                       params={"t": 0.5, "x": 0.0, "lags": [0.0, 0.125]}), [],
     "params.lags value 0.0 must be positive"),
    ("linearize", dict(HEAT, params=dict(HEAT["params"], lags=[0.0, 0.125])), [],
     "params.lags value 0.0 must be positive"),
    # a negative odd multiple of h is refused by its sign alone
    ("linearize", dict(BASE, kind="linearize",
                       params={"t": 0.5, "x": 0.0, "lags": [-0.1875, 0.125]}), [],
     "params.lags"),
    # an off-lattice lag or scale is named by the value written
    ("clt", dict(CLT, params=dict(CLT["params"], scales=[0.1, 0.125])), [],
     "params.scales value 0.1:"),
    ("mart", dict(CLT, kind="mart", params=dict(CLT["params"], scales=[0.1, 0.125])), [],
     "params.scales value 0.1:"),
    ("lil", dict(LIL, params=dict(LIL["params"], scales=[0.1, 0.125, 0.25])), [],
     "params.scales value 0.1:"),
    ("simulate", dict(BASE, kind="simulate", params={
        "temporal_lags": {"t": 0.25, "x": 0.0, "lags": [0.1, 0.125]}}), [],
     "params.temporal_lags.lags value 0.1:"),
    ("simulate", dict(BASE, kind="simulate", params={
        "spatial_lags": {"t": 0.5, "x": 0.0, "lags": [0.1, 0.125]}}), [],
     "params.spatial_lags.lags value 0.1:"),
    ("linearize", dict(BASE, kind="linearize",
                       params={"t": 0.5, "x": 0.0, "lags": [0.1, 0.25]}), [],
     "params.lags value 0.1:"),
    ("linearize", dict(HEAT, params=dict(HEAT["params"], lags=[0.1, 0.25])), [],
     "params.lags value 0.1:"),
    # several counts on a kind that takes one: refused by its key
    ("qv", BASE, ["--pieces", "2,4"], "params.n_pieces"),
])
def test_bad_input_exits_two_and_names_the_key(tmp_path, capsys, command, config, extra, key):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(config))
    code = main([command, str(path), *extra])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count(key) == 1 and "Traceback" not in err
