import json
import math

import numpy as np
import pytest

from swelab.config import config_from_dict
from swelab.ensemble import EnsembleResult
from swelab.errors import ConfigurationError, SimulationError
from swelab.lattice import LatticeSpec
from oracles import solved
from swelab.noise import make_noise
from swelab.reports import (
    evaluate_thresholds,
    format_value,
    read_noise_snapshot,
    read_wave_snapshot,
    summary_report,
    write_ensemble_csv,
    write_field_csv,
    write_json_report,
    write_noise_snapshot,
    write_table_csv,
    write_wave_snapshot,
)
from swelab.sigma import SigmaSpec

LAT = LatticeSpec(h=0.25, t_max=0.5, x_lo=-1.0, x_hi=1.0)
LINEAR = SigmaSpec("linear", (1.0,))


def small_config(**thresholds_kw):
    return config_from_dict({
        "kind": "qv-time",
        "sigma": "linear:1",
        "replicates": 4,
        "lattice": {"h": 0.0625, "t_max": 1.0, "x_lo": -2.0, "x_hi": 2.0},
        "params": {"t": 0.5, "x": 0.0, "n_pieces": 4},
        **thresholds_kw,
    })


def test_format_value_round_trips_float64():
    for x in [0.1, 1.0 / 3.0, math.pi, -1e-300, 6.02e23, 2.0 ** -1074]:
        assert float(format_value(x)) == x
    assert format_value("name") == "name"
    # bool is an int, and a numpy bool converts to 1.0 or 0.0: both print as digits
    assert format_value(True) == "1"
    assert format_value(False) == "0"
    assert format_value(np.True_) == "1"
    assert format_value(np.False_) == "0"
    assert format_value(np.int64(-17)) == "-17"
    assert format_value(np.float64(0.5)) == "0.5"


def test_write_table_csv_layout(tmp_path):
    path = tmp_path / "t.csv"
    write_table_csv(path, ["a", "b"], [[1, 0.5], [2, 0.25]])
    assert path.read_text() == "a,b\n1,0.5\n2,0.25\n"
    with pytest.raises(SimulationError, match="row width 3 != 2"):
        write_table_csv(path, ["a", "b"], [[1, 2, 3]])


def test_write_ensemble_csv_prepends_replicate_and_seed(tmp_path):
    res = EnsembleResult(("u", "v"), 9, np.array([[1.5, 2.5], [3.5, 4.5]]))
    path = tmp_path / "e.csv"
    write_ensemble_csv(path, res)
    assert path.read_text() == (
        "replicate,seed,u,v\n0,9,1.5,2.5\n1,10,3.5,4.5\n"
    )


def test_write_field_csv_covers_the_whole_trapezoid(tmp_path):
    fld, _ = solved(LINEAR, 1, LAT)
    path = tmp_path / "f.csv"
    write_field_csv(path, fld)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x,u"
    want = sum(LAT.width(n) for n in range(LAT.n_levels + 1))
    assert len(lines) - 1 == want
    assert lines[1] == "0,-1,1"
    # every level-0 value is the deterministic initial state 1
    zero_rows = [ln for ln in lines[1:] if ln.startswith("0,")]
    assert all(ln.endswith(",1") for ln in zero_rows)


def test_evaluate_thresholds():
    cfg = small_config(thresholds=[
        {"stat": "qv_mean", "min": 0.2, "max": 0.3},
        {"stat": "qv_vs_exact_sigmas", "max": 3.0},
    ])
    checks, passed = evaluate_thresholds(cfg, {"qv_mean": 0.25,
                                               "qv_vs_exact_sigmas": 1.0})
    assert passed is True
    assert [c["passed"] for c in checks] == [True, True]
    checks, passed = evaluate_thresholds(cfg, {"qv_mean": 0.5,
                                               "qv_vs_exact_sigmas": 1.0})
    assert passed is False
    assert [c["passed"] for c in checks] == [False, True]
    with pytest.raises(ConfigurationError) as err:
        evaluate_thresholds(cfg, {"other": 1.0})
    assert str(err.value) == ("thresholds[0].stat: threshold references unknown stat "
                              "'qv_mean'; this study produces ['other']")
    assert evaluate_thresholds(small_config(), {"x": 1.0}) == ([], None)


def test_summary_report_structure():
    cfg = small_config(thresholds=[{"stat": "qv_mean", "max": 1.0}])
    report = summary_report(cfg, {"qv_mean": np.float64(0.5)}, extra={"note": "hi"})
    assert report["package"]["name"] == "swelab"
    assert report["config"]["kind"] == "qv-time"
    assert report["config"]["sigma"] == "linear:1.0"
    assert report["config"]["lattice"] == {"h": 0.0625, "t_max": 1.0,
                                           "x_lo": -2.0, "x_hi": 2.0}
    assert report["stats"] == {"qv_mean": 0.5}
    assert isinstance(report["stats"]["qv_mean"], float)
    assert report["passed"] is True
    assert report["note"] == "hi"


def test_write_json_report_is_deterministic(tmp_path):
    report = {"b": 1, "a": {"z": 2.5, "y": [1, 2]}}
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    write_json_report(p1, report)
    write_json_report(p2, {"a": {"y": [1, 2], "z": 2.5}, "b": 1})
    assert p1.read_bytes() == p2.read_bytes()
    assert json.loads(p1.read_text()) == report
    assert p1.read_text().endswith("\n")


def test_wave_snapshot_round_trip(tmp_path):
    fld, _ = solved(LINEAR, 42, LAT)
    path = tmp_path / "w.bin"
    write_wave_snapshot(path, fld)
    lat, values = read_wave_snapshot(path)
    assert lat == LAT
    # the packed levels come back padded: level n in row n, NaN beyond its width
    assert values.shape == (LAT.n_levels + 1, LAT.width(0))
    for n, row in enumerate(values):
        w = LAT.width(n)
        assert row[:w].tobytes() == fld.level(n).tobytes()
        assert np.all(np.isnan(row[w:]))


def test_noise_snapshot_round_trip(tmp_path):
    xi = make_noise([42], LAT).increments[0]
    path = tmp_path / "n.bin"
    write_noise_snapshot(path, LAT, xi)
    lat, grid = read_noise_snapshot(path)
    assert lat == LAT
    again = tmp_path / "again.bin"
    write_noise_snapshot(again, lat, grid[grid != 0.0])
    assert again.read_bytes() == path.read_bytes()


def test_snapshots_at_bounds_float32_cannot_hold(tmp_path):
    # the header stores x_lo and x_hi as float32: -2.2 comes back as
    # -2.200000047683716, which is no multiple of h
    lat = LatticeSpec(h=0.1, t_max=0.5, x_lo=-2.2, x_hi=2.2)
    fld, _ = solved(LINEAR, 42, lat)
    write_wave_snapshot(tmp_path / "w.bin", fld)
    write_noise_snapshot(tmp_path / "n.bin", lat, make_noise([42], lat).increments[0])
    wave, values = read_wave_snapshot(tmp_path / "w.bin")
    noise, grid = read_noise_snapshot(tmp_path / "n.bin")
    for got in (wave, noise):
        assert (got.col_lo, got.col_hi, got.n_levels) == (lat.col_lo, lat.col_hi, lat.n_levels)
        assert got.h == lat.h and got.t_max == lat.t_max
    for n in range(lat.n_levels + 1):
        assert values[n, :lat.width(n)].tobytes() == fld.level(n).tobytes()
    write_noise_snapshot(tmp_path / "again.bin", noise, grid[grid != 0.0])
    assert (tmp_path / "again.bin").read_bytes() == (tmp_path / "n.bin").read_bytes()


def test_snapshot_magic_and_truncation(tmp_path):
    fld, _ = solved(LINEAR, 42, LAT)
    path = tmp_path / "w.bin"
    write_wave_snapshot(path, fld)
    with pytest.raises(SimulationError, match="magic"):
        read_noise_snapshot(path)
    stub = tmp_path / "short.bin"
    stub.write_bytes(b"SWFLD0")
    with pytest.raises(SimulationError, match="truncated"):
        read_wave_snapshot(stub)
