import json
import math
import re
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swelab.config import (
    KINDS,
    ExperimentConfig,
    Threshold,
    _divisors,
    config_from_dict,
    load_config,
    read_config,
    validate,
)
from swelab.errors import ConfigurationError, ConfigurationWarning
from swelab.lattice import LatticeSpec
from swelab.sigma import SigmaSpec
from swelab.studies import plan_study, run_study

LATTICE_BLOCK = {"h": 0.0625, "t_max": 1.0, "x_lo": -2.0, "x_hi": 2.0}
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs" / "acceptance"


def qv_time_dict(**kw) -> dict:
    d = {
        "kind": "qv-time",
        "sigma": "linear:1",
        "replicates": 10,
        "lattice": dict(LATTICE_BLOCK),
        "params": {"t": 0.5, "x": 0.0, "n_pieces": 4},
    }
    d.update(kw)
    return d


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "study.yaml"
    path.write_text(
        "kind: qv-time\n"
        "sigma: sine:0.5\n"
        "replicates: 64\n"
        "base_seed: 100\n"
        "workers: 2\n"
        "label: demo\n"
        "lattice: {h: 0.0625, t_max: 1.0, x_lo: -2.0, x_hi: 2.0}\n"
        "params: {t: 0.5, x: 0.0, n_pieces: 4}\n"
        "thresholds:\n"
        "  - {stat: qv_mean, min: 0.2, max: 0.3}\n"
        "  - {stat: qv_vs_limit_sigmas, max: 3.0}\n"
    )
    cfg = load_config(str(path))
    assert cfg.kind == "qv-time"
    assert cfg.sigma == SigmaSpec("sine", (0.5,))
    assert cfg.replicates == 64
    assert cfg.base_seed == 100
    assert cfg.workers == 2
    assert cfg.label == "demo"
    assert cfg.lattice == LatticeSpec(**LATTICE_BLOCK)
    assert cfg.params == {"t": 0.5, "x": 0.0, "n_pieces": 4}
    assert cfg.thresholds == (
        Threshold("qv_mean", 0.2, 0.3),
        Threshold("qv_vs_limit_sigmas", None, 3.0),
    )
    assert validate(cfg) == ([], [
        "admissible temporal piece counts at t=0.5, h=0.0625: [1, 2, 4]",
    ])


def test_load_config_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    with pytest.raises(ConfigurationError, match="empty"):
        load_config(str(path))


def test_overrides_replace_only_non_none_values():
    cfg = config_from_dict(qv_time_dict(), overrides={"replicates": 5, "workers": None})
    assert cfg.replicates == 5
    assert cfg.workers == 1


def test_unknown_keys_and_missing_keys_are_rejected():
    with pytest.raises(ConfigurationError, match="unknown config keys.*n_pieces"):
        config_from_dict(qv_time_dict(n_pieces=4))
    with pytest.raises(ConfigurationError, match="missing required key 'sigma'"):
        config_from_dict({"kind": "qv-time", "replicates": 3})
    with pytest.raises(ConfigurationError, match="replicates must be an integer"):
        config_from_dict(qv_time_dict(replicates=True))
    with pytest.raises(ConfigurationError, match="replicates must be an integer"):
        config_from_dict(qv_time_dict(replicates="12"))


def test_threshold_bounds():
    with pytest.raises(ConfigurationError, match="no bounds"):
        Threshold("x")
    with pytest.raises(ConfigurationError, match="min 2.0 > max 1.0"):
        Threshold("x", 2.0, 1.0)
    band = Threshold("x", -1.0, 1.0)
    assert band.check(0.0) and band.check(-1.0) and band.check(1.0)
    assert not band.check(1.5) and not band.check(math.nan) and not band.check(math.inf)
    assert Threshold("x", min=0.5).check(2.0)
    assert not Threshold("x", max=0.5).check(2.0)


def test_kinds_that_summarize_need_two_replicates():
    errors, _ = validate(config_from_dict(qv_time_dict(replicates=1)))
    assert errors == ["replicates must be >= 2 for kind 'qv-time', got 1"]
    lat = dict(LATTICE_BLOCK)
    space = {"kind": "ladder", "sigma": "linear:1", "replicates": 1, "lattice": lat,
             "params": {"axis": "space", "t": 0.5, "x_lo": -0.5, "x_hi": 0.5,
                        "counts": [2, 4]}}
    assert any("replicates must be >= 2" in e
               for e in validate(config_from_dict(space))[0])
    time = dict(space, params={"axis": "time", "t": 0.5, "x": 0.0, "counts": [2, 4]})
    assert not validate(config_from_dict(time))[0]


def test_validate_collects_multiple_errors_at_once():
    cfg = config_from_dict(qv_time_dict(replicates=0, workers=0, base_seed=-1))
    errors, _ = validate(cfg)
    assert len(errors) == 3
    assert any("replicates" in e for e in errors)
    assert any("workers" in e for e in errors)
    assert any("base_seed" in e for e in errors)


def test_validate_unknown_kind_short_circuits():
    # the kind selects the params table, so it is refused before params are read
    want = re.escape("kind must be one of ('simulate', 'qv-time', 'qv-space', 'clt', 'lil', "
                     "'mart', 'linearize', 'ladder'), got 'qv'")
    with pytest.raises(ConfigurationError, match=want):
        config_from_dict(qv_time_dict(kind="qv", params={"junk": 1}))
    with pytest.raises(ConfigurationError, match="equation must be one of"):
        config_from_dict(qv_time_dict(equation="air"))


def test_validate_requires_geometry_block():
    cfg = config_from_dict(qv_time_dict(lattice=None))
    errors, _ = validate(cfg)
    assert errors == ["kind 'qv-time' requires a lattice block"]
    heat = config_from_dict({
        "kind": "linearize", "sigma": "linear:1", "replicates": 2,
        "equation": "heat", "params": {"t": 0.015625, "x": 0.0, "lags": [0.0625, 0.125]},
    })
    errors, _ = validate(heat)
    assert errors == ["linearize on the heat equation requires a heat_grid block"]


def test_validate_base_seed_range():
    cfg = config_from_dict(qv_time_dict(base_seed=2**64 - 4, replicates=10))
    errors, _ = validate(cfg)
    assert errors == ["base_seed must keep every replicate seed inside [0, 2^64)"]


def test_qv_time_admissibility():
    errors, notes = validate(config_from_dict(qv_time_dict()))
    assert errors == []
    assert notes == ["admissible temporal piece counts at t=0.5, h=0.0625: [1, 2, 4]"]
    cfg = config_from_dict(qv_time_dict(params={"t": 0.5, "x": 0.0, "n_pieces": 3}))
    errors, _ = validate(cfg)
    assert errors == ["params.n_pieces value 3 is not admissible; choose one of [1, 2, 4]"]
    cfg = config_from_dict(qv_time_dict(params={"t": 0.5, "x": 0.03, "n_pieces": 4}))
    errors, _ = validate(cfg)
    assert len(errors) == 1 and "not an integer multiple" in errors[0]


# kind: (params, t_max, half-width of the base that covers exactly what the
# estimators read). qv-space and the space-axis ladder read [x_lo - t, x_hi + t];
# clt, lil and mart read [x - (t + top scale), x + (t + top scale)].
REACH_CASES = {
    "qv-space": ({"t": 0.5, "x_lo": -0.5, "x_hi": 0.5, "n_pieces": 8}, 0.5, 1.0),
    "ladder": ({"axis": "space", "t": 0.5, "x_lo": -0.5, "x_hi": 0.5, "counts": [2, 4]},
               0.5, 1.0),
    "clt": ({"t": 0.5, "x": 0.0, "scales": [0.125, 0.25]}, 0.75, 0.75),
    "lil": ({"t": 0.5, "x": 0.0, "scales": [0.0625]}, 0.5625, 0.5625),
    "mart": ({"t": 0.5, "x": 0.0, "scales": [0.125, 0.25]}, 0.75, 0.75),
}


@pytest.mark.parametrize("kind", sorted(REACH_CASES))
def test_base_needs_exactly_the_estimator_reach(kind):
    params, t_max, half = REACH_CASES[kind]
    h = 1 / 32

    def shifted(dx: float) -> ExperimentConfig:
        p = {k: v + dx if k in ("x", "x_lo", "x_hi") else v for k, v in params.items()}
        return config_from_dict({
            "kind": kind, "sigma": "linear:1", "replicates": 2, "params": p,
            "lattice": {"h": h, "t_max": t_max, "x_lo": -half, "x_hi": half},
        })

    exact = shifted(0.0)
    assert validate(exact)[0] == []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConfigurationWarning)
        assert run_study(exact).ensemble.n == 2
    # one cell (2h) nearer the edge: refused, and the plan cannot be built there
    narrow = shifted(2 * h)
    errors, _ = validate(narrow)
    assert len(errors) == 1
    assert "outside the simulated trapezoid" in errors[0]
    with pytest.raises(ConfigurationError):
        plan_study(narrow)


def test_piece_counts_wait_for_a_valid_apex():
    far = config_from_dict(qv_time_dict(params={"t": 1e6, "x": 0.0, "n_pieces": 4}))
    errors, notes = validate(far)
    assert errors == [
        "params.t, params.x: (t, x)=(1000000.0, 0.0) lies outside the simulated trapezoid"]
    assert notes == []


def test_clt_rules():
    base = {
        "kind": "clt", "sigma": "linear:1", "replicates": 100,
        "lattice": dict(LATTICE_BLOCK),
        "params": {"t": 0.5, "x": 0.0, "scales": [0.125, 0.25]},
    }
    errors, notes = validate(config_from_dict(base))
    assert errors == []
    assert notes == ["warning: 100 replicates gives a weak distribution test; "
                     "500+ recommended"]
    shell = dict(base, params=dict(base["params"], standardization="shell"))
    errors, _ = validate(config_from_dict(shell))
    assert errors == ["params.standardization: shell standardization requires a constant sigma"]
    zero = dict(base, sigma="constant:0")
    errors, _ = validate(config_from_dict(zero))
    assert errors == ["sigma: vanishes identically, so u stays 1 and clt has no fluctuation "
                      "to measure"]
    bad_std = dict(base, params=dict(base["params"], standardization="robust"))
    with pytest.raises(ConfigurationError,
                       match="params.standardization must be one of .* got 'robust'"):
        config_from_dict(bad_std)


def test_lil_rules():
    lat = {"h": 2 ** -7, "t_max": 0.625, "x_lo": -1.25, "x_hi": 1.25}
    base = {
        "kind": "lil", "sigma": "constant:1", "replicates": 600, "lattice": lat,
        "params": {"t": 0.5, "x": 0.0,
                   "scales": [2 ** -4, 2 ** -5, 2 ** -6]},
    }
    errors, notes = validate(config_from_dict(base))
    assert errors == []
    assert notes == ["iterated-logarithm grids are meant to span >= 4 dyadic "
                     "halvings below t/8; got 3 scales"]
    over = dict(base, params=dict(base["params"], scales=[2 ** -3]))
    errors, _ = validate(config_from_dict(over))
    assert "params.scales value 0.125 exceeds t/8 = 0.0625" in errors
    # t/8 is a relative bound: with h = 2^-40 a scale of 2h at t = 8h is twice
    # t/8 and refused, while at t = 16h it is t/8 itself and accepted
    h = 2.0 ** -40
    fine = dict(base, lattice={"h": h, "t_max": 32 * h, "x_lo": -32 * h, "x_hi": 32 * h})
    errors, _ = validate(config_from_dict(
        dict(fine, params={"t": 8 * h, "x": 0.0, "scales": [2 * h]})))
    assert errors == [f"params.scales value {2 * h} exceeds t/8 = {h}"]
    errors, _ = validate(config_from_dict(
        dict(fine, params={"t": 16 * h, "x": 0.0, "scales": [2 * h]})))
    assert errors == []
    # an odd multiple of h is refused by the read of (t + s, x) alone
    odd = dict(base, params=dict(base["params"], scales=[3 * 2 ** -7]))
    errors, _ = validate(config_from_dict(odd))
    assert errors == ["params.scales value 0.0234375: (t, x)=(0.5234375, 0.0) has odd "
                      "parity (t/h + x/h must be even)"]


def test_lil_rejects_scales_without_iterated_log_decay():
    # loglog(1/s) <= 0 for s >= 1/e: refused before any replicate, naming the key
    cfg = config_from_dict({
        "kind": "lil", "sigma": "constant:1", "replicates": 4,
        "lattice": {"h": 0.0625, "t_max": 4.5, "x_lo": -4.5, "x_hi": 4.5},
        "params": {"t": 4.0, "x": 0.0, "scales": [0.125, 0.25, 0.5]},
    })
    errors, _ = validate(cfg)
    assert errors == ["params.scales value 0.5 is too coarse for an iterated-logarithm "
                      "rate: loglog(1/s) must be positive, so s < 1/e"]


def probe_dict(kind: str, **params) -> dict:
    return {"kind": kind, "sigma": "constant:1", "replicates": 4,
            "lattice": dict(LATTICE_BLOCK),
            "params": {"t": 0.5, "x": 0.0, "scales": [0.125, 0.25], **params}}


@pytest.mark.parametrize("kind", ["clt", "lil", "mart"])
def test_probe_grid_rules(kind):
    # what the fluctuation estimators used to check on every replicate
    def errors(**params):
        return validate(config_from_dict(probe_dict(kind, **params)))[0]

    if kind != "lil":  # on this lattice every lil grid breaks the t/8 cap
        assert errors() == []
    assert "params.scales value 0.0 must be positive" in errors(scales=[0.0])
    assert ("params.scales value 0.0625: (t, x)=(0.5625, 0.0) has odd parity "
            "(t/h + x/h must be even)" in errors(scales=[0.0625]))
    # the read of (t + s, x) covers the horizon and the base width
    assert ("params.scales value 0.125: (t, x)=(1.125, 0.0) lies outside the simulated "
            "trapezoid" in errors(t=1.0, scales=[0.125]))
    assert ("params.t=0.0 must be >= h=0.0625: the estimators read the backward "
            "cone below t" in errors(t=0.0))
    with pytest.raises(ConfigurationError, match="params.scales must be a nonempty list"):
        config_from_dict(probe_dict(kind, scales=[]))


LIL_FINE = {"kind": "lil", "sigma": "constant:1", "replicates": 4,
            "lattice": {"h": 2 ** -7, "t_max": 0.625, "x_lo": -1.25, "x_hi": 1.25},
            "params": {"t": 0.5, "x": 0.0, "scales": [2 ** -4, 2 ** -5]}}
WAVE_LINEARIZE = {"kind": "linearize", "sigma": "linear:1", "replicates": 4,
                  "lattice": dict(LATTICE_BLOCK), "params": {"t": 0.5, "x": 0.0}}
HEAT_LINEARIZE = {"kind": "linearize", "sigma": "linear:1", "replicates": 4,
                  "equation": "heat",
                  "heat_grid": {"dx": 0.125, "t_max": 0.0625, "circumference": 4.0},
                  "params": {"t": 0.0625, "x": 0.0}}


def simulate_dict(key: str, t: float, lags: list[float]) -> dict:
    return {"kind": "simulate", "sigma": "sine:1", "replicates": 4,
            "lattice": dict(LATTICE_BLOCK),
            "params": {key: {"t": t, "x": 0.0, "lags": lags}}}


def with_params(config: dict, **params) -> dict:
    return dict(config, params=dict(config["params"], **params))


ODD_PARITY = "{} value {}: (t, x)=({}, {}) has odd parity (t/h + x/h must be even)"


@pytest.mark.parametrize("config, error", [
    # an odd multiple of h: its lagged point is off the lattice's parity
    (probe_dict("clt", scales=[0.125, 0.1875]),
     ODD_PARITY.format("params.scales", 0.1875, 0.6875, 0.0)),
    (probe_dict("mart", scales=[0.125, 0.1875]),
     ODD_PARITY.format("params.scales", 0.1875, 0.6875, 0.0)),
    (with_params(LIL_FINE, scales=[2 ** -4, 3 * 2 ** -7]),
     ODD_PARITY.format("params.scales", 0.0234375, 0.5234375, 0.0)),
    (simulate_dict("temporal_lags", 0.25, [0.125, 0.1875]),
     ODD_PARITY.format("params.temporal_lags.lags", 0.1875, 0.4375, 0.0)),
    (simulate_dict("spatial_lags", 0.5, [0.125, 0.1875]),
     ODD_PARITY.format("params.spatial_lags.lags", 0.1875, 0.5, 0.1875)),
    (with_params(WAVE_LINEARIZE, lags=[0.125, 0.1875]),
     ODD_PARITY.format("params.lags", 0.1875, 0.5, 0.1875)),
    # a zero or negative lag or scale, with one text on either equation
    (probe_dict("clt", scales=[0.0, 0.125]), "params.scales value 0.0 must be positive"),
    (probe_dict("mart", scales=[-0.125, 0.25]), "params.scales value -0.125 must be positive"),
    (with_params(LIL_FINE, scales=[2 ** -4, -2 ** -5]),
     "params.scales value -0.03125 must be positive"),
    (simulate_dict("temporal_lags", 0.25, [0.0, 0.125]),
     "params.temporal_lags.lags value 0.0 must be positive"),
    (simulate_dict("spatial_lags", 0.5, [-0.125, 0.125]),
     "params.spatial_lags.lags value -0.125 must be positive"),
    (with_params(WAVE_LINEARIZE, lags=[-0.125, 0.25]), "params.lags value -0.125 must be positive"),
    (with_params(HEAT_LINEARIZE, lags=[-0.125, 0.25]), "params.lags value -0.125 must be positive"),
    (with_params(WAVE_LINEARIZE, lags=[0.0, 0.25]), "params.lags value 0.0 must be positive"),
    (with_params(HEAT_LINEARIZE, lags=[0.0, 0.25]), "params.lags value 0.0 must be positive"),
    # negative and an odd multiple of h (of dx on the heat grid): its sign alone
    (with_params(WAVE_LINEARIZE, lags=[-0.1875, 0.125]),
     "params.lags value -0.1875 must be positive"),
    (with_params(HEAT_LINEARIZE, lags=[-0.1875, 0.125]),
     "params.lags value -0.1875 must be positive"),
    # off the lattice: named by the value written, not by the coordinate it sums to
    (probe_dict("clt", scales=[0.1, 0.125]),
     "params.scales value 0.1: t=0.6 is not an integer multiple of h=0.0625"),
    (probe_dict("mart", scales=[0.125, 0.1]),
     "params.scales value 0.1: t=0.6 is not an integer multiple of h=0.0625"),
    (with_params(LIL_FINE, scales=[2 ** -4, 0.01]),
     "params.scales value 0.01: t=0.51 is not an integer multiple of h=0.0078125"),
    (simulate_dict("temporal_lags", 0.25, [0.1, 0.125]),
     "params.temporal_lags.lags value 0.1: t=0.35 is not an integer multiple of h=0.0625"),
    (simulate_dict("spatial_lags", 0.5, [0.1, 0.125]),
     "params.spatial_lags.lags value 0.1: x=0.1 is not an integer multiple of h=0.0625"),
    (with_params(WAVE_LINEARIZE, lags=[0.1, 0.25]),
     "params.lags value 0.1: x=0.1 is not an integer multiple of h=0.0625"),
    (with_params(HEAT_LINEARIZE, lags=[0.1, 0.25]),
     "params.lags value 0.1: x=0.1 is not a multiple of dx=0.125"),
])
def test_one_bad_lag_or_scale_is_refused_once(config, error):
    assert validate(config_from_dict(config))[0] == [error]


def shipped(stem: str, **params) -> dict:
    """A shipped config with some of its params replaced."""
    return with_params(read_config(str(CONFIG_DIR / f"{stem}.yaml")), **params)


def holder_slopes(**blocks) -> dict:
    """holder_slopes with some keys of its lag blocks replaced."""
    lags = shipped("holder_slopes")["params"]
    return shipped("holder_slopes", **{key: dict(lags[key], **block)
                                       for key, block in blocks.items()})


OFF_H = "params.t, params.x: {}={} is not an integer multiple of h=0.00390625"


# a bad base point is refused once, under its own key: the lags and scales
# read off it are skipped, not refused again
@pytest.mark.parametrize("config, errors", [
    (shipped("linearize_wave", t=0.3001), [OFF_H.format("t", 0.3001)]),
    (shipped("linearize_wave", x=0.001), [OFF_H.format("x", 0.001)]),
    (shipped("clt_multiplicative", t=0.3001), [OFF_H.format("t", 0.3001)]),
    (shipped("martingale_split", t=0.3001), [OFF_H.format("t", 0.3001)]),
    (shipped("linearize_heat", x=0.001),
     ["params.t, params.x: x=0.001 is not a multiple of dx=0.015625"]),
    (holder_slopes(temporal_lags={"x": 0.001}),
     ["params.temporal_lags.t, params.temporal_lags.x: x=0.001 is not an integer "
      "multiple of h=0.0078125"]),
    # the other block is still read; with four lags its slope stays reported,
    # so the shipped threshold on it stands
    (holder_slopes(temporal_lags={"x": 0.001},
                   spatial_lags={"lags": [0.03125, 0.0625, 0.1, 0.25]}),
     ["params.temporal_lags.t, params.temporal_lags.x: x=0.001 is not an integer "
      "multiple of h=0.0078125",
      "params.spatial_lags.lags value 0.1: x=0.1 is not an integer multiple of h=0.0078125"]),
    # heat's t is resolved with the point it places
    (shipped("linearize_heat", t=0.03),
     ["params.t, params.x: t=0.03 is not an integer multiple of 6.103515625e-05"]),
    (shipped("linearize_heat", t=0.125), ["params.t, params.x: t=0.125 outside [0, 0.0625]"]),
], ids=["wave-t", "wave-x", "clt-t", "mart-t", "heat-x", "simulate-x", "simulate-both",
        "heat-t-off-grid", "heat-t-late"])
def test_a_bad_base_point_is_refused_once(config, errors):
    assert validate(config_from_dict(config))[0] == errors


H6 = 2 ** -6
FINE_BLOCK = {"h": H6, "t_max": 1.0, "x_lo": -2.0, "x_hi": 2.0}


def fine_qv(kind: str, lattice=FINE_BLOCK, **params) -> dict:
    return dict(qv_time_dict(kind=kind, params={**params, "n_pieces": 4}),
                lattice=dict(lattice))


NEAR_H = LATTICE_BLOCK["h"] * (1 - 5e-10)


# within LatticeSpec's relative tolerance of a lattice point: placed there, and
# a qv line keeps the piece counts of the exact value
@pytest.mark.parametrize("near, exact", [
    (fine_qv("qv-time", t=(64 + 5e-8) * H6, x=0.0), fine_qv("qv-time", t=1.0, x=0.0)),
    (fine_qv("qv-space", t=0.5, x_lo=-(96 + 5e-8) * H6, x_hi=(96 + 5e-8) * H6),
     fine_qv("qv-space", t=0.5, x_lo=-96 * H6, x_hi=96 * H6)),
    # on level 1, which holds the cone of a probe or a wave defect
    (probe_dict("clt", t=NEAR_H, x=0.0625), None),
    (with_params(WAVE_LINEARIZE, t=NEAR_H, x=0.0625, lags=[0.125, 0.25]), None),
], ids=["qv-time", "qv-space", "clt", "linearize"])
def test_a_point_the_lattice_places_is_accepted(near, exact):
    errors, notes = validate(config_from_dict(near))
    assert errors == []
    if exact is not None:
        counts = [note.split(": ", 1)[1] for note in notes]
        assert counts == [note.split(": ", 1)[1] for note in validate(config_from_dict(exact))[1]]


def test_admissible_piece_counts():
    def validated(*args, **params):
        return validate(config_from_dict(fine_qv(*args, **params)))

    assert validated("qv-time", t=1.0, x=0.0) == ([], [
        "admissible temporal piece counts at t=1.0, h=0.015625: [1, 2, 4, 8, 16, 32]"])
    # odd t/h, on a column of the same parity
    assert validated("qv-time", LATTICE_BLOCK, t=0.4375, x=0.0625) == ([
        "params.t: t=0.4375 must be a positive even multiple of h=0.0625"], [])
    assert validated("qv-space", t=0.5, x_lo=-1.0, x_hi=1.0) == ([], [
        "admissible spatial piece counts on [-1.0, 1.0]: [1, 2, 4, 8, 16, 32, 64]"])
    # an odd span puts one end off the parity of the other: its read refuses it
    assert validated("qv-space", LATTICE_BLOCK, t=0.5, x_lo=0.0, x_hi=0.4375) == ([
        "params.t, params.x_hi: (t, x)=(0.5, 0.4375) has odd parity "
        "(t/h + x/h must be even)"], [])


def test_divisors_pair_up_to_the_square_root():
    for k in range(1, 501):
        assert _divisors(k) == [d for d in range(1, k + 1) if k % d == 0]
    # a lattice LatticeSpec accepts, far past anything a linear scan could list
    finest = {"h": 2.0 ** -40, "t_max": 1.0, "x_lo": -2.0, "x_hi": 2.0}
    errors, notes = validate(config_from_dict(fine_qv("qv-time", finest, t=1.0, x=0.0)))
    assert errors == []
    assert notes[0].endswith(f": {[2 ** i for i in range(40)]}")


def test_temporal_alignment_rules():
    def errors(t, x):
        return validate(config_from_dict(
            qv_time_dict(params={"t": t, "x": x, "n_pieces": 1})))[0]

    assert errors(1.0, 0.0625) == [
        "params.t, params.x: (t, x)=(1.0, 0.0625) has odd parity (t/h + x/h must be even)"]
    assert errors(0.9375, 0.0625) == [
        "params.t: t=0.9375 must be a positive even multiple of h=0.0625"]
    assert errors(0.0, 0.0) == ["params.t: t=0.0 must be a positive even multiple of h=0.0625"]


def test_spatial_line_validation():
    def errors(t, x_lo, x_hi):
        return validate(config_from_dict({
            "kind": "qv-space", "sigma": "linear:1", "replicates": 4,
            "lattice": dict(LATTICE_BLOCK),
            "params": {"t": t, "x_lo": x_lo, "x_hi": x_hi, "n_pieces": 1}}))[0]

    assert errors(0.5, -1.0625, 1.0) == [
        "params.t, params.x_lo: (t, x)=(0.5, -1.0625) has odd parity (t/h + x/h must be even)"]
    beyond = errors(1.25, -0.5, 0.5)
    assert beyond and all("outside the simulated trapezoid" in e for e in beyond)
    assert errors(1.0, -1.5, 1.5) == [
        "params.t, params.x_lo: (t, x)=(1.0, -1.5) lies outside the simulated trapezoid",
        "params.t, params.x_hi: (t, x)=(1.0, 1.5) lies outside the simulated trapezoid"]
    assert errors(0.0, -0.5, 0.5) == [
        "params.t=0.0 must be >= h=0.0625: the estimators read the backward cone below t"]
    assert errors(0.5, 0.5, -0.5) == [
        "params.x_lo, params.x_hi: [0.5, -0.5] must span a positive even multiple of h=0.0625"]


def test_inadmissible_count_rejection_lists_divisors():
    cfg = config_from_dict(qv_time_dict(params={"t": 1.0, "x": 0.0, "n_pieces": 3}))
    assert validate(cfg)[0] == [
        "params.n_pieces value 3 is not admissible; choose one of [1, 2, 4, 8]"]
    cfg = config_from_dict({
        "kind": "qv-space", "sigma": "linear:1", "replicates": 4,
        "lattice": dict(LATTICE_BLOCK),
        "params": {"t": 1.0, "x_lo": -1.0, "x_hi": 1.0, "n_pieces": 48}})
    assert validate(cfg)[0] == [
        "params.n_pieces value 48 is not admissible; choose one of [1, 2, 4, 8, 16]"]


def test_mart_and_ladder_notes():
    base = {
        "kind": "mart", "sigma": "linear:1", "replicates": 50,
        "lattice": dict(LATTICE_BLOCK),
        "params": {"t": 0.5, "x": 0.0, "scales": [0.125, 0.25]},
    }
    errors, notes = validate(config_from_dict(base))
    assert errors == []
    assert notes == ["fitted exponents need >= 4 scales"]
    ladder = {
        "kind": "ladder", "sigma": "linear:1", "replicates": 50,
        "lattice": dict(LATTICE_BLOCK),
        "params": {"axis": "time", "t": 0.5, "x": 0.0, "counts": [2, 4]},
    }
    errors, notes = validate(config_from_dict(ladder))
    assert errors == []
    assert notes == [
        "fitted rates need >= 4 ladder points",
        "admissible temporal piece counts at t=0.5, h=0.0625: [1, 2, 4]",
    ]
    bad = dict(ladder, params=dict(ladder["params"], counts=[2, 3, 5]))
    errors, _ = validate(config_from_dict(bad))
    assert errors == ["params.counts values [3, 5] are not admissible; choose from [1, 2, 4]"]
    sideways = dict(ladder, params=dict(ladder["params"], axis="diag"))
    with pytest.raises(ConfigurationError, match="params.axis must be one of .* got 'diag'"):
        config_from_dict(sideways)
    no_x = dict(ladder, params={"t": 0.5, "counts": [2]})
    errors, _ = validate(config_from_dict(no_x))
    assert errors == ["a time-axis ladder needs params.x"]


def test_linearize_rules():
    wave = {
        "kind": "linearize", "sigma": "linear:1", "replicates": 8,
        "lattice": dict(LATTICE_BLOCK),
        "params": {"t": 0.5, "x": 0.0, "lags": [0.125, 0.25]},
    }
    assert validate(config_from_dict(wave)) == ([], [])
    short = dict(wave, params=dict(wave["params"], lags=[0.125]))
    errors, _ = validate(config_from_dict(short))
    assert errors == ["params.lags: linearize needs at least 2 lags to compare scales"]
    heat = {
        "kind": "linearize", "sigma": "linear:1", "replicates": 8,
        "equation": "heat",
        "heat_grid": {"dx": 0.125, "t_max": 0.0625, "circumference": 4.0},
        "params": {"t": 0.0625, "x": 0.0, "lags": [0.125, 0.25]},
    }
    assert validate(config_from_dict(heat)) == ([], [])
    wrap = dict(heat, params=dict(heat["params"], lags=[0.125, 4.0]))
    errors, _ = validate(config_from_dict(wrap))
    assert errors == ["params.lags value 4.0 exceeds circumference/2 = 2.0: "
                      "x + lag lies nearer x the other way round the circle"]
    # past the antipode x + lag lies nearer x the other way round; at the
    # antipode it lies as far both ways
    past = dict(heat, params=dict(heat["params"], lags=[0.125, 2.125]))
    errors, _ = validate(config_from_dict(past))
    assert errors == ["params.lags value 2.125 exceeds circumference/2 = 2.0: "
                      "x + lag lies nearer x the other way round the circle"]
    antipode = dict(heat, params=dict(heat["params"], lags=[0.125, 2.0]))
    assert validate(config_from_dict(antipode)) == ([], [])
    # the wrap rule looks at the lag alone: x + lag may pass the circumference
    edge = dict(heat, params=dict(heat["params"], x=3.875))
    assert validate(config_from_dict(edge)) == ([], [])
    behind = dict(heat, params=dict(heat["params"], x=-8.0, lags=[0.125, 5.0]))
    errors, _ = validate(config_from_dict(behind))
    assert errors == ["params.lags value 5.0 exceeds circumference/2 = 2.0: "
                      "x + lag lies nearer x the other way round the circle"]
    backwards = dict(heat, params=dict(heat["params"], lags=[-0.125, 0.0, 0.25]))
    errors, _ = validate(config_from_dict(backwards))
    assert errors == ["params.lags value -0.125 must be positive",
                      "params.lags value 0.0 must be positive"]
    off_grid = dict(heat, params=dict(heat["params"], lags=[0.1, 0.25]))
    errors, _ = validate(config_from_dict(off_grid))
    assert errors == ["params.lags value 0.1: x=0.1 is not a multiple of dx=0.125"]


def test_simulate_rules():
    cfg = config_from_dict({
        "kind": "simulate", "sigma": "sine:1", "replicates": 6,
        "lattice": dict(LATTICE_BLOCK),
        "params": {
            "probes": [[0.5, 0.0], [0.25, 0.75]],
            "temporal_lags": {"t": 0.25, "x": 0.0,
                              "lags": [0.125, 0.25, 0.375, 0.5]},
            "spatial_lags": {"t": 0.5, "x": 0.0,
                             "lags": [0.125, 0.25, 0.375]},
        },
    })
    errors, notes = validate(cfg)
    assert errors == []
    assert notes == ["spatial_lags: fitted slopes need >= 4 points, got 3"]
    bad = config_from_dict({
        "kind": "simulate", "sigma": "sine:1", "replicates": 6,
        "lattice": dict(LATTICE_BLOCK),
        "params": {"probes": [[0.5, 2.5]]},
    })
    errors, _ = validate(bad)
    assert len(errors) == 1 and "outside" in errors[0]


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.yaml")), ids=lambda p: p.stem)
def test_report_config_block_loads_back(path, tmp_path):
    cfg = load_config(str(path), overrides={"replicates": 2, "out_dir": str(tmp_path)})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConfigurationWarning)
        run_study(cfg)
    (report,) = tmp_path.glob("*_report.json")
    assert config_from_dict(json.loads(report.read_text())["config"]) == cfg


def test_report_config_block_loads_back_with_both_blocks_and_one_bound(tmp_path):
    raw = {
        "kind": "linearize", "sigma": "linear:1", "replicates": 2, "out_dir": str(tmp_path),
        "lattice": dict(LATTICE_BLOCK),
        "heat_grid": {"dx": 0.125, "t_max": 0.0625, "circumference": 4.0},
        "params": {"t": 0.5, "x": 0.0, "lags": [0.25, 0.125]},
        "thresholds": [{"stat": "ratio_min", "min": 0.0},
                       {"stat": "ratio_largest", "max": 10.0}],
    }
    cfg = config_from_dict(raw)
    run_study(cfg)
    (report,) = tmp_path.glob("*_report.json")
    echo = json.loads(report.read_text())["config"]
    assert config_from_dict(echo) == cfg
    assert echo["lattice"] == LATTICE_BLOCK
    assert echo["heat_grid"] == dict(raw["heat_grid"], dt=0.125 ** 2 / 4)
    assert echo["params"]["lags"] == [0.125, 0.25]
    assert echo["thresholds"] == [{"stat": "ratio_min", "min": 0.0, "max": None},
                                  {"stat": "ratio_largest", "min": None, "max": 10.0}]


def test_readme_params_table_names_what_each_kind_parses():
    """The table under `## Configs` lists, for each kind, its params table."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Configs\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("| ")]
    listed: dict[str, set] = {}
    kinds: list[str] = []
    for kind_cell, field_cell in rows[1:]:  # below the header row
        kinds = re.findall(r"`([^`]+)`", kind_cell) or kinds
        for kind in kinds:
            listed.setdefault(kind, set()).update(re.findall(r"`([^`]+)`", field_cell))
    assert listed == {kind: set(KINDS[kind].params) for kind in KINDS}


# keys the schema knows, by level, plus near misses and junk
TOP_KEYS = ["kind", "sigma", "replicates", "base_seed", "workers", "out_dir", "label",
            "equation", "lattice", "heat_grid", "params", "thresholds", "junk"]
PARAM_KEYS = ["t", "x", "x_lo", "x_hi", "n_pieces", "counts", "axis", "scales", "lags",
              "standardization", "probes", "temporal_lags", "spatial_lags", "snapshot",
              "standardisation"]
VOCABULARY = TOP_KEYS + PARAM_KEYS + [
    "h", "t_max", "dx", "circumference", "dt", "stat", "min", "max", "mx", 0, None,
]
TEXTS = list(KINDS) + [
    "wave", "heat", "time", "space", "trace", "shell", "linear:1", "constant:1",
    "sine:0.5", "affine:0,1", "linear:nan", "sine:inf", "affine:0:1", "u_mean", "",
]
NUMBERS = st.one_of(
    st.integers(-3, 70),
    st.sampled_from([0.0, 0.0625, 0.125, 0.25, 0.5, 1.0, 2.0, -0.5, -1.25,
                     math.nan, math.inf, -math.inf]),
)
SCALARS = st.one_of(st.none(), st.booleans(), NUMBERS, st.sampled_from(TEXTS))
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(VOCABULARY), inner, max_size=5),
    max_leaves=16,
)


def patches(keys):
    values = st.one_of(NUMBERS, st.lists(NUMBERS, min_size=1, max_size=4), VALUES)
    return st.dictionaries(st.sampled_from(keys), values, max_size=2)


VALID = [
    qv_time_dict(),
    {"kind": "ladder", "sigma": "linear:1", "replicates": 3, "lattice": LATTICE_BLOCK,
     "params": {"axis": "space", "t": 0.5, "x_lo": -0.5, "x_hi": 0.5, "counts": [2, 4]}},
    {"kind": "clt", "sigma": "constant:1", "replicates": 3, "lattice": LATTICE_BLOCK,
     "params": {"t": 0.5, "x": 0.0, "scales": [0.125, 0.25]}},
    {"kind": "linearize", "sigma": "linear:1", "replicates": 3, "equation": "heat",
     "heat_grid": {"dx": 0.125, "t_max": 0.0625, "circumference": 4.0},
     "params": {"t": 0.0625, "x": 0.0, "lags": [0.125, 0.25]}},
    {"kind": "simulate", "sigma": "sine:1", "replicates": 3, "lattice": LATTICE_BLOCK,
     "params": {"probes": [[0.5, 0.0]],
                "temporal_lags": {"t": 0.25, "x": 0.0, "lags": [0.125, 0.25]}}},
]
MAPPINGS = st.one_of(
    patches(VOCABULARY),
    st.builds(lambda base, top, params: {**base, **top,
                                         "params": {**base["params"], **params}},
              st.sampled_from(VALID), patches(TOP_KEYS), patches(PARAM_KEYS)),
    # well-typed numbers in a valid config's own params: reaches validate
    st.sampled_from(VALID).flatmap(lambda base: st.builds(
        lambda params: {**base, "params": {**base["params"], **params}},
        st.dictionaries(st.sampled_from(sorted(base["params"])),
                        st.one_of(NUMBERS, st.lists(NUMBERS, min_size=1, max_size=4)),
                        max_size=2))),
)


@settings(max_examples=400, deadline=None)
@given(raw=MAPPINGS)
def test_only_configuration_errors_escape(raw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConfigurationWarning)
        try:
            cfg = config_from_dict(raw)
        except ConfigurationError:
            return
        errors, notes = validate(cfg)
    assert all(isinstance(e, str) for e in errors + notes)
