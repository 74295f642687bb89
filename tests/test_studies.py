import json
import math
import warnings
from collections import Counter
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

import oracles
from swelab import fluctuations, lattice, quadvar, studies
from swelab.config import KINDS, config_from_dict, load_config, validate
from swelab.errors import ConfigurationError, ConfigurationWarning
from swelab.heat import solve_coupled_heat_linearization
from swelab.lattice import spatial_shell_area
from swelab.noise import HEAT_STREAM_TAG, stream_words, words_to_unit_normals
from swelab.sigma import CONSTANT_ONE
from swelab.stats import ks_critical_value
from swelab.studies import plan_study, run_study
from swelab.wave import cone_boundary_trace, field_at

LATTICE_BLOCK = {"h": 0.0625, "t_max": 1.0, "x_lo": -2.0, "x_hi": 2.0}


def make_cfg(kind: str, params: dict, **kw) -> dict:
    d = {
        "kind": kind,
        "sigma": "linear:1",
        "replicates": 20,
        "lattice": dict(LATTICE_BLOCK),
        "params": params,
    }
    d.update(kw)
    return d


def test_qv_time_study_reports_exact_constant_mean():
    cfg = config_from_dict(make_cfg(
        "qv-time", {"t": 0.5, "x": 0.0, "n_pieces": 4},
        sigma="constant:0.5", replicates=30,
    ))
    out = run_study(cfg)
    stats = out.report["stats"]
    for name in ("u_mean", "u_se", "u_sq_mean", "qv_mean", "qv_se",
                 "cone_integral_mean", "limit_mean", "limit_gap_mean",
                 "limit_gap_se", "qv_vs_limit_sigmas"):
        assert name in stats, name
    assert stats["exact_mean"] == 0.25 * 0.25
    assert math.isfinite(stats["qv_vs_exact_sigmas"])
    assert stats["limit_gap_mean"] == pytest.approx(
        stats["qv_mean"] - stats["limit_mean"], abs=1e-14)
    assert out.ensemble.n == 30
    assert out.report["notes"] == [
        "admissible temporal piece counts at t=0.5, h=0.0625: [1, 2, 4]",
    ]
    # constant sigma: every replicate hits the deterministic limit c^2 t^2
    assert np.allclose(out.ensemble.column("limit"), 0.0625, rtol=1e-12)


def test_qv_space_study_exact_mean_formula():
    cfg = config_from_dict(make_cfg(
        "qv-space", {"t": 0.5, "x_lo": -0.5, "x_hi": 0.5, "n_pieces": 8},
        sigma="constant:0.7",
    ))
    out = run_study(cfg)
    stats = out.report["stats"]
    want = 0.49 * 8 * 2.0 * spatial_shell_area(0.5, 0.125)
    assert stats["exact_mean"] == pytest.approx(want, rel=1e-12)
    assert stats["limit_per_unit"] == pytest.approx(stats["limit_mean"], rel=1e-12)
    assert stats["naive_per_unit"] == pytest.approx(stats["naive_mean"], rel=1e-12)
    assert stats["qv_over_naive"] == pytest.approx(
        stats["qv_mean"] / stats["naive_mean"], rel=1e-12)
    assert 0.0 < stats["qv_over_naive"] < 1.0


def test_worker_count_does_not_change_any_reported_number():
    params = {"t": 0.5, "x": 0.0, "n_pieces": 4}
    one = run_study(config_from_dict(make_cfg("qv-time", params, workers=1)))
    two = run_study(config_from_dict(make_cfg("qv-time", params, workers=2)))
    assert one.ensemble.rows.tobytes() == two.ensemble.rows.tobytes()
    # workers is recorded in the config block, so compare stats not whole report
    assert one.report["stats"] == two.report["stats"]


def test_ladder_study_long_format_series_and_warning():
    cfg = config_from_dict(make_cfg(
        "ladder", {"axis": "time", "t": 0.5, "x": 0.0, "counts": [1, 2, 4]},
        replicates=25,
    ))
    with pytest.warns(ConfigurationWarning, match="rate fits will be noisy"):
        out = run_study(cfg)
    stats = out.report["stats"]
    # 3 ladder points: no fitted rates, but monotonicity counters still present
    assert "rate_l2" not in stats
    assert "lp2_inversions" in stats and "lp4_inversions" in stats
    assert stats["lyapunov_min_ratio"] >= 1.0
    columns, rows = out.series["ladder"]
    assert columns == ("n_pieces", "p", "statistic", "value")
    assert len(rows) == 3 * 5
    assert {r[2] for r in rows} == {
        "limit_gap_moment", "direct_vs_frozen_noise_rms",
        "frozen_area_vs_cone_rms", "frozen_noise_vs_area_msq",
    }
    assert out.report["warnings"] == [
        "25 replicates: rate fits will be noisy, 100+ recommended",
    ]


def test_ladder_space_axis():
    cfg = config_from_dict(make_cfg(
        "ladder",
        {"axis": "space", "t": 0.5, "x_lo": -0.5, "x_hi": 0.5,
         "counts": [2, 4, 8]},
        replicates=15,
    ))
    with pytest.warns(ConfigurationWarning):
        out = run_study(cfg)
    stats = out.report["stats"]
    assert "lp2_inversions" in stats
    columns, rows = out.series["ladder"]
    assert len(rows) == 3 * 4
    assert {r[2] for r in rows} == {"limit_gap_moment", "qv_mean",
                                    "naive_gap_mean", "naive_gap_sigmas"}


def test_clt_study_scales_run_large_to_small():
    cfg = config_from_dict(make_cfg(
        "clt", {"t": 0.5, "x": 0.0, "scales": [0.125, 0.25]},
        sigma="constant:1", replicates=60,
    ))
    with pytest.warns(ConfigurationWarning, match="KS power too low"):
        out = run_study(cfg)
    stats = out.report["stats"]
    assert stats["ks_critical"] == ks_critical_value(60)
    assert stats["ks_final"] == stats["ks_1"]
    assert stats["vhat_mean"] == pytest.approx(1.0, rel=1e-12)
    columns, rows = out.series["ks"]
    assert columns == ("scale", "ks", "n", "critical_5pct")
    assert [r[0] for r in rows] == [0.25, 0.125]


@pytest.mark.parametrize("standardization, sigma", [("trace", "linear:1"),
                                                    ("shell", "constant:0.5")])
def test_clt_study_rows_equal_the_pointwise_oracle(standardization, sigma):
    scales = [0.125, 0.25, 0.375]
    t, x = 0.5, 0.125
    cfg = config_from_dict(make_cfg(
        "clt", {"t": t, "x": x, "scales": scales, "standardization": standardization},
        sigma=sigma, replicates=6, base_seed=3,
    ))
    with pytest.warns(ConfigurationWarning, match="KS power too low"):
        ens = run_study(cfg).ensemble
    descending = sorted(scales, reverse=True)
    assert ens.columns == ("std_0", "inc_0", "vhat", "std_1", "inc_1", "std_2", "inc_2")
    lat = cfg.lattice
    y, trace = cone_boundary_trace(lat, *lat.apex(t, x))
    for i, row in enumerate(ens.rows):
        fld, _ = oracles.solved(cfg.sigma, ens.base_seed + i, lat)
        sv = fld.sigma(fld.values[trace])
        vhat = float(np.trapezoid(sv * sv, y))
        want = {"vhat": vhat}
        for k, s in enumerate(descending):
            inc = field_at(fld, t + s, x) - field_at(fld, t, x)
            var = (cfg.sigma.scalar(1.0) ** 2 * lattice.temporal_shell_area(t, t + s)
                   if standardization == "shell" else s * vhat)
            want[f"inc_{k}"], want[f"std_{k}"] = inc, inc / math.sqrt(var)
        assert dict(zip(ens.columns, row.tolist())) == want


def test_lil_study_quartiles_are_ordered():
    cfg = config_from_dict({
        "kind": "lil",
        "sigma": "constant:1",
        "replicates": 25,
        "lattice": {"h": 2 ** -7, "t_max": 0.625, "x_lo": -1.25, "x_hi": 1.25},
        "params": {"t": 0.5, "x": 0.0, "scales": [2 ** -6, 2 ** -5, 2 ** -4]},
    })
    out = run_study(cfg)
    stats = out.report["stats"]
    assert stats["q1"] <= stats["median"] <= stats["q3"]
    assert stats["median"] > 0
    columns, rows = out.series["scales"]
    assert columns == ("scale", "median", "q1", "q3")
    assert [r[0] for r in rows] == [2 ** -6, 2 ** -5, 2 ** -4]


def test_mart_study_unit_sigma_identities():
    cfg = config_from_dict(make_cfg(
        "mart", {"t": 0.5, "x": 0.0, "scales": [0.125, 0.25]},
        sigma="constant:1", replicates=25,
    ))
    out = run_study(cfg)
    stats = out.report["stats"]
    assert stats["vhat_mean"] == pytest.approx(1.0, rel=1e-12)
    assert "m_exponent" not in stats  # only 2 scales
    assert stats["qv_law_ratio_final"] > 0
    columns, rows = out.series["scales"]
    assert columns == ("scale", "m_rms", "r_rms", "m_mean", "m_mean_se",
                       "qv_law_ratio")
    assert len(rows) == 2


def test_linearize_wave_constant_sigma_has_zero_defect_ratio():
    cfg = config_from_dict(make_cfg(
        "linearize", {"t": 0.5, "x": 0.0, "lags": [0.125, 0.25]},
        sigma="constant:0.5", replicates=10,
    ))
    out = run_study(cfg)
    stats = out.report["stats"]
    assert stats["ratio_min"] == pytest.approx(0.0, abs=1e-10)
    assert stats["ratio_smallest"] == pytest.approx(0.0, abs=1e-10)


def test_linearize_heat_study_runs():
    cfg = config_from_dict({
        "kind": "linearize",
        "sigma": "linear:1",
        "replicates": 10,
        "equation": "heat",
        "heat_grid": {"dx": 0.125, "t_max": 0.0625, "circumference": 4.0},
        "params": {"t": 0.0625, "x": 0.0, "lags": [0.125, 0.25]},
    })
    out = run_study(cfg)
    stats = out.report["stats"]
    assert stats["ratio_smallest"] > 0
    assert stats["ratio_largest"] > 0
    columns, rows = out.series["scales"]
    assert columns == ("scale", "increment_norm", "defect_norm", "ratio")
    assert len(rows) == 2


def test_simulate_study_with_snapshots(tmp_path):
    cfg = config_from_dict(make_cfg(
        "simulate",
        {
            "probes": [[0.5, 0.0]],
            "temporal_lags": {"t": 0.25, "x": 0.0,
                              "lags": [0.125, 0.25, 0.375, 0.5]},
            "snapshot": True,
        },
        sigma="sine:1", replicates=10, out_dir=str(tmp_path), label="smoke",
    ))
    out = run_study(cfg)
    stats = out.report["stats"]
    assert "probe0_mean" in stats and "probe0_sq_se" in stats
    assert "dt0_msq" in stats and "dt3_msq" in stats
    assert "temporal_sq_slope" in stats
    names = {p.name for p in out.files}
    assert names == {
        "smoke_replicates.csv", "smoke_dt_lags.csv", "smoke_field.bin",
        "smoke_field.csv", "smoke_noise.bin", "smoke_report.json",
    }
    report = json.loads((tmp_path / "smoke_report.json").read_text())
    assert report["stats"].keys() == stats.keys()
    body = (tmp_path / "smoke_replicates.csv").read_text()
    assert body.startswith("replicate,seed,")
    assert len(body.splitlines()) == 11


def test_threshold_on_missing_stat_fails_loudly():
    cfg = config_from_dict(make_cfg(
        "ladder", {"axis": "time", "t": 0.5, "x": 0.0, "counts": [1, 2, 4]},
        replicates=100,
        thresholds=[{"stat": "rate_l2", "min": -0.65, "max": -0.35}],
    ))
    # three counts are too few for a slope fit, so rate_l2 is never reported:
    # validate refuses the threshold before any replicate runs
    errors, _ = validate(cfg)
    assert len(errors) == 1
    head, reported = errors[0].split("; it reports ")
    assert head == "thresholds[0].stat: kind 'ladder' reports no stat 'rate_l2'"
    assert reported.startswith("['") and "rate_l2" not in reported
    with pytest.raises(ConfigurationError, match=r"invalid config:\n  - thresholds\[0\]"):
        run_study(cfg)


def test_a_slope_that_cannot_be_fitted_is_refused_after_the_run():
    # at 8 pieces of t = 1 on h = 1/16 each piece is one cell pair, where the
    # frozen area equals the cone integral: rms_cd is 0 and has no log
    cfg = config_from_dict(make_cfg(
        "ladder", {"axis": "time", "t": 1.0, "x": 0.0, "counts": [1, 2, 4, 8]},
        replicates=4, thresholds=[{"stat": "slope_rms_cd", "max": 0.0}],
    ))
    assert validate(cfg) == ([], ["admissible temporal piece counts at t=1.0, h=0.0625: "
                                  "[1, 2, 4, 8]"])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConfigurationWarning)
        with pytest.raises(ConfigurationError, match="the slope 'slope_rms_cd' could not "
                                                     "be fitted"):
            run_study(cfg)


def test_run_study_rejects_invalid_config():
    cfg = config_from_dict(make_cfg("qv-time", {"t": 0.5, "x": 0.0, "n_pieces": 5}))
    with pytest.raises(ConfigurationError, match="invalid config"):
        run_study(cfg)


def test_thresholds_drive_the_passed_flag():
    cfg = config_from_dict(make_cfg(
        "qv-time", {"t": 0.5, "x": 0.0, "n_pieces": 4},
        sigma="constant:1",
        thresholds=[{"stat": "qv_vs_exact_sigmas", "max": 10.0}],
    ))
    out = run_study(cfg)
    assert out.report["passed"] is True
    assert out.report["checks"][0]["stat"] == "qv_vs_exact_sigmas"


PLANNED = {
    "ladder": {"axis": "time", "t": 1.0, "x": 0.0, "counts": [2, 4]},
    "qv-space": {"t": 0.5, "x_lo": -0.5, "x_hi": 0.5, "n_pieces": 4},
    "mart": {"t": 0.5, "x": 0.0, "scales": [0.125, 0.25]},
}


def _plan_arrays(geometry) -> list[np.ndarray]:
    out = []
    for f in fields(geometry):
        value = getattr(geometry, f.name)
        items = value if isinstance(value, tuple) else (value,)
        for item in items:
            if isinstance(item, np.ndarray):
                out.append(item)
            elif isinstance(item, tuple):  # the martingale shells
                out += [a for a in item if isinstance(a, np.ndarray)]
            elif hasattr(item, "__dataclass_fields__"):  # temporal rungs
                out += _plan_arrays(item)
    return out


SHIPPED = sorted((Path(__file__).resolve().parent.parent / "configs" / "acceptance")
                 .glob("*.yaml"))


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_plan_index_arrays_are_read_only_intp(path):
    plan = plan_study(load_config(str(path)))
    arrays = [plan.points]
    if plan.words is not None:
        arrays.append(plan.words)
    if plan.geometry is not None:
        arrays += _plan_arrays(plan.geometry)
    assert plan.points.dtype == np.intp
    for arr in arrays:
        assert not arr.flags.writeable
        # every index array gathers as intp; the float arrays are the
        # coordinates and weights
        assert arr.dtype == np.intp or arr.dtype.kind == "f"


@pytest.mark.parametrize("cfg", [
    *(load_config(str(path), {"replicates": 4}) for path in SHIPPED),
    config_from_dict(make_cfg("ladder", {"axis": "time", "t": 1.0, "x": 0.0,
                                         "counts": [1, 2, 4, 8]}, replicates=4,
                              lattice=dict(LATTICE_BLOCK, h=0.03125))),
    config_from_dict(make_cfg("ladder", {"axis": "time", "t": 0.5, "x": 0.0,
                                         "counts": [1, 2, 4]}, replicates=4)),
    config_from_dict(make_cfg("ladder", {"axis": "space", "t": 0.5, "x_lo": -0.5,
                                         "x_hi": 0.5, "counts": [1, 2, 4, 8]}, replicates=4)),
], ids=[*(p.stem for p in SHIPPED), "time_ladder", "short_time_ladder", "space_ladder"])
def test_each_kind_lists_the_stats_its_aggregator_reports(cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConfigurationWarning)
        out = run_study(replace(cfg, out_dir=None))
    assert list(out.report["stats"]) == KINDS[cfg.kind].stats(cfg)


def _count_enumerations(monkeypatch) -> Counter:
    """Count cone_segments and shell_segments calls, wherever they are imported."""
    calls = Counter()
    for name in ("cone_segments", "shell_segments"):
        original = getattr(lattice, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in (lattice, quadvar, fluctuations):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("kind", sorted(PLANNED))
def test_plan_is_built_once_per_study_and_read_only(kind, monkeypatch):
    cfg = config_from_dict(make_cfg(kind, PLANNED[kind]))
    wide = config_from_dict(make_cfg(
        kind, PLANNED[kind], lattice=dict(LATTICE_BLOCK, x_lo=-2.5, x_hi=2.5)))
    shifted = config_from_dict(make_cfg(kind, {
        k: v + 0.125 if k in ("x", "x_lo", "x_hi") else v for k, v in PLANNED[kind].items()}))
    plan = plan_study(cfg)
    arrays = _plan_arrays(plan.geometry)
    assert len(arrays) >= 5
    for arr in arrays + [plan.words, plan.points]:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 0
    # offsets index the solve trapezoid, which a wider base leaves as it is and
    # a shifted apex moves along: the index arrays are shared by design, and
    # only the words the trapezoid draws follow the configured lattice
    for other in (wide, shifted):
        moved = plan_study(other)
        assert moved.domain.n_levels == plan.domain.n_levels
        assert moved.domain.width(0) == plan.domain.width(0)
        assert np.array_equal(moved.points, plan.points)
        for a, b in zip(arrays, _plan_arrays(moved.geometry), strict=True):
            if other is wide or a.dtype == np.intp:  # coordinates move with the apex
                assert np.array_equal(a, b)
        assert not np.array_equal(moved.words, plan.words)
    # the geometry is enumerated once per study, however many blocks run
    calls = _count_enumerations(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConfigurationWarning)
        run_study(config_from_dict(make_cfg(kind, PLANNED[kind], replicates=37)))
        many = dict(calls)
        calls.clear()
        run_study(config_from_dict(make_cfg(kind, PLANNED[kind], replicates=2)))
    assert many == dict(calls)
    if kind != "qv-space":  # the spatial estimators read no cells
        assert sum(many.values()) >= 1


def test_wide_lattice_plan_matches_the_raw_enumeration():
    cfg = config_from_dict(make_cfg(
        "qv-time", {"t": 1.0, "x": 0.0, "n_pieces": 4},
        lattice=dict(LATTICE_BLOCK, x_lo=-2.5, x_hi=2.5)))
    plan = plan_study(cfg)
    fld, noise = oracles.solved(cfg.sigma, 3, plan.domain, plan.words)
    dec = quadvar.temporal_qv_decomposition(fld, noise, plan.geometry)
    # the oracle enumerates the configured lattice, solved in full
    lat = cfg.lattice
    full, full_noise = oracles.solved(cfg.sigma, 3, lat)
    assert asdict(dec) == oracles.cone_decomposition(
        full, full_noise, lambda u: u, 16, 0, lat.h, 4)


# -- the solve trapezoid -------------------------------------------------------

# read sets: points at several levels, and a base wider than the reads
TRAPEZOID_READS = {
    "levels": ("simulate", {
        "probes": [[0.5, -0.25], [1.0, 0.0]],
        "temporal_lags": {"t": 0.5, "x": 0.5, "lags": [0.125, 0.25]},
        "spatial_lags": {"t": 0.75, "x": -0.5, "lags": [0.125, 0.5]},
    }, LATTICE_BLOCK),
    "wide": ("qv-space", {"t": 0.5, "x_lo": -0.5, "x_hi": 0.25, "n_pieces": 6},
             dict(LATTICE_BLOCK, x_lo=-2.5, x_hi=2.5)),
}


@pytest.mark.parametrize("sigma", ["linear:1", "sine:1", "constant:1"])
@pytest.mark.parametrize("reads", sorted(TRAPEZOID_READS))
def test_solve_trapezoid_equals_the_full_solve(reads, sigma):
    kind, params, block = TRAPEZOID_READS[reads]
    cfg = config_from_dict(make_cfg(kind, params, sigma=sigma, lattice=block))
    plan = plan_study(cfg)
    lat, sub = cfg.lattice, plan.domain
    assert sub.total_cells < lat.total_cells
    # column offset of the trapezoid's base in the configured rows
    shift = (sub.col_lo - lat.col_lo) // 2
    for seed in (0, 7):
        full, full_noise = oracles.solved(cfg.sigma, seed, lat)
        fld, noise = oracles.solved(cfg.sigma, seed, sub, plan.words)
        assert np.array_equal(noise, full_noise[plan.words])
        for n in range(sub.n_levels + 1):
            w = sub.width(n)
            assert np.array_equal(fld.level(n), full.level(n)[shift:shift + w])


SEED_BLOCK = list(range(5, 9))
KIND_CONFIGS = {
    "simulate": make_cfg("simulate", TRAPEZOID_READS["levels"][1]),
    "qv-time": make_cfg("qv-time", {"t": 0.5, "x": 0.25, "n_pieces": 2}),
    "qv-space": make_cfg("qv-space", {"t": 0.5, "x_lo": -0.5, "x_hi": 0.5, "n_pieces": 4}),
    "ladder-time": make_cfg("ladder", {"axis": "time", "t": 1.0, "x": 0.0, "counts": [2, 4]}),
    "ladder-space": make_cfg("ladder", {"axis": "space", "t": 0.5, "x_lo": -0.5,
                                        "x_hi": 0.5, "counts": [2, 4]}),
    "clt": make_cfg("clt", {"t": 0.5, "x": 0.0, "scales": [0.125, 0.25]}),
    "lil": make_cfg("lil", {"t": 0.5, "x": 0.0, "scales": [0.125]}, sigma="sine:1"),
    "mart": make_cfg("mart", {"t": 0.5, "x": 0.0, "scales": [0.125, 0.25]}),
    "linearize-wave": make_cfg("linearize", {"t": 0.5, "x": 0.0, "lags": [0.125, 0.25]},
                               sigma="sine:1"),
    "linearize-heat": {
        "kind": "linearize", "sigma": "linear:1", "replicates": 2, "equation": "heat",
        "heat_grid": {"dx": 0.125, "t_max": 0.0625, "circumference": 4.0},
        "params": {"t": 0.0625, "x": 0.0, "lags": [0.125, 0.25]},
    },
}


@pytest.mark.parametrize("name", sorted(KIND_CONFIGS))
def test_plan_rows_equal_the_full_trapezoid_rows(name, monkeypatch):
    cfg = config_from_dict(KIND_CONFIGS[name])
    rep, _ = studies.STUDY_RUNNERS[cfg.kind]
    plan = plan_study(cfg)
    rows = rep(SEED_BLOCK, plan)
    monkeypatch.setattr(studies, "_solve_trapezoid", lambda lat, apexes: (lat, None))
    full = plan_study(cfg)
    if cfg.equation == "wave":
        assert full.domain == cfg.lattice and full.words is None
        assert plan.domain.total_cells < cfg.lattice.total_cells
    assert rows == rep(SEED_BLOCK, full)


# -- the heat plan -------------------------------------------------------------


def test_the_heat_plan_marches_the_grid_cut_at_the_probe_step():
    path = next(p for p in SHIPPED if p.stem == "linearize_heat")
    g = load_config(str(path)).heat_grid
    cfg = load_config(str(path), overrides={"params": {"t": 700 * g.dt}})
    plan = plan_study(cfg)
    assert plan.domain.n_steps == 700  # of the configured 1024
    assert (plan.domain.dx, plan.domain.dt, plan.domain.circumference) == (
        g.dx, g.dt, g.circumference)
    assert plan.geometry is None
    seeds = [3, 4]
    rep, _ = studies.STUDY_RUNNERS["linearize"]
    for seed, got, field, linear in zip(
            seeds, rep(seeds, plan),
            *solve_coupled_heat_linearization(cfg.sigma, seeds, plan.domain)):
        z = words_to_unit_normals(
            stream_words(seed, HEAT_STREAM_TAG, 0, 700 * g.n_sites)).reshape(700, g.n_sites)
        want = [oracles.heat_march(sigma, g.dx, g.dt, 700, z)[700]
                for sigma in (cfg.sigma, CONSTANT_ONE)]
        assert np.array_equal(field, want[0]) and np.array_equal(linear, want[1])
        # the study's row reads those two rows at the plan's sites
        rows = oracles.defect_row(
            cfg.sigma, lambda t, x: oracles.heat_at(want[0], plan.domain, t, x),
            lambda t, x: oracles.heat_at(want[1], plan.domain, t, x),
            cfg.params["t"], cfg.params["x"], sorted(cfg.params["lags"]))
        assert [got[f"{name}_{i}"] for i in range(len(rows))
                for name in ("du", "dl", "defect")] == [v for row in rows for v in row]


def test_a_small_heat_circle_warns_once_at_run_and_never_at_load():
    raw = dict(KIND_CONFIGS["linearize-heat"],
               heat_grid={"dx": 0.125, "t_max": 0.0625, "circumference": 2.0},
               params={"t": 0.03125, "x": 0.0, "lags": [0.125, 0.25]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cfg = config_from_dict(raw)
        # the plan cuts a grid at step 8 of 16, and stays silent too
        assert plan_study(cfg).domain.n_steps == 8
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = run_study(cfg)
    assert [w.category for w in caught] == [ConfigurationWarning]
    assert out.report["warnings"] == [str(caught[0].message)]
    assert out.report["warnings"][0].startswith("heat_grid.circumference 2.0 below")
    assert out.ensemble.n == 2
    # a wave run never reads the heat grid it carries, so it does not warn
    wave = config_from_dict(dict(raw, equation="wave", lattice=dict(LATTICE_BLOCK),
                                 params={"t": 0.5, "x": 0.0, "lags": [0.125, 0.25]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_study(wave).report["warnings"] == []


# configs whose list is in read order: clt reads its scales from the coarsest
# down, every other ladder upwards
READ_ORDER = {
    "clt": (make_cfg("clt", {"t": 0.5, "x": 0.0, "scales": [0.375, 0.25, 0.125]}), "scales"),
    "lil": (make_cfg("lil", {"t": 0.5, "x": 0.0, "scales": [0.015625, 0.03125, 0.0625]},
                     lattice={"h": 0.0078125, "t_max": 1.0, "x_lo": -1.0, "x_hi": 1.0}),
            "scales"),
    "linearize": (make_cfg("linearize", {"t": 0.5, "x": 0.0, "lags": [0.125, 0.25, 0.5]}),
                  "lags"),
}


@pytest.mark.parametrize("kind", sorted(READ_ORDER))
def test_a_list_written_backwards_runs_and_echoes_in_read_order(kind, tmp_path):
    raw, key = READ_ORDER[kind]
    order = raw["params"][key]
    written = {}
    for name, values in (("read", order), ("backwards", order[::-1])):
        # one out_dir, read before the next run writes over it: both echo it
        cfg = config_from_dict(dict(raw, out_dir=str(tmp_path),
                                    params={**raw["params"], key: values}))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConfigurationWarning)  # few clt replicates
            files = run_study(cfg).files
        written[name] = {p.name: p.read_bytes() for p in files}
        echo = json.loads(written[name]["study_report.json"])["config"]["params"]
        assert echo[key] == order
    assert written["backwards"] == written["read"]
