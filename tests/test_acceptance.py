"""Acceptance suite: every shipped criterion, one pass/fail line each.

Each test prints `[acceptance] <label>: PASS|FAIL` and then asserts. The
numeric thresholds live in configs/acceptance/*.yaml, not here; this module
only runs those configs, checks their declared thresholds, and adds the two
controls that need an independent oracle (Brownian motion for the
iterated-logarithm probe, the exact-Gaussian replicate sets for the KS test).

Runtime is a few minutes: the anchor studies are 10^4 replicates each by
design. Everything is seeded, so reruns reproduce these numbers bit for bit.
"""
from pathlib import Path

import numpy as np
import pytest

import swelab.ensemble as ensemble
from oracles import brownian_lil_statistics, segment_sum, solved
from swelab.config import config_from_dict, load_config
from swelab.lattice import LatticeSpec, cone_segments
from swelab.sigma import CONSTANT_ONE
from swelab.studies import run_study

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs" / "acceptance"

_RUNS: dict = {}


def study(name):
    if name not in _RUNS:
        # two worker processes: replicate bytes do not depend on the count
        _RUNS[name] = run_study(load_config(str(CONFIG_DIR / f"{name}.yaml"),
                                            overrides={"workers": 2}))
    return _RUNS[name]


def checks_by_stat(out) -> dict:
    return {c["stat"]: c for c in out.report["checks"]}


def announce(label: str, ok: bool, detail: str = "") -> bool:
    line = f"[acceptance] {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    return ok


def require_checks(label: str, out, stats: list[str]) -> None:
    by = checks_by_stat(out)
    bad = [s for s in stats if not by[s]["passed"]]
    detail = ", ".join(
        f"{s}={by[s]['value']:.6g}" for s in stats
    )
    ok = announce(label, not bad, detail)
    assert ok, f"failed thresholds: " + ", ".join(
        f"{s}={by[s]['value']:.6g} not in [{by[s]['min']}, {by[s]['max']}]"
        for s in bad
    )


def test_01_scheme_exactness_every_point_100_seeds():
    lat = LatticeSpec(h=0.0625, t_max=1.0, x_lo=-2.0, x_hi=2.0)
    worst = 0.0
    for seed in range(100):
        fld, noise = solved(CONSTANT_ONE, seed, lat)
        scale = max(1.0, float(np.max(np.abs(fld.values))))
        for n in range(1, lat.n_levels + 1):
            row = fld.level(n)
            for j, m in enumerate(range(lat.col_lo + n, lat.col_hi - n + 1, 2)):
                resid = abs(
                    (row[j] - 1.0) - segment_sum(noise, lat, cone_segments(lat, n, m))
                )
                worst = max(worst, resid / scale)
    ok = announce("01 scheme exactness (unit sigma, all points, 100 seeds)",
                  worst < 1e-12, f"worst residual {worst:.3e}")
    assert ok


def test_02_temporal_qv_unit_sigma():
    out = study("temporal_qv_unit")
    require_checks("02 temporal QV mean = t^2 (unit sigma)",
                   out, ["qv_vs_exact_sigmas", "limit_mean"])


def test_03_spatial_qv_unit_sigma():
    n32 = study("spatial_qv_unit_n32")
    n64 = study("spatial_qv_unit_n64")
    require_checks("03a spatial QV vs exact shell sum (32 pieces)",
                   n32, ["qv_vs_exact_sigmas"])
    require_checks("03b spatial QV vs continuum 2t per unit (64 pieces)",
                   n64, ["qv_mean", "limit_mean"])


def test_04_moment_anchors_multiplicative():
    tm = study("anchors_temporal")
    sp = study("anchors_spatial")
    require_checks("04a temporal anchors within 5% of the moment ODE",
                   tm, ["u_sq_mean", "limit_mean"])
    require_checks("04b spatial anchors within 5% of the moment ODE",
                   sp, ["limit_per_unit", "naive_per_unit"])


def test_05_naive_prediction_refuted():
    out = study("naive_refutation")
    require_checks(
        "05 QV rejects the naive 2t prediction, matches the limit",
        out, ["qv_vs_naive_sigmas", "qv_vs_limit_sigmas", "qv_over_naive"],
    )


def test_06_refinement_rate_and_middle_gap():
    out = study("rate_ladder")
    require_checks("06 refinement rate in the N^(-1/2)-bound window",
                   out, ["rate_l2", "slope_msq_bc"])


@pytest.mark.xfail(
    strict=True,
    reason="the two internal ladder gaps decay at the lattice-exact order "
    "N^-1 (measured slopes -1.21 and -1.23 at the shipped seed), i.e. "
    "strictly faster than the declared [-0.65, -0.35] window; the window "
    "brackets an upper bound that these gaps never saturate. See the "
    "refinement-ladder unit test for the monotone-decay property that does "
    "hold, and the rate_ladder config for the measured values.",
)
def test_06_internal_gaps_inside_declared_window():
    out = study("rate_ladder")
    by = checks_by_stat(out)
    announce("06x internal ladder gaps inside the declared window",
             by["slope_rms_ab"]["passed"] and by["slope_rms_cd"]["passed"],
             f"slope_rms_ab={by['slope_rms_ab']['value']:.4g}, "
             f"slope_rms_cd={by['slope_rms_cd']['value']:.4g}")
    assert by["slope_rms_ab"]["passed"], "slope_rms_ab outside window"
    assert by["slope_rms_cd"]["passed"], "slope_rms_cd outside window"


def test_07_clt_multiplicative_and_gaussian_control():
    out = study("clt_multiplicative")
    require_checks("07a KS distance at scale 8h below 0.05", out, ["ks_final"])
    passes = 0
    for k in range(20):
        ctrl = run_study(config_from_dict({
            "kind": "clt", "sigma": "constant:1", "replicates": 500,
            "base_seed": 1_000_000 * k,
            "lattice": {"h": 2 ** -6, "t_max": 0.625,
                        "x_lo": -1.25, "x_hi": 1.25},
            "params": {"t": 0.5, "x": 0.0, "scales": [0.125],
                       "standardization": "shell"},
        }))
        s = ctrl.report["stats"]
        passes += s["ks_final"] <= s["ks_critical"]
    ok = announce("07b exact-Gaussian control passes KS in >= 18/20 studies",
                  passes >= 18, f"{passes}/20")
    assert ok


def test_08_martingale_remainder_split():
    out = study("martingale_split")
    require_checks(
        "08 martingale/remainder exponents separate",
        out, ["m_exponent", "r_exponent", "exponent_gap",
              "qv_law_ratio_final", "m_mean_max_sigmas"],
    )


def test_09_lil_median_inside_brownian_iqr():
    out = study("lil_unit")
    require_checks("09a ensemble median inside the frozen control IQR",
                   out, ["median"])
    scales = [float(s) for s in
              load_config(str(CONFIG_DIR / "lil_unit.yaml")).params["scales"]]
    fresh = brownian_lil_statistics(scales, 4000, rng_seed=777)
    q1, q3 = np.percentile(fresh, [25, 75])
    med = out.report["stats"]["median"]
    ok = announce("09b ensemble median inside a fresh control IQR",
                  q1 <= med <= q3,
                  f"median={med:.4f}, fresh IQR=[{q1:.4f}, {q3:.4f}]")
    assert ok


def test_10_linearization_contrast():
    wave = study("linearize_wave")
    heat = study("linearize_heat")
    require_checks(
        "10a wave defect ratio persists",
        wave, ["ratio_slope", "ratio_min", "ratio_smallest",
               "ratio_smallest_over_largest"],
    )
    require_checks("10b heat defect ratio decays",
                   heat, ["ratio_slope", "ratio_smallest_over_largest"])
    w = wave.report["stats"]
    h = heat.report["stats"]
    ok = announce(
        "10c contrast: heat halves, wave does not",
        h["ratio_smallest_over_largest"] < 0.5
        < w["ratio_smallest_over_largest"] and w["ratio_smallest"] > 0.2,
        f"heat drop {h['ratio_smallest_over_largest']:.3f}, "
        f"wave drop {w['ratio_smallest_over_largest']:.3f}",
    )
    assert ok


def test_10_linearization_sine_variant():
    out = study("linearize_wave_sine")
    require_checks("10d bounded-coefficient wave defect also persists",
                   out, ["ratio_min", "ratio_smallest_over_largest"])


def test_11_holder_exponents():
    out = study("holder_slopes")
    require_checks("11 squared-increment slopes near 1 in lag",
                   out, ["temporal_sq_slope", "spatial_sq_slope"])


@pytest.mark.filterwarnings("ignore:37 replicates")  # few replicates by design
def test_12_byte_identical_csv_any_worker_count(tmp_path, monkeypatch):
    # block size 1 runs every replicate on its own, as a per-seed scheduler would
    runs = [(size, workers) for size in (1, ensemble.BLOCK_SIZE) for workers in (1, 3)]
    # plans carrying cone rungs, characteristics and martingale shells all
    # travel to the workers; the wave kinds solve each block as one array, two
    # fields per seed for linearize
    for stem, replicates in (("temporal_qv_unit", 200), ("linearize_heat", 37),
                             ("martingale_split", 37), ("spatial_qv_unit_n32", 37),
                             ("linearize_wave_sine", 37), ("clt_multiplicative", 37)):
        outputs = []
        for size, workers in runs:
            monkeypatch.setattr(ensemble, "BLOCK_SIZE", size)
            tag = f"{stem}_b{size}_w{workers}"
            cfg = load_config(
                str(CONFIG_DIR / f"{stem}.yaml"),
                overrides={"replicates": replicates, "workers": workers,
                           "out_dir": str(tmp_path / tag)},
            )
            run_study(cfg)
            outputs.append((tmp_path / tag / f"{cfg.label}_replicates.csv").read_bytes())
        ok = announce(f"12 {stem}: byte-identical replicate CSV for any worker count "
                      "and block size",
                      all(out == outputs[0] for out in outputs),
                      f"{len(outputs[0])} bytes")
        assert ok
