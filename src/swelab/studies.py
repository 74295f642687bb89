"""Study runners: one ensemble experiment per config kind.

A kind's config-side facts (its params, the points it reads, its checks,
whether it reads the increments, its run warnings) are its `config.Kind`
record; its study side is one entry in each of the two tables here, keyed by
the same kinds. A study runs in two steps. Its plan (`plan_study`) resolves,
once per study, every point the replicates read (`Kind.reads`) and cuts the
solve trapezoid out of the configured lattice: the smallest one that holds
the backward cones of those points. The field there depends only on the
noise of its own cells, and each cell is drawn from its Philox word in the
configured lattice, so every value read is the one the configured lattice
gives. The estimators' geometry (STUDY_PLANS) is built against the solve
trapezoid; a heat study's plan holds only the grid sites it reads. The
kind's replicate function (STUDY_RUNNERS) then runs each block of seeds
against that plan through the shared scheduler, drawing and solving the
whole block as one array. The runner aggregates with
the package's own moment and slope kernels, evaluates the config-declared
thresholds, and (when out_dir is set) writes replicate CSV, per-scale series
CSV, and a JSON summary. Aggregation always happens in the parent in replicate
order, so output bytes are independent of the worker count.

Fitted slopes are only reported when the ladder has at least four points;
thresholds naming a missing slope fail loudly instead of silently passing.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dc_field
from functools import partial
from pathlib import Path

import numpy as np

from .config import KINDS, ExperimentConfig, validate
from .ensemble import EnsembleResult, run_replicates
from .errors import ConfigurationError, ConfigurationWarning
from .fluctuations import (
    conditional_variance,
    increment_sample,
    lil_statistic,
    martingale_decomposition,
    probe_geometry,
)
from .heat import solve_coupled_heat_linearization
from .lattice import LatticeSpec, index_array, spatial_shell_area
from .linearize import defect_samples
from .noise import make_noise
from .quadvar import (
    line_qv,
    naive_qv_prediction,
    spatial_geometry,
    spatial_qv_limit,
    temporal_geometry,
    temporal_qv_ladder,
    temporal_qv_limit,
)
from .reports import (
    ensure_out_dir,
    summary_report,
    write_ensemble_csv,
    write_field_csv,
    write_json_report,
    write_noise_snapshot,
    write_table_csv,
    write_wave_snapshot,
)
from .stats import ks_critical_value, ks_distance, loglog_slope, quantiles, summarize
from .wave import WaveField, point_index, solve_coupled_linearization, solve_wave

__all__ = ["StudyOutput", "StudyPlan", "plan_study", "run_study", "STUDY_PLANS",
           "STUDY_RUNNERS"]

MIN_SLOPE_POINTS = 4


@dataclass(frozen=True)
class StudyOutput:
    report: dict
    ensemble: EnsembleResult
    # series tables: name -> (columns, rows); written as <label>_<name>.csv
    series: dict = dc_field(default_factory=dict)
    files: tuple = ()


@dataclass(frozen=True)
class StudyPlan:
    """A validated config, the solve trapezoid its replicates draw and solve,
    and what they read there. The lattice fields are None on the heat equation.

    `points` are the field offsets of the points the kind reads (grid sites
    on the heat equation), in the order Kind.reads lists them; `geometry`
    holds the estimators' index arrays (None for the kinds that read only
    points).
    """

    cfg: ExperimentConfig
    lattice: LatticeSpec | None  # the solve trapezoid
    words: np.ndarray | None  # Philox word of each of its cells in cfg.lattice
    points: np.ndarray | None
    geometry: object


def _sigmas(gap: float, se: float) -> float:
    if se > 0:
        return abs(gap) / se
    return 0.0 if gap == 0 else float("inf")


def _maybe_slope(stats: dict, prefix: str, xs, ys) -> None:
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) < MIN_SLOPE_POINTS or np.any(ys <= 0) or np.any(xs <= 0):
        return
    fit = loglog_slope(xs, ys)
    stats[prefix] = fit.slope
    stats[prefix + "_se"] = fit.slope_std_error


def _rises(values) -> float:
    """How many times a sequence goes up from one entry to the next."""
    return float(sum(b > a for a, b in zip(values, values[1:])))


# -- simulate ------------------------------------------------------------------


def _rep_simulate(f: WaveField, noise: np.ndarray | None,
                  plan: StudyPlan) -> dict[str, float]:
    p = plan.cfg.params
    u = f.values[plan.points].tolist()
    out: dict[str, float] = {}
    k = len(p["probes"])
    for i in range(k):
        out[f"probe{i}_u"] = u[i]
        out[f"probe{i}_u_sq"] = u[i] * u[i]
    for key, col in (("temporal_lags", "dt"), ("spatial_lags", "dx")):
        block = p[key]
        if block:
            base = u[k]
            for j in range(len(block["lags"])):
                out[f"{col}{j}_sq"] = (u[k + 1 + j] - base) ** 2
            k += 1 + len(block["lags"])
    return out


def _agg_simulate(cfg: ExperimentConfig, ens: EnsembleResult):
    p = cfg.params
    stats: dict[str, float] = {}
    series: dict = {}
    for i in range(len(p["probes"])):
        s = summarize(ens.column(f"probe{i}_u"))
        q = summarize(ens.column(f"probe{i}_u_sq"))
        stats[f"probe{i}_mean"] = s.mean
        stats[f"probe{i}_se"] = s.std_error
        stats[f"probe{i}_sq_mean"] = q.mean
        stats[f"probe{i}_sq_se"] = q.std_error
    for key, col in (("temporal_lags", "dt"), ("spatial_lags", "dx")):
        block = p[key]
        if not block:
            continue
        lags = sorted(block["lags"])
        msq = [float(np.mean(ens.column(f"{col}{j}_sq"))) for j in range(len(lags))]
        rows = [(lag, m) for lag, m in zip(lags, msq)]
        series[f"{col}_lags"] = (("lag", "mean_sq_increment"), rows)
        for j, m in enumerate(msq):
            stats[f"{col}{j}_msq"] = m
        _maybe_slope(stats, f"{'temporal' if col == 'dt' else 'spatial'}_sq_slope",
                     lags, msq)
    return stats, series


# -- temporal quadratic variation ---------------------------------------------


def _plan_qv_time(cfg: ExperimentConfig, lat: LatticeSpec):
    p = cfg.params
    return temporal_geometry(lat, p["t"], p["x"], [p["n_pieces"]])


def _rep_qv_time(f: WaveField, noise: np.ndarray,
                 plan: StudyPlan) -> dict[str, float]:
    (dec,) = temporal_qv_ladder(f, noise, plan.geometry)
    lim = temporal_qv_limit(f, plan.geometry)
    u = float(f.values[plan.points[0]])
    return {
        "u_at": u,
        "u_sq": u * u,
        "qv": dec.direct,
        "frozen_noise": dec.frozen_noise,
        "frozen_area": dec.frozen_area,
        "cone_integral": dec.cone_integral,
        "limit": lim,
        "limit_gap": dec.direct - lim,
    }


def _agg_qv_time(cfg: ExperimentConfig, ens: EnsembleResult):
    stats: dict[str, float] = {}
    for name in ("u_at", "u_sq", "qv", "cone_integral", "limit", "limit_gap"):
        s = summarize(ens.column(name))
        key = "u" if name == "u_at" else name
        stats[f"{key}_mean"] = s.mean
        stats[f"{key}_se"] = s.std_error
    stats["qv_vs_limit_sigmas"] = _sigmas(stats["limit_gap_mean"], stats["limit_gap_se"])
    if cfg.sigma.is_constant:
        c = cfg.sigma.scalar(1.0)
        t = cfg.params["t"]
        stats["exact_mean"] = c * c * t * t
        stats["qv_vs_exact_sigmas"] = _sigmas(
            stats["qv_mean"] - stats["exact_mean"], stats["qv_se"]
        )
    return stats, {}


# -- spatial quadratic variation ----------------------------------------------


def _plan_qv_space(cfg: ExperimentConfig, lat: LatticeSpec):
    p = cfg.params
    return spatial_geometry(lat, p["t"], p["x_lo"], p["x_hi"], [p["n_pieces"]])


def _rep_qv_space(f: WaveField, noise: np.ndarray | None,
                  plan: StudyPlan) -> dict[str, float]:
    line = plan.geometry
    v = line_qv(f, line.lines[0])
    lim = spatial_qv_limit(f, line)
    nv = naive_qv_prediction(f, line)
    return {"qv": v, "limit": lim, "naive": nv,
            "limit_gap": v - lim, "naive_gap": v - nv}


def _agg_qv_space(cfg: ExperimentConfig, ens: EnsembleResult):
    p = cfg.params
    span = p["x_hi"] - p["x_lo"]
    stats: dict[str, float] = {}
    for name in ("qv", "limit", "naive", "limit_gap", "naive_gap"):
        s = summarize(ens.column(name))
        stats[f"{name}_mean"] = s.mean
        stats[f"{name}_se"] = s.std_error
    stats["qv_vs_limit_sigmas"] = _sigmas(stats["limit_gap_mean"], stats["limit_gap_se"])
    stats["qv_vs_naive_sigmas"] = _sigmas(stats["naive_gap_mean"], stats["naive_gap_se"])
    stats["qv_over_naive"] = stats["qv_mean"] / stats["naive_mean"]
    stats["limit_per_unit"] = stats["limit_mean"] / span
    stats["naive_per_unit"] = stats["naive_mean"] / span
    if cfg.sigma.is_constant:
        c = cfg.sigma.scalar(1.0)
        n = p["n_pieces"]
        delta = span / n
        # per piece: symmetric difference of neighbor cones, twice one lune
        stats["exact_mean"] = c * c * n * 2.0 * spatial_shell_area(p["t"], delta)
        stats["qv_vs_exact_sigmas"] = _sigmas(
            stats["qv_mean"] - stats["exact_mean"], stats["qv_se"]
        )
    return stats, {}


# -- dyadic refinement ladder --------------------------------------------------


def _plan_ladder(cfg: ExperimentConfig, lat: LatticeSpec):
    p = cfg.params
    counts = sorted(p["counts"])
    if p["axis"] == "time":
        return temporal_geometry(lat, p["t"], p["x"], counts)
    return spatial_geometry(lat, p["t"], p["x_lo"], p["x_hi"], counts)


def _rep_ladder(f: WaveField, noise: np.ndarray | None,
                plan: StudyPlan) -> dict[str, float]:
    g = plan.geometry
    if plan.cfg.params["axis"] == "time":
        out = {"limit": temporal_qv_limit(f, g)}
        for dec in temporal_qv_ladder(f, noise, g):
            n = dec.n_pieces
            out[f"a_{n}"] = dec.direct
            out[f"b_{n}"] = dec.frozen_noise
            out[f"c_{n}"] = dec.frozen_area
            out[f"d_{n}"] = dec.cone_integral
        return out
    out = {"limit": spatial_qv_limit(f, g), "naive": naive_qv_prediction(f, g)}
    for n, line in zip(g.counts, g.lines):
        out[f"v_{n}"] = line_qv(f, line)
    return out


def _agg_ladder(cfg: ExperimentConfig, ens: EnsembleResult):
    p = cfg.params
    counts = sorted(p["counts"])
    lim = ens.column("limit")
    stats: dict[str, float] = {}
    if p["axis"] == "time":
        msq, m4, rms_ab, rms_cd, msq_bc = [], [], [], [], []
        rows = []
        for n in counts:
            gap = ens.column(f"a_{n}") - lim
            ab = ens.column(f"a_{n}") - ens.column(f"b_{n}")
            cd = ens.column(f"c_{n}") - ens.column(f"d_{n}")
            bc = ens.column(f"b_{n}") - ens.column(f"c_{n}")
            msq.append(float(np.mean(gap ** 2)))
            m4.append(float(np.mean(gap ** 4)))
            rms_ab.append(float(np.sqrt(np.mean(ab ** 2))))
            rms_cd.append(float(np.sqrt(np.mean(cd ** 2))))
            msq_bc.append(float(np.mean(bc ** 2)))
            rows += [
                (n, 2, "limit_gap_moment", msq[-1]),
                (n, 4, "limit_gap_moment", m4[-1]),
                (n, 2, "direct_vs_frozen_noise_rms", rms_ab[-1]),
                (n, 2, "frozen_area_vs_cone_rms", rms_cd[-1]),
                (n, 2, "frozen_noise_vs_area_msq", msq_bc[-1]),
            ]
        series = {"ladder": (("n_pieces", "p", "statistic", "value"), rows)}
        _maybe_slope(stats, "rate_l2", counts, np.sqrt(msq))
        _maybe_slope(stats, "rate_l4", counts, np.power(m4, 0.25))
        _maybe_slope(stats, "slope_rms_ab", counts, rms_ab)
        _maybe_slope(stats, "slope_rms_cd", counts, rms_cd)
        _maybe_slope(stats, "slope_msq_bc", counts, msq_bc)
        stats["lp2_inversions"] = _rises(msq)
        stats["lp4_inversions"] = _rises(m4)
        stats["lyapunov_min_ratio"] = float(min(
            q / (s * s) for q, s in zip(m4, msq)
        ))
        return stats, series
    naive = ens.column("naive")
    msq, rows = [], []
    for n in counts:
        v = ens.column(f"v_{n}")
        gap = v - lim
        ngap = v - naive
        s_gap = summarize(ngap)
        msq.append(float(np.mean(gap ** 2)))
        rows += [
            (n, 2, "limit_gap_moment", msq[-1]),
            (n, 2, "qv_mean", float(np.mean(v))),
            (n, 2, "naive_gap_mean", s_gap.mean),
            (n, 2, "naive_gap_sigmas", _sigmas(s_gap.mean, s_gap.std_error)),
        ]
    series = {"ladder": (("n_pieces", "p", "statistic", "value"), rows)}
    _maybe_slope(stats, "rate_l2", counts, np.sqrt(msq))
    stats["lp2_inversions"] = _rises(msq)
    return stats, series


# -- central limit harness -----------------------------------------------------


def _plan_probes(cfg: ExperimentConfig, lat: LatticeSpec, descending: bool = False,
                 shells: bool = False):
    p = cfg.params
    scales = sorted(p["scales"], reverse=descending)
    return probe_geometry(lat, p["t"], p["x"], scales, shells=shells)


def _rep_clt(f: WaveField, noise: np.ndarray | None,
             plan: StudyPlan) -> dict[str, float]:
    probe = plan.geometry
    std = plan.cfg.params["standardization"]
    vhat = conditional_variance(f, probe)
    out: dict[str, float] = {}
    for i in range(len(probe.scales)):
        sample = increment_sample(f, probe, i, vhat, standardization=std)
        out[f"std_{i}"] = sample.standardized
        out[f"inc_{i}"] = sample.increment
        if i == 0:
            out["vhat"] = sample.variance_hat
    return out


def _agg_clt(cfg: ExperimentConfig, ens: EnsembleResult):
    scales = sorted(cfg.params["scales"], reverse=True)
    ks = [ks_distance(ens.column(f"std_{i}")) for i in range(len(scales))]
    critical = ks_critical_value(ens.n, 0.05)
    rows = [(s, k, ens.n, critical) for s, k in zip(scales, ks)]
    stats = {
        "ks_final": ks[-1],
        "ks_critical": critical,
        "ks_violations": _rises(ks),
        "vhat_mean": float(np.mean(ens.column("vhat"))),
    }
    for i, k in enumerate(ks):
        stats[f"ks_{i}"] = k
    return stats, {"ks": (("scale", "ks", "n", "critical_5pct"), rows)}


# -- iterated-logarithm probe --------------------------------------------------


def _rep_lil(f: WaveField, noise: np.ndarray | None,
             plan: StudyPlan) -> dict[str, float]:
    norms = lil_statistic(f, plan.geometry)
    out = {"stat": max(norms)}
    out.update((f"norm_{i}", v) for i, v in enumerate(norms))
    return out


def _agg_lil(cfg: ExperimentConfig, ens: EnsembleResult):
    scales = sorted(cfg.params["scales"])
    q1, med, q3 = quantiles(ens.column("stat"))
    stats = {"median": med, "q1": q1, "q3": q3}
    rows = []
    for i, s in enumerate(scales):
        c1, cm, c3 = quantiles(ens.column(f"norm_{i}"))
        rows.append((s, cm, c1, c3))
    return stats, {"scales": (("scale", "median", "q1", "q3"), rows)}


# -- martingale split ----------------------------------------------------------


def _rep_mart(f: WaveField, noise: np.ndarray,
              plan: StudyPlan) -> dict[str, float]:
    probe = martingale_decomposition(f, noise, plan.geometry)
    out = {"vhat": probe.variance_hat}
    for i in range(len(probe.scales)):
        out[f"m_{i}"] = probe.martingale[i]
        out[f"r_{i}"] = probe.remainder[i]
        out[f"inc_{i}"] = probe.increments[i]
    return out


def _agg_mart(cfg: ExperimentConfig, ens: EnsembleResult):
    scales = sorted(cfg.params["scales"])
    vhat_mean = float(np.mean(ens.column("vhat")))
    m_rms, r_rms, ratios, rows = [], [], [], []
    worst = 0.0
    for i, s in enumerate(scales):
        m = ens.column(f"m_{i}")
        r = ens.column(f"r_{i}")
        sm = summarize(m)
        m2 = float(np.mean(m ** 2))
        m_rms.append(np.sqrt(m2))
        r_rms.append(float(np.sqrt(np.mean(r ** 2))))
        ratios.append(m2 / (s * vhat_mean) if vhat_mean > 0 else float("inf"))
        worst = max(worst, _sigmas(sm.mean, sm.std_error))
        rows.append((s, m_rms[-1], r_rms[-1], sm.mean, sm.std_error, ratios[-1]))
    stats = {
        "vhat_mean": vhat_mean,
        "m_mean_max_sigmas": worst,
        "qv_law_ratio_final": ratios[0],
    }
    _maybe_slope(stats, "m_exponent", scales, m_rms)
    _maybe_slope(stats, "r_exponent", scales, r_rms)
    if "m_exponent" in stats and "r_exponent" in stats:
        stats["exponent_gap"] = stats["r_exponent"] - stats["m_exponent"]
    series = {"scales": (
        ("scale", "m_rms", "r_rms", "m_mean", "m_mean_se", "qv_law_ratio"), rows
    )}
    return stats, series


# -- linearization defects -----------------------------------------------------


def _rep_linearize(seeds: list[int], plan: StudyPlan) -> list[dict[str, float]]:
    cfg = plan.cfg
    if cfg.on_heat_grid:
        # the whole block marches at once, only to the probe time
        fields, linear = solve_coupled_heat_linearization(cfg.sigma, seeds, cfg.heat_grid,
                                                          cfg.params["t"])
    else:
        # the whole block solves at once; the sigma == 1 fields on a copy
        fields, linear = (block.rows for block in solve_coupled_linearization(
            cfg.sigma, make_noise(seeds, plan.lattice, plan.words)))
    samples = defect_samples(cfg.sigma, fields, linear, plan.points)
    names = [f"{name}_{i}" for i in range(samples[0].shape[1])
             for name in ("du", "dl", "defect")]
    # (seeds, lags, 3): each lag's du, dl and defect side by side, as named
    return [dict(zip(names, row))
            for row in np.stack(samples, axis=2).reshape(len(seeds), -1).tolist()]


def _agg_linearize(cfg: ExperimentConfig, ens: EnsembleResult):
    lags = sorted(cfg.params["lags"])
    ratios, rows = [], []
    for i, lag in enumerate(lags):
        inc_rms = float(np.sqrt(np.mean(ens.column(f"dl_{i}") ** 2)))
        defect_rms = float(np.sqrt(np.mean(ens.column(f"defect_{i}") ** 2)))
        if inc_rms <= 0:
            raise ConfigurationError(
                f"linearized increment norm vanished at lag {lag}; ratio undefined"
            )
        ratios.append(defect_rms / inc_rms)
        rows.append((lag, inc_rms, defect_rms, ratios[-1]))
    stats = {
        "ratio_smallest": ratios[0],
        "ratio_largest": ratios[-1],
        "ratio_smallest_over_largest": ratios[0] / ratios[-1]
        if ratios[-1] > 0 else float("inf"),
        "ratio_min": min(ratios),
    }
    _maybe_slope(stats, "ratio_slope", lags, ratios)
    return stats, {"scales": (
        ("scale", "increment_norm", "defect_norm", "ratio"), rows
    )}


# -- dispatch ------------------------------------------------------------------


def _each_seed(rep, seeds: list[int], plan: StudyPlan) -> list[dict[str, float]]:
    """Draw and solve the block's fields at once, in place over their noise,
    then run the per-seed estimators rep(field, increments or None, plan); a
    copy of the increments is kept only for the kinds that read them."""
    noise = make_noise(seeds, plan.lattice, plan.words)
    kept = (noise.increments.copy() if KINDS[plan.cfg.kind].reads_noise(plan.cfg.params)
            else [None] * len(seeds))
    return [rep(f, xi, plan) for f, xi in zip(solve_wave(plan.cfg.sigma, noise), kept)]


# kind -> (config, solve trapezoid) -> the geometry its estimators read, or
# None for the kinds that read only points (Kind.reads lists the points)
STUDY_PLANS = {
    "simulate": None,
    "qv-time": _plan_qv_time,
    "qv-space": _plan_qv_space,
    "ladder": _plan_ladder,
    "clt": partial(_plan_probes, descending=True),
    "lil": _plan_probes,
    "mart": partial(_plan_probes, shells=True),
    "linearize": None,
}

# kind -> (block replicate function over (seeds, plan), aggregate). Every kind
# draws and solves a whole block at once; the wave kinds but linearize then run
# their per-seed estimators once per seed.
STUDY_RUNNERS = {
    "simulate": (partial(_each_seed, _rep_simulate), _agg_simulate),
    "qv-time": (partial(_each_seed, _rep_qv_time), _agg_qv_time),
    "qv-space": (partial(_each_seed, _rep_qv_space), _agg_qv_space),
    "ladder": (partial(_each_seed, _rep_ladder), _agg_ladder),
    "clt": (partial(_each_seed, _rep_clt), _agg_clt),
    "lil": (partial(_each_seed, _rep_lil), _agg_lil),
    "mart": (partial(_each_seed, _rep_mart), _agg_mart),
    "linearize": (_rep_linearize, _agg_linearize),
}


def _write_snapshots(cfg: ExperimentConfig, out: Path) -> list[Path]:
    noise = make_noise([cfg.base_seed], cfg.lattice)
    paths = [out / f"{cfg.label}_field.bin", out / f"{cfg.label}_field.csv",
             out / f"{cfg.label}_noise.bin"]
    # before the solve overwrites the increments with the field
    write_noise_snapshot(paths[2], cfg.lattice, noise.increments[0])
    f = solve_wave(cfg.sigma, noise)[0]
    write_wave_snapshot(paths[0], f)
    write_field_csv(paths[1], f)
    return paths


def _solve_trapezoid(lat: LatticeSpec,
                     apexes: list[tuple[int, int]]) -> tuple[LatticeSpec, np.ndarray | None]:
    """The smallest trapezoid of `lat` holding the backward cones of the apexes,
    and the word of each of its cells in `lat`.

    Points on the initial row need no cone; when no point has one, `lat` itself
    comes back, with no word map.
    """
    cones = [(n, m) for n, m in apexes if n > 0]
    if not cones:
        return lat, None
    top = max(n for n, _ in cones)
    lo = min(m - n for n, m in cones)
    hi = max(m + n for n, m in cones)
    sub = LatticeSpec(lat.h, top * lat.h, lo * lat.h, hi * lat.h)
    # a row of the trapezoid is a run of consecutive words of the same row of lat
    starts = sub.cell_row_starts
    first = lat.cell_row_starts[:top] + (lo - lat.col_lo) // 2
    words = np.repeat(first - starts[:-1], np.diff(starts)) + np.arange(sub.total_cells)
    return sub, index_array(words)


def plan_study(cfg: ExperimentConfig) -> StudyPlan:
    """The plan of a config that validate accepted."""
    reads = KINDS[cfg.kind].reads(cfg.params)
    if cfg.on_heat_grid:
        sites = [cfg.heat_grid.site_of(x) for _, _, x in reads]
        return StudyPlan(cfg, None, None, index_array(sites), None)
    apexes = [cfg.lattice.apex(t, x) for _, t, x in reads]
    lat, words = _solve_trapezoid(cfg.lattice, apexes)
    levels, cols = np.array(apexes, dtype=np.int64).reshape(-1, 2).T
    geometry = STUDY_PLANS[cfg.kind]
    return StudyPlan(cfg, lat, words, index_array(point_index(lat, levels, cols)),
                     geometry(cfg, lat) if geometry else None)


def run_study(cfg: ExperimentConfig) -> StudyOutput:
    errors, notes = validate(cfg)
    if errors:
        raise ConfigurationError("invalid config:\n  - " + "\n  - ".join(errors))
    if cfg.out_dir is not None:
        try:
            out = ensure_out_dir(cfg.out_dir)
        except OSError as exc:
            raise ConfigurationError(
                f"out_dir: cannot create directory {cfg.out_dir!r}: {exc.strerror or exc}"
            ) from None
    warn = KINDS[cfg.kind].warnings(cfg.replicates)
    for w in warn:
        warnings.warn(w, ConfigurationWarning, stacklevel=2)
    rep_fn, agg_fn = STUDY_RUNNERS[cfg.kind]
    ens = run_replicates(rep_fn, plan_study(cfg), base_seed=cfg.base_seed,
                         replicates=cfg.replicates, workers=cfg.workers)
    stats, series = agg_fn(cfg, ens)
    report = summary_report(cfg, stats, extra={"notes": notes, "warnings": warn})
    files: list[Path] = []
    if cfg.out_dir is not None:
        p = out / f"{cfg.label}_replicates.csv"
        write_ensemble_csv(p, ens)
        files.append(p)
        for name, (columns, rows) in series.items():
            p = out / f"{cfg.label}_{name}.csv"
            write_table_csv(p, columns, rows)
            files.append(p)
        if cfg.params.get("snapshot"):
            files += _write_snapshots(cfg, out)
        p = out / f"{cfg.label}_report.json"
        write_json_report(p, report)
        files.append(p)
    return StudyOutput(report, ens, series, tuple(files))
