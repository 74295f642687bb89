"""Correctness checks on a round's written outputs.

Every expected value is computed here, apart from the program: the exact
lattice recursion for E[u^2], the spectral covariance of the unit-coefficient
heat increments, cone sums by raw cell enumeration over noise rebuilt from the
Philox stream, and scipy's Kolmogorov-Smirnov statistic and distribution.
Where the expectation is a mean, the tolerance is Z_TOL standard errors of the
round's own sample; distribution tests use level ALPHA. Both are set so that a
correct program passes at any workload seed, and the benchmark's tests show
that each check fails when its input is perturbed.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml
from numpy.random import Philox
from scipy import stats as sps
from scipy.special import ndtri

Z_TOL = 6.0
ALPHA = 1e-6
EXACT_TOL = 1e-12
WAVE_STREAM_TAG = 0x57415645  # "WAVE": the key word of the wave cell stream


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class Table:
    """A replicate CSV: header, raw row text and float columns."""

    columns: tuple[str, ...]
    lines: tuple[str, ...]
    data: np.ndarray  # (rows, columns)

    def col(self, name: str) -> np.ndarray:
        return self.data[:, self.columns.index(name)]

    def with_col(self, name: str, values) -> "Table":
        data = self.data.copy()
        data[:, self.columns.index(name)] = values
        return Table(self.columns, self.lines, data)


def read_table(path: Path) -> Table:
    header, *lines = Path(path).read_text().splitlines()
    data = np.array([[float(v) for v in line.split(",")] for line in lines])
    return Table(tuple(header.split(",")), tuple(lines), data.reshape(len(lines), -1))


def replicate_csv(out_dir: Path) -> Path:
    (path,) = Path(out_dir).glob("*_replicates.csv")
    return path


def load_yaml(path) -> dict:
    return yaml.safe_load(Path(path).read_text())


# -- generic checks ------------------------------------------------------------


def mean_matches(name: str, values: np.ndarray, expected: float) -> Check:
    """|sample mean - expected| within Z_TOL standard errors of the sample."""
    values = np.asarray(values, dtype=float)
    se = float(np.std(values, ddof=1)) / math.sqrt(values.size)
    gap = float(np.mean(values)) - expected
    ok = abs(gap) <= Z_TOL * se
    return Check(name, ok, f"mean - expected = {gap:.4g}, {Z_TOL:g} se = {Z_TOL * se:.4g}")


def seeds_follow_index(name: str, table: Table, base_seed: int) -> Check:
    """Replicate i ran with seed base_seed + i, the counter-based noise invariant."""
    index = table.col("replicate").astype(np.int64)
    seeds = np.array([int(line.split(",")[1]) for line in table.lines], dtype=object)
    expected = np.arange(len(table.lines), dtype=object) + base_seed
    ok = bool(np.array_equal(index, np.arange(len(table.lines)))
              and np.all(seeds == expected))
    return Check(name, ok, f"{len(table.lines)} rows from seed {base_seed}")


def same_files(name: str, got: dict[str, bytes], want: dict[str, bytes]) -> Check:
    """Byte equality of two sets of output files, keyed by relative path."""
    differ = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
    return Check(name, not differ, f"{len(want)} files" + (f", differ: {differ[:3]}"
                                                            if differ else ""))


def exactly_equal(name: str, got: float, want: float) -> Check:
    gap = abs(got - want)
    ok = gap <= EXACT_TOL * max(1.0, abs(want))
    return Check(name, ok, f"|difference| = {gap:.3g}")


# -- independent oracles -------------------------------------------------------


def lattice_second_moment(n_levels: int, h: float) -> np.ndarray:
    """E[u(n h, x)^2], n = 0..n_levels, for sigma(u) = u on the light-cone lattice.

    The discrete mild form u = 1 + sum over cone cells of sigma(u at the cell's
    base vertex) times the cell's noise has uncorrelated terms, so with
    M(n) = E[u^2] at level n: M(n) = 1 + n h^2 + 2 h^2 sum_{j<=n-2} (n-1-j) M(j)
    (n base triangles of area h^2 weighted by u(0) = 1; n-1-j diamonds of area
    2 h^2 whose base vertex sits on level j).
    """
    m = np.ones(n_levels + 1)
    s0 = 0.0  # sum of M(j), j <= n-2
    s1 = 0.0  # sum of j M(j), j <= n-2
    for n in range(1, n_levels + 1):
        if n >= 2:
            s0 += m[n - 2]
            s1 += (n - 2) * m[n - 2]
        m[n] = 1.0 + n * h * h + 2.0 * h * h * ((n - 1) * s0 - s1)
    return m


def heat_increment_covariance(dx: float, dt: float, n_sites: int, n_steps: int,
                              lag_sites: list[int]) -> np.ndarray:
    """Covariance of v(T, x + d) - v(T, x) for sigma = 1 on the periodic grid.

    One explicit step is the circulant map G with eigenvalues
    lam_j = 1 - 4 r sin^2(pi j / N), r = dt / dx^2, and each step injects
    sqrt(dt/dx) times iid unit normals, so
    Cov = (dt/dx) / N * sum_j (w^{j a} - 1)(w^{-j b} - 1) sum_{k<K} lam_j^{2k}.
    """
    r = dt / (dx * dx)
    j = np.arange(n_sites)
    lam = 1.0 - 4.0 * r * np.sin(np.pi * j / n_sites) ** 2
    lam2 = lam * lam
    with np.errstate(divide="ignore", invalid="ignore"):
        geo = np.where(np.isclose(lam2, 1.0), float(n_steps),
                       (1.0 - lam2 ** n_steps) / (1.0 - lam2))
    phase = np.exp(2j * np.pi * np.outer(lag_sites, j) / n_sites) - 1.0
    cov = (phase * geo) @ phase.conj().T
    return (dt / dx) / n_sites * cov.real


def wave_noise_grid(seed: int, h: float, t_max: float, x_lo: float, x_hi: float) -> np.ndarray:
    """Dense (level, column - col_lo) grid of cell increments, zero off-cell.

    Rebuilt from the documented stream: word g of Philox keyed by
    (seed, WAVE_STREAM_TAG) from counter 0, top 53 bits to an open-(0,1)
    uniform, inverse normal CDF, scaled by h (base triangles) or h sqrt(2)
    (diamonds); level n holds its cells left to right after level n-1.
    """
    n_levels = round(t_max / h)
    width = round(x_hi / h) - round(x_lo / h)
    counts = [(width - 2 * n) // 2 for n in range(n_levels)]
    gen = Philox(counter=np.zeros(4, dtype=np.uint64),
                 key=np.array([seed, WAVE_STREAM_TAG], dtype=np.uint64))
    words = gen.random_raw(sum(counts))
    z = ndtri((words >> np.uint64(11)).astype(np.float64) * 2.0 ** -53 + 2.0 ** -54)
    grid = np.zeros((n_levels, width + 1))
    start = 0
    for n, count in enumerate(counts):
        scale = h if n == 0 else h * math.sqrt(2.0)
        grid[n, n + 1:n + 1 + 2 * count:2] = scale * z[start:start + count]
        start += count
    return grid


def cone_sum(grid: np.ndarray, apex_level: int, apex_col: int) -> float:
    """Sum of the cells (n, c) with n + |c - apex_col| <= apex_level - 1."""
    n = np.arange(grid.shape[0])[:, None]
    c = np.arange(grid.shape[1])[None, :]
    inside = n + np.abs(c - apex_col) <= apex_level - 1
    return float(grid[inside].sum())


# -- per-workload checks ---------------------------------------------------------


def check_common(study: dict, table: Table) -> list[Check]:
    return [seeds_follow_index(f"{study['stem']}: seed = base_seed + index",
                               table, study["base_seed"])]


def check_anchors_temporal(cfg: dict, table: Table) -> list[Check]:
    h = float(cfg["lattice"]["h"])
    n0 = round(float(cfg["params"]["t"]) / h)
    m = lattice_second_moment(n0, h)[n0]
    return [
        mean_matches("anchors_temporal: E[u^2] = lattice recursion",
                     table.col("u_sq"), m),
        mean_matches("anchors_temporal: E[cone_integral] = recursion - 1",
                     table.col("cone_integral"), m - 1.0),
    ]


def check_rate_ladder(cfg: dict, table: Table) -> list[Check]:
    return [
        mean_matches(f"rate_ladder: E[frozen_noise - frozen_area] = 0 at N={n}",
                     table.col(f"b_{n}") - table.col(f"c_{n}"), 0.0)
        for n in sorted(int(n) for n in cfg["params"]["counts"])
    ]


def check_martingale_split(cfg: dict, table: Table) -> list[Check]:
    return [
        mean_matches(f"martingale_split: E[M] = 0 at scale {s}", table.col(f"m_{i}"), 0.0)
        for i, s in enumerate(sorted(float(s) for s in cfg["params"]["scales"]))
    ]


def check_lil_unit(cfg: dict, table: Table, base_seed: int,
                   sample: tuple[int, ...] = (0, -1)) -> list[Check]:
    """For sampled replicates, |u(t+s,x) - u(t,x)| from the CSV's normalised
    increments equals the raw-enumeration shell sum of noise seeded base_seed + i.

    With sigma = 1 the solution is 1 plus the cone's noise sum and the
    conditional variance is exactly 2t, so nothing of the program is reused.
    """
    if cfg["sigma"] != "constant:1":
        raise ValueError("the raw-enumeration oracle needs sigma = constant:1")
    lat, p = cfg["lattice"], cfg["params"]
    h = float(lat["h"])
    t, x = float(p["t"]), float(p["x"])
    n0 = round(t / h)
    m0 = round(x / h) - round(float(lat["x_lo"]) / h)
    scales = sorted(float(s) for s in p["scales"])
    worst = 0.0
    rows = sorted({i % len(table.lines) for i in sample})
    for i in rows:
        grid = wave_noise_grid(base_seed + i, h, float(lat["t_max"]),
                               float(lat["x_lo"]), float(lat["x_hi"]))
        u0 = cone_sum(grid, n0, m0)
        for k, s in enumerate(scales):
            inc = cone_sum(grid, n0 + round(s / h), m0) - u0
            denom = math.sqrt(2.0 * s * math.log(math.log(1.0 / s)) * 2.0 * t)
            worst = max(worst, abs(table.col(f"norm_{k}")[i] * denom - abs(inc)))
    return [Check("lil_unit: sigma=1 increments = raw cone-cell sums",
                  worst <= EXACT_TOL, f"{len(rows)} seeds, worst gap {worst:.3g}")]


def check_holder_slopes(cfg: dict, table: Table) -> list[Check]:
    return [mean_matches("holder_slopes: E[u] = 1", table.col("probe0_u"), 1.0)]


def check_clt_multiplicative(cfg: dict, table: Table, report: dict) -> list[Check]:
    finest = len(cfg["params"]["scales"]) - 1  # scales run coarse to fine
    sample = table.col(f"std_{finest}")
    d = float(sps.kstest(sample, "norm").statistic)
    critical = float(sps.kstwo.isf(ALPHA, sample.size))
    return [
        Check("clt_multiplicative: KS of finest standardized increment below critical",
              d < critical, f"KS {d:.4f} < {critical:.4f} (level {ALPHA:g})"),
        exactly_equal("clt_multiplicative: reported ks_final = scipy KS",
                      report["stats"]["ks_final"], d),
    ]


def defect_ratio(table: Table, i: int) -> float:
    """RMS defect over RMS unit-coefficient increment at lag index i."""
    defect, linear = table.col(f"defect_{i}"), table.col(f"dl_{i}")
    return math.sqrt(float(np.mean(defect * defect))) / math.sqrt(float(np.mean(linear * linear)))


def check_linearize_heat(cfg: dict, table: Table) -> list[Check]:
    g, p = cfg["heat_grid"], cfg["params"]
    dx, t_max = float(g["dx"]), float(g["t_max"])
    dt = float(g.get("dt", dx * dx / 4.0))
    n_sites = round(float(g["circumference"]) / dx)
    n_steps = round(t_max / dt)
    if abs(float(p["t"]) - t_max) > 1e-12:
        raise ValueError("the heat covariance oracle reads the final time slice")
    lags = sorted(float(v) for v in p["lags"])
    cov = heat_increment_covariance(dx, dt, n_sites, n_steps,
                                    [round(v / dx) for v in lags])
    x = np.column_stack([table.col(f"dl_{i}") for i in range(len(lags))])
    q = float(np.sum(x * np.linalg.solve(cov, x.T).T))
    dof = x.size
    lo, hi = sps.chi2.ppf(ALPHA / 2, dof), sps.chi2.isf(ALPHA / 2, dof)
    return [Check("linearize_heat: sigma=1 increments have the circulant covariance",
                  lo <= q <= hi, f"chi2 {q:.1f} in [{lo:.1f}, {hi:.1f}], {dof} dof")]


def check_contrast(heat: Table, heat_report: dict, wave: Table,
                   wave_report: dict) -> list[Check]:
    h, w = defect_ratio(heat, 0), defect_ratio(wave, 0)
    return [
        Check("contrast: heat defect ratio < 0.5 < wave defect ratio at the smallest lag",
              h < 0.5 < w, f"heat {h:.3f}, wave {w:.3f}"),
        exactly_equal("linearize_heat: reported ratio_smallest = CSV ratio",
                      heat_report["stats"]["ratio_smallest"], h),
        exactly_equal("linearize_wave: reported ratio_smallest = CSV ratio",
                      wave_report["stats"]["ratio_smallest"], w),
    ]


def rows_match_reference(name: str, table: Table, reference: Table, offset: int) -> Check:
    """Every row equals, byte for byte past the replicate index, the reference
    row with the same seed (reference replicate offset + i)."""
    want = [line.split(",", 1)[1] for line in reference.lines[offset:offset + len(table.lines)]]
    got = [line.split(",", 1)[1] for line in table.lines]
    return Check(name, got == want, f"{len(got)} rows against replicates "
                                    f"{offset}..{offset + len(got) - 1}")


def check_study_outputs(plan: dict) -> list[Check]:
    """All checks of a non-CLI workload on the outputs of one round."""
    results: list[Check] = []
    loaded = {}
    for study in plan["studies"]:
        out = Path(study["out"])
        table = read_table(replicate_csv(out))
        (report_path,) = out.glob("*_report.json")
        report = json.loads(report_path.read_text())
        cfg = load_yaml(study["config"])
        loaded[study["stem"]] = (cfg, table, report)
        results += check_common(study, table)
        stem = study["stem"]
        if stem == "anchors_temporal":
            results += check_anchors_temporal(cfg, table)
        elif stem == "rate_ladder":
            results += check_rate_ladder(cfg, table)
        elif stem == "martingale_split":
            results += check_martingale_split(cfg, table)
        elif stem == "lil_unit":
            results += check_lil_unit(cfg, table, study["base_seed"])
        elif stem == "holder_slopes":
            results += check_holder_slopes(cfg, table)
        elif stem == "clt_multiplicative":
            results += check_clt_multiplicative(cfg, table, report)
        elif stem == "linearize_heat":
            results += check_linearize_heat(cfg, table)
    if "linearize_heat" in loaded and "linearize_wave" in loaded:
        _, ht, hr = loaded["linearize_heat"]
        _, wt, wr = loaded["linearize_wave"]
        results += check_contrast(ht, hr, wt, wr)
    return results


def check_cli_outputs(plan: dict, outcomes: list[dict], reference_dir: Path) -> list[Check]:
    """small-studies: exit codes, and every 2-replicate row against the longer
    reference run of the same config, by seed."""
    results = []
    for op, outcome in zip(plan["cli"], outcomes):
        results.append(Check(f"{op['stem']} seed {op['base_seed']}: exit 0 or 1",
                             outcome.get("exit") in (0, 1), f"exit {outcome.get('exit')}"))
        if outcome["failed"]:
            continue
        table = read_table(replicate_csv(op["out"]))
        ref = plan["reference"][op["stem"]]
        reference = read_table(replicate_csv(reference_dir / op["stem"]))
        results.append(seeds_follow_index(
            f"{op['stem']} seed {op['base_seed']}: seed = base_seed + index",
            table, op["base_seed"]))
        results.append(rows_match_reference(
            f"{op['stem']} seed {op['base_seed']}: rows = reference rows",
            table, reference, op["base_seed"] - ref["base_seed"]))
    return results
