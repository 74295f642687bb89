"""Independent oracles used by the test suite.

No oracle calls package numerics. Expected values come from closed forms,
scipy ODE integration, raw enumeration loops over lattice cells, and control
simulations with numpy's default RNG (a different bitstream than the
package's counter-based generator). Frozen constants quoted in tests can be
regenerated with `python tests/oracles.py`. `solved`, the one helper that
runs the package, gives the tests one seed's field and increments to check.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp

from swelab.noise import make_noise
from swelab.wave import solve_wave

SQRT2 = math.sqrt(2.0)

# Closed-form anchors for the multiplicative coefficient sigma(u) = u at t = 1.
# The second moment solves m'' = 2m, m(0)=1, m'(0)=0, i.e. m(t) = cosh(sqrt(2) t).
POINT_SECOND_MOMENT = math.cosh(SQRT2)               # 2.17818355456894...
TEMPORAL_LIMIT_MEAN = math.cosh(SQRT2) - 1.0         # 1.17818355456894...
SPATIAL_LIMIT_PER_UNIT = SQRT2 * math.sinh(SQRT2)    # 2.73664121428104...
NAIVE_PER_UNIT = 2.0 * math.cosh(SQRT2)              # 4.35636710913788...
QV_OVER_NAIVE = math.tanh(SQRT2) / SQRT2             # 0.62821070989885...


def second_moment_ode(t_grid) -> np.ndarray:
    """E[u(t,x)^2] for sigma(u)=u by integrating m'' = 2m numerically."""
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    sol = solve_ivp(
        lambda _, y: [y[1], 2.0 * y[0]],
        (0.0, float(t_grid.max()) if t_grid.max() > 0 else 1.0),
        [1.0, 0.0],
        t_eval=t_grid,
        rtol=1e-11,
        atol=1e-12,
        dense_output=False,
    )
    return sol.y[0]


def discrete_second_moment(n_levels: int, h: float) -> np.ndarray:
    """E[u(n h, x)^2] for sigma(u)=u on the characteristic lattice, exactly.

    From the discrete mild form u = 1 + sum over cone cells of u(base)*noise:
    cross terms vanish by adaptedness, so with M(n) := E[u(n h, x)^2] (the bulk
    value, column independent),

        M(n) = 1 + n h^2 + 2 h^2 * sum_{j=0}^{n-2} (n - 1 - j) M(j).

    The n-cone's cell rows hold n - k cells at row k (n base triangles of area
    h^2 whose weight is sigma(1), then diamond rows of area 2 h^2 weighted at
    the bottom vertex, one field level below the row).  Total area n^2 h^2.
    """
    m = np.ones(n_levels + 1)
    for n in range(1, n_levels + 1):
        acc = 0.0
        for j in range(n - 1):
            acc += (n - 1 - j) * m[j]
        m[n] = 1.0 + n * h * h + 2.0 * h * h * acc
    return m


def lattice_expectation(n_levels: int, h: float, a: float, b: float) -> np.ndarray:
    """E[u(n h, x)^2] for sigma = affine:a,b (sigma(u) = a + b u) on the
    characteristic lattice, exactly; a = 0, b = 1 is discrete_second_moment.

    The mild form's cross terms vanish as there, and E[u] = 1, so a weight
    sigma(u) at a vertex of level j has E[sigma^2] = a^2 + 2ab + b^2 M(j),
    and (a + b)^2 = sigma(1)^2 on the base triangles:

        M(n) = 1 + n h^2 (a+b)^2 + 2 h^2 sum_{j=0}^{n-2} (n-1-j) (a^2 + 2ab + b^2 M(j)).
    """
    m = np.ones(n_levels + 1)
    for n in range(1, n_levels + 1):
        acc = 0.0
        for j in range(n - 1):
            acc += (n - 1 - j) * (a * a + 2.0 * a * b + b * b * m[j])
        m[n] = 1.0 + n * h * h * (a + b) ** 2 + 2.0 * h * h * acc
    return m


def weight_sq_mean(m: np.ndarray, a: float, b: float, levels) -> np.ndarray:
    """E[sigma(u)^2] at field points of the given levels, from M =
    lattice_expectation(..., a, b); u = 1 at and below level 0."""
    return a * a + 2.0 * a * b + b * b * m[np.maximum(np.asarray(levels), 0)]


def increment_sq_mean(m: np.ndarray, a: float, b: float, h: float, p, q) -> float:
    """E[(u(p) - u(q))^2] for field points p, q = (level, col), exactly.

    The difference is the noise of the cells in exactly one of the two cones;
    by adaptedness each adds E[sigma(u)^2] at its bottom vertex, one level
    below its row, times its area.
    """
    cells = set(cone_cells(*p)) ^ set(cone_cells(*q))
    rows = np.array([n for n, _, _ in cells], dtype=int)
    areas = np.array([area for _, _, area in cells])
    return float(np.sum(weight_sq_mean(m, a, b, rows - 1) * areas)) * h * h


def line_qv_mean(m: np.ndarray, a: float, b: float, h: float, points) -> float:
    """E[sum of squared increments] along a partition line of (level, col) points."""
    return sum(increment_sq_mean(m, a, b, h, p, q) for p, q in zip(points, points[1:]))


# -- lattice geometry by raw enumeration --------------------------------------


def cone_cells(n0: int, m0: int):
    """All cells of the backward cone of apex (n0, m0), by the inclusion rule.

    The apex must be a field point (n0 + m0 even).  Cells live at (row n,
    center column c) with n + c odd; the cell belongs iff n + |c - m0| <=
    n0 - 1.  Row 0 holds triangles of area h^2, higher rows diamonds of area
    2 h^2 (areas returned in lattice units h^2).
    """
    assert (n0 + m0) % 2 == 0, "cone apex must sit on the field parity class"
    out = []
    for n in range(0, n0):
        for c in range(m0 - (n0 - 1 - n), m0 + (n0 - 1 - n) + 1):
            if (n + c) % 2 == 0:
                continue
            out.append((n, c, 1.0 if n == 0 else 2.0))
    return out


def lattice_cells(n_levels: int, col_lo: int, col_hi: int):
    """Every noise cell (row n, center column c) of a lattice, by the parity rule.

    Cells are the sites with n + c odd strictly inside the trapezoid row:
    col_lo + n < c < col_hi - n, for rows 0 <= n < n_levels.
    """
    return [(n, c) for n in range(n_levels) for c in range(col_lo + n + 1, col_hi - n)
            if (n + c) % 2 == 1]


def segments_area(segments, h: float) -> float:
    """Area of whole-cell segments (row, col_lo, col_hi), step 2: row-0
    triangles have area h^2, every higher cell is a diamond of area 2 h^2."""
    return sum(((hi - lo) // 2 + 1) * (1.0 if n == 0 else 2.0) * h * h
               for n, lo, hi in segments)


def segment_cells(segments) -> set:
    """The (row, col) cells listed by step-2 segments."""
    return {(n, c) for n, lo, hi in segments for c in range(lo, hi + 1, 2)}


def segment_sum(xi, lat, segments) -> float:
    """Noise of whole-cell segments, one row slice per segment.

    `xi` holds the increments of `lat`'s cells level by level: cell k of
    level n, counted from column `lat.col_lo + n + 1`, is
    `xi[lat.cell_row_starts[n] + k]`.
    """
    total = 0.0
    for n, lo, hi in segments:
        row = xi[lat.cell_row_starts[n]:lat.cell_row_starts[n + 1]]
        first = lat.col_lo + n + 1
        total += float(row[(lo - first) // 2:(hi - first) // 2 + 1].sum())
    return total


def enum_cone_area(n0: int, h: float) -> float:
    return h * h * sum(a for _, _, a in cone_cells(n0, n0 % 2))


def enum_shell_area(n_inner: int, n_outer: int, h: float) -> float:
    """Shell between nested cones of one apex column (levels of equal parity)."""
    m0 = n_outer % 2
    inner = {(n, c) for n, c, _ in cone_cells(n_inner, m0)}
    total = 0.0
    for n, c, a in cone_cells(n_outer, m0):
        if (n, c) not in inner:
            total += a
    return h * h * total


def enum_truncated_shell_area(n_inner: int, n_outer: int, h: float) -> float:
    """Shell area after dropping every cell not wholly inside |y - x| <= t."""
    m0 = n_outer % 2
    inner = {(n, c) for n, c, _ in cone_cells(n_inner, m0)}
    total = 0.0
    for n, c, a in cone_cells(n_outer, m0):
        if (n, c) in inner:
            continue
        if abs(c - m0) <= n_inner - 1:
            total += a
    return h * h * total


def enum_side_shell_area(n0: int, d: int, h: float) -> float:
    """Area of the symmetric difference of cones with apex columns d apart."""
    m0 = n0 % 2
    a_cells = {(n, c): a for n, c, a in cone_cells(n0, m0)}
    b_cells = {(n, c): a for n, c, a in cone_cells(n0, m0 + d)}
    total = sum(a for key, a in a_cells.items() if key not in b_cells)
    total += sum(a for key, a in b_cells.items() if key not in a_cells)
    return h * h * total


# -- cone estimators by per-column and per-cell loops -------------------------
#
# `field` is a solved field: field.level(n)[j] = u(n h, (col_lo + n + 2 j) h),
# and u(0, .) = 1 everywhere.  `xi` holds the increments of the field's
# lattice, as segment_sum reads them.  `sigma` maps an array of field values
# to sigma(u).


def _u(field, level: int, col: int) -> float:
    if level <= 0:
        return 1.0
    return float(field.level(level)[(col - field.lattice.col_lo - level) // 2])


def _xi(xi, lat, level: int, col: int) -> float:
    return float(xi[lat.cell_row_starts[level] + (col - lat.col_lo - level - 1) // 2])


def cone_limit_columns(field, sigma, n0: int, m0: int, h: float) -> float:
    """Columns quadrature of the cone integral of sigma(u)^2 at apex (n0, m0)."""
    def sq(ls, c):
        sv = sigma(np.array([_u(field, l, c) for l in ls]))
        return sv * sv
    return columns_quadrature(sq, n0, m0, h)


def columns_quadrature(sq, n0: int, m0: int, h: float) -> float:
    """Columns quadrature over the cone of apex (n0, m0) of an integrand that
    sq(levels, col) gives at points of one column.

    Each column is integrated by the trapezoid rule in time over the points
    of its parity (odd columns get u(0, .) = 1 prepended at s = 0), then the
    column integrals by the trapezoid rule in space.
    """
    cols = np.arange(m0 - n0, m0 + n0 + 1)
    g = np.zeros(cols.size)
    for i, c in enumerate(cols):
        dm = abs(int(c) - m0)
        lmax = n0 - dm
        if lmax == 0:
            continue
        if dm % 2 == 0:
            ls = list(range(0, lmax + 1, 2))
            s = [l * h for l in ls]
        else:
            ls = [0] + list(range(1, lmax + 1, 2))
            s = [0.0] + [l * h for l in ls[1:]]
        g[i] = np.trapezoid(sq(ls, int(c)), np.array(s))
    return float(np.trapezoid(g, cols * h))


def cone_decomposition(field, xi, sigma, n0: int, m0: int, h: float,
                       n_pieces: int) -> dict:
    """The four temporal estimators of one rung, from the raw cone enumeration.

    Cells are taken level by level, columns ascending; a cell at distance dm
    from the apex column falls in shell (n + dm) // step and is weighted by
    sigma(u) where that shell's inner cone crosses its column.
    """
    step = n0 // n_pieces
    cells = cone_cells(n0, m0)
    levels = np.array([n for n, _, _ in cells])
    cols = np.array([c for _, c, _ in cells])
    areas = np.where(levels == 0, h * h, 2.0 * h * h)
    cell_xi = np.array([_xi(xi, field.lattice, n, c) for n, c, _ in cells])
    bucket = (levels + np.abs(cols - m0)) // step
    w = sigma(np.array([_u(field, int(b) * step - abs(c - m0), c)
                        for b, (_, c, _) in zip(bucket, cells)]))
    shell_sums = np.bincount(bucket, weights=w * cell_xi, minlength=n_pieces)
    wd = sigma(np.array([_u(field, n - 1, c) for n, c, _ in cells]))
    line = np.array([_u(field, k * step, m0) for k in range(n_pieces + 1)])
    inc = np.diff(line)
    return {
        "n_pieces": n_pieces,
        "direct": float(np.sum(inc * inc)),
        "frozen_noise": float(np.sum(shell_sums * shell_sums)),
        "frozen_area": float(np.sum(w * w * areas)),
        "cone_integral": float(np.sum(wd * wd * areas)),
    }


def truncated_shell_martingale(field, xi, sigma, n0: int, m0: int, j: int) -> float:
    """Noise of the shell between the cones of levels n0 and n0 + j at column
    m0, truncated to |col - m0| <= n0 - 1, each cell weighted by sigma(u) where
    the cone boundary of (n0, m0) crosses its column; one dot per level run."""
    total = 0.0
    for n in range(n0 + j):
        for side in (-1, 1):
            run = [c for c in range(m0 - (n0 - 1), m0 + n0)
                   if (n + c) % 2 == 1 and side * (c - m0) >= 0
                   and not (side == 1 and c == m0)
                   and n0 <= n + abs(c - m0) <= n0 + j - 1]
            if not run:
                continue
            w = sigma(np.array([_u(field, n0 - abs(c - m0), c) for c in run]))
            total += float(np.dot(w, [_xi(xi, field.lattice, n, c) for c in run]))
    return total


# -- heat equation variance ----------------------------------------------------


def heat_variance_kernel(dx: float, dt: float, n_sites: int, n_steps: int,
                         site: int) -> float:
    """Var[v(T, x)] for sigma = 1 on the periodic explicit-Euler grid.

    One deterministic step is the circulant map G = (1-2r) I + r (S + S^-1),
    r = dt/dx^2; the noise term injected at step k spreads through G^(K-1-k).
    Variance = (dt/dx) * sum_k || G^(K-1-k) e_site ||^2 by independence.
    """
    r = dt / (dx * dx)
    e = np.zeros(n_sites)
    e[site] = 1.0
    total = 0.0
    v = e.copy()
    for _ in range(n_steps):
        total += float(np.dot(v, v))
        v = (1.0 - 2.0 * r) * v + r * (np.roll(v, 1) + np.roll(v, -1))
    return (dt / dx) * total


def heat_field_from_kernel(dx: float, dt: float, n_sites: int, n_steps: int,
                           z: np.ndarray, c: float) -> np.ndarray:
    """Final slice of the sigma = constant(c) solution, rebuilt independently.

    v(K) - 1 = c * sqrt(dt/dx) * sum_k G^(K-1-k) z_k with the same normals z.
    """
    r = dt / (dx * dx)
    acc = np.zeros(n_sites)
    for k in range(n_steps):
        acc = (1.0 - 2.0 * r) * acc + r * (np.roll(acc, 1) + np.roll(acc, -1))
        acc += c * math.sqrt(dt / dx) * z[k]
    return 1.0 + acc


def heat_at(row, grid, t: float, x: float) -> float:
    """The value at (t, x) of a solve_heat row, which holds only step t_max."""
    n = grid.step_of(t)
    if n != grid.n_steps:
        raise LookupError(f"t={t} is step {n}, but the row holds only step {grid.n_steps}")
    return float(row[grid.site_of(x)])


def heat_march(sigma, dx: float, dt: float, n_steps: int, z: np.ndarray) -> np.ndarray:
    """Full (n_steps + 1, n_sites) history of the explicit heat march, one row
    at a time: v(0) = 1, v(n+1) = v(n) + r lap v(n) + sigma(v(n)) sqrt(dt/dx) z[n]."""
    r = dt / (dx * dx)
    amp = math.sqrt(dt / dx)
    v = np.empty((n_steps + 1, z.shape[1]))
    v[0] = 1.0
    for n in range(n_steps):
        cur = v[n]
        lap = np.roll(cur, 1) + np.roll(cur, -1) - 2.0 * cur
        v[n + 1] = cur + r * lap + sigma(cur) * (amp * z[n])
    return v


# -- iterated-logarithm control ------------------------------------------------


def brownian_lil_statistics(scales, n_replicates: int, rng_seed: int) -> np.ndarray:
    """The lil statistic evaluated on standard Brownian motion, per replicate.

    B is sampled exactly at the sorted scale grid via independent Gaussian
    bridge-free increments; the statistic divides by sqrt(2 eps loglog(1/eps))
    with unit variance factor, matching the package's normalization at V = 1.
    """
    scales = np.sort(np.asarray(scales, dtype=float))
    steps = np.diff(np.concatenate([[0.0], scales]))
    denom = np.sqrt(2.0 * scales * np.log(np.log(1.0 / scales)))
    rng = np.random.default_rng(rng_seed)
    z = rng.standard_normal((n_replicates, len(scales)))
    paths = np.cumsum(z * np.sqrt(steps), axis=1)
    return np.max(np.abs(paths) / denom, axis=1)


# -- linearization defects, one seed at a time ---------------------------------


def defect_row(sigma, at, at_linear, t: float, x: float, lags) -> list[tuple]:
    """One seed's (du, dl, defect) at each lag, on Python floats. `at` and
    `at_linear` read the nonlinear and the sigma == 1 field of the seed at a
    point (t, x); the defect freezes sigma at the base point:
    du - sigma(u(t, x)) * dl."""
    base_u, base_l = at(t, x), at_linear(t, x)
    frozen = float(sigma(np.float64(base_u)))
    out = []
    for lag in lags:
        du = at(t, x + lag) - base_u
        dl = at_linear(t, x + lag) - base_l
        out.append((du, dl, du - frozen * dl))
    return out


# -- the level loop, one seed at a time ----------------------------------------


def wave_levels(sigma, increments, lat) -> np.ndarray:
    """One seed's field by the plain level loop, packed like WaveField.values:
    level n + 1 is written over the slots of cell row n.

    Level 1 is sigma(1) xi + 1 on the base triangles; every later level takes
    the rounding of (prev[:-1] + prev[1:] - below) + sigma(below) xi, in that
    order, with `below` the interior of the level under `prev`.
    """
    starts = lat.cell_row_starts
    out = np.empty(1 + lat.total_cells)
    out[0] = 1.0
    levels = [np.ones(lat.width(0))]
    for n in range(lat.n_levels):
        xi = increments[starts[n]:starts[n + 1]]
        if n == 0:
            new = xi * float(sigma(np.float64(1.0))) + 1.0
        else:
            prev, below = levels[n], levels[n - 1][1:-1]
            new = prev[:-1] + prev[1:] - below + sigma(below) * xi
        levels.append(new)
        out[1 + starts[n]:1 + starts[n + 1]] = new
    return out


# -- the package under test ----------------------------------------------------


def solved(sigma, seed: int, lat, words=None):
    """(field, increments) of one seed on `lat`: the field solved in a block of
    one, and a copy of the increments it was driven by."""
    block = make_noise([seed], lat, words)
    xi = block.increments[0].copy()
    return solve_wave(sigma, block)[0], xi


if __name__ == "__main__":
    print("closed-form anchors (t = 1, sigma(u) = u):")
    print(f"  E[u^2]            = {POINT_SECOND_MOMENT:.12f}")
    print(f"  E[temporal limit] = {TEMPORAL_LIMIT_MEAN:.12f}")
    print(f"  E[D]/span         = {SPATIAL_LIMIT_PER_UNIT:.12f}")
    print(f"  E[naive]/span     = {NAIVE_PER_UNIT:.12f}")
    print(f"  qv/naive ratio    = {QV_OVER_NAIVE:.12f}")
    ode = second_moment_ode([0.5, 1.0])
    print(f"ODE check: m2(0.5) = {ode[0]:.12f} vs {math.cosh(SQRT2 * 0.5):.12f}")
    print(f"           m2(1.0) = {ode[1]:.12f} vs {POINT_SECOND_MOMENT:.12f}")
    for h_exp in (6, 8):
        h = 2.0 ** -h_exp
        n = int(round(1.0 / h))
        m = discrete_second_moment(n, h)
        print(f"lattice m2 at t=1, h=2^-{h_exp}: {m[n]:.12f} "
              f"(bias {m[n] / POINT_SECOND_MOMENT - 1.0:+.6%})")
    print(f"cone area n0=7 (unit h): {enum_cone_area(7, 1.0):.1f} vs 49")
    print(f"cone area n0=8 (unit h): {enum_cone_area(8, 1.0):.1f} vs 64")
    print(f"shell 5->9 (unit h): {enum_shell_area(5, 9, 1.0):.1f} vs 81-25=56")
    print(f"truncated 8->12 (unit h): {enum_truncated_shell_area(8, 12, 1.0):.1f} "
          f"vs eps(2t-h) = 4*(16-1) = 60")
    print(f"side shell n0=8 d=4 (unit h): {enum_side_shell_area(8, 4, 1.0):.1f} "
          f"vs 2(t d - d^2/4) = 2*(32-4) = 56")
