"""Self-test of the benchmark: smoke runs and perturbed-input checks.

    python3 -m pytest bench -q

The smoke runs execute every workload at minimum size with all its checks.
The perturbation tests feed each check real outputs (which must pass) and the
same outputs with a fault put in (which must fail).
"""
import json
import math
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from checks import read_table, replicate_csv  # noqa: E402
from workloads import WORKLOADS, config_path  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric_and_passes_its_checks(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 2
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "solve-bound", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- perturbed inputs ---------------------------------------------------------


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Small real studies: stem -> (config dict, table, report, base seed)."""
    from swelab.config import load_config
    from swelab.studies import run_study

    root = tmp_path_factory.mktemp("studies")
    sizes = {"anchors_temporal": 8, "rate_ladder": 8, "martingale_split": 8,
             "lil_unit": 4, "holder_slopes": 16, "clt_multiplicative": 32,
             "linearize_heat": 12, "linearize_wave": 8}
    out = {}
    for k, (stem, replicates) in enumerate(sizes.items()):
        seed = 1000 + 100 * k
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # small replicate counts warn
            run_study(load_config(str(config_path(stem)), overrides={
                "replicates": replicates, "base_seed": seed, "out_dir": str(root / stem)}))
        report = json.loads(next((root / stem).glob("*_report.json")).read_text())
        out[stem] = (checks.load_yaml(config_path(stem)),
                     read_table(replicate_csv(root / stem)), report, seed)
    return out


def _shifted(table, column, sigmas):
    """The column moved by `sigmas` standard errors of its own mean."""
    v = table.col(column)
    return table.with_col(column, v + sigmas * np.std(v, ddof=1) / math.sqrt(v.size))


def _all_ok(results):
    return all(c.ok for c in results)


BIAS = 3 * checks.Z_TOL  # a bias no correct sample reaches


def test_anchor_means_fail_when_biased(outputs):
    cfg, table, _, _ = outputs["anchors_temporal"]
    assert _all_ok(checks.check_anchors_temporal(cfg, table))
    for column in ("u_sq", "cone_integral"):
        assert not _all_ok(checks.check_anchors_temporal(cfg, _shifted(table, column, BIAS)))


def test_ladder_and_martingale_means_fail_when_biased(outputs):
    cfg, table, _, _ = outputs["rate_ladder"]
    assert _all_ok(checks.check_rate_ladder(cfg, table))
    assert not _all_ok(checks.check_rate_ladder(cfg, _shifted(table, "b_32", BIAS)))
    cfg, table, _, _ = outputs["martingale_split"]
    assert _all_ok(checks.check_martingale_split(cfg, table))
    assert not _all_ok(checks.check_martingale_split(cfg, _shifted(table, "m_0", -BIAS)))
    cfg, table, _, _ = outputs["holder_slopes"]
    assert _all_ok(checks.check_holder_slopes(cfg, table))
    assert not _all_ok(checks.check_holder_slopes(cfg, _shifted(table, "probe0_u", BIAS)))


def test_raw_enumeration_fails_on_a_wrong_seed_or_value(outputs):
    cfg, table, _, seed = outputs["lil_unit"]
    assert _all_ok(checks.check_lil_unit(cfg, table, seed))
    assert not _all_ok(checks.check_lil_unit(cfg, table, seed + 1))
    bumped = table.col("norm_2").copy()
    bumped[-1] *= 1.0 + 1e-9
    assert not _all_ok(checks.check_lil_unit(cfg, table.with_col("norm_2", bumped), seed))


def test_ks_checks_fail_on_shifted_increments_or_a_wrong_statistic(outputs):
    cfg, table, report, _ = outputs["clt_multiplicative"]
    assert _all_ok(checks.check_clt_multiplicative(cfg, table, report))
    finest = f"std_{len(cfg['params']['scales']) - 1}"
    moved = table.with_col(finest, table.col(finest) + 3.0)
    assert not checks.check_clt_multiplicative(cfg, moved, report)[0].ok
    wrong = dict(report, stats=dict(report["stats"], ks_final=report["stats"]["ks_final"] + 1e-9))
    assert not checks.check_clt_multiplicative(cfg, table, wrong)[1].ok


def test_heat_covariance_fails_on_rescaled_increments(outputs):
    cfg, table, _, _ = outputs["linearize_heat"]
    assert _all_ok(checks.check_linearize_heat(cfg, table))
    for factor in (3.0, 1.0 / 3.0):
        scaled = table
        for i in range(len(cfg["params"]["lags"])):
            scaled = scaled.with_col(f"dl_{i}", factor * scaled.col(f"dl_{i}"))
        assert not _all_ok(checks.check_linearize_heat(cfg, scaled))


def test_heat_covariance_oracle_matches_a_direct_march():
    dx, dt, n_sites, n_steps, lags = 0.25, 0.015625, 16, 40, [1, 2, 5]
    cov = checks.heat_increment_covariance(dx, dt, n_sites, n_steps, lags)
    r = dt / dx ** 2
    g = (1 - 2 * r) * np.eye(n_sites) + r * (np.roll(np.eye(n_sites), 1, 0)
                                             + np.roll(np.eye(n_sites), -1, 0))
    d = np.array([np.eye(n_sites)[k] - np.eye(n_sites)[0] for k in lags])
    direct = sum(d @ np.linalg.matrix_power(g, 2 * k) @ d.T for k in range(n_steps))
    assert np.allclose(cov, dt / dx * direct, rtol=1e-12, atol=0)


def test_contrast_fails_when_reversed_or_misreported(outputs):
    _, heat, heat_report, _ = outputs["linearize_heat"]
    _, wave, wave_report, _ = outputs["linearize_wave"]
    assert _all_ok(checks.check_contrast(heat, heat_report, wave, wave_report))
    assert not checks.check_contrast(wave, wave_report, heat, heat_report)[0].ok
    off = dict(heat_report, stats=dict(heat_report["stats"], ratio_smallest=0.2))
    assert not _all_ok(checks.check_contrast(heat, off, wave, wave_report))


def test_seed_invariant_fails_on_shifted_seeds(outputs):
    _, table, _, seed = outputs["anchors_temporal"]
    study = {"stem": "anchors_temporal", "base_seed": seed}
    assert _all_ok(checks.check_common(study, table))
    assert not _all_ok(checks.check_common(dict(study, base_seed=seed + 1), table))


def test_cli_checks_fail_on_bad_exits_or_changed_rows(outputs, tmp_path):
    _, table, _, seed = outputs["holder_slopes"]
    (tmp_path / "reference" / "holder_slopes").mkdir(parents=True)
    ref_csv = tmp_path / "reference" / "holder_slopes" / "h_replicates.csv"
    ref_csv.write_text(",".join(table.columns) + "\n" + "\n".join(table.lines) + "\n")
    call = tmp_path / "call"
    call.mkdir()
    # replicates 4 and 5 of the reference, renumbered as a 2-replicate run
    lines = [f"{i}," + line.split(",", 1)[1] for i, line in enumerate(table.lines[4:6])]
    (call / "h_replicates.csv").write_text(",".join(table.columns) + "\n"
                                           + "\n".join(lines) + "\n")
    plan = {"cli": [{"stem": "holder_slopes", "base_seed": seed + 4, "out": str(call)}],
            "reference": {"holder_slopes": {"base_seed": seed, "replicates": 16}}}
    ok = [{"exit": 1, "failed": False}]
    assert _all_ok(checks.check_cli_outputs(plan, ok, tmp_path / "reference"))
    assert not _all_ok(checks.check_cli_outputs(plan, [{"exit": 2, "failed": True}],
                                                tmp_path / "reference"))
    lines[1] = lines[1][:-1] + str((int(lines[1][-1]) + 1) % 10)
    (call / "h_replicates.csv").write_text(",".join(table.columns) + "\n"
                                           + "\n".join(lines) + "\n")
    assert not _all_ok(checks.check_cli_outputs(plan, ok, tmp_path / "reference"))


def test_file_equality_fails_on_one_changed_byte():
    files = {"a.csv": b"1,2\n", "b.json": b"{}\n"}
    assert checks.same_files("same", dict(files), files).ok
    assert not checks.same_files("changed", dict(files, **{"a.csv": b"1,3\n"}), files).ok
    assert not checks.same_files("missing", {"a.csv": b"1,2\n"}, files).ok
