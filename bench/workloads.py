"""The benchmark's four workloads and the inputs each one draws from a seed.

A workload is a fixed list of operations over the shipped acceptance configs:
studies run through `swelab.studies.run_study`, or CLI invocations through
`swelab.cli.main`. The workload seed picks the base seed of every study, so
the program only ever sees generated inputs; replicate counts are fixed here
and never depend on the seed. This module imports nothing from swelab, so a
plan can be made (and a missing program reported) before anything is loaded.
"""
from __future__ import annotations

import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs" / "acceptance"

# (config stem, replicates per round). Each list is sized so that one round
# takes a few seconds of serial work on one core.
STUDIES = {
    # Estimator-bound: temporal_qv_limit, the decomposition, the ladder and
    # martingale_decomposition dominate each replicate.
    "cone-estimators": [
        ("anchors_temporal", 32),
        ("rate_ladder", 24),
        ("martingale_split", 16),
    ],
    # Solve-bound: the estimators are gathers, so Philox, ndtri, row scaling
    # and solve_wave dominate.
    "solve-bound": [
        ("linearize_wave_sine", 48),
        ("clt_multiplicative", 64),
        ("lil_unit", 48),
        ("holder_slopes", 64),
        ("anchors_spatial", 32),
    ],
    # The paper's contrast: heat marches dominate, the wave side is light.
    "heat-contrast": [
        ("linearize_heat", 20),
        ("linearize_wave", 64),
    ],
}

# small-studies: each shipped config through its CLI subcommand,
# CLI_REPLICATES replicates per call, CLI_SEEDS consecutive base seeds each.
CLI_STUDIES = [
    ("anchors_spatial", "qv"),
    ("anchors_temporal", "qv"),
    ("clt_multiplicative", "clt"),
    ("holder_slopes", "simulate"),
    ("lil_unit", "lil"),
    ("linearize_heat", "linearize"),
    ("linearize_wave", "linearize"),
    ("linearize_wave_sine", "linearize"),
    ("martingale_split", "mart"),
    ("naive_refutation", "qv"),
    ("rate_ladder", "qv"),
    ("spatial_qv_unit_n32", "qv"),
    ("spatial_qv_unit_n64", "qv"),
    ("temporal_qv_unit", "qv"),
]
CLI_REPLICATES = 2
CLI_SEEDS = 3

# Smoke runs keep every operation and check but shrink the replicate counts.
SMOKE_REPLICATES = 4
SMOKE_CLI_SEEDS = 1

WORKLOADS = ("cone-estimators", "solve-bound", "heat-contrast", "small-studies")


def config_path(stem: str) -> Path:
    return CONFIG_DIR / f"{stem}.yaml"


def _base_seeds(workload: str, seed: int, stems: list[str]) -> dict[str, int]:
    rng = random.Random(f"{workload}:{seed}")
    return {stem: rng.randrange(2 ** 40) for stem in stems}


def make_plan(workload: str, seed: int, out_dir: Path, smoke: bool = False) -> dict:
    """JSON-serialisable description of one round's operations.

    Every round of a run performs exactly these operations on exactly these
    inputs, so a run's outputs must be byte-identical from round to round.
    """
    plan = {"out": str(out_dir), "studies": [], "cli": []}
    if workload == "small-studies":
        seeds = _base_seeds(workload, seed, [stem for stem, _ in CLI_STUDIES])
        n_seeds = SMOKE_CLI_SEEDS if smoke else CLI_SEEDS
        for stem, command in CLI_STUDIES:
            for j in range(n_seeds):
                base_seed = seeds[stem] + CLI_REPLICATES * j
                out = str(out_dir / stem / f"s{j}")
                plan["cli"].append({
                    "stem": stem,
                    "config": str(config_path(stem)),
                    "argv": [command, str(config_path(stem)),
                             "--replicates", str(CLI_REPLICATES), "--seed", str(base_seed),
                             "--workers", "1", "--out-dir", out],
                    "base_seed": base_seed,
                    "out": out,
                })
        plan["reference"] = {stem: {"base_seed": seeds[stem],
                                    "replicates": CLI_REPLICATES * n_seeds}
                             for stem in seeds}
        return plan
    seeds = _base_seeds(workload, seed, [stem for stem, _ in STUDIES[workload]])
    for stem, replicates in STUDIES[workload]:
        plan["studies"].append({
            "stem": stem,
            "config": str(config_path(stem)),
            "replicates": min(replicates, SMOKE_REPLICATES) if smoke else replicates,
            "base_seed": seeds[stem],
            "out": str(out_dir / stem),
        })
    return plan
