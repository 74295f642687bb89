"""Time shipped studies on two source trees, interleaved in one process.

Usage: python3 tools/ab_studies.py OLD_TREE NEW_TREE STEM:REPLICATES... [--rounds N]

Each tree's src/swelab is imported under a module name of its own
(swelab_old, swelab_new), so both live in one interpreter with the same
warm caches and the same share of the machine. For N rounds (default 10),
every study STEM (configs/acceptance/STEM.yaml of each tree) runs through
that tree's run_study at REPLICATES replicates and workers 1, writing no
files: one tree then the other, the first side alternating by round. The
script prints each study's median wall seconds per tree, the ratio
NEW/OLD, and in how many rounds NEW was faster.

Pairs taken seconds apart in one process see the same machine, which
resolves differences of a few percent that whole-benchmark runs, drifting
by +-10% between runs, cannot. It supplements the benchmark's parent and
change pairs (python3 bench/run.py); it does not replace them: it times
only run_study, with no process start, import or I/O.
"""
from __future__ import annotations

import argparse
import importlib
import importlib.util
import statistics
import sys
import time
import warnings
from pathlib import Path


def import_tree(tree: Path, name: str):
    """The package tree/src/swelab, imported as `name` (its modules import
    one another relatively, so they resolve inside `name`)."""
    pkg = tree / "src" / "swelab"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def study(tree: Path, package: str, stem: str, replicates: int):
    """A zero-argument callable that runs one study of `tree` once."""
    config = importlib.import_module(f"{package}.config")
    run_study = importlib.import_module(f"{package}.studies").run_study
    cfg = config.load_config(str(tree / "configs" / "acceptance" / f"{stem}.yaml"),
                             {"replicates": replicates, "workers": 1})
    return lambda: run_study(cfg)


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    ap.add_argument("old", type=Path)
    ap.add_argument("new", type=Path)
    ap.add_argument("studies", nargs="+", metavar="STEM:REPLICATES")
    ap.add_argument("--rounds", type=int, default=10)
    args = ap.parse_args(argv)
    warnings.simplefilter("ignore")
    sides = ("old", "new")
    for side in sides:
        import_tree(getattr(args, side).resolve(), f"swelab_{side}")
    plans = []
    for item in args.studies:
        stem, _, reps = item.partition(":")
        plans.append((stem, {side: study(getattr(args, side).resolve(), f"swelab_{side}",
                                         stem, int(reps))
                             for side in sides}))
    walls = {(stem, side): [] for stem, _ in plans for side in sides}
    for r in range(args.rounds):
        for stem, runs in plans:
            for side in (sides if r % 2 == 0 else sides[::-1]):
                start = time.perf_counter()
                runs[side]()
                walls[stem, side].append(time.perf_counter() - start)
    print(f"{'study':24s} {'old s':>8s} {'new s':>8s} {'new/old':>8s}  new faster")
    for stem, _ in plans:
        old, new = walls[stem, "old"], walls[stem, "new"]
        wins = sum(n < o for o, n in zip(old, new))
        mo, mn = statistics.median(old), statistics.median(new)
        print(f"{stem:24s} {mo:8.3f} {mn:8.3f} {mn / mo:8.3f}  {wins} of {len(old)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
