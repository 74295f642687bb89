"""Time shipped studies, or whole benchmark rounds, on two source trees,
interleaved in one process.

Usage: python3 tools/ab_studies.py OLD_TREE NEW_TREE STEM:REPLICATES... [--rounds N]
       python3 tools/ab_studies.py OLD_TREE NEW_TREE --workload NAME [--seed S] [--rounds N]

Each tree's src/swelab is imported under a module name of its own
(swelab_old, swelab_new), so both live in one interpreter with the same
warm caches and the same share of the machine.

With STEM:REPLICATES, for N rounds (default 10), every study STEM
(configs/acceptance/STEM.yaml of each tree) runs through that tree's
run_study at REPLICATES replicates and workers 1, writing no files: one tree
then the other, the first side alternating by round.

With --workload, each tree's bench/workloads.make_plan gives one round of
that benchmark workload at seed S (default 1): its studies run through the
tree's run_study, its CLI calls through the tree's cli.main with stdout and
stderr captured, writing into a temporary directory of each tree. A round
runs every operation of one tree, then every operation of the other, the
first side alternating by round, so CLI costs such as argument parsing are
timed too. A CLI call that exits with neither 0 nor 1 stops the script.

The script prints each study's median wall seconds per tree (in workload
mode summed over the study's operations in a round, plus a `round` row), the
ratio NEW/OLD, in how many rounds NEW was faster, OLD's quartile spread
(q3 - q1 of its wall seconds) as a share of its median, and each tree's
median minor page faults (ru_minflt), system seconds (ru_stime) and user CPU
seconds (ru_utime) over the same calls. A change that moves work onto other
threads can cut the wall time while it raises the user seconds.

`meets` says whether a gain of NEW over OLD meets the rule a speed claim
rests on: NEW faster in at least nine rounds of ten, ties counting for
neither, and NEW's median below OLD's by more than OLD's quartile spread. A
change that wins 6 or 7 rounds of 10 reads `no`, however large its median
ratio. On identical trees `--workload small-studies` has read NEW about 5%
faster (cause not found), so before resting a claim on a `yes`, run the
trees in both orders and see that the swapped run reads `no`.

Pairs taken seconds apart in one process see the same machine, which
resolves differences of a few percent that whole-benchmark runs, drifting
by +-10% between runs, cannot. It supplements the benchmark's parent and
change pairs (python3 bench/run.py); it does not replace them: it times no
process start or import.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import importlib.util
import io
import resource
import shutil
import statistics
import sys
import tempfile
import time
import warnings
from pathlib import Path


def load_module(path: Path, name: str, package_dir: Path | None = None):
    """The module (or, with package_dir, the package) at `path`, imported as
    `name`; a package's modules import one another relatively, so they
    resolve inside `name`."""
    spec = importlib.util.spec_from_file_location(
        name, path,
        submodule_search_locations=None if package_dir is None else [str(package_dir)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def import_tree(tree: Path, name: str):
    """The package tree/src/swelab, imported as `name`."""
    pkg = tree / "src" / "swelab"
    return load_module(pkg / "__init__.py", name, pkg)


def study(tree: Path, package: str, stem: str, replicates: int):
    """A zero-argument callable that runs one study of `tree` once."""
    config = importlib.import_module(f"{package}.config")
    run_study = importlib.import_module(f"{package}.studies").run_study
    cfg = config.load_config(str(tree / "configs" / "acceptance" / f"{stem}.yaml"),
                             {"replicates": replicates, "workers": 1})
    return lambda: run_study(cfg)


def _cli_call(main, argv: list[str]) -> None:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = main(argv)
    if code not in (0, 1):
        raise SystemExit(f"{' '.join(argv)} exited {code}:\n{sink.getvalue()[-2000:]}")


def workload_round(tree: Path, package: str, workload: str, seed: int, out: Path):
    """(stem, zero-argument callable) for every operation of one round of a
    benchmark workload, as tree/bench/workloads.py plans it into `out`."""
    workloads = load_module(tree / "bench" / "workloads.py", f"workloads_{package}")
    plan = workloads.make_plan(workload, seed, out)
    config = importlib.import_module(f"{package}.config")
    run_study = importlib.import_module(f"{package}.studies").run_study
    main = importlib.import_module(f"{package}.cli").main
    ops = []
    for op in plan["studies"]:
        cfg = config.load_config(op["config"], {
            "replicates": op["replicates"], "base_seed": op["base_seed"],
            "workers": 1, "out_dir": op["out"]})
        ops.append((op["stem"], functools.partial(run_study, cfg)))
    ops += [(op["stem"], functools.partial(_cli_call, main, op["argv"]))
            for op in plan["cli"]]
    return ops


def measure(run) -> tuple[float, int, float, float]:
    """(wall seconds, minor page faults, system seconds, user seconds) of one
    call; the user seconds count every thread of the process."""
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    run()
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    return (wall, after.ru_minflt - before.ru_minflt, after.ru_stime - before.ru_stime,
            after.ru_utime - before.ru_utime)


def meets_rule(old: list[float], new: list[float]) -> tuple[int, float, bool]:
    """For wall seconds paired round by round: in how many rounds NEW was
    faster (a tie counts for neither), OLD's quartile spread q3 - q1 (0 for
    one round), and whether NEW won at least nine tenths of the rounds with a
    median below OLD's by more than that spread."""
    wins = sum(n < o for o, n in zip(old, new))
    q1, _, q3 = statistics.quantiles(old, n=4) if len(old) > 1 else old * 3
    gain = statistics.median(old) - statistics.median(new)
    return wins, q3 - q1, 10 * wins >= 9 * len(old) and gain > q3 - q1


def _add(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def time_studies(args, sides) -> dict:
    plans = []
    for item in args.studies:
        stem, _, reps = item.partition(":")
        plans.append((stem, {side: study(getattr(args, side).resolve(), f"swelab_{side}",
                                         stem, int(reps))
                             for side in sides}))
    costs = {(stem, side): [] for stem, _ in plans for side in sides}
    for r in range(args.rounds):
        for stem, runs in plans:
            for side in (sides if r % 2 == 0 else sides[::-1]):
                costs[stem, side].append(measure(runs[side]))
    return costs


def time_workload(args, sides, scratch: Path) -> dict:
    rounds = {side: workload_round(getattr(args, side).resolve(), f"swelab_{side}",
                                   args.workload, args.seed, scratch / side)
              for side in sides}
    stems = list(dict.fromkeys(stem for stem, _ in rounds["new"]))
    costs = {(name, side): [] for name in [*stems, "round"] for side in sides}
    for r in range(args.rounds):
        for side in (sides if r % 2 == 0 else sides[::-1]):
            shutil.rmtree(scratch / side, ignore_errors=True)
            spent = {stem: (0.0, 0, 0.0, 0.0) for stem in stems}
            for stem, run in rounds[side]:
                spent[stem] = _add(spent[stem], measure(run))
            for stem, cost in spent.items():
                costs[stem, side].append(cost)
            costs["round", side].append(functools.reduce(_add, spent.values()))
    return costs


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    ap.add_argument("old", type=Path)
    ap.add_argument("new", type=Path)
    ap.add_argument("studies", nargs="*", metavar="STEM:REPLICATES")
    ap.add_argument("--workload", default=None,
                    help="time whole rounds of this benchmark workload instead")
    ap.add_argument("--seed", type=int, default=1, help="workload seed")
    ap.add_argument("--rounds", type=int, default=10)
    args = ap.parse_args(argv)
    if bool(args.studies) == (args.workload is not None):
        ap.error("give either STEM:REPLICATES studies or --workload, not both")
    warnings.simplefilter("ignore")
    sides = ("old", "new")
    for side in sides:
        import_tree(getattr(args, side).resolve(), f"swelab_{side}")
    if args.workload is None:
        costs = time_studies(args, sides)
    else:
        with tempfile.TemporaryDirectory() as scratch:
            costs = time_workload(args, sides, Path(scratch))
    print(f"{'study':24s} {'old s':>8s} {'new s':>8s} {'new/old':>8s}  new faster"
          f"  {'old iqr':>7s} {'meets':>5s}"
          f"  {'old flt':>8s} {'new flt':>8s} {'old sys':>8s} {'new sys':>8s}"
          f" {'old usr':>8s} {'new usr':>8s}")
    for name in dict.fromkeys(name for name, _ in costs):
        old, new = costs[name, "old"], costs[name, "new"]
        wins, spread, meets = meets_rule([o[0] for o in old], [n[0] for n in new])
        (mo, fo, so, uo), (mn, fn, sn, un) = (
            [statistics.median(column) for column in zip(*runs)] for runs in (old, new))
        print(f"{name:24s} {mo:8.3f} {mn:8.3f} {mn / mo:8.3f}  {wins:>4d} of {len(old):<3d}"
              f"  {spread / mo:7.1%} {'yes' if meets else 'no':>5s}"
              f"  {fo:8.0f} {fn:8.0f} {so:8.3f} {sn:8.3f} {uo:8.3f} {un:8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
