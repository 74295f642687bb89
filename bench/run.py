"""swelab benchmark: one workload, measured end to end or traced per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cone-estimators, solve-bound, heat-contrast, small-studies (see
README.md). A run repeats whole rounds of the workload, each in a fresh
process, until S seconds have passed (at least MIN_ROUNDS rounds). Every round
performs the same operations on the same seed-derived inputs. The first
round's outputs are checked against computations made apart from the program;
every later round must write byte-identical outputs.

With --trace 0 the result holds the end-to-end metrics: medians over rounds
of setup_s, wall_s, cpu_s and peak_rss_mb. With --trace 1 rounds alternate
untraced and traced; the result holds the per-layer metrics (medians over the
traced rounds) and the tracing overhead. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_ROUNDS = 2
ROUND_TIMEOUT_S = 150
WORKER_SLICE = ("holder_slopes", 8)  # config and replicates of the workers 1-vs-2 slice

def _parse(argv):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="shrink replicate counts to the minimum (benchmark self-test)")
    return ap.parse_args(argv)


def run_round(plan: dict, traced: bool) -> dict:
    """Run one round in a fresh process; setup_s runs from launch to ready."""
    shutil.rmtree(plan["out"], ignore_errors=True)
    launched = time.monotonic()
    # A fixed hash seed keeps set and dict layouts the same from round to round.
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "round.py"), json.dumps(plan), "1" if traced else "0"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(err)
        raise RuntimeError(f"round process exited {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - launched
    result["traced"] = traced
    return result


def read_outputs(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def prepare_reference(plan: dict, work: Path) -> list:
    """small-studies only: the longer untimed run and the workers 1-vs-2 slice."""
    from checks import Check, replicate_csv, same_files
    from swelab import cli
    from swelab.config import load_config
    from swelab.errors import ConfigurationWarning
    from swelab.studies import run_study
    from workloads import config_path

    if not plan["cli"]:
        return []
    for stem, ref in plan["reference"].items():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConfigurationWarning)
            run_study(load_config(str(config_path(stem)), overrides={
                "replicates": ref["replicates"], "base_seed": ref["base_seed"],
                "workers": 1, "out_dir": str(work / "reference" / stem)}))
    stem, replicates = WORKER_SLICE
    codes, csvs = [], []
    for workers in (1, 2):
        out = work / f"workers{workers}"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["simulate", str(config_path(stem)),
                             "--replicates", str(replicates),
                             "--seed", str(plan["reference"][stem]["base_seed"]),
                             "--workers", str(workers), "--out-dir", str(out)])
        codes.append(code)
        csvs.append(replicate_csv(out).read_bytes())
    return [Check(f"{stem} at workers 1 and 2: exit 0 or 1", set(codes) <= {0, 1},
                  f"exits {codes}"),
            same_files(f"{stem}: replicate CSV at workers 2 = at workers 1",
                       {"csv": csvs[1]}, {"csv": csvs[0]})]


def check_round(plan: dict, result: dict, work: Path) -> list:
    from checks import check_cli_outputs, check_study_outputs

    done = [op for op, o in zip(plan["studies"], result["ops"]) if not o["failed"]]
    cli_ops = result["ops"][len(plan["studies"]):]
    return (check_study_outputs(dict(plan, studies=done))
            + check_cli_outputs(plan, cli_ops, work / "reference"))


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "swelab" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'swelab'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Import everything the rounds import, so that bytecode caches and the
    # page cache are warm before the first timed round.
    import swelab.cli  # noqa: F401
    from checks import same_files
    from tracer import layer_metrics
    from workloads import make_plan

    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    plan = make_plan(args.workload, args.seed, work / "round", smoke=args.smoke)
    checks = prepare_reference(plan, work)

    rounds, first = [], None
    start = time.monotonic()
    while len(rounds) < MIN_ROUNDS or time.monotonic() - start < args.seconds:
        result = run_round(plan, traced=bool(args.trace) and len(rounds) % 2 == 1)
        outputs = read_outputs(Path(plan["out"]))
        if first is None:
            first = outputs
            checks += check_round(plan, result, work)
        else:
            checks.append(same_files(f"round {len(rounds)}: outputs = round 0 outputs",
                                     outputs, first))
        rounds.append(result)

    attempted = (len(plan["studies"]) + len(plan["cli"])) * len(rounds)
    failed = sum(o["failed"] for r in rounds for o in r["ops"])
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    median = statistics.median
    if args.trace:
        per_round = [layer_metrics(r["trace"]) for r in traced]
        values = {name: median(m[name] for m in per_round) for name in per_round[0]}
        values["trace.wall_s"] = median(r["wall_s"] for r in traced)
        values["trace.overhead_s"] = values["trace.wall_s"] - median(r["wall_s"] for r in plain)
    else:
        values = {"setup_s": median(r["setup_s"] for r in rounds)}
        values.update({name: median(r[name] for r in plain)
                       for name in ("wall_s", "cpu_s", "peak_rss_mb")})
    metrics = {name: {"value": v, "unit": unit_of(name)} for name, v in values.items()}
    for r in rounds:
        for o in r["ops"]:
            if o["failed"]:
                print(f"failed: {o['stem']}: {o.get('error')}", file=sys.stderr)

    correct = all(c.ok for c in checks)
    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)} "
          f"({len(traced)} traced)  attempted {attempted}  failed {failed}")
    for c in checks:
        print(f"  check {'PASS' if c.ok else 'FAIL'}  {c.name}  ({c.detail})")
    for name in ("setup_s", "wall_s"):
        print(f"  per round {name}: " + " ".join(f"{r[name]:.3f}" for r in rounds))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def unit_of(name: str) -> str:
    """Units follow the metric name's last word: ms, s, mb or bytes, else a count."""
    suffix = name.replace(".", "_").rsplit("_", 1)[-1]
    return {"ms": "ms", "s": "s", "mb": "MB", "bytes": "bytes"}.get(suffix, "count")


if __name__ == "__main__":
    sys.exit(main())
