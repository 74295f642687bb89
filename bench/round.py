"""One round of a workload in a fresh process.

Usage: python3 bench/round.py '<plan json>' <trace 0|1>

The process imports the program, loads and validates every config of the plan
and notes the time it became ready. It then runs the plan's operations,
timing wall clock and CPU (self plus children) around them, and prints one
JSON line: ready time, wall and CPU seconds, peak resident memory, the outcome
of each operation and, when traced, the per-layer aggregates.
"""
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

plan = json.loads(sys.argv[1])
traced = sys.argv[2] == "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

# swelab imports numpy, scipy and PyYAML; all of it counts as set-up.
from swelab import cli, studies  # noqa: E402
from swelab.config import load_config, validate  # noqa: E402


def _valid_config(path: str, overrides: dict | None = None):
    cfg = load_config(path, overrides=overrides)
    errors, _ = validate(cfg)
    if errors:
        raise SystemExit(f"invalid config {path}: {errors}")
    return cfg


configs = [_valid_config(op["config"], {"replicates": op["replicates"],
                                        "base_seed": op["base_seed"],
                                        "workers": 1, "out_dir": op["out"]})
           for op in plan["studies"]]
for path in sorted({op["config"] for op in plan["cli"]}):
    _valid_config(path)
ready = time.monotonic()


def _cpu() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _run_ops() -> list[dict]:
    outcomes = []
    for op, cfg in zip(plan["studies"], configs):
        try:
            studies.run_study(cfg)
            outcomes.append({"stem": op["stem"], "failed": False})
        except Exception:
            outcomes.append({"stem": op["stem"], "failed": True,
                             "error": traceback.format_exc(limit=3)})
    sink = io.StringIO()
    for op in plan["cli"]:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(op["argv"])
        outcomes.append({"stem": op["stem"], "exit": code,
                         "failed": code not in (0, 1),
                         "error": sink.getvalue()[-2000:] if code not in (0, 1) else None})
        sink.seek(0)
        sink.truncate()
    return outcomes


tracer = None
if traced:
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()

cpu0 = _cpu()
t0 = time.perf_counter()
outcomes = _run_ops()
wall = time.perf_counter() - t0
cpu = _cpu() - cpu0

print(json.dumps({
    "ready": ready,
    "wall_s": wall,
    "cpu_s": cpu,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    "ops": outcomes,
    "trace": tracer.snapshot() if tracer else None,
}))
