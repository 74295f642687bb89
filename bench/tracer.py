"""Per-layer self times and counts, recorded from outside the program.

`Tracer.install` wraps the listed functions of each swelab module and swaps
every reference to them across the package (modules import each other's
functions by name, and studies dispatch through STUDY_RUNNERS). A wrapper
records the call's duration; a stack of child totals turns durations into
self times, so a layer's time excludes the wrapped layers it calls into.
Counts are taken at the same boundaries from arguments and results.
"""
from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict

# layer -> functions wrapped in that module. Private names are listed where
# a layer's hot loop lives in one (heat._march).
LAYERS = {
    "noise": ("stream_words", "words_to_unit_normals", "make_noise"),
    "wave": ("solve_wave", "solve_coupled_linearization", "field_at",
             "cone_boundary_trace"),
    "heat": ("_march", "_normals", "solve_heat", "solve_coupled_heat_linearization"),
    "lattice": ("shell_segments", "cone_segments", "side_shell_segments"),
    "quadvar": ("temporal_qv_limit", "temporal_qv_decomposition", "temporal_qv_ladder",
                "temporal_qv", "spatial_qv", "spatial_qv_limit", "naive_qv_prediction"),
    "fluctuations": ("conditional_variance", "increment_sample",
                     "martingale_decomposition", "lil_statistic"),
    "linearize": ("wave_defect_samples", "heat_defect_samples"),
    "studies": ("run_study",),
    "stats": ("summarize", "ks_distance", "ks_critical_value", "loglog_slope",
              "quantiles"),
    "ensemble": ("run_replicates",),
    "reports": ("ensure_out_dir", "summary_report", "write_ensemble_csv",
                "write_table_csv", "write_json_report", "write_field_csv",
                "write_wave_snapshot", "write_noise_snapshot"),
    "config": ("load_config", "config_from_dict", "validate"),
    "cli": ("main",),
}

_MB = float(2 ** 20)


def _count_words(args, out):
    return {"noise.words": len(out)}


def _count_points(args, out):
    lat = out.lattice
    w0, n = lat.width(0), lat.n_levels
    return {"wave.points": n * w0 - n * (n + 1) // 2}


def _count_march(args, out):
    grid = args[1]
    return {"heat.site_steps": grid.n_steps * grid.n_sites,
            "heat.field_bytes": out.nbytes}


def _count_written(args, out):
    return {"reports.bytes": os.path.getsize(args[0])}


COUNTERS = {
    ("noise", "stream_words"): _count_words,
    ("wave", "solve_wave"): _count_points,
    ("heat", "_march"): _count_march,
}
for _name in LAYERS["reports"]:
    if _name.startswith("write_"):
        COUNTERS[("reports", _name)] = _count_written


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)  # "layer.function" -> self seconds
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self._child = [0.0]  # time spent in wrapped callees, per open frame

    def wrap(self, key: str, fn, counter=None):
        clock = time.perf_counter
        child = self._child

        def traced(*args, **kwargs):
            child.append(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                spent = clock() - start
                self.self_s[key] += spent - child.pop()
                child[-1] += spent
                self.calls[key] += 1
            if counter is not None:
                for name, value in counter(args, out).items():
                    self.counts[name] += value
            return out

        return traced

    def install(self) -> None:
        """Wrap every listed function and each study's replicate/aggregate pair."""
        import swelab

        modules = [importlib.import_module(f"swelab.{layer}") for layer in LAYERS]
        swaps = {}
        for layer, mod in zip(LAYERS, modules):
            for name in LAYERS[layer]:
                original = getattr(mod, name)
                swaps[id(original)] = (original, self.wrap(
                    f"{layer}.{name}", original, COUNTERS.get((layer, name))))
        for mod in modules + [swelab]:
            for attr, value in list(vars(mod).items()):
                if id(value) in swaps and swaps[id(value)][0] is value:
                    setattr(mod, attr, swaps[id(value)][1])
        runners = importlib.import_module("swelab.studies").STUDY_RUNNERS
        for kind, (rep, agg) in list(runners.items()):
            runners[kind] = (self.wrap("studies.replicate", rep),
                             self.wrap("studies.aggregate", agg))

    def snapshot(self) -> dict:
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "counts": dict(self.counts)}


def layer_metrics(snap: dict) -> dict[str, float]:
    """Per-layer metrics of one traced round, normalised as the README states:
    per replicate, per study, or per CLI invocation."""
    s, calls, counts = snap["self_s"], snap["calls"], snap["counts"]

    def ms(*keys):
        return 1e3 * sum(s.get(k, 0.0) for k in keys)

    reps = max(calls.get("studies.replicate", 0), 1)
    studies = max(calls.get("studies.run_study", 0), 1)
    invocations = max(calls.get("cli.main", 0), 1)
    return {
        "noise.philox_ms": ms("noise.stream_words") / reps,
        "noise.ndtri_ms": ms("noise.words_to_unit_normals") / reps,
        "noise.scale_ms": ms("noise.make_noise") / reps,
        "noise.words": counts.get("noise.words", 0.0) / reps,
        "wave.solve_ms": ms("wave.solve_wave") / reps,
        "wave.points": counts.get("wave.points", 0.0) / reps,
        "wave.probe_ms": ms("wave.field_at", "wave.cone_boundary_trace",
                            "wave.solve_coupled_linearization") / reps,
        "heat.march_ms": ms("heat._march") / reps,
        "heat.site_steps": counts.get("heat.site_steps", 0.0) / reps,
        "heat.field_mb": counts.get("heat.field_bytes", 0.0) / _MB / reps,
        "quadvar.temporal_limit_ms": ms("quadvar.temporal_qv_limit") / reps,
        "quadvar.decomposition_ms": ms("quadvar.temporal_qv_decomposition",
                                       "quadvar.temporal_qv_ladder",
                                       "quadvar.temporal_qv") / reps,
        "quadvar.spatial_ms": ms("quadvar.spatial_qv", "quadvar.spatial_qv_limit",
                                 "quadvar.naive_qv_prediction") / reps,
        "lattice.enumerations": (calls.get("lattice.shell_segments", 0)
                                 + calls.get("lattice.side_shell_segments", 0)) / reps,
        "lattice.enumerate_ms": ms(*(f"lattice.{n}" for n in LAYERS["lattice"])) / reps,
        "fluctuations.martingale_ms": ms("fluctuations.martingale_decomposition") / reps,
        "fluctuations.cond_var_ms": ms("fluctuations.conditional_variance") / reps,
        "fluctuations.cond_var_calls": calls.get("fluctuations.conditional_variance", 0) / reps,
        "linearize.defect_ms": ms("linearize.wave_defect_samples",
                                  "linearize.heat_defect_samples") / reps,
        "studies.glue_ms": ms("studies.replicate") / reps,
        "studies.aggregate_ms": ms("studies.aggregate") / studies,
        "studies.run_self_ms": ms("studies.run_study") / studies,
        "stats.ms": ms(*(f"stats.{n}" for n in LAYERS["stats"])) / studies,
        "ensemble.self_ms": ms("ensemble.run_replicates") / studies,
        "ensemble.replicates": calls.get("studies.replicate", 0) / studies,
        "reports.write_ms": ms(*(f"reports.{n}" for n in LAYERS["reports"])) / studies,
        "reports.bytes": counts.get("reports.bytes", 0.0) / studies,
        "config.load_ms": ms("config.load_config", "config.config_from_dict") / studies,
        "config.validate_ms": ms("config.validate") / studies,
        "config.validate_calls": calls.get("config.validate", 0) / studies,
        "cli.self_ms": ms("cli.main") / invocations,
    }
