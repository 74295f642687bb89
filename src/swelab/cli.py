"""Command-line runner: one subcommand per experiment family.

Exit codes: 0 study ran and passed its declared thresholds (or none declared),
1 thresholds declared and failed, 2 configuration problem, 3 runtime failure.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
import traceback

from .config import KINDS, config_from_dict, read_config
from .errors import ConfigurationError, LabError
from .studies import run_study

__all__ = ["main"]


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args leaves it unchanged,
    and every call gets a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="swelab",
        description="Monte Carlo lab for a singular wave equation: quadratic "
                    "variation, fluctuation probes, and linearization contrasts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("config", help="YAML experiment config")
    common.add_argument("--seed", type=int, default=None,
                        help="override base_seed")
    common.add_argument("--replicates", type=int, default=None,
                        help="override replicate count")
    common.add_argument("--workers", type=int, default=None,
                        help="override worker count")
    common.add_argument("--out-dir", default=None,
                        help="override output directory")
    common.add_argument("-v", "--verbose", action="store_true",
                        help="print every aggregated statistic")

    helps = {
        "simulate": "solve fields, probe moments and increment scaling",
        "qv": "quadratic variation studies (qv-time, qv-space, ladder configs)",
        "clt": "standardized short-time increments vs the normal law",
        "lil": "iterated-logarithm scaling probe",
        "mart": "martingale + remainder split of short-time increments",
        "linearize": "frozen-coefficient defect, wave or heat",
    }
    for name in dict.fromkeys(kind.command for kind in KINDS.values()):
        kinds = tuple(k for k, kind in KINDS.items() if kind.command == name)
        sp = sub.add_parser(name, parents=[common], help=helps[name])
        sp.set_defaults(func=_cmd_run, kinds=kinds)
        if name == "qv":
            sp.add_argument("--t", type=float, default=None)
            sp.add_argument("--x", type=float, default=None)
            sp.add_argument("--x-lo", type=float, default=None)
            sp.add_argument("--x-hi", type=float, default=None)
            sp.add_argument("--pieces", default=None,
                            help="partition count, or comma ladder for ladder configs")
            sp.add_argument("--sigma", default=None,
                            help="override noise coefficient, e.g. linear:1.0")
        if name == "linearize":
            sp.add_argument("--equation", choices=("wave", "heat"), default=None)
        if name == "simulate":
            sp.add_argument("--snapshot", action="store_true",
                            help="write field/noise snapshots for the base seed")

    rp = sub.add_parser("report", help="re-read a stored JSON report, print pass/fail")
    rp.add_argument("path", help="path to a *_report.json file")
    rp.set_defaults(func=_cmd_report)
    return parser


def _count(text: str):
    try:
        return int(text)
    except ValueError:
        return text  # refused by the params table, which names the key


def _overrides(args: argparse.Namespace, kind) -> dict:
    """Command-line values as config overrides; None leaves the config's value."""
    params = {key: getattr(args, key, None) for key in ("t", "x", "x_lo", "x_hi")}
    if getattr(args, "snapshot", False):
        params["snapshot"] = True
    pieces = getattr(args, "pieces", None)
    if pieces is not None:
        counts = [_count(v) for v in pieces.split(",")]
        # the kind's params table takes a list of counts or one n_pieces, whose
        # parser refuses a list by key; an unknown kind is refused before params
        table = KINDS[kind].params if isinstance(kind, str) and kind in KINDS else {}
        if "counts" in table:
            params["counts"] = counts
        else:
            params["n_pieces"] = counts[0] if len(counts) == 1 else counts
    return {
        "base_seed": args.seed,
        "replicates": args.replicates,
        "workers": args.workers,
        "out_dir": args.out_dir,
        "sigma": getattr(args, "sigma", None),
        "equation": getattr(args, "equation", None),
        "params": params,
    }


def _check_lines(checks: list[dict]):
    for c in checks:
        lo = "-inf" if c["min"] is None else f"{c['min']:g}"
        hi = "+inf" if c["max"] is None else f"{c['max']:g}"
        status = "PASS" if c["passed"] else "FAIL"
        yield f"  check {c['stat']} = {c['value']:.6g} in [{lo}, {hi}] .. {status}"


def _cmd_run(args: argparse.Namespace) -> int:
    raw = read_config(args.config)
    cfg = config_from_dict(raw, _overrides(args, raw.get("kind")))
    if cfg.kind not in args.kinds:
        raise ConfigurationError(
            f"subcommand {args.command!r} accepts kinds {args.kinds}, "
            f"but the config declares {cfg.kind!r}"
        )
    out = run_study(cfg)
    rep = out.report
    print(f"{cfg.label}: kind={cfg.kind} sigma={cfg.sigma.label()} "
          f"replicates={cfg.replicates} base_seed={cfg.base_seed}")
    if args.verbose:
        for note in rep["notes"]:
            print(f"  note: {note}")
        for name, value in rep["stats"].items():
            print(f"  stat {name} = {value:.8g}")
    for line in _check_lines(rep["checks"]):
        print(line)
    for path in out.files:
        print(f"  wrote {path}")
    if rep["passed"] is None:
        print("done (no thresholds declared)")
        return 0
    print("PASS" if rep["passed"] else "FAIL")
    return 0 if rep["passed"] else 1


def _cmd_report(args: argparse.Namespace) -> int:
    try:
        with open(args.path) as fh:
            rep = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read report {args.path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{args.path} is not valid JSON: {exc}") from exc
    try:
        config = rep.get("config", {})
        lines = [f"{config.get('label', '?')}: kind={config.get('kind', '?')} "
                 f"sigma={config.get('sigma', '?')} "
                 f"replicates={config.get('replicates', '?')}",
                 *_check_lines(rep.get("checks", []))]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"{args.path} is not a swelab report ({type(exc).__name__}: {exc})") from None
    print("\n".join(lines))
    passed = rep.get("passed")
    if passed is None:
        print("no thresholds declared")
        return 0
    print("PASS" if passed else "FAIL")
    return 0 if passed else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except LabError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
