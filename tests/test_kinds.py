"""The kind tables of config, studies and the CLI name the same kinds."""
import argparse

from swelab import studies
from swelab.cli import _build_parser
from swelab.config import KINDS


def test_the_kind_tables_agree():
    assert set(KINDS) == set(studies.STUDY_RUNNERS)
    # bench/tracer.py unpacks and rewraps each runner as this pair
    for kind, runner in studies.STUDY_RUNNERS.items():
        assert isinstance(runner, tuple) and len(runner) == 2, kind
        assert all(callable(f) for f in runner), kind
    commands = next(action.choices for action in _build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    assert list(commands) == ["simulate", "qv", "clt", "lil", "mart", "linearize", "report"]
    # each kind runs under exactly one subcommand
    runs = [kind for command in commands.values()
            for kind in command.get_default("kinds") or ()]
    assert sorted(runs) == sorted(KINDS)
