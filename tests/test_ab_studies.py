"""tools/ab_studies.py, which times studies or benchmark rounds on two source
trees in one process, runs end to end in each mode, this tree against itself,
and writes nothing outside a temporary directory."""
import importlib.util
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CACHES = {".git", "__pycache__", ".pytest_cache", ".hypothesis"}
TOOL_MODULES = ("swelab_ab_studies", "swelab_old", "swelab_new", "workloads_")


def load_tool():
    spec = importlib.util.spec_from_file_location("swelab_ab_studies",
                                                  ROOT / "tools" / "ab_studies.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def tree_state() -> dict:
    """(size, mtime) of every file of the repo outside its caches."""
    return {p: (p.stat().st_size, p.stat().st_mtime_ns) for p in ROOT.rglob("*")
            if p.is_file() and not CACHES & set(p.relative_to(ROOT).parts)}


@pytest.fixture
def isolated(tmp_path, monkeypatch):
    """Temporary files under tmp_path, no bytecode written, and the modules the
    tool imports (swelab_old, swelab_new, workloads_*) dropped afterwards."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    yield tmp_path
    for name in [n for n in sys.modules if n.startswith(TOOL_MODULES)]:
        del sys.modules[name]


@pytest.mark.parametrize("args, rows", [
    (["temporal_qv_unit:2"], ["temporal_qv_unit"]),
    (["--workload", "small-studies"], None),  # rows: the workload's studies
], ids=["studies", "workload"])
def test_one_round_of_each_mode_on_this_tree(isolated, capsys, args, rows):
    tool = load_tool()
    if rows is None:
        workloads = tool.load_module(ROOT / "bench" / "workloads.py", "workloads_rows")
        rows = list(dict.fromkeys(stem for stem, _ in workloads.CLI_STUDIES)) + ["round"]
    state = tree_state()
    assert tool.main([str(ROOT), str(ROOT), *args, "--rounds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[:4] == ["study", "old", "s", "new"]
    assert lines[0].split()[8:11] == ["old", "iqr", "meets"]
    assert [line.split()[0] for line in lines[1:]] == rows
    for line in lines[1:]:
        wins, _, rounds, spread, meets = line.split()[4:9]
        assert rounds == "1" and wins in ("0", "1")
        # one round has no spread, so NEW meets the rule exactly when it won
        assert spread == "0.0%"
        assert meets == ("yes" if wins == "1" else "no")
    assert tree_state() == state
    assert list(isolated.iterdir()) == []  # its temporary directory is removed


@pytest.mark.parametrize("new, wins, spread, meets", [
    ([0.9] * 9 + [1.1], 9, 0.0, True),  # nine of ten, median gain beyond the spread
    ([0.9] * 6 + [1.1] * 4, 6, 0.0, False),  # six of ten: no claim
    ([1.0] + [0.9] * 9, 9, 0.0, True),  # a tie counts for neither side
    ([1.0] * 2 + [0.9] * 8, 8, 0.0, False),
], ids=["nine", "six", "tie", "two-ties"])
def test_the_rule_counts_rounds_and_weighs_the_median_against_the_spread(
        new, wins, spread, meets):
    tool = load_tool()
    assert tool.meets_rule([1.0] * 10, new) == (wins, spread, meets)
    # a gain inside OLD's own quartile spread meets nothing, however often it wins
    noisy = [0.75, 1.25] * 5
    assert tool.meets_rule(noisy, [x - 0.125 for x in noisy]) == (10, 0.5, False)
