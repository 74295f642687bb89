"""tools/same_bytes.py, which CI runs on pull requests, refuses to pass when
there is nothing to compare."""
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tool():
    spec = importlib.util.spec_from_file_location("swelab_same_bytes",
                                                  ROOT / "tools" / "same_bytes.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_a_tree_without_shipped_configs_exits_two(tmp_path, capsys):
    tool = load_tool()
    bare = tmp_path / "bare"
    (bare / "src").mkdir(parents=True)
    assert tool.main([str(bare), str(bare)]) == 2
    assert "has no configs/acceptance/*.yaml" in capsys.readouterr().err
    # one shipped tree is not enough: the other side still has nothing
    assert tool.main([str(ROOT), str(bare)]) == 2
    assert str(bare) in capsys.readouterr().err


def test_the_new_tree_is_also_compared_with_itself_at_workers_2(monkeypatch, capsys):
    tool = load_tool()
    runs = []

    def run_tree(tree, work, replicates, block=None, workers=1):
        # each run writes one file; only the run at workers 2 writes it differently
        runs.append((tree, block, workers))
        (work / "out").mkdir(parents=True)
        (work / "out" / "rows.csv").write_text(f"{workers}\n")
        return work / "out"

    monkeypatch.setattr(tool, "run_tree", run_tree)
    assert tool.main([str(ROOT), str(ROOT)]) == 1
    assert (ROOT, None, 2) in runs
    out = capsys.readouterr().out
    assert "differs at workers 2: rows.csv" in out
    assert "1 files compared, 0 differ at block size 1" in out
