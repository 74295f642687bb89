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
