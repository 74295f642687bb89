"""Check that two source trees write the same bytes for the shipped configs.

Usage: python3 tools/same_bytes.py OLD_TREE NEW_TREE

Each tree runs its own configs/acceptance/*.yaml through its own src/, at 20
replicates and workers 1, from a scratch directory of its own into the
relative out_dir out/<config stem>, so both reports echo the same out_dir.
NEW_TREE runs a second time with ensemble.BLOCK_SIZE = 1, every replicate in
a block of its own. Every file written (replicate and series CSVs, reports,
snapshots) is then compared byte for byte, OLD_TREE's against NEW_TREE's and
NEW_TREE's at block size 1 against its own at the shipped block size. The
script lists each file that differs or exists on one side only, and exits 1
if there is any, 0 if there is none.
"""
from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPLICATES = 20

# run in a fresh interpreter with the tree's src/ first on the path
_RUN = """
import sys, warnings
from pathlib import Path
import swelab
import swelab.ensemble
from swelab.config import load_config
from swelab.studies import run_study
src, replicates, block, *configs = sys.argv[1:]
if Path(swelab.__file__).resolve().parent.parent != Path(src).resolve():
    sys.exit(f"imported swelab from {swelab.__file__}, not from {src}")
if int(block):
    swelab.ensemble.BLOCK_SIZE = int(block)
warnings.simplefilter("ignore")
for path in configs:
    run_study(load_config(path, {"replicates": int(replicates) or None, "workers": 1,
                                 "out_dir": f"out/{Path(path).stem}"}))
"""


def run_tree(tree: Path, work: Path, replicates: int | None,
             block: int | None = None) -> Path:
    """Run every shipped config of `tree` from `work`; the out/ directory.
    `replicates` None keeps each config's own count, `block` None the tree's
    own ensemble.BLOCK_SIZE."""
    configs = sorted((tree / "configs" / "acceptance").glob("*.yaml"))
    work.mkdir(parents=True)
    src = tree / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", _RUN, str(src), str(replicates or 0),
                    str(block or 0), *map(str, configs)], cwd=work, env=env, check=True)
    return work / "out"


def differing(old: Path, new: Path) -> tuple[int, list[str]]:
    """(files compared, relative paths that differ or exist on one side only)."""
    def files(root: Path) -> set[str]:
        return {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}

    names = sorted(files(old) | files(new))
    bad = [name for name in names
           if not ((old / name).is_file() and (new / name).is_file()
                   and (old / name).read_bytes() == (new / name).read_bytes())]
    return len(names), bad


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    old, new = (Path(arg).resolve() for arg in argv)
    with tempfile.TemporaryDirectory() as tmp:
        try:
            old_out, new_out, single_out = [
                run_tree(tree, Path(tmp) / side, REPLICATES, block)
                for side, tree, block in (("old", old, None), ("new", new, None),
                                          ("new_block1", new, 1))]
        except subprocess.CalledProcessError as exc:
            print(f"a study run failed: {exc}", file=sys.stderr)
            return 2
        count, bad = differing(old_out, new_out)
        count_single, bad_single = differing(new_out, single_out)
    for name in bad:
        print(f"differs: {name}")
    for name in bad_single:
        print(f"differs at block size 1: {name}")
    print(f"{count} files compared, {len(bad)} differ; at block size 1, "
          f"{count_single} compared, {len(bad_single)} differ")
    return 1 if bad or bad_single else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
