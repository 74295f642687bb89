"""Check that two source trees write the same bytes for the shipped configs.

Usage: python3 tools/same_bytes.py OLD_TREE NEW_TREE

Each tree runs its own configs/acceptance/*.yaml through its own src/, at 20
replicates and workers 1, from a scratch directory of its own into the
relative out_dir out/<config stem>, so both reports echo the same out_dir.
The simulate configs run with params.snapshot set, which no shipped config
sets, so that their field and noise snapshots are compared too. NEW_TREE
runs a second time with ensemble.BLOCK_SIZE = 1, every replicate in a block
of its own, and a third time with its replicates run by a pool of 2 worker
processes; the configs still say workers 1, so the reports echo the same
config. Every file written (replicate and series CSVs, reports, snapshots)
is then compared byte for byte: OLD_TREE's against NEW_TREE's, and
NEW_TREE's at block size 1 and at workers 2 against its own first run. The
script lists each file that differs or exists on one side only, and exits 1
if there is any, 0 if there is none. It exits 2 when a tree has no shipped
config, so that there is nothing to compare, or when a study run fails.
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
src, replicates, block, workers, *configs = sys.argv[1:]
if Path(swelab.__file__).resolve().parent.parent != Path(src).resolve():
    sys.exit(f"imported swelab from {swelab.__file__}, not from {src}")
if int(block):
    swelab.ensemble.BLOCK_SIZE = int(block)
if int(workers) > 1:
    run = swelab.studies.run_replicates
    swelab.studies.run_replicates = (
        lambda fn, payload, **kw: run(fn, payload, **{**kw, "workers": int(workers)}))
warnings.simplefilter("ignore")
for path in configs:
    overrides = {"replicates": int(replicates) or None, "workers": 1,
                 "out_dir": f"out/{Path(path).stem}"}
    if load_config(path).kind == "simulate":
        overrides["params"] = {"snapshot": True}
    run_study(load_config(path, overrides))
"""


def run_tree(tree: Path, work: Path, replicates: int | None,
             block: int | None = None, workers: int = 1) -> Path:
    """Run every shipped config of `tree` from `work`; the out/ directory.
    `replicates` None keeps each config's own count, `block` None the tree's
    own ensemble.BLOCK_SIZE; `workers` above 1 runs the replicates in a pool
    of that many processes."""
    configs = sorted((tree / "configs" / "acceptance").glob("*.yaml"))
    work.mkdir(parents=True)
    src = tree / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", _RUN, str(src), str(replicates or 0),
                    str(block or 0), str(workers), *map(str, configs)],
                   cwd=work, env=env, check=True)
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
    for tree in (old, new):
        if not any((tree / "configs" / "acceptance").glob("*.yaml")):
            print(f"{tree} has no configs/acceptance/*.yaml to compare", file=sys.stderr)
            return 2
    # side -> (tree, block size, workers); then the pairs of sides compared
    runs = {"old": (old, None, 1), "new": (new, None, 1),
            "new_block1": (new, 1, 1), "new_workers2": (new, None, 2)}
    pairs = (("old", "new", ""), ("new", "new_block1", " at block size 1"),
             ("new", "new_workers2", " at workers 2"))
    with tempfile.TemporaryDirectory() as tmp:
        try:
            outs = {side: run_tree(tree, Path(tmp) / side, REPLICATES, block, workers)
                    for side, (tree, block, workers) in runs.items()}
        except subprocess.CalledProcessError as exc:
            print(f"a study run failed: {exc}", file=sys.stderr)
            return 2
        found = [(where, *differing(outs[a], outs[b])) for a, b, where in pairs]
    for where, _, bad in found:
        for name in bad:
            print(f"differs{where}: {name}")
    print("; ".join(f"{count} files compared, {len(bad)} differ{where}"
                    for where, count, bad in found))
    return 1 if any(bad for *_, bad in found) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
