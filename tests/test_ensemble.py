import os

import numpy as np
import pytest

import swelab.ensemble as ensemble
from swelab.ensemble import EnsembleResult, run_replicates
from swelab.errors import PreconditionError, SimulationError

# With blocks of 16, 37 replicates span three blocks and replicate 21 is
# neither first nor last in the second one.


def record_seed(seeds, payload) -> list[dict[str, float]]:
    return [{"seed": float(s), "shifted": float(s + payload)} for s in seeds]


def explode_on_seed(seeds, bad) -> list[dict[str, float]]:
    return [{"value": float("nan") if s == bad else 1.0} for s in seeds]


def drop_column_on_seed(seeds, bad) -> list[dict[str, float]]:
    return [{"a": 1.0} if s == bad else {"a": 1.0, "b": 2.0} for s in seeds]


def drop_row_of_seed(seeds, bad) -> list[dict[str, float]]:
    return [{"a": 1.0} for s in seeds if s != bad]


def test_each_replicate_gets_base_seed_plus_index():
    res = run_replicates(record_seed, 100, base_seed=40, replicates=4)
    assert res.base_seed == 40
    assert res.columns == ("seed", "shifted")
    assert list(res.column("seed")) == [40.0, 41.0, 42.0, 43.0]
    assert list(res.column("shifted")) == [140.0, 141.0, 142.0, 143.0]
    assert res.n == 4


def test_worker_count_never_changes_the_rows():
    one = run_replicates(record_seed, 7, base_seed=3, replicates=37, workers=1)
    assert one.base_seed == 3 and one.n == 37
    for workers in (2, 3):
        other = run_replicates(record_seed, 7, base_seed=3, replicates=37, workers=workers)
        assert one.columns == other.columns
        assert one.base_seed == other.base_seed
        assert one.rows.tobytes() == other.rows.tobytes()


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and maps in
    this process, so no process is started."""

    made: list[int] = []

    def __init__(self, max_workers):
        self.made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("workers, replicates, cpus, started", [
    (5000, 2, 64, 1),   # one seed block
    (5000, 37, 64, 3),  # three seed blocks
    (5000, 37, 2, 2),   # two CPUs
    (2, 2, 64, 1),      # workers 2 still takes the pool
    (2, 37, 64, 2),
])
def test_the_pool_starts_no_more_processes_than_blocks_or_cpus(
        monkeypatch, workers, replicates, cpus, started):
    monkeypatch.setattr(ensemble, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(RecordingPool, "made", [])
    got = run_replicates(record_seed, 7, base_seed=3, replicates=replicates,
                         workers=workers)
    assert RecordingPool.made == [started]
    want = run_replicates(record_seed, 7, base_seed=3, replicates=replicates)
    assert got.rows.tobytes() == want.rows.tobytes()


def test_block_size_never_changes_the_rows(monkeypatch):
    want = run_replicates(record_seed, 7, base_seed=3, replicates=37)
    for size in (1, 5, 64):
        monkeypatch.setattr(ensemble, "BLOCK_SIZE", size)
        got = run_replicates(record_seed, 7, base_seed=3, replicates=37)
        assert got.base_seed == want.base_seed
        assert got.rows.tobytes() == want.rows.tobytes()


def test_non_finite_stat_names_the_seed():
    with pytest.raises(SimulationError, match="non-finite \\['value'\\].*seed 12"):
        run_replicates(explode_on_seed, 12, base_seed=10, replicates=5)
    for workers in (1, 2):
        with pytest.raises(SimulationError, match="replicate 21 .*seed 31") as info:
            run_replicates(explode_on_seed, 31, base_seed=10, replicates=37,
                           workers=workers)
        assert info.value.seed == 31


def test_ragged_columns_are_rejected():
    with pytest.raises(SimulationError, match="expected \\('a', 'b'\\)"):
        run_replicates(drop_column_on_seed, 5, base_seed=0, replicates=8)
    with pytest.raises(SimulationError, match="replicate 21 produced stats \\('a',\\)") as info:
        run_replicates(drop_column_on_seed, 121, base_seed=100, replicates=37)
    assert info.value.seed == 121


def test_a_block_must_return_one_row_per_seed():
    with pytest.raises(SimulationError, match="replicates 16..31 produced 15 rows") as info:
        run_replicates(drop_row_of_seed, 20, base_seed=0, replicates=37)
    assert info.value.seed == 16


def test_run_replicates_argument_validation():
    with pytest.raises(PreconditionError, match="replicates"):
        run_replicates(record_seed, 0, base_seed=0, replicates=0)
    with pytest.raises(PreconditionError, match="workers"):
        run_replicates(record_seed, 0, base_seed=0, replicates=1, workers=0)


def test_result_shape_is_checked():
    with pytest.raises(PreconditionError, match="does not match"):
        EnsembleResult(("a",), 0, np.zeros((3, 2)))
    res = EnsembleResult(("a",), 0, np.array([[2.0]]))
    with pytest.raises(KeyError, match="no stat named 'b'"):
        res.column("b")
