import numpy as np
import pytest

from swelab.ensemble import EnsembleResult, run_replicates
from swelab.errors import PreconditionError, SimulationError


def record_seed(seed: int, payload) -> dict[str, float]:
    return {"seed": float(seed), "shifted": float(seed + payload)}


def explode_on_seed_12(seed: int, payload) -> dict[str, float]:
    return {"value": float("nan") if seed == 12 else 1.0}


def drop_column_on_seed_5(seed: int, payload) -> dict[str, float]:
    if seed == 5:
        return {"a": 1.0}
    return {"a": 1.0, "b": 2.0}


def test_each_replicate_gets_base_seed_plus_index():
    res = run_replicates(record_seed, 100, base_seed=40, replicates=4)
    assert res.index == (0, 1, 2, 3)
    assert res.seeds == (40, 41, 42, 43)
    assert res.columns == ("seed", "shifted")
    assert list(res.column("seed")) == [40.0, 41.0, 42.0, 43.0]
    assert list(res.column("shifted")) == [140.0, 141.0, 142.0, 143.0]
    assert res.n == 4


def test_worker_count_never_changes_the_rows():
    one = run_replicates(record_seed, 7, base_seed=3, replicates=25, workers=1)
    two = run_replicates(record_seed, 7, base_seed=3, replicates=25, workers=3)
    assert one.columns == two.columns
    assert one.index == two.index
    assert one.seeds == two.seeds
    assert one.rows.tobytes() == two.rows.tobytes()


def test_non_finite_stat_names_the_seed():
    with pytest.raises(SimulationError, match="non-finite \\['value'\\].*seed 12"):
        run_replicates(explode_on_seed_12, None, base_seed=10, replicates=5)
    try:
        run_replicates(explode_on_seed_12, None, base_seed=10, replicates=5)
    except SimulationError as exc:
        assert exc.seed == 12


def test_ragged_columns_are_rejected():
    with pytest.raises(SimulationError, match="expected \\('a', 'b'\\)"):
        run_replicates(drop_column_on_seed_5, None, base_seed=0, replicates=8)


def test_run_replicates_argument_validation():
    with pytest.raises(PreconditionError, match="replicates"):
        run_replicates(record_seed, 0, base_seed=0, replicates=0)
    with pytest.raises(PreconditionError, match="workers"):
        run_replicates(record_seed, 0, base_seed=0, replicates=1, workers=0)


def test_result_shape_is_checked():
    with pytest.raises(PreconditionError, match="does not match"):
        EnsembleResult(("a",), (0, 1), (0, 1), np.zeros((3, 1)))
    res = EnsembleResult(("a",), (0,), (0,), np.array([[2.0]]))
    with pytest.raises(KeyError, match="no stat named 'b'"):
        res.column("b")
