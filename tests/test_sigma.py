import numpy as np
import pytest

from swelab.errors import ConfigurationError
from swelab.sigma import CONSTANT_ONE, SigmaSpec

LINEAR = SigmaSpec("linear", (1.0,))


def test_evaluation_per_kind():
    u = np.array([-1.0, 0.0, 2.5])
    assert np.array_equal(SigmaSpec("constant", (3.0,))(u), np.full(3, 3.0))
    assert np.array_equal(SigmaSpec("linear", (2.0,))(u), 2.0 * u)
    assert np.array_equal(SigmaSpec("affine", (1.0, -2.0))(u), 1.0 - 2.0 * u)
    assert np.allclose(SigmaSpec("sine", (0.5,))(u), 0.5 * np.sin(u))
    assert LINEAR.scalar(2.5) == 2.5
    assert CONSTANT_ONE.scalar(-7.0) == 1.0
    # written into a given buffer, u itself included, with the same bytes
    for text in ("constant:3", "linear:2", "affine:1,-2", "sine:0.5"):
        sig = SigmaSpec.parse(text)
        buf = np.empty_like(u)
        assert sig(u, out=buf) is buf
        assert buf.tobytes() == sig(u).tobytes()
        v = u.copy()
        assert sig(v, out=v) is v
        assert v.tobytes() == sig(u).tobytes()


def test_kind_and_arity_validation():
    with pytest.raises(ConfigurationError, match="unknown sigma kind"):
        SigmaSpec("cubic", (1.0,))
    with pytest.raises(ConfigurationError, match="1 parameter"):
        SigmaSpec("linear", (1.0, 2.0))
    with pytest.raises(ConfigurationError, match="2 parameter"):
        SigmaSpec("affine", (1.0,))


def test_constant_and_zero_predicates():
    assert CONSTANT_ONE.is_constant and not CONSTANT_ONE.is_zero
    assert SigmaSpec("constant", (0.0,)).is_zero
    assert SigmaSpec("linear", (0.0,)).is_constant
    assert SigmaSpec("linear", (0.0,)).is_zero
    assert not LINEAR.is_constant
    assert SigmaSpec("affine", (0.5, 0.0)).is_constant
    assert not SigmaSpec("affine", (0.5, 0.0)).is_zero
    assert SigmaSpec("affine", (0.0, 0.0)).is_zero
    assert SigmaSpec("sine", (0.0,)).is_zero


def test_parse_and_label_round_trip():
    for text, want in [
        ("constant:1.0", CONSTANT_ONE),
        ("linear:1", LINEAR),
        ("affine:0.5,2.0", SigmaSpec("affine", (0.5, 2.0))),
        ("sine: 1.5", SigmaSpec("sine", (1.5,))),
    ]:
        assert SigmaSpec.parse(text) == want
    for spec in (CONSTANT_ONE, LINEAR, SigmaSpec("affine", (-1.0, 0.25))):
        assert SigmaSpec.parse(spec.label()) == spec


def test_parse_rejects_malformed_text():
    for bad in ("linear", "linear:", ":1.0", "linear:a", "affine:1.0;2.0"):
        with pytest.raises(ConfigurationError):
            SigmaSpec.parse(bad)
    for bad in ("linear:nan", "sine:inf", "affine:0,nan", "constant:-inf"):
        with pytest.raises(ConfigurationError, match="sigma parameters must be finite"):
            SigmaSpec.parse(bad)


def test_zero_only_when_sigma_vanishes_everywhere():
    # an affine sigma vanishes identically only with both coefficients zero,
    # a sine one only with its amplitude zero; sin(0) == 0 proves nothing
    for params in ((0.0, 1.0), (0.0, -0.5), (0.25, 0.0), (-1.0, 2.0)):
        assert not SigmaSpec("affine", params).is_zero
    assert SigmaSpec("affine", (-0.0, 0.0)).is_zero
    for amplitude in (1.0, -0.5):
        assert not SigmaSpec("sine", (amplitude,)).is_zero
    assert SigmaSpec("sine", (-0.0,)).is_zero
    assert not SigmaSpec("constant", (-1.0,)).is_zero
