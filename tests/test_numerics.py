import json
import math
import pickle
import warnings

import numpy as np
import pytest
from scipy.special import expit

from roi_attend.numerics import (
    EvaluationError,
    SeededRng,
    ShapeError,
    grad_check,
    _sigmoid,
    softmax,
)


def gate_sigmoid(v):
    with np.errstate(over="ignore"):
        return _sigmoid(v)


class TestSoftmax:
    def test_uniform_for_equal_scores(self):
        np.testing.assert_allclose(softmax([0.0, 0.0, 0.0]), np.full(3, 1 / 3), atol=1e-12)

    def test_log_counts_give_proportions(self):
        out = softmax([math.log(1), math.log(2), math.log(3)])
        np.testing.assert_allclose(out, [1 / 6, 2 / 6, 3 / 6], atol=1e-12)

    def test_large_scores_do_not_overflow(self):
        out = softmax([1000.0, 0.0])
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(1.0)
        assert out[1] == pytest.approx(0.0, abs=1e-12)

    def test_shift_invariance(self):
        rng = SeededRng(3)
        v = rng.normal(size=9)
        for c in (-5.0, 0.25, 1e6):
            np.testing.assert_allclose(softmax(v), softmax(v + c), atol=1e-12)

    def test_sums_to_one_and_preserves_argmax(self):
        rng = SeededRng(4)
        for _ in range(50):
            v = rng.normal(scale=10.0, size=6)
            out = softmax(v)
            assert abs(out.sum() - 1.0) <= 1e-12
            assert np.argmax(out) == np.argmax(v)

    def test_empty_input_rejected(self):
        with pytest.raises(ShapeError):
            softmax([])


class TestActivations:
    """numerics._sigmoid as the LSTM gates run it, inside one
    np.errstate(over="ignore")."""

    def test_sigmoid_at_zero(self):
        assert gate_sigmoid(0.0) == 0.5

    def test_sigmoid_symmetry(self):
        assert gate_sigmoid(2.5) + gate_sigmoid(-2.5) == pytest.approx(1.0, abs=1e-15)

    def test_open_interval_ranges(self):
        v = np.linspace(-8, 8, 33)
        s = gate_sigmoid(v)
        assert np.all((s > 0) & (s < 1))

    def test_scalar_and_zero_d_input(self):
        for v in (0.0, 0, np.float64(0.0), np.asarray(0.0)):
            s = gate_sigmoid(v)
            assert np.shape(s) == () and s == 0.5
        assert gate_sigmoid(np.asarray(2.0)) == gate_sigmoid(np.array([2.0]))[0]

    def test_saturates_exactly_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert gate_sigmoid(800.0) == 1.0
            assert gate_sigmoid(-800.0) == 0.0
            np.testing.assert_array_equal(gate_sigmoid(np.array([-1e308, -800.0, 800.0, 1e308])), [0.0, 0.0, 1.0, 1.0])
            assert gate_sigmoid(-np.inf) == 0.0 and gate_sigmoid(np.inf) == 1.0

    def test_within_one_ulp_of_scipy_expit(self):
        """At most one ulp of 1.0 (the top of the range) apart. exp's last bit
        differs between NumPy and libm; where 1 + exp(-v) rounds that bit away
        or keeps it, the quotient can move by 2 ulps of a value just below 1,
        and in the far negative tail, where expit divides exp(v) by
        1 + exp(v) instead, by up to 4 ulps of the (tiny) value itself."""
        rng = SeededRng(12)
        v = np.concatenate([np.linspace(-760.0, 760.0, 200001), rng.normal(scale=4.0, size=20000), [-0.0, 1e-300]])
        ours, ref = gate_sigmoid(v), expit(v)
        diff = np.abs(ours - ref)
        assert diff.max() <= np.spacing(1.0)
        assert np.all(diff <= 4 * np.spacing(np.minimum(ours, ref)))


class TestGradCheck:
    def test_quadratic_closed_form(self):
        theta = np.array([1.0, 2.0])
        report = grad_check(lambda t: float(t @ t), theta, 2.0 * theta, h=1e-5)
        np.testing.assert_allclose(report.fd, [2.0, 4.0], rtol=1e-8)
        np.testing.assert_allclose(report.analytic, [2.0, 4.0])

    def test_sine_closed_form(self):
        report = grad_check(
            lambda t: math.sin(t[0]), np.array([0.3]), np.array([math.cos(0.3)]), h=1e-5
        )
        np.testing.assert_allclose(report.fd, [math.cos(0.3)], rtol=1e-8)

    def test_constant_function(self):
        report = grad_check(lambda t: 5.0, np.zeros(4), np.zeros(4), h=1e-5)
        np.testing.assert_array_equal(report.fd, np.zeros(4))

    def test_fd_noise_is_one_ulp_of_largest_value_over_h(self):
        report = grad_check(lambda t: float(t.sum()) - 3.0, np.zeros(2), np.ones(2), h=1e-4)
        assert report.fd_noise == np.finfo(np.float64).eps * (3.0 + 1e-4) / 1e-4

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            grad_check(lambda t: float(t.sum()), np.zeros(3), np.zeros(2))

    def test_nonpositive_step_rejected(self):
        with pytest.raises(ValueError):
            grad_check(lambda t: 0.0, np.zeros(1), np.zeros(1), h=0.0)

    def test_nonfinite_value_names_coordinate(self):
        def f(t):
            return float("nan") if t[1] != 0 else 0.0

        with pytest.raises(EvaluationError) as exc:
            grad_check(f, np.zeros(3), np.zeros(3))
        assert "1" in str(exc.value)


class TestSeededRng:
    def test_equal_seeds_equal_streams(self):
        a = SeededRng(42).uniform(size=10_000)
        b = SeededRng(42).uniform(size=10_000)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(SeededRng(1).uniform(size=100), SeededRng(2).uniform(size=100))

    def test_state_roundtrip_resumes_stream(self):
        rng = SeededRng(9)
        rng.normal(size=17)
        blob = rng.get_state()
        want = rng.uniform(size=5)
        resumed = SeededRng.from_state(blob)
        np.testing.assert_array_equal(resumed.uniform(size=5), want)
        assert resumed.seed == 9

    def test_seed_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            SeededRng(-1)
        with pytest.raises(ValueError):
            SeededRng(2**64)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_state_with_a_seed_out_of_range_rejected(self, seed):
        state = json.loads(SeededRng(3).get_state())
        with pytest.raises(ValueError, match="seed must fit in 64 unsigned bits"):
            SeededRng.from_state(json.dumps({**state, "seed": seed}, sort_keys=True))

    @pytest.mark.parametrize("field, value, message", [
        ("buffer_pos", -1, "buffer_pos -1 is outside"),
        ("buffer_pos", 5, "buffer_pos 5 is outside"),
        ("has_uint32", 7, "has_uint32 must be 0 or 1, not 7"),
    ])
    def test_state_outside_philox_rejected(self, field, value, message):
        state = json.loads(SeededRng(3).get_state())
        with pytest.raises(ValueError, match=message):
            SeededRng.from_state(json.dumps({**state, field: value}, sort_keys=True))

    def test_is_a_generator_on_philox_keyed_by_the_seed(self):
        rng, ref = SeededRng(11), np.random.Generator(np.random.Philox(key=11))
        assert isinstance(rng, np.random.Generator)
        np.testing.assert_array_equal(rng.uniform(size=7), ref.uniform(size=7))
        np.testing.assert_array_equal(rng.normal(size=7), ref.normal(size=7))
        np.testing.assert_array_equal(rng.integers(0, 100, size=7), ref.integers(0, 100, size=7))
        np.testing.assert_array_equal(rng.permutation(30), ref.permutation(30))
        assert rng.bit_generator.random_raw() == ref.bit_generator.random_raw()

    def test_permutation_is_a_permutation(self):
        perm = SeededRng(5).permutation(30)
        assert sorted(perm.tolist()) == list(range(30))

    def test_foreign_state_rejected(self):
        with pytest.raises(ValueError):
            SeededRng.from_state('{"bit_generator": "MT19937", "seed": 0}')

    def test_pickle_roundtrip_keeps_type_seed_and_stream(self):
        rng = SeededRng(7)
        rng.normal(size=5)
        rng.integers(0, 10, dtype=np.int32)  # leaves half of a 64-bit draw buffered
        copy = pickle.loads(pickle.dumps(rng))
        assert type(copy) is SeededRng
        assert copy.seed == 7 and copy.get_state() == rng.get_state()
        np.testing.assert_array_equal(copy.integers(0, 10, dtype=np.int32, size=3), rng.integers(0, 10, dtype=np.int32, size=3))
        np.testing.assert_array_equal(copy.uniform(size=5), rng.uniform(size=5))
