"""Random-feature basis: sampling, evaluation, and the step-size bound."""

import numpy as np
import pytest

from rpnn_parareal import (
    RpnnBasis,
    admissible_step_bound,
    eval_network,
    eval_network_derivative,
    sample_basis,
)
from rpnn_parareal.problems import BENCHMARK_NAMES
from rpnn_parareal.rpnn import eval_network_many

from conftest import assert_bitwise, benchmark_network, sample_times


def _tiny_basis(dt=1.0, node=None):
    """Hand-built H=C=1 basis with a=1, b=0 for closed-form checks."""
    a = np.array([1.0])
    b = np.array([0.0])
    nodes = np.array([dt if node is None else node])
    z = np.outer(nodes, a) + b
    tanh_z = np.tanh(z)
    feat = tanh_z
    feat_prime = (1.0 - tanh_z**2) * a
    sigma_b = np.tanh(b)
    return RpnnBasis(
        hidden=1, colloc=1, a=a, b=b, sigma_b=sigma_b, nodes=nodes,
        node_kind="uniform", dt=dt, feat=feat, feat_prime=feat_prime,
        feat_shifted=feat - sigma_b, cond=1.0, resamples=0, seed=0,
    )


def test_sampling_is_deterministic():
    b1 = sample_basis(5, 5, 1.0, seed=123)
    b2 = sample_basis(5, 5, 1.0, seed=123)
    assert np.array_equal(b1.a, b2.a) and np.array_equal(b1.b, b2.b)
    assert np.array_equal(b1.feat_prime, b2.feat_prime)
    b3 = sample_basis(5, 5, 1.0, seed=124)
    assert not np.array_equal(b1.a, b3.a)


def test_sampled_weights_respect_bounds():
    basis = sample_basis(5, 5, 1.0, bounds=(-0.5, 0.25), seed=9)
    assert np.all(basis.a >= -0.5) and np.all(basis.a <= 0.25)
    assert np.all(basis.b >= -0.5) and np.all(basis.b <= 0.25)


def test_feature_matrices_consistent_with_definition():
    basis = sample_basis(5, 5, 0.8, seed=4)
    z = np.outer(basis.nodes, basis.a) + basis.b
    np.testing.assert_allclose(basis.feat, np.tanh(z), atol=1e-14)
    np.testing.assert_allclose(
        basis.feat_prime, (1.0 - np.tanh(z) ** 2) * basis.a, atol=1e-14
    )
    np.testing.assert_array_equal(basis.feat_shifted, basis.feat - np.tanh(basis.b))
    assert np.isfinite(basis.cond)


def test_tiny_basis_feature_derivative():
    dt = 0.7
    basis = _tiny_basis(dt=dt)
    expected = (1.0 - np.tanh(dt) ** 2) * 1.0
    assert basis.feat_prime[0, 0] == pytest.approx(expected, rel=1e-15)


def test_sample_basis_validation():
    with pytest.raises(ValueError):
        sample_basis(5, 4, 1.0)
    with pytest.raises(ValueError):
        sample_basis(5, 5, 0.0)
    with pytest.raises(ValueError):
        sample_basis(5, 5, 1.0, bounds=(1.0, -1.0))
    with pytest.raises(ValueError, match="hidden"):
        sample_basis(True, True, 1.0)
    for bounds in [(0.0, 1.0, 2.0), (1.0,), 5.0]:
        with pytest.raises(ValueError, match="weight bounds must be a pair"):
            sample_basis(5, 5, 1.0, bounds=bounds)


# These raised OverflowError from numpy and LinAlgError from the SVD.
@pytest.mark.parametrize("dt, bounds", [
    (0.1, (-np.inf, 1.0)), (0.1, (-1.0, np.inf)), (0.1, (np.nan, 1.0)),
    (np.inf, (-1.0, 1.0)), (np.nan, (-1.0, 1.0)),
], ids=["low-inf", "high-inf", "low-nan", "dt-inf", "dt-nan"])
def test_sample_basis_rejects_non_finite_input(dt, bounds):
    with pytest.raises(ValueError, match="weight bounds|interval length"):
        sample_basis(5, 5, dt, bounds=bounds)


def test_no_resample_exhaustion_over_many_seeds():
    for seed in range(1000):
        basis = sample_basis(5, 5, 1.0, seed=seed)
        assert basis.resamples <= 10
        assert basis.cond <= 1e14


def test_resample_exhaustion_raises():
    from rpnn_parareal import BasisConditioningError

    # features are effectively constant on a vanishing interval, so every
    # draw is ill conditioned
    with pytest.raises(BasisConditioningError):
        sample_basis(5, 5, 1e-9, seed=0)


def test_lobatto_node_kind_supported():
    basis = sample_basis(5, 5, 1.0, node_kind="lobatto", seed=1)
    assert basis.nodes[0] == 0.0 and basis.nodes[-1] == 1.0
    assert basis.node_kind == "lobatto"


def test_network_at_zero_returns_initial_state_bitwise():
    basis = sample_basis(5, 5, 1.0, seed=8)
    rng = np.random.default_rng(0)
    theta = rng.standard_normal((5, 3))
    x0 = np.array([0.1, -2.7, 31.0])
    assert np.array_equal(eval_network(basis, theta, x0, 0.0), x0)


def test_network_zero_weights_is_constant():
    basis = sample_basis(5, 5, 1.0, seed=8)
    x0 = np.array([1.0, 2.0])
    for t in (0.0, 0.3, 1.0):
        assert np.array_equal(eval_network(basis, np.zeros((5, 2)), x0, t), x0)
        assert np.array_equal(
            eval_network_derivative(basis, np.zeros((5, 2)), t), np.zeros(2)
        )


def test_tiny_network_closed_form():
    basis = _tiny_basis(dt=1.0)
    w = 2.5
    theta = np.array([[w]])
    x0 = np.array([0.4])
    t = 0.3
    got = eval_network(basis, theta, x0, t)
    assert got[0] == pytest.approx(0.4 + w * np.tanh(t), rel=1e-15)
    dgot = eval_network_derivative(basis, theta, t)
    assert dgot[0] == pytest.approx(w * (1.0 - np.tanh(t) ** 2), rel=1e-15)


def test_derivative_matches_finite_differences():
    basis = sample_basis(5, 5, 1.0, seed=2)
    rng = np.random.default_rng(3)
    for _ in range(20):
        theta = rng.standard_normal((5, 2))
        x0 = rng.standard_normal(2)
        t = rng.uniform(0.05, 0.95)
        h = 1e-6
        fd = (eval_network(basis, theta, x0, t + h) - eval_network(basis, theta, x0, t - h)) / (2 * h)
        analytic = eval_network_derivative(basis, theta, t)
        err = np.linalg.norm(analytic - fd) / max(np.linalg.norm(analytic), 1e-12)
        assert err <= 1e-7


def test_second_derivative_fd_converges_at_second_order():
    basis = sample_basis(5, 5, 1.0, seed=2)
    theta = np.random.default_rng(1).standard_normal((5, 1))
    x0 = np.array([0.5])
    t = 0.4

    def second_diff(h):
        vals = [eval_network(basis, theta, x0, t + k * h)[0] for k in (-1, 0, 1)]
        return (vals[0] - 2 * vals[1] + vals[2]) / h**2

    d_h, d_h2, d_h4 = second_diff(1e-2), second_diff(5e-3), second_diff(2.5e-3)
    ratio = abs(d_h - d_h2) / abs(d_h2 - d_h4)
    assert 3.0 <= ratio <= 5.0


def test_eval_network_many_matches_scalar_eval():
    basis = sample_basis(5, 5, 1.0, seed=6)
    theta = np.random.default_rng(2).standard_normal((5, 3))
    x0 = np.array([1.0, 0.0, -1.0])
    ts = np.linspace(0, 1, 7)
    batch = eval_network_many(basis, theta, x0, ts)
    for k, t in enumerate(ts):
        np.testing.assert_allclose(batch[k], eval_network(basis, theta, x0, t), atol=1e-14)


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_network_rows_equal_single_time_calls_bitwise(name):
    _, x0, basis, theta = benchmark_network(name)
    ts = sample_times(basis.dt)
    values = eval_network(basis, theta, x0, ts)
    derivatives = eval_network_derivative(basis, theta, ts)
    assert values.shape == derivatives.shape == (len(ts), len(x0))
    assert_bitwise(eval_network_many(basis, theta, x0, ts), values)
    for k, t in enumerate(ts.tolist()):
        # The single-time forms are the products the solver has always made.
        tanh_z = np.tanh(basis.a * t + basis.b)
        value = eval_network(basis, theta, x0, t)
        derivative = eval_network_derivative(basis, theta, t)
        assert_bitwise(value, x0 + theta.T @ (tanh_z - basis.sigma_b))
        assert_bitwise(derivative, theta.T @ ((1.0 - tanh_z * tanh_z) * basis.a))
        assert_bitwise(values[k], value)
        assert_bitwise(derivatives[k], derivative)
    assert_bitwise(values[0], x0)


def test_shape_mismatch_rejected():
    basis = sample_basis(5, 5, 1.0, seed=6)
    with pytest.raises(ValueError):
        eval_network(basis, np.zeros((4, 3)), np.zeros(3), 0.1)
    with pytest.raises(ValueError):
        eval_network(basis, np.zeros((5, 2)), np.zeros(3), 0.1)
    with pytest.raises(ValueError):
        eval_network_derivative(basis, np.zeros((4, 2)), 0.1)


def test_step_bound_zero_lipschitz_is_unbounded():
    basis = sample_basis(5, 5, 1.0, seed=0)
    assert admissible_step_bound(basis, 0.0) == np.inf


def test_step_bound_scales_inversely_with_lipschitz():
    basis = sample_basis(5, 5, 1.0, seed=0)
    assert admissible_step_bound(basis, 2.0) == pytest.approx(
        0.5 * admissible_step_bound(basis, 1.0), rel=1e-14
    )


def test_step_bound_tiny_basis_closed_form():
    basis = _tiny_basis(dt=1.0, node=0.1)
    got = admissible_step_bound(basis, 1.0)
    assert got == pytest.approx(1.0 - np.tanh(0.1) ** 2, rel=1e-12)
    assert got == pytest.approx(0.990066, abs=1e-6)


def test_step_bound_rejects_negative_lipschitz():
    basis = sample_basis(5, 5, 1.0, seed=0)
    with pytest.raises(ValueError):
        admissible_step_bound(basis, -1.0)
