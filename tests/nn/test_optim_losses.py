"""Tests for the Adam optimizer, loss functions and serialization."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    Adam,
    Linear,
    Module,
    Tanh,
    Tensor,
    bce_with_logits_loss,
    gaussian_kl_loss,
    l1_loss,
    load_state_dict,
    mse_loss,
    save_state_dict,
)


class _MLP(Module):
    """Linear -> Tanh -> Linear."""

    def __init__(self, inputs, hidden, outputs, rng=None):
        super().__init__()
        self.first = Linear(inputs, hidden, rng=rng)
        self.act = Tanh()
        self.second = Linear(hidden, outputs, rng=rng)

    def forward(self, x):
        return self.second(self.act(self.first(x)))


class TestAdam:
    def test_first_step_size_is_learning_rate(self):
        parameter = Tensor(np.array([1.0]), requires_grad=True)
        optimizer = Adam([parameter], lr=0.01)
        (parameter * 3.0).sum().backward()
        optimizer.step()
        # After bias correction the first Adam step is ~lr * sign(grad).
        assert parameter.data[0] == pytest.approx(1.0 - 0.01, abs=1e-6)

    def test_converges_on_quadratic(self):
        parameter = Tensor(np.array([5.0, -3.0]), requires_grad=True)
        optimizer = Adam([parameter], lr=0.1)
        for _ in range(300):
            optimizer.zero_grad()
            (parameter * parameter).sum().backward()
            optimizer.step()
        np.testing.assert_allclose(parameter.data, [0.0, 0.0], atol=1e-2)

    def test_trains_network_to_fit_linear_map(self):
        rng = np.random.default_rng(7)
        model = _MLP(3, 16, 1, rng=rng)
        optimizer = Adam(model.parameters(), lr=5e-3)
        inputs = rng.standard_normal((64, 3))
        targets = (inputs @ np.array([[1.0], [-2.0], [0.5]])) * 0.3
        losses = []
        for _ in range(150):
            optimizer.zero_grad()
            loss = mse_loss(model(Tensor(inputs)), Tensor(targets))
            loss.backward()
            optimizer.step()
            losses.append(loss.item())
        assert losses[-1] < losses[0] * 0.1

    def test_two_steps_match_the_bias_corrected_formula(self):
        parameter = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        optimizer = Adam([parameter], lr=0.1, betas=(0.5, 0.999))
        expected = parameter.data.copy()
        m = np.zeros(2)
        v = np.zeros(2)
        for step, scale in ((1, 3.0), (2, -1.0)):
            optimizer.zero_grad()
            (parameter * scale).sum().backward()
            optimizer.step()
            m = 0.5 * m + 0.5 * scale
            v = 0.999 * v + 0.001 * scale * scale
            m_hat = m / (1 - 0.5 ** step)
            v_hat = v / (1 - 0.999 ** step)
            expected = expected - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
        np.testing.assert_allclose(parameter.data, expected, rtol=1e-12)

    def test_zero_grad_clears_every_parameter(self):
        parameters = [Tensor(np.ones(2), requires_grad=True),
                      Tensor(np.ones(3), requires_grad=True)]
        optimizer = Adam(parameters)
        sum(p.sum() for p in parameters).backward()
        assert all(p.grad is not None for p in parameters)
        optimizer.zero_grad()
        assert all(p.grad is None for p in parameters)

    def test_skips_parameters_without_grad(self):
        parameter = Tensor(np.array([1.0]), requires_grad=True)
        optimizer = Adam([parameter], lr=0.1)
        optimizer.step()
        assert parameter.data[0] == 1.0

    def test_rejects_empty_parameter_list(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_rejects_non_positive_learning_rate(self):
        with pytest.raises(ValueError):
            Adam([Tensor([1.0], requires_grad=True)], lr=0.0)

    def test_rejects_invalid_betas(self):
        with pytest.raises(ValueError):
            Adam([Tensor([1.0], requires_grad=True)], betas=(1.0, 0.999))


class TestLosses:
    def test_mse_value(self):
        prediction = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        target = Tensor(np.array([0.0, 2.0, 5.0]))
        assert mse_loss(prediction, target).item() == pytest.approx(5.0 / 3.0)

    def test_mse_gradient(self):
        prediction = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        mse_loss(prediction, Tensor(np.array([0.0, 0.0]))).backward()
        np.testing.assert_allclose(prediction.grad, [1.0, 2.0])

    def test_l1_value(self):
        prediction = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        target = Tensor(np.array([0.0, 0.0]))
        assert l1_loss(prediction, target).item() == pytest.approx(1.5)

    def test_bce_with_logits_matches_probability_form(self):
        logits = np.array([-2.0, 0.5, 3.0])
        probabilities = 1 / (1 + np.exp(-logits))
        for target in (0.0, 1.0):
            stable = bce_with_logits_loss(Tensor(logits, requires_grad=True),
                                          target).item()
            reference = -np.mean(target * np.log(probabilities)
                                 + (1 - target) * np.log(1 - probabilities))
            assert stable == pytest.approx(reference, rel=1e-5)

    def test_bce_with_logits_extreme_logits_finite(self):
        logits = Tensor(np.array([-80.0, 80.0]), requires_grad=True)
        assert np.isfinite(bce_with_logits_loss(logits, 1.0).item())

    def test_gaussian_kl_zero_for_standard_normal(self):
        mu = Tensor(np.zeros((4, 6)), requires_grad=True)
        logvar = Tensor(np.zeros((4, 6)), requires_grad=True)
        assert gaussian_kl_loss(mu, logvar).item() == pytest.approx(0.0)

    def test_gaussian_kl_positive_otherwise(self):
        mu = Tensor(np.ones((2, 6)), requires_grad=True)
        logvar = Tensor(np.full((2, 6), -1.0), requires_grad=True)
        assert gaussian_kl_loss(mu, logvar).item() > 0.0

    def test_gaussian_kl_closed_form(self):
        mu_value = np.array([[0.5, -0.5]])
        logvar_value = np.array([[0.2, -0.3]])
        expected = -0.5 * np.sum(1 + logvar_value - mu_value ** 2
                                 - np.exp(logvar_value))
        result = gaussian_kl_loss(Tensor(mu_value, requires_grad=True),
                                  Tensor(logvar_value, requires_grad=True))
        assert result.item() == pytest.approx(expected)


class TestSerialization:
    def test_roundtrip_through_npz(self, tmp_path, rng):
        model = _MLP(4, 4, 2, rng=rng)
        path = tmp_path / "weights.npz"
        save_state_dict(model.state_dict(), path)
        restored = load_state_dict(path)
        fresh = _MLP(4, 4, 2)
        fresh.load_state_dict(restored)
        x = Tensor(rng.standard_normal((3, 4)))
        np.testing.assert_allclose(model(x).data, fresh(x).data)

    def test_keys_with_dots_survive(self, tmp_path):
        state = {"a.b.c": np.array([1.0, 2.0])}
        path = tmp_path / "state.npz"
        save_state_dict(state, path)
        assert "a.b.c" in load_state_dict(path)
