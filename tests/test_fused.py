"""Fused NumPy training kernel: parity with the autodiff reference.

The contract of :mod:`repro.nn.fused` is stronger than "numerically close":
given the same minibatch stream, the stacked fused kernel produces
*bit-identical* losses, gradients and post-Adam weights per seed to the
Tensor-graph path (autodiff :class:`MLP` + :class:`Adam`, kept as the
reference implementation), whether it trains one seed or several.  These
tests pin that contract step by step and across the search's refit pattern,
plus the module round-trips and the model/optimizer checks of
:func:`train_regressor`.
"""

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.nn import (
    MLP,
    Adam,
    BatchedFusedAdam,
    BatchedFusedMLP,
    FusedAdam,
    FusedMLP,
    train_regressor,
)
from repro.nn.losses import mse_loss


def flat_params(model: MLP) -> np.ndarray:
    return np.concatenate([p.data.ravel() for p in model.parameters()])


def flat_grads(model: MLP) -> np.ndarray:
    return np.concatenate([p.grad.ravel() for p in model.parameters()])


def make_pair(in_features=4, hidden=(16, 16), out_features=3, seed=7, **kwargs):
    """An autodiff MLP and its fused twin with identical weights."""
    model = MLP(in_features, hidden, out_features, rng=np.random.default_rng(seed), **kwargs)
    return model, FusedMLP.from_module(model)


def regression_data(count=96, in_features=4, out_features=3, seed=0):
    rng = np.random.default_rng(seed)
    inputs = rng.uniform(-1.0, 1.0, size=(count, in_features))
    targets = rng.normal(size=(count, out_features))
    return inputs, targets


def reference_step(model, adam, batch_x, batch_y):
    """One autodiff training step; returns (loss, flat gradient)."""
    adam.zero_grad()
    loss = mse_loss(model(Tensor(batch_x)), Tensor(batch_y))
    loss.backward()
    grad = flat_grads(model)
    adam.step()
    return loss.item(), grad


class StackedTwin:
    """The stacked kernel over copies of some fused models' weights."""

    def __init__(self, fused_models, **adam_kwargs):
        self.model = BatchedFusedMLP(fused_models[0], len(fused_models))
        self.model.gather(fused_models)
        self.adam = BatchedFusedAdam(self.model, **adam_kwargs)

    def step(self, batches):
        """One stacked step over per-seed ``(x, y)`` batches; returns
        (per-seed losses, a copy of the stacked gradient)."""
        losses = self.model.loss_and_grad(
            np.stack([x for x, _ in batches]), np.stack([y for _, y in batches])
        )
        grad = self.model._grad.copy()  # the buffer is reused
        self.adam.step(self.model._grad)
        return losses, grad


class TestPerStepParity:
    """Identical minibatch order -> identical losses, gradients, weights,
    for the stacked kernel at one seed and at two."""

    @pytest.mark.parametrize("activation", ["tanh", "relu", "sigmoid"])
    def test_loss_grad_and_adam_step_bitwise(self, activation):
        pairs = [make_pair(seed=seed, activation=activation) for seed in (7, 8)]
        references = [(model, Adam(model.parameters(), lr=3e-3)) for model, _ in pairs]
        fused = [twin for _, twin in pairs]
        solo = StackedTwin(fused[:1], lr=3e-3)
        stacked = StackedTwin(fused, lr=3e-3)
        inputs, targets = regression_data()
        rng = np.random.default_rng(11)
        for _ in range(30):
            batches = []
            for _ in references:
                index = rng.permutation(inputs.shape[0])[:32]
                batches.append((inputs[index], targets[index]))
            expected = [
                reference_step(model, adam, *batch)
                for (model, adam), batch in zip(references, batches)
            ]
            for twin, count in ((solo, 1), (stacked, 2)):
                losses, grad = twin.step(batches[:count])
                assert losses == [loss for loss, _ in expected[:count]]
                for seed, (model, _) in enumerate(references[:count]):
                    np.testing.assert_array_equal(grad[seed], expected[seed][1])
                    np.testing.assert_array_equal(
                        twin.model.theta[seed], flat_params(model)
                    )

    def test_weight_decay_parity(self):
        pairs = [make_pair(seed=seed) for seed in (7, 8)]
        kwargs = {"lr": 1e-2, "weight_decay": 1e-3}
        references = [(model, Adam(model.parameters(), **kwargs)) for model, _ in pairs]
        fused = [twin for _, twin in pairs]
        solo, stacked = StackedTwin(fused[:1], **kwargs), StackedTwin(fused, **kwargs)
        inputs, targets = regression_data(count=32)
        for _ in range(10):
            for model, adam in references:
                reference_step(model, adam, inputs, targets)
            solo.step([(inputs, targets)])
            stacked.step([(inputs, targets)] * 2)
        expected = np.stack([flat_params(model) for model, _ in references])
        np.testing.assert_array_equal(solo.model.theta, expected[:1])
        np.testing.assert_array_equal(stacked.model.theta, expected)

    def test_train_regressor_backends_identical(self):
        """Full training runs through both paths end at the same weights;
        the model type picks the path."""
        model, fused = make_pair()
        inputs, targets = regression_data()
        history_autodiff = train_regressor(
            model, inputs, targets, epochs=12, batch_size=32, lr=3e-3,
            rng=np.random.default_rng(3),
        )
        history_fused = train_regressor(
            fused, inputs, targets, epochs=12, batch_size=32, lr=3e-3,
            rng=np.random.default_rng(3),
        )
        assert history_autodiff.losses == history_fused.losses
        np.testing.assert_array_equal(flat_params(model), fused.theta)

    def test_predict_parity(self):
        model, fused = make_pair()
        x = np.random.default_rng(2).normal(size=(17, 4))
        np.testing.assert_array_equal(model.predict(x), fused.predict(x))


class TestModuleInterop:
    def test_constructor_matches_module_init(self):
        """Same seeded generator -> bit-identical initial weights."""
        module = MLP(5, (24, 24), 2, rng=np.random.default_rng(13))
        fused = FusedMLP(5, (24, 24), 2, rng=np.random.default_rng(13))
        np.testing.assert_array_equal(flat_params(module), fused.theta)

    def test_from_module_to_module_round_trip(self):
        module, fused = make_pair()
        restored = fused.to_module()
        x = np.random.default_rng(4).normal(size=(9, 4))
        np.testing.assert_array_equal(module.predict(x), restored.predict(x))

    def test_to_module_into_existing(self):
        module, fused = make_pair()
        fused.theta += 0.25  # diverge, then write back
        fused.to_module(module)
        np.testing.assert_array_equal(flat_params(module), fused.theta)

    def test_from_module_copies_weights(self):
        module, fused = make_pair()
        before = fused.theta.copy()
        module.parameters()[0].data += 1.0
        np.testing.assert_array_equal(fused.theta, before)

    def test_state_dict_interop_both_ways(self):
        module, fused = make_pair()
        clone = MLP(4, (16, 16), 3, rng=np.random.default_rng(99))
        clone.load_state_dict(fused.state_dict())
        np.testing.assert_array_equal(flat_params(clone), fused.theta)
        fused_clone = FusedMLP(4, (16, 16), 3, rng=np.random.default_rng(98))
        fused_clone.load_state_dict(module.state_dict())
        np.testing.assert_array_equal(fused_clone.theta, fused.theta)

    def test_load_state_dict_validates(self):
        _, fused = make_pair()
        state = fused.state_dict()
        with pytest.raises(ValueError):
            fused.load_state_dict({k: v for k, v in list(state.items())[:-1]})
        bad = dict(state)
        bad["param_0"] = np.zeros((2, 2))
        with pytest.raises(ValueError):
            fused.load_state_dict(bad)

    def test_rejects_non_linear_activation_stacks(self):
        class Odd(MLP):
            pass

        odd = Odd(3, (4,), 1)
        odd.body.layers.append(object())
        with pytest.raises(TypeError):
            FusedMLP.from_module(odd)


class TestBackendKnob:
    """``train_regressor`` takes its path from the model type, and rejects
    an optimizer built for the other path."""

    def test_unknown_backend_rejected(self):
        model, _ = make_pair()
        inputs, targets = regression_data(count=8)
        with pytest.raises(TypeError, match="backend"):
            train_regressor(model, inputs, targets, epochs=1, backend="fused")

    def test_fused_backend_rejects_autodiff_optimizer(self):
        _, fused = make_pair()
        inputs, targets = regression_data(count=8)
        model, _ = make_pair()
        with pytest.raises(ValueError, match="FusedAdam"):
            train_regressor(
                fused, inputs, targets, epochs=1, optimizer=Adam(model.parameters())
            )

    def test_autodiff_backend_rejects_fused_optimizer(self):
        model, fused = make_pair()
        inputs, targets = regression_data(count=8)
        with pytest.raises(ValueError, match="FusedAdam"):
            train_regressor(
                model, inputs, targets, epochs=1, optimizer=FusedAdam(fused)
            )


class TestRefitPatternParity:
    """The search's refit pattern, autodiff reference vs fused kernel."""

    def test_successive_fits_with_persistent_moments_bitwise(self):
        """Several fits on a growing dataset, each warm-starting from the
        previous weights and Adam moments over one shared shuffle stream —
        how the trust-region search refits its surrogate — stay bitwise
        equal in losses and weights."""
        model, fused = make_pair(hidden=(24, 24))
        adam = Adam(model.parameters(), lr=3e-3)
        fused_adam = FusedAdam(fused, lr=3e-3)
        inputs, targets = regression_data(count=120)
        rng_reference = np.random.default_rng(21)
        rng_fused = np.random.default_rng(21)
        for count, epochs in ((24, 30), (40, 8), (56, 8), (72, 8), (120, 8)):
            history_reference = train_regressor(
                model, inputs[:count], targets[:count], epochs=epochs,
                batch_size=16, optimizer=adam, rng=rng_reference,
            )
            history_fused = train_regressor(
                fused, inputs[:count], targets[:count], epochs=epochs,
                batch_size=16, optimizer=fused_adam, rng=rng_fused,
            )
            assert history_reference.losses == history_fused.losses
            np.testing.assert_array_equal(flat_params(model), fused.theta)
        reference_state, fused_state = adam.state_dict(), fused_adam.state_dict()
        assert reference_state["t"] == fused_state["t"] > 0
        for key in ("m", "v"):
            flat = np.concatenate([moment.ravel() for moment in reference_state[key]])
            np.testing.assert_array_equal(flat, fused_state[key])
