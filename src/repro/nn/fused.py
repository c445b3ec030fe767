"""Fused pure-NumPy training kernel for the surrogate MLP.

The autodiff path (:mod:`repro.autodiff`) builds a Python-object graph for
every minibatch — hundreds of ``Tensor`` allocations, backward closures and a
topological sort per step.  For the tiny fixed-architecture MLP the search
refits every iteration (Algorithm 1, line 8) that bookkeeping *is* the cost:
the smoke benchmark spends ~90% of its wall time inside ``train_regressor``.

This module removes it with one training kernel.  :class:`FusedMLP` holds
one seed's parameters in a single ``float64`` vector and :class:`FusedAdam`
that seed's Adam moments; :func:`fit_batched` trains any number of such
pairs — one seed or many — by stacking their vectors into a
``(n_seeds, n_params)`` tensor (:class:`BatchedFusedMLP` /
:class:`BatchedFusedAdam`).  The forward pass, the hand-derived backward
pass (Linear / tanh / relu / sigmoid stacks under an MSE loss) and the Adam
update are then a fixed, small sequence of NumPy calls with a leading seed
axis and no per-op Python structures.

Every floating-point expression below is written to match the autodiff
engine's backward pass operation for operation (same order, same
power-of-two factors), so each seed's losses, gradients and post-Adam
weights are **bit-identical** to the autodiff path's on the same minibatch
stream, at any seed count.  The autodiff :class:`~repro.nn.modules.MLP` +
:class:`~repro.nn.optim.Adam` pair is the reference implementation this
kernel is locked against by ``tests/test_fused.py`` and
``tests/test_batched_refit.py``; the search itself always trains fused.

Weights round-trip with the autodiff :class:`~repro.nn.modules.MLP` via
:meth:`FusedMLP.from_module` / :meth:`FusedMLP.to_module`, and the
``state_dict`` layout (``param_0`` = first weight, ``param_1`` = first bias,
...) is interchangeable between the two classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.contracts import ArraySpec, SeqLen, contract
from repro.nn.modules import MLP, Activation, Linear
from repro.nn.optim import bias_correction
from repro.obs import span


def _layer_views(
    theta: np.ndarray, shapes: Sequence[Tuple[int, int]]
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Per-layer weight/bias *views* into a flat parameter buffer.

    ``theta`` is one seed's ``(n_params,)`` vector or a seed-stacked
    ``(n_seeds, n_params)`` tensor; the layout is the ``state_dict`` one
    (W0 b0 W1 b1 ...), and views gain the same leading axes as ``theta``.
    """
    lead = theta.shape[:-1]
    weights: List[np.ndarray] = []
    biases: List[np.ndarray] = []
    offset = 0
    for fan_in, fan_out in shapes:
        weights.append(
            theta[..., offset:offset + fan_in * fan_out].reshape(*lead, fan_in, fan_out)
        )
        offset += fan_in * fan_out
        biases.append(theta[..., offset:offset + fan_out])
        offset += fan_out
    return weights, biases


class FusedMLP:
    """One seed's MLP, its parameters in one flat ``float64`` buffer.

    Accepts the same constructor arguments as :class:`repro.nn.modules.MLP`
    and performs the same RNG draws, so ``FusedMLP(..., rng=g)`` and
    ``MLP(..., rng=g2)`` with identically-seeded generators start from
    bit-identical weights.  The class holds parameters and runs inference;
    training goes through :func:`fit_batched`.

    Attributes
    ----------
    theta:
        The concatenated parameter vector (the ``state_dict`` layout, W0 b0
        W1 b1 ...).  Per-layer weight/bias arrays are *views* into it.
    """

    def __init__(
        self,
        in_features: int,
        hidden: Sequence[int],
        out_features: int,
        activation: str = "tanh",
        output_activation: str = "identity",
        rng: Optional[np.random.Generator] = None,
        init: str = "xavier",
    ) -> None:
        # Delegate initialization to the reference module so the two classes
        # can never drift on init schemes or RNG draw order.
        template = MLP(
            in_features,
            hidden,
            out_features,
            activation=activation,
            output_activation=output_activation,
            rng=rng,
            init=init,
        )
        self._adopt(template)

    # ------------------------------------------------------------------
    # Construction / module interop
    # ------------------------------------------------------------------
    def _adopt(self, module: MLP) -> None:
        """Read architecture and weights out of an autodiff MLP."""
        linears: List[Linear] = []
        activations: List[str] = []
        for layer in module.body.layers:
            if isinstance(layer, Linear):
                linears.append(layer)
                activations.append("identity")
            elif isinstance(layer, Activation):
                if not linears:
                    raise ValueError("activation before the first Linear layer")
                activations[-1] = layer.name
            else:
                raise TypeError(
                    f"FusedMLP only supports Linear/Activation stacks, got {type(layer).__name__}"
                )
        if not linears:
            raise ValueError("module has no Linear layers")

        self.in_features = module.in_features
        self.out_features = module.out_features
        self.hidden = module.hidden
        self._activations: Tuple[str, ...] = tuple(activations)
        self._shapes: List[Tuple[int, int]] = [
            (layer.in_features, layer.out_features) for layer in linears
        ]

        total = sum(i * o + o for i, o in self._shapes)
        self.theta = np.empty(total, dtype=np.float64)
        self._weights, self._biases = _layer_views(self.theta, self._shapes)
        for layer, weight, bias in zip(linears, self._weights, self._biases):
            weight[...] = layer.weight.data
            bias[...] = layer.bias.data

    @classmethod
    def from_module(cls, module: MLP) -> "FusedMLP":
        """Build a fused copy of an autodiff MLP (weights are copied)."""
        fused = cls.__new__(cls)
        fused._adopt(module)
        return fused

    def to_module(self, module: Optional[MLP] = None) -> MLP:
        """Write the flat weights into an autodiff MLP (new one by default)."""
        if module is None:
            module = MLP(
                self.in_features,
                self.hidden,
                self.out_features,
                activation=self._activations[0] if len(self._activations) > 1 else "tanh",
                output_activation=self._activations[-1],
            )
        module.load_state_dict(self.state_dict())
        return module

    # ------------------------------------------------------------------
    # Serialization (interchangeable with Module.state_dict)
    # ------------------------------------------------------------------
    @property
    def num_parameters(self) -> int:
        return self.theta.size

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Parameter arrays in ``MLP.parameters()`` order (W0, b0, W1, ...)."""
        state: Dict[str, np.ndarray] = {}
        index = 0
        for weight, bias in zip(self._weights, self._biases):
            # analysis: allow(hot-loop-alloc) serialization is cold by design
            state[f"param_{index}"] = weight.copy()
            state[f"param_{index + 1}"] = bias.copy()  # analysis: allow(hot-loop-alloc)
            index += 2
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        arrays = [self._weights[i // 2] if i % 2 == 0 else self._biases[i // 2]
                  for i in range(2 * len(self._weights))]
        if len(state) != len(arrays):
            raise ValueError(
                f"state has {len(state)} entries but model has {len(arrays)} parameters"
            )
        for i, target in enumerate(arrays):
            # analysis: allow(hot-loop-alloc) deserialization is cold by design
            incoming = np.asarray(state[f"param_{i}"], dtype=np.float64)
            if incoming.shape != target.shape:
                raise ValueError(
                    f"parameter {i} shape mismatch: {incoming.shape} vs {target.shape}"
                )
            target[...] = incoming

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def predict(self, x: np.ndarray) -> np.ndarray:
        """Inference forward pass on raw arrays."""
        if not (isinstance(x, np.ndarray) and x.ndim == 2 and x.dtype == np.float64):
            x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        h = x
        for weight, bias, act in zip(self._weights, self._biases, self._activations):
            h = Activation.apply_numpy(act, h @ weight + bias)
        return h

    __call__ = predict

    def __repr__(self) -> str:
        return (
            f"FusedMLP(in={self.in_features}, hidden={self.hidden}, "
            f"out={self.out_features}, params={self.num_parameters})"
        )


class FusedAdam:
    """One seed's Adam state over a :class:`FusedMLP`'s flat parameters.

    Holds the hyper-parameters, the ``m``/``v`` moments (flat, aligned with
    ``model.theta``) and the step count ``t``, which persist across refits
    and round-trip through :meth:`state_dict`.  The update itself runs in
    :class:`BatchedFusedAdam` inside :func:`fit_batched`.
    """

    def __init__(
        self,
        model: FusedMLP,
        lr: float = 1e-3,
        betas: Tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        self.theta = model.theta
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = np.zeros_like(self.theta)
        self._v = np.zeros_like(self.theta)
        self._t = 0

    def state_dict(self) -> Dict[str, object]:
        """The optimizer moments and step count, for checkpoint/resume."""
        return {"t": self._t, "m": self._m.copy(), "v": self._v.copy()}

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore :meth:`state_dict` output (flat shapes must match)."""
        for name, source in (("m", state["m"]), ("v", state["v"])):
            if source.shape != self.theta.shape:
                raise ValueError(
                    f"moment {name!r} has shape {source.shape}, "
                    f"theta is {self.theta.shape}"
                )
        self._m[...] = state["m"]
        self._v[...] = state["v"]
        self._t = int(state["t"])


class BatchedFusedMLP:
    """``n_seeds`` :class:`FusedMLP` replicas trained as one tensor.

    The same tensorization move the corner engine applied to evaluation,
    applied to training: the seeds' flat parameter vectors stack into a
    ``(n_seeds, n_params)`` tensor whose per-layer weight/bias arrays are
    *views* (``theta[:, w_slice].reshape(n_seeds, fan_in, fan_out)``), so one
    broadcast forward/backward step advances every seed at once.  All seeds
    must share one architecture (see :func:`fit_job_signature`) **and one
    minibatch shape per step**: a 3-D ``matmul`` runs each seed's slice
    through the same 2-D gemm the autodiff reference runs for that seed
    alone, so same-shape stacking is bit-transparent, whereas zero-padding
    ragged rows is *not* (BLAS picks row-count-dependent kernels — a padded
    gemm's first rows can differ from the unpadded gemm's in the last ulp).
    That is why :func:`fit_batched` buckets jobs by dataset geometry
    instead of padding.  ``n_seeds=1`` is the lone-seed case, not a
    special one.

    Per-seed loss reduction (no cross-seed leakage) happens over each seed's
    own contiguous ``(rows, out)`` block, the same shape the reference
    reduces, so NumPy's pairwise summation takes the same tree and the
    same bits.  Weights move between the stacked tensor and the per-seed
    models through :meth:`gather` / :meth:`scatter`, which copy the flat
    buffers directly (the flat layout *is* the ``state_dict`` layout, W0 b0
    W1 b1 ...), so checkpoint snapshots keep their per-member format.
    Parity is locked by ``tests/test_batched_refit.py``.
    """

    def __init__(self, template: FusedMLP, n_seeds: int) -> None:
        if n_seeds < 1:
            raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
        self.n_seeds = n_seeds
        self.in_features = template.in_features
        self.out_features = template.out_features
        self.hidden = template.hidden
        self._activations = template._activations
        self._shapes = list(template._shapes)
        total = template.num_parameters
        self.theta = np.empty((n_seeds, total), dtype=np.float64)
        # The per-step gradient has the same stacked layout, so the backward
        # pass writes matmul results straight into place with ``out=``.
        self._grad = np.empty((n_seeds, total), dtype=np.float64)
        self._scratch: Dict[int, tuple] = {}
        self._weights, self._biases = _layer_views(self.theta, self._shapes)
        self._grad_weights, self._grad_biases = _layer_views(self._grad, self._shapes)

    @property
    def num_parameters(self) -> int:
        return self.theta.shape[1]

    def gather(self, models: Sequence[FusedMLP]) -> None:
        """Copy each model's flat parameter vector into the stacked tensor."""
        if len(models) != self.n_seeds:
            raise ValueError(f"expected {self.n_seeds} models, got {len(models)}")
        for index, model in enumerate(models):
            if model._shapes != self._shapes or model._activations != self._activations:
                raise ValueError(f"model {index} architecture does not match the template")
            self.theta[index] = model.theta

    def scatter(self, models: Sequence[FusedMLP]) -> None:
        """Write the stacked parameters back into the per-seed models."""
        if len(models) != self.n_seeds:
            raise ValueError(f"expected {self.n_seeds} models, got {len(models)}")
        for index, model in enumerate(models):
            model.theta[...] = self.theta[index]

    def _scratch_for(self, rows: int) -> tuple:
        """Reusable per-layer buffers for a given minibatch row count.

        ``z``/``a`` hold pre-/post-activation values (aliased for identity
        layers), ``g`` the backward gradients per layer, ``tmp`` activation-
        derivative workspace (the last entry doubles as the squared-error
        buffer), each with a leading seed axis.  Allocated once per distinct
        row count, then reused, so a training step performs no heap
        allocation.
        """
        cached = self._scratch.get(rows)
        if cached is None:
            shapes = [(self.n_seeds, rows, fan_out) for _, fan_out in self._shapes]
            z_buffers = [np.empty(shape) for shape in shapes]
            a_buffers = [
                z if act == "identity" else np.empty(z.shape)
                for z, act in zip(z_buffers, self._activations)
            ]
            g_buffers = [np.empty(shape) for shape in shapes]
            tmp_buffers = [np.empty(shape) for shape in shapes]
            cached = (z_buffers, a_buffers, g_buffers, tmp_buffers)
            self._scratch[rows] = cached
        return cached

    def loss_and_grad(self, inputs: np.ndarray, targets: np.ndarray) -> List[float]:
        """One fused MSE step over all seeds at once.

        ``inputs``/``targets`` are ``(n_seeds, rows, features)`` — every
        seed contributes the same number of rows (callers bucket by
        geometry), so every ``matmul``/ufunc below is a single-seed op with
        one leading batch axis.  The expressions mirror the autodiff chain
        for ``mse_loss(model(Tensor(x)), Tensor(y)).backward()`` term by
        term: the mean splits into ``sum * (1/size)``, the squared
        difference contributes its gradient twice (``g + g`` rather than
        ``2*g`` — the same bits either way), and each layer differentiates
        in the same operand order as the Tensor closures.  Every
        intermediate lands in a scratch buffer via ``out=``.

        Returns the per-seed losses; the gradients land in ``self._grad``
        (valid until the next call).
        """
        rows = inputs.shape[1]
        weights, biases = self._weights, self._biases
        activations = self._activations
        last = len(weights) - 1
        if inputs.shape[0] != self.n_seeds or targets.shape != (
            self.n_seeds, rows, self._shapes[last][1]
        ):
            raise ValueError(
                f"batched step expects inputs ({self.n_seeds}, rows, in) and "
                f"matching targets, got {inputs.shape} / {targets.shape}"
            )
        z_buffers, a_buffers, g_buffers, tmp_buffers = self._scratch_for(rows)

        # Forward, caching pre- and post-activation values per layer.
        h = inputs
        for index in range(last + 1):
            z = z_buffers[index]
            np.matmul(h, weights[index], out=z)
            np.add(z, biases[index][:, None, :], out=z)
            act = activations[index]
            if act == "tanh":
                h = np.tanh(z, out=a_buffers[index])
            elif act == "relu":
                h = np.maximum(z, 0.0, out=a_buffers[index])
            elif act == "sigmoid":
                a = a_buffers[index]
                np.negative(z, out=a)
                np.exp(a, out=a)
                np.add(a, 1.0, out=a)
                h = np.divide(1.0, a, out=a)
            else:
                h = z
        prediction = h

        # Loss and its gradient seed.  The per-seed mean divides by one
        # seed's element count, and each seed's sum reduces its own
        # contiguous (rows, out) block — same tree, same bits as solo.
        diff = g_buffers[last]
        np.subtract(prediction, targets, out=diff)
        squared = tmp_buffers[last]
        np.multiply(diff, diff, out=squared)
        inv_count = 1.0 / (rows * self._shapes[last][1])
        losses = [
            float(squared[index].sum() * inv_count) for index in range(self.n_seeds)
        ]
        np.multiply(diff, inv_count, out=diff)
        grad_out = np.add(diff, diff, out=diff)

        # Backward through the stack, writing straight into the flat grads.
        for index in range(last, -1, -1):
            act = activations[index]
            if act == "tanh":
                a, tmp = a_buffers[index], tmp_buffers[index]
                np.multiply(a, a, out=tmp)
                np.subtract(1.0, tmp, out=tmp)
                np.multiply(grad_out, tmp, out=grad_out)
            elif act == "relu":
                np.multiply(grad_out, z_buffers[index] > 0.0, out=grad_out)
            elif act == "sigmoid":
                a, tmp = a_buffers[index], tmp_buffers[index]
                np.multiply(grad_out, a, out=grad_out)
                np.subtract(1.0, a, out=tmp)
                np.multiply(grad_out, tmp, out=grad_out)
            h = inputs if index == 0 else a_buffers[index - 1]
            np.matmul(h.transpose(0, 2, 1), grad_out, out=self._grad_weights[index])
            np.add.reduce(grad_out, axis=1, out=self._grad_biases[index])
            if index > 0:
                grad_out = np.matmul(
                    grad_out,
                    weights[index].transpose(0, 2, 1),
                    out=g_buffers[index - 1],
                )
        return losses

    def __repr__(self) -> str:
        return (
            f"BatchedFusedMLP(seeds={self.n_seeds}, in={self.in_features}, "
            f"hidden={self.hidden}, out={self.out_features}, "
            f"params={self.num_parameters})"
        )


class BatchedFusedAdam:
    """Adam over the ``(n_seeds, n_params)`` stacked parameter tensor.

    Performs the same elementwise update sequence as
    :class:`repro.nn.optim.Adam` (same ``m``/``v`` recurrences, same bias
    correction, same epsilon placement) as ``out=`` rewrites on the stacked
    buffers, with a leading seed axis.  Each seed keeps its own integer step
    count (seeds may arrive mid-training with different histories), and the
    bias corrections are computed with the same Python ``**`` on that count
    (:func:`repro.nn.optim.bias_correction`) before broadcasting, so every
    seed's update is bit-identical to the per-parameter optimizer's.
    Moments and step counts move to and from the per-seed
    :class:`FusedAdam` states through :meth:`gather` / :meth:`scatter`.
    """

    def __init__(
        self,
        model: BatchedFusedMLP,
        lr: float = 1e-3,
        betas: Tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        self.model = model
        self.theta = model.theta
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = np.zeros_like(self.theta)
        self._v = np.zeros_like(self.theta)
        # Scratch buffers so a step performs zero heap allocations; every
        # ``out=`` rewrite below computes the same value, in the same
        # rounding order, as the plain-expression per-parameter optimizer.
        self._s1 = np.empty_like(self.theta)
        self._s2 = np.empty_like(self.theta)
        self._t: List[int] = [0] * model.n_seeds
        # Per-seed bias-correction denominators, broadcast over parameters.
        self._bc1 = np.empty((model.n_seeds, 1), dtype=np.float64)
        self._bc2 = np.empty((model.n_seeds, 1), dtype=np.float64)

    def gather(self, optimizers: Sequence[FusedAdam]) -> None:
        """Copy each seed's Adam moments and step count into the stack."""
        if len(optimizers) != self.model.n_seeds:
            raise ValueError(
                f"expected {self.model.n_seeds} optimizers, got {len(optimizers)}"
            )
        for index, optimizer in enumerate(optimizers):
            self._m[index] = optimizer._m
            self._v[index] = optimizer._v
            self._t[index] = optimizer._t

    def scatter(self, optimizers: Sequence[FusedAdam]) -> None:
        """Write the stacked moments and step counts back per seed."""
        if len(optimizers) != self.model.n_seeds:
            raise ValueError(
                f"expected {self.model.n_seeds} optimizers, got {len(optimizers)}"
            )
        for index, optimizer in enumerate(optimizers):
            optimizer._m[...] = self._m[index]
            optimizer._v[...] = self._v[index]
            optimizer._t = self._t[index]

    def step(self, grad: np.ndarray) -> None:
        """Apply one Adam update across all seeds for the stacked gradient."""
        if grad.shape != self.theta.shape:
            raise ValueError(f"gradient shape {grad.shape} vs theta {self.theta.shape}")
        if self.weight_decay:
            grad = grad + self.weight_decay * self.theta
        m, v, s1, s2 = self._m, self._v, self._s1, self._s2
        bc1, bc2 = self._bc1, self._bc2
        for index in range(self.model.n_seeds):
            step_count = self._t[index] + 1
            self._t[index] = step_count
            bc1[index, 0] = bias_correction(self.beta1, step_count)
            bc2[index, 0] = bias_correction(self.beta2, step_count)
        # m = beta1*m + (1-beta1)*grad
        np.multiply(m, self.beta1, out=m)
        np.multiply(grad, 1.0 - self.beta1, out=s1)
        np.add(m, s1, out=m)
        # v = beta2*v + (1-beta2)*grad^2
        np.multiply(v, self.beta2, out=v)
        np.multiply(grad, grad, out=s1)
        np.multiply(s1, 1.0 - self.beta2, out=s1)
        np.add(v, s1, out=v)
        # theta -= lr * m_hat / (sqrt(v_hat) + eps), per-seed bias terms
        np.divide(m, bc1, out=s1)
        np.divide(v, bc2, out=s2)
        np.sqrt(s2, out=s2)
        np.add(s2, self.eps, out=s2)
        np.multiply(s1, self.lr, out=s1)
        np.divide(s1, s2, out=s1)
        np.subtract(self.theta, s1, out=self.theta)


@dataclass
class FusedFitJob:
    """One seed's pending training run, as consumed by :func:`fit_batched`.

    The model and its optimizer state, the training data and the schedule,
    bundled so a round's worth of refits can be collected first and
    dispatched together.  ``rng`` draws the epoch shuffles.
    """

    model: FusedMLP
    adam: FusedAdam
    inputs: np.ndarray
    targets: np.ndarray
    epochs: int
    batch_size: int
    rng: np.random.Generator


def fit_job_signature(job: FusedFitJob) -> tuple:
    """Grouping key for jobs that may share one batched kernel dispatch.

    Jobs in one :func:`fit_batched` call must agree on architecture and
    Adam hyper-parameters; dataset geometry may differ (``fit_batched``
    buckets by it internally).  Callers bucket by this key first.
    """
    model, adam = job.model, job.adam
    return (
        model.in_features,
        tuple(model.hidden),
        model.out_features,
        model._activations,
        adam.lr,
        adam.beta1,
        adam.beta2,
        adam.eps,
        adam.weight_decay,
    )


@contract(
    args={
        "jobs": SeqLen("s"),
        "inputs": ArraySpec("s", "n", None),
        "targets": ArraySpec("s", "n", None),
    },
    frozen=("inputs", "targets"),
)
def _fit_bucket(jobs: List[FusedFitJob], inputs: np.ndarray,
                targets: np.ndarray) -> List[List[float]]:
    """Lockstep-train jobs that share one dataset geometry.

    ``inputs``/``targets`` stack the jobs' training arrays as
    ``(n_seeds, rows, features)``.  All jobs have the same (row count,
    batch size, epochs), so each global step runs one stacked
    forward/backward/Adam update in which every seed's slice has the
    reference's shapes — the bit-transparent case.  Each seed draws its
    epoch permutations from its own generator, in the same order
    :func:`repro.nn.training.iterate_minibatches` would.  Under
    :func:`~repro.analysis.contracts.contracts` the stacked arrays must
    agree on seed and row counts and are read-only for the call, so an
    in-place write to the training data faults at the writing line.
    """
    n, count = inputs.shape[0], inputs.shape[1]
    epochs, batch_size = jobs[0].epochs, jobs[0].batch_size
    batched = BatchedFusedMLP(jobs[0].model, n)
    batched.gather([job.model for job in jobs])
    hyper = jobs[0].adam
    adam = BatchedFusedAdam(
        batched, hyper.lr, (hyper.beta1, hyper.beta2), hyper.eps, hyper.weight_decay
    )
    adam.gather([job.adam for job in jobs])

    shuf_x = np.empty_like(inputs)
    shuf_y = np.empty_like(targets)
    grad = batched._grad
    epoch_losses: List[List[float]] = [[] for _ in range(n)]
    step_losses: List[List[float]] = [[] for _ in range(n)]
    for _ in range(epochs):
        for index, job in enumerate(jobs):
            permutation = job.rng.permutation(count)
            np.take(inputs[index], permutation, axis=0, out=shuf_x[index])
            np.take(targets[index], permutation, axis=0, out=shuf_y[index])
        for start in range(0, count, batch_size):
            stop = min(start + batch_size, count)
            losses = batched.loss_and_grad(
                shuf_x[:, start:stop], shuf_y[:, start:stop]
            )
            adam.step(grad)
            for index in range(n):
                step_losses[index].append(losses[index])
        for index in range(n):
            epoch_losses[index].append(float(np.mean(step_losses[index])))
            step_losses[index].clear()

    batched.scatter([job.model for job in jobs])
    adam.scatter([job.adam for job in jobs])
    return epoch_losses


@span("nn.fused_fit")
def fit_batched(jobs: Sequence[FusedFitJob]) -> List[List[float]]:
    """Train every job's model through the stacked kernel; bit-identical bits.

    The one training entry point: a lone refit is a one-job call.  Jobs
    must share one architecture and Adam hyper-parameters
    (:func:`fit_job_signature`); within that, they are bucketed by dataset
    geometry — ``(rows, batch_size, epochs)`` — and each bucket trains in
    lockstep through one :class:`BatchedFusedMLP`/:class:`BatchedFusedAdam`
    stack.  Bucketing (rather than pad-and-mask) is what preserves bitwise
    parity: BLAS gemm kernels are row-count-dependent in the last ulp, so
    only same-shape stacking is safe.  In the campaign the live members of
    a phase share geometry (same round, same schedule), which is exactly
    where the refit time is spent.  Ragged stragglers simply land in
    smaller buckets, down to one job at seed count 1.

    Returns each job's per-epoch mean losses, in input order.
    """
    if not jobs:
        return []
    reference = fit_job_signature(jobs[0])
    for job in jobs[1:]:
        if fit_job_signature(job) != reference:
            raise ValueError(
                "fit_batched needs jobs sharing one architecture and Adam "
                "hyper-parameters; bucket by fit_job_signature first"
            )

    inputs_list: List[np.ndarray] = []
    targets_list: List[np.ndarray] = []
    for index, job in enumerate(jobs):
        # Cold per-dispatch coercion, mirroring train_regressor's (a no-op
        # for the float64 2-D views the search hands over).
        # analysis: allow(hot-loop-alloc)
        inputs = np.atleast_2d(np.asarray(job.inputs, dtype=np.float64))
        # analysis: allow(hot-loop-alloc)
        targets = np.atleast_2d(np.asarray(job.targets, dtype=np.float64))
        if inputs.shape[0] != targets.shape[0] or inputs.shape[0] < 1:
            raise ValueError(
                f"job {index} has {inputs.shape[0]} input rows vs "
                f"{targets.shape[0]} target rows"
            )
        if inputs.shape[1] != job.model.in_features:
            raise ValueError(
                f"job {index} inputs have {inputs.shape[1]} columns, "
                f"the model expects {job.model.in_features}"
            )
        if targets.shape[1] != job.model.out_features:
            raise ValueError(
                f"job {index} targets have {targets.shape[1]} columns, "
                f"the model expects {job.model.out_features}"
            )
        if job.epochs < 0 or job.batch_size < 1:
            raise ValueError(f"bad epochs/batch_size: {job.epochs}/{job.batch_size}")
        inputs_list.append(inputs)
        targets_list.append(targets)

    buckets: Dict[tuple, List[int]] = {}
    for index, job in enumerate(jobs):
        key = (inputs_list[index].shape[0], job.batch_size, job.epochs)
        buckets.setdefault(key, []).append(index)

    results: List[List[float]] = [[] for _ in jobs]
    for (_, _, epochs), indices in buckets.items():
        if epochs == 0:
            continue
        bucket_losses = _fit_bucket(
            [jobs[i] for i in indices],
            # analysis: allow(hot-loop-alloc) one stack per bucket dispatch
            np.stack([inputs_list[i] for i in indices]),
            # analysis: allow(hot-loop-alloc) one stack per bucket dispatch
            np.stack([targets_list[i] for i in indices]),
        )
        for position, original in enumerate(indices):
            results[original] = bucket_losses[position]
    return results
