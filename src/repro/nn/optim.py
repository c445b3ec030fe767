"""Gradient-based optimizers for :mod:`repro.nn` modules."""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from repro.autodiff import Tensor


def bias_correction(beta: float, t: int) -> float:
    """Adam's ``1 - beta**t`` debiasing denominator.

    Both Adam updates in the repo (:class:`Adam` and the fused kernel's
    :class:`repro.nn.fused.BatchedFusedAdam`, at any seed count) must
    compute this with the same Python ``**`` on the integer step count —
    sharing the helper keeps their bits from drifting apart.
    """
    return 1.0 - beta ** t


class Optimizer:
    """Base class holding parameter references."""

    def __init__(self, parameters: Iterable[Tensor]) -> None:
        self.parameters: List[Tensor] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(
        self,
        parameters: Iterable[Tensor],
        lr: float = 1e-2,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        for param, velocity in zip(self.parameters, self._velocity):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            velocity *= self.momentum
            velocity -= self.lr * grad
            param.data += velocity


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2015)."""

    def __init__(
        self,
        parameters: Iterable[Tensor],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._t = 0

    def state_dict(self) -> Dict[str, object]:
        """The optimizer moments and step count, for checkpoint/resume."""
        return {
            "t": self._t,
            "m": [moment.copy() for moment in self._m],
            "v": [moment.copy() for moment in self._v],
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore :meth:`state_dict` output (shapes must match)."""
        if len(state["m"]) != len(self._m):
            raise ValueError(
                f"state has {len(state['m'])} moment arrays, "
                f"optimizer has {len(self._m)} parameters"
            )
        for target, source in zip(self._m, state["m"]):
            target[...] = source
        for target, source in zip(self._v, state["v"]):
            target[...] = source
        self._t = int(state["t"])

    def step(self) -> None:
        self._t += 1
        for param, m, v in zip(self.parameters, self._m, self._v):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad ** 2
            m_hat = m / bias_correction(self.beta1, self._t)
            v_hat = v / bias_correction(self.beta2, self._t)
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def clip_grad_norm(parameters: Iterable[Tensor], max_norm: float) -> float:
    """Scale gradients in-place so their global L2 norm is at most ``max_norm``.

    Returns the norm before clipping.
    """
    parameters = [p for p in parameters if p.grad is not None]
    total = float(np.sqrt(sum(float((p.grad ** 2).sum()) for p in parameters)))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for param in parameters:
            param.grad *= scale
    return total
