"""The Adam optimizer.

The paper trains all networks with Adam at learning rate 2e-4 (Remark 2);
the quick scale uses 1e-3.  Both are fixed rates: nothing schedules them.

Parameter updates are *in place* and routed through the array backend
(:mod:`repro.nn.backend`): the parameter array and the moment buffers are
mutated rather than reallocated every step, and they keep the parameter's
dtype — a float32 model trains with float32 optimizer state end to end.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.nn.backend import get_backend
from repro.nn.tensor import Tensor

__all__ = ["Adam"]

#: The denominator offset, Kingma & Ba's (2015) default.
_EPS = 1e-8


class Adam:
    """Adam optimizer (Kingma & Ba, 2015)."""

    def __init__(self, parameters: Iterable[Tensor], lr: float = 2e-4,
                 betas: tuple[float, float] = (0.5, 0.999)):
        self.parameters: Sequence[Tensor] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        if not (0 <= betas[0] < 1 and 0 <= betas[1] < 1):
            raise ValueError("betas must lie in [0, 1)")
        self.lr = lr
        self.betas = betas
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def zero_grad(self) -> None:
        for parameter in self.parameters:
            parameter.zero_grad()

    def step(self) -> None:
        backend = get_backend()
        self._step += 1
        beta1, beta2 = self.betas
        bias_correction1 = 1 - beta1 ** self._step
        bias_correction2 = 1 - beta2 ** self._step
        for parameter, m, v in zip(self.parameters, self._m, self._v):
            if parameter.grad is None:
                continue
            backend.adam_update(parameter.data, parameter.grad, m, v,
                                self.lr, beta1, beta2, _EPS,
                                bias_correction1, bias_correction2)
