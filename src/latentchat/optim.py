"""Adam optimizer with a piecewise-constant learning-rate decay, plus the
finite-difference gradient checker used throughout the test suite."""

import numpy as np

from .autodiff import no_grad
from .errors import TrainingError


class Adam:
    """Standard Adam with bias correction.

    ``halve_every`` (if set) halves the base rate every that many steps,
    the fixed annealing schedule used by the training loop.
    """

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8,
                 halve_every=None):
        self.params = dict(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.halve_every = halve_every
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def effective_lr(self):
        if not self.halve_every:
            return self.lr
        return self.lr * 0.5 ** (self.t // self.halve_every)

    def step(self):
        self.t += 1
        lr = self.effective_lr()
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for name, p in self.params.items():
            g = p.grad
            if not np.all(np.isfinite(g)):
                raise TrainingError(f"non-finite gradient for parameter '{name}'")
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()


def grad_check(f, params, h=1e-5):
    """Max relative error between backward() gradients of the scalar f()
    and central finite differences over every coordinate of `params`.

    `f` must re-run the forward pass from the current parameter values
    (any sampling inside must be frozen by the caller).  The finite
    differences run it under ``no_grad``, so they build no tape.
    """
    params = dict(params)
    for p in params.values():
        p.zero_grad()
    loss = f()
    loss.backward()
    analytic = {k: p.grad.copy() for k, p in params.items()}

    worst = 0.0
    with no_grad():
        for k, p in params.items():
            flat = p.data.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = float(f().data)
                flat[i] = orig - h
                down = float(f().data)
                flat[i] = orig
                num = (up - down) / (2.0 * h)
                ana = analytic[k].reshape(-1)[i]
                denom = max(abs(num) + abs(ana), 1.0)
                worst = max(worst, abs(num - ana) / denom)
    return worst
