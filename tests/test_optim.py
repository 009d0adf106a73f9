import numpy as np
import pytest

from latentchat import autodiff as ad
from latentchat.autodiff import Tensor
from latentchat.errors import TrainingError
from latentchat.optim import Adam, grad_check


def param(data):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


def test_zero_gradient_leaves_params_unchanged():
    p = param([1.0, 2.0, 3.0])
    opt = Adam({"p": p}, lr=0.1)
    opt.step()
    assert p.data.tolist() == [1.0, 2.0, 3.0]


def test_first_step_moves_by_learning_rate():
    # bias-corrected first step is alpha * sign(g) up to eps
    p = param([1.0])
    p.grad[...] = 1.0
    Adam({"p": p}, lr=0.1).step()
    assert p.data[0] == pytest.approx(0.9, abs=1e-6)


def test_quadratic_convergence():
    p = param([5.0])
    opt = Adam({"p": p}, lr=0.1)
    for _ in range(500):
        opt.zero_grad()
        loss = ad.tsum(p * p)
        loss.backward()
        opt.step()
    assert abs(p.data[0]) < 0.1


def test_halving_schedule():
    p = param([0.0])
    opt = Adam({"p": p}, lr=0.4, halve_every=10)
    assert opt.effective_lr() == 0.4
    opt.t = 10
    assert opt.effective_lr() == 0.2
    opt.t = 25
    assert opt.effective_lr() == 0.1


def test_nonfinite_gradient_rejected_by_name():
    p = param([1.0])
    p.grad[...] = np.nan
    with pytest.raises(TrainingError, match="'p'"):
        Adam({"p": p}).step()


def test_step_drops_consumed_gradients():
    # a finished step holds no gradient buffers; the next backward makes
    # new ones, and a parameter no backward reached moves as with g = 0
    p, q = param([1.0, -2.0]), param([3.0])
    opt = Adam({"p": p, "q": q}, lr=0.1)
    ad.tsum(p * p).backward()
    opt.step()
    assert p.grad is None and q.grad is None
    q_after_one = q.data.copy()
    opt.zero_grad()
    ad.tsum(p * p).backward()
    assert p.grad.tolist() == (2.0 * p.data).tolist() and q.grad is None
    opt.step()
    assert np.array_equal(q.data, q_after_one)
    # grad_check reads an unreached, dropped buffer as a zero gradient
    assert grad_check(lambda: ad.tsum(p * p), {"p": p, "q": q}) < 1e-6
