import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentchat import kernels
from latentchat.autodiff import LN_EPS


def test_gate_block_order_is_i_f_o_g():
    # drive one block to +inf at a time and watch its effect
    d = 1
    c_prev = np.array([[3.0]])
    big = 30.0
    # forget block saturated, others at 0: c ~ c_prev * 1 + 0.5 * 0
    pre = np.zeros((1, 4 * d))
    pre[0, d] = big
    _, c, *_ = kernels.lstm_gates_fwd(pre, c_prev)
    assert c[0, 0] == pytest.approx(3.0, abs=1e-9)
    # input block saturated with candidate tanh(pre_g)=tanh(1)
    pre = np.zeros((1, 4 * d))
    pre[0, 0] = big
    pre[0, 3 * d] = 1.0
    _, c, *_ = kernels.lstm_gates_fwd(pre, np.zeros((1, 1)))
    assert c[0, 0] == pytest.approx(np.tanh(1.0), abs=1e-9)


def test_lstm_gates_zero_case():
    h, c, *_ = kernels.lstm_gates_fwd(np.zeros((1, 4)), np.zeros((1, 1)))
    assert np.array_equal(h, [[0.0]])
    assert np.array_equal(c, [[0.0]])


def test_lstm_gates_hand_case():
    # all pre-activations zero, c_prev = 2: c = 0.5*2 = 1, h = 0.5*tanh(1)
    h, c, *_ = kernels.lstm_gates_fwd(np.zeros((1, 4)), np.array([[2.0]]))
    assert c[0, 0] == pytest.approx(1.0)
    assert h[0, 0] == pytest.approx(0.5 * np.tanh(1.0), abs=1e-12)


def test_layer_norm_constant_row():
    y, *_ = kernels.layer_norm_fwd(np.ones((1, 4)), np.ones(4), np.zeros(4), LN_EPS)
    assert np.allclose(y, 0.0)


def test_layer_norm_symmetry():
    y, *_ = kernels.layer_norm_fwd(np.array([[1.0, 3.0]]), np.ones(2), np.zeros(2), LN_EPS)
    assert np.allclose(y, [[-1.0, 1.0]], atol=1e-4)


@given(
    shape=st.lists(st.integers(1, 7), min_size=1, max_size=3),
    n=st.integers(1, 70),
    log_scale=st.floats(-6.0, 6.0),
    offset=st.floats(-1e3, 1e3),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_layer_norm_fwd_bitwise_equals_mean_var_formula(shape, n, log_scale, offset, seed):
    rng = np.random.default_rng(seed)
    x = offset + 10.0**log_scale * rng.standard_normal(tuple(shape) + (n,))
    gain = 1.0 + 0.1 * rng.standard_normal(n)
    bias = 0.1 * rng.standard_normal(n)
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    xhat = (x - mu) * inv_std
    y, got_xhat, got_inv_std = kernels.layer_norm_fwd(x, gain, bias, LN_EPS)
    assert np.array_equal(got_inv_std, inv_std)
    assert np.array_equal(got_xhat, xhat)
    assert np.array_equal(y, xhat * gain + bias)


def test_sigmoid_stability():
    x = np.array([-800.0, 0.0, 800.0])
    out = kernels.sigmoid(x)
    assert np.isfinite(out).all()
    assert out.tolist() == pytest.approx([0.0, 0.5, 1.0], abs=1e-12)
