import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentchat import autodiff as ad
from latentchat import kernels as K
from latentchat.autodiff import Tensor
from latentchat.errors import NumericError, ShapeError
from latentchat.optim import grad_check


def param(data):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    a = param([[1.0, 2.0], [3.0, 4.0]])
    out = ad.matmul(Tensor(np.eye(2)), a)
    assert np.array_equal(out.data, a.data)


def test_matmul_hand():
    out = ad.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert out.data.tolist() == [[11.0]]


def test_matmul_gradient():
    rng = np.random.default_rng(0)
    a = param(rng.standard_normal((3, 4)))
    b = param(rng.standard_normal((4, 2)))
    err = grad_check(lambda: ad.tsum(ad.matmul(a, b)), {"a": a, "b": b})
    assert err < 1e-6


def test_matmul_shape_error():
    with pytest.raises(ShapeError, match=r"\(2, 3\) x \(2, 3\)"):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


# ---------------------------------------------------------------------------
# softmax family


def test_softmax_symmetry():
    out = ad.softmax(Tensor([0.0, 0.0, 0.0]))
    assert np.allclose(out.data, 1.0 / 3.0)


def test_softmax_shift_invariance():
    x = np.array([0.3, -1.2, 2.0])
    a = ad.softmax(Tensor(x)).data
    b = ad.softmax(Tensor(x + 100.0)).data
    assert np.allclose(a, b, atol=1e-12)


def test_softmax_stability():
    out = ad.softmax(Tensor([1000.0, 0.0])).data
    assert np.isfinite(out).all()
    assert out[0] == pytest.approx(1.0)
    assert out[1] == pytest.approx(0.0, abs=1e-12)


def test_softmax_rejects_nonfinite():
    with pytest.raises(NumericError):
        ad.softmax(Tensor([np.inf, 0.0]))
    with pytest.raises(NumericError):
        ad.log_softmax(Tensor([np.nan, 0.0]))


def test_softmax_gradient():
    rng = np.random.default_rng(1)
    x = param(rng.standard_normal((3, 5)))
    w = Tensor(rng.standard_normal((3, 5)))
    err = grad_check(lambda: ad.tsum(ad.softmax(x) * w), {"x": x})
    assert err < 1e-6


def test_cross_entropy_gradient():
    rng = np.random.default_rng(2)
    logits = param(rng.standard_normal((4, 7)))
    tgt = rng.integers(0, 7, size=4)

    def f():
        return -1.0 * ad.tsum(ad.pick(ad.log_softmax(logits), tgt))

    assert grad_check(f, {"logits": logits}) < 1e-6


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=8))
@settings(max_examples=50, deadline=None)
def test_softmax_simplex_property(xs):
    out = ad.softmax(Tensor(xs)).data
    assert np.all(out >= 0.0)
    assert out.sum() == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# LN-LSTM layer

T, B, D_IN, D = 3, 3, 4, 3
# row 0 runs every step, row 1 starts one step late, row 2 is never kept
MIXED_KEEP = np.array([[True, False, False], [True, True, False], [True, True, False]])


def lstm_layer_inputs(seed, b=B):
    rng = np.random.default_rng(seed)
    return (
        param(rng.standard_normal((T, b, D_IN))),
        param(0.5 * rng.standard_normal((b, 2 * D))),
        param(0.5 * rng.standard_normal((D_IN, 4 * D))),
        param(0.5 * rng.standard_normal((D, 4 * D))),
        param(1.0 + 0.1 * rng.standard_normal(4 * D)),
        param(0.1 * rng.standard_normal(4 * D)),
    )


LAYER_CASES = [(B, MIXED_KEEP), (1, None), (1, np.array([[False], [True], [True]]))]


def test_lstm_layer_gradient():
    names = ("xs", "state0", "Wx", "Wh", "gain", "bias")
    for reverse in (False, True):
        for b, keep in LAYER_CASES:
            args = lstm_layer_inputs(3, b)
            w = Tensor(np.random.default_rng(4).standard_normal((T, b, 2 * D)))

            def f():
                return ad.tsum(ad.lstm_layer(*args, keep=keep, reverse=reverse) * w)

            assert grad_check(f, dict(zip(names, args))) < 1e-5, (reverse, b, keep)


def test_lstm_gates_gradient():
    # the gate kernels lstm_layer is built from, as a tape node of their own
    rng = np.random.default_rng(3)
    pre = param(0.3 * rng.standard_normal((2, 12)))
    c_prev = param(0.3 * rng.standard_normal((2, 3)))
    w1 = Tensor(rng.standard_normal((2, 3)))
    w2 = Tensor(rng.standard_normal((2, 3)))

    def gates(pre, c_prev):
        h, c, i, f, o, g = K.lstm_gates_fwd(pre.data, c_prev.data)
        d = c.shape[1]

        def vjp(gs):
            dpre, dc_prev = K.lstm_gates_bwd(gs[:, :d], gs[:, d:], i, f, o, g, c, c_prev.data)
            return [(pre, dpre), (c_prev, dc_prev)]

        return Tensor(np.concatenate([h, c], axis=1), parents=(pre, c_prev), vjp=vjp)

    def f():
        hc = gates(pre, c_prev)
        return ad.tsum(hc[:, :3] * w1) + ad.tsum(hc[:, 3:] * w2)

    assert grad_check(f, {"pre": pre, "c_prev": c_prev}) < 1e-5


def test_layer_norm_gradient():
    # the layer-norm kernels lstm_layer is built from, as a tape node of their own
    rng = np.random.default_rng(4)
    x = param(rng.standard_normal((3, 6)))
    gain = param(1.0 + 0.1 * rng.standard_normal(6))
    bias = param(0.1 * rng.standard_normal(6))
    w = Tensor(rng.standard_normal((3, 6)))

    def layer_norm(x, gain, bias):
        y, xhat, inv_std = K.layer_norm_fwd(x.data, gain.data, bias.data, ad.LN_EPS)

        def vjp(g):
            dx, dgain, dbias = K.layer_norm_bwd(g, xhat, inv_std, gain.data)
            return [(x, dx), (gain, dgain), (bias, dbias)]

        return Tensor(y, parents=(x, gain, bias), vjp=vjp)

    def f():
        return ad.tsum(layer_norm(x, gain, bias) * w)

    assert grad_check(f, {"x": x, "gain": gain, "bias": bias}) < 1e-5


def test_lstm_layer_matches_numpy_reference():
    for reverse, (b, keep) in itertools.product((False, True), LAYER_CASES):
        xs, state0, Wx, Wh, gain, bias = lstm_layer_inputs(5, b)
        want = np.empty((T, b, 2 * D))
        state = state0.data
        for t in (range(T - 1, -1, -1) if reverse else range(T)):
            pre = xs.data[t] @ Wx.data + state[:, :D] @ Wh.data
            blocks = [
                K.layer_norm_fwd(pre[:, lo : lo + D], gain.data[lo : lo + D],
                                 bias.data[lo : lo + D], ad.LN_EPS)[0]
                for lo in range(0, 4 * D, D)
            ]
            h, c, *_ = K.lstm_gates_fwd(np.concatenate(blocks, axis=1), state[:, D:])
            new = np.concatenate([h, c], axis=1)
            state = want[t] = new if keep is None else np.where(keep[t][:, None], new, state)
        out = ad.lstm_layer(xs, state0, Wx, Wh, gain, bias, keep=keep, reverse=reverse)
        assert np.array_equal(out.data, want), (reverse, b, keep)


def test_lstm_layer_keep_false_rows_carry_state_bitwise():
    for reverse in (False, True):
        args = lstm_layer_inputs(6)
        xs, state0 = args[:2]
        out = ad.lstm_layer(*args, keep=MIXED_KEEP, reverse=reverse)
        # row 2 is never kept; row 1 is not kept at t = 0, which the
        # reverse direction runs last
        assert all(np.array_equal(out.data[t, 2], state0.data[2]) for t in range(T))
        if not reverse:
            assert np.array_equal(out.data[0, 1], state0.data[1])
        assert not np.array_equal(out.data[1, 1], state0.data[1])
        w = np.random.default_rng(7).standard_normal((T, B, 2 * D))
        ad.tsum(out * Tensor(w)).backward()
        # a carried row passes its gradient straight to the start state
        assert np.allclose(state0.grad[2], w[:, 2].sum(axis=0), rtol=0.0, atol=1e-14)
        assert not xs.grad[:, 2].any() and not xs.grad[0, 1].any()
        assert xs.grad[:, 0].all()


def test_lstm_layer_shape_error():
    xs, state0, Wx, Wh, gain, bias = lstm_layer_inputs(8)
    with pytest.raises(ShapeError, match="lstm_layer"):
        ad.lstm_layer(xs, Tensor(np.zeros((B, 2 * D + 1))), Wx, Wh, gain, bias)
    with pytest.raises(ShapeError, match="lstm_layer"):
        ad.lstm_layer(xs, state0, Wh, Wh, gain, bias)
    with pytest.raises(ShapeError, match="lstm_layer"):
        ad.lstm_layer(xs, state0, Wx, Wh, gain, bias, keep=np.ones((T, B + 1), dtype=bool))
    with pytest.raises(ShapeError, match="lstm_layer"):
        ad.lstm_layer(xs[0], state0, Wx, Wh, gain, bias)


# ---------------------------------------------------------------------------
# dropout


def test_dropout_rate_zero_identity():
    x = Tensor(np.ones((3, 3)))
    assert ad.dropout(x, 0.0, True, np.random.default_rng(0)) is x


def test_dropout_eval_identity():
    x = Tensor(np.ones((3, 3)))
    assert ad.dropout(x, 0.2, False, np.random.default_rng(0)) is x


def test_dropout_preserves_mean():
    x = Tensor(np.ones(100_000))
    out = ad.dropout(x, 0.2, True, np.random.default_rng(5))
    assert 0.98 <= out.data.mean() <= 1.02


# ---------------------------------------------------------------------------
# misc primitives and tape mechanics


def test_sum_gradient_exact():
    rng = np.random.default_rng(6)
    x = param(rng.standard_normal((5, 3)))
    assert grad_check(lambda: ad.tsum(x), {"x": x}) < 1e-10


def test_embedding_pick_narrow_concat_gradients():
    rng = np.random.default_rng(7)
    table = param(rng.standard_normal((6, 4)))
    ids = np.array([0, 2, 2, 5])

    def f():
        e = ad.embedding(table, ids)
        left = e[:, 0:2]
        right = e[:, 2:4]
        back = ad.concat([left, right], axis=1)
        return ad.tsum(ad.tanh(back)) + ad.tsum(ad.pick(e, np.array([1, 3, 0, 2])))

    assert grad_check(f, {"table": table}) < 1e-6


def test_log_sigmoid_stable_and_correct():
    x = param([-800.0, -1.0, 0.0, 1.0, 800.0])
    out = ad.log_sigmoid(x)
    assert np.isfinite(out.data).all()
    assert out.data[2] == pytest.approx(np.log(0.5))
    assert out.data[4] == pytest.approx(0.0, abs=1e-12)
    assert grad_check(lambda: ad.tsum(ad.log_sigmoid(x)), {"x": x}) < 1e-6


def test_backward_accumulates_without_zeroing():
    x = param([2.0])
    loss = ad.tsum(x * x)
    loss.backward()
    first = x.grad.copy()
    loss2 = ad.tsum(x * x)
    loss2.backward()
    assert np.array_equal(x.grad, 2.0 * first)


def test_loss_gradient_is_one():
    x = param([1.0, 2.0])
    loss = ad.tsum(x)
    loss.backward()
    assert loss.grad.tolist() == 1.0


def test_backward_requires_scalar():
    x = param([[1.0, 2.0]])
    with pytest.raises(ShapeError):
        (x * x).backward()


def test_shared_subexpression_gradient():
    # y = x used twice; d(x*x + 3x)/dx = 2x + 3
    x = param([2.0])
    loss = ad.tsum(x * x + 3.0 * x)
    loss.backward()
    assert x.grad.tolist() == [7.0]


# ---------------------------------------------------------------------------
# no_grad and lazy grad buffers


def test_no_grad_builds_parentless_tensors():
    x = param([[1.0, -2.0], [0.5, 3.0]])
    w = param([[0.3], [-0.7]])
    taped = ad.tsum(ad.tanh(ad.matmul(x, w)))
    with ad.no_grad():
        outs = [ad.matmul(x, w), x * x, ad.softmax(x), x[:, 0:1],
                ad.lstm_layer(*lstm_layer_inputs(9), keep=MIXED_KEEP)]
        bare = ad.tsum(ad.tanh(ad.matmul(x, w)))
    for t in outs + [bare]:
        assert t._parents == () and t._vjp is None
        assert t.grad is None and not t.requires_grad
    assert bare.data == taped.data
    # leaves built inside the block still carry a grad buffer
    with ad.no_grad():
        leaf = param([1.0])
    assert leaf.requires_grad and leaf.grad is not None


def test_no_grad_nests_and_restores_on_exception():
    x = param([1.0, 2.0])
    with ad.no_grad():
        with ad.no_grad():
            pass
        assert (x * x)._parents == ()  # still off after the inner block
    assert (x * x)._parents  # back on after the outer one
    with pytest.raises(RuntimeError):
        with ad.no_grad():
            raise RuntimeError("boom")
    assert (x * x)._parents
    assert ad.no_grad()(lambda: (x * x)._parents)() == ()  # as a decorator
    assert (x * x)._parents


def test_grad_buffers_only_on_leaves_and_root():
    x = param([1.0, 2.0])
    const = Tensor([3.0, 4.0])
    mid = x * const
    loss = ad.tsum(mid * mid)
    assert const.grad is None and mid.grad is None and loss.grad is None
    loss.backward()
    assert mid.grad is None
    assert x.grad.tolist() == [18.0, 64.0]  # 2 * x * const^2
    assert loss.grad.tolist() == 1.0
    # a node whose inputs need no gradient is no tape node
    assert (const * const)._parents == ()
