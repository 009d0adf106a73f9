"""Fused numeric kernels for the hot inner loops (LSTM gates, layer norm),
in plain numpy.

Gate block order in the packed pre-activation matrix is (i, f, o, g):
input gate, forget gate, output gate, candidate.
"""

import numpy as np


def sigmoid(x):
    """Logistic function that never overflows: exp is only taken of -|x|.
    Branch-free, and bitwise equal to 1/(1+e^-x) for x >= 0 and
    e^x/(1+e^x) for x < 0."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def lstm_gates_fwd(pre, c_prev):
    b, d = c_prev.shape
    # one sigmoid call over the (i, f, o) blocks, laid out gate-major so
    # that each gate comes out contiguous (strided gates slow the backward)
    i, f, o = sigmoid(pre[:, : 3 * d].reshape(b, 3, d).transpose(1, 0, 2).copy())
    g = np.tanh(pre[:, 3 * d :])
    c = f * c_prev + i * g
    h = o * np.tanh(c)
    return h, c, i, f, o, g


def lstm_gates_bwd(dh, dc_out, i, f, o, g, c, c_prev):
    tc = np.tanh(c)
    dc = dc_out + dh * o * (1.0 - tc * tc)
    do = dh * tc
    di = dc * g
    df = dc * c_prev
    dg = dc * i
    dc_prev = dc * f
    dpre = np.concatenate(
        [
            di * i * (1.0 - i),
            df * f * (1.0 - f),
            do * o * (1.0 - o),
            dg * (1.0 - g * g),
        ],
        axis=1,
    )
    return dpre, dc_prev


def layer_norm_fwd(x, gain, bias, eps):
    """Normalise over the last axis, so [B,n] rows and [B,4,d] gate blocks
    (with [4,d] gain/bias) take the same path.  The mean and the centred
    variance are the sums np.mean and np.var take, bit for bit, without
    their per-call dispatch, and the centred x is computed once."""
    n = x.shape[-1]
    mu = np.add.reduce(x, axis=-1, keepdims=True) / n
    xc = x - mu
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / n
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv_std
    y = xhat * gain + bias
    return y, xhat, inv_std


def layer_norm_bwd(dy, xhat, inv_std, gain):
    n = xhat.shape[-1]
    dxhat = dy * gain
    s1 = dxhat.sum(axis=-1, keepdims=True)
    s2 = (dxhat * xhat).sum(axis=-1, keepdims=True)
    dx = (inv_std / n) * (n * dxhat - s1 - xhat * s2)
    dgain = (dy * xhat).sum(axis=0)
    dbias = dy.sum(axis=0)
    return dx, dgain, dbias
