"""Reverse-mode autodiff over dense float64 numpy arrays.

A :class:`Tensor` records its parents and a vector-Jacobian-product
closure when it is produced by an operation; the implicit DAG of parent
links is the computation tape.  ``backward(loss)`` replays it in reverse
topological order and *accumulates* into ``.grad`` (running it twice
without ``zero_grad`` doubles the gradients).

Fused LSTM-gate and layer-norm kernels live in :mod:`latentchat.kernels`
and are wrapped here as single tape nodes with hand-written backwards.
"""

import numpy as np

from . import kernels as K
from .errors import ConfigError, NumericError, ShapeError

LN_EPS = 1e-5


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp", "name")

    def __init__(self, data, requires_grad=False, parents=(), vjp=None, name=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)
        self._parents = tuple(parents)
        self._vjp = vjp
        self.name = name
        if parents:
            self.requires_grad = any(p.requires_grad for p in parents)
        else:
            self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self):
        self.grad[...] = 0.0

    def backward(self):
        backward(self)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, name={self.name})"

    # arithmetic sugar
    def __add__(self, other):
        return add(self, _wrap(other))

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, neg(_wrap(other)))

    def __rsub__(self, other):
        return add(_wrap(other), neg(self))

    def __mul__(self, other):
        return mul(self, _wrap(other))

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


def _wrap(x):
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _unbroadcast(g, shape):
    """Sum gradient g down to `shape` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


def backward(loss):
    """Accumulate d(loss)/d(t) into t.grad for every reachable tensor."""
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    topo = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    pending = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = pending.pop(id(node), None)
        if g is None:
            continue
        node.grad += g
        if node._vjp is None:
            continue
        for parent, contrib in node._vjp(g):
            if not parent.requires_grad:
                continue
            if id(parent) in pending:
                pending[id(parent)] += contrib
            else:
                pending[id(parent)] = contrib.copy() if contrib.base is not None else contrib


# ---------------------------------------------------------------------------
# primitives


def add(a, b):
    def vjp(g):
        return [(a, _unbroadcast(g, a.data.shape)), (b, _unbroadcast(g, b.data.shape))]

    return Tensor(a.data + b.data, parents=(a, b), vjp=vjp)


def mul(a, b):
    def vjp(g):
        return [
            (a, _unbroadcast(g * b.data, a.data.shape)),
            (b, _unbroadcast(g * a.data, b.data.shape)),
        ]

    return Tensor(a.data * b.data, parents=(a, b), vjp=vjp)


def neg(a):
    return Tensor(-a.data, parents=(a,), vjp=lambda g: [(a, -g)])


def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(
            f"matmul shapes do not agree: {a.data.shape} x {b.data.shape}"
        )

    def vjp(g):
        return [(a, g @ b.data.T), (b, a.data.T @ g)]

    return Tensor(a.data @ b.data, parents=(a, b), vjp=vjp)


def transpose(a):
    return Tensor(a.data.T, parents=(a,), vjp=lambda g: [(a, g.T)])


def log_sigmoid(a):
    """Numerically stable log(sigmoid(x))."""
    x = a.data
    out = np.minimum(x, 0.0) - np.log1p(np.exp(-np.abs(x)))
    sig = np.exp(out)
    return Tensor(out, parents=(a,), vjp=lambda g: [(a, g * (1.0 - sig))])


def tanh(a):
    out = np.tanh(a.data)
    return Tensor(out, parents=(a,), vjp=lambda g: [(a, g * (1.0 - out * out))])


def exp(a):
    out = np.exp(a.data)
    return Tensor(out, parents=(a,), vjp=lambda g: [(a, g * out)])


def log(a):
    return Tensor(np.log(a.data), parents=(a,), vjp=lambda g: [(a, g / a.data)])


def square(a):
    return Tensor(a.data * a.data, parents=(a,), vjp=lambda g: [(a, 2.0 * g * a.data)])


def tsum(a):
    def vjp(g):
        return [(a, np.broadcast_to(g, a.data.shape).copy())]

    return Tensor(a.data.sum(), parents=(a,), vjp=vjp)


def tmean(a):
    n = a.data.size

    def vjp(g):
        return [(a, np.broadcast_to(g / n, a.data.shape).copy())]

    return Tensor(a.data.mean(), parents=(a,), vjp=vjp)


def sum_axis(a, axis, keepdims=False):
    def vjp(g):
        gg = g if keepdims else np.expand_dims(g, axis)
        return [(a, np.broadcast_to(gg, a.data.shape).copy())]

    return Tensor(a.data.sum(axis=axis, keepdims=keepdims), parents=(a,), vjp=vjp)


def concat(tensors, axis=-1):
    ax = axis % tensors[0].data.ndim
    sizes = [t.data.shape[ax] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        out = []
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[ax] = slice(lo, hi)
            out.append((t, g[tuple(idx)]))
        return out

    return Tensor(
        np.concatenate([t.data for t in tensors], axis=ax),
        parents=tuple(tensors),
        vjp=vjp,
    )


def narrow(a, axis, start, size):
    """Contiguous slice along one axis."""
    ax = axis % a.data.ndim
    idx = [slice(None)] * a.data.ndim
    idx[ax] = slice(start, start + size)
    idx = tuple(idx)

    def vjp(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        return [(a, full)]

    return Tensor(a.data[idx], parents=(a,), vjp=vjp)


def embedding(table, ids):
    """Row lookup: table [L,d], ids int array [...]; returns [..., d]."""
    ids = np.asarray(ids)

    def vjp(g):
        full = np.zeros_like(table.data)
        np.add.at(full, ids.reshape(-1), g.reshape(-1, table.data.shape[1]))
        return [(table, full)]

    return Tensor(table.data[ids], parents=(table,), vjp=vjp)


def pick(a, idx):
    """Per-row gather: a [B,L], idx int [B] -> [B]."""
    idx = np.asarray(idx)
    rows = np.arange(a.data.shape[0])

    def vjp(g):
        full = np.zeros_like(a.data)
        full[rows, idx] = g
        return [(a, full)]

    return Tensor(a.data[rows, idx], parents=(a,), vjp=vjp)


def softmax(a):
    """Row-wise softmax with max-subtraction; rows are the last axis."""
    if not np.all(np.isfinite(a.data)):
        raise NumericError("softmax input contains non-finite values")
    z = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return [(a, out * (g - dot))]

    return Tensor(out, parents=(a,), vjp=vjp)


def log_softmax(a):
    if not np.all(np.isfinite(a.data)):
        raise NumericError("log_softmax input contains non-finite values")
    z = a.data - a.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    out = z - lse
    sm = np.exp(out)

    def vjp(g):
        return [(a, g - sm * g.sum(axis=-1, keepdims=True))]

    return Tensor(out, parents=(a,), vjp=vjp)


def layer_norm(x, gain, bias, eps=LN_EPS):
    """Row-wise layer norm over the last axis of a 2-D input."""
    if x.data.ndim != 2 or x.data.shape[1] < 2:
        raise ShapeError(f"layer_norm needs [B,n] with n>=2, got {x.data.shape}")
    y, xhat, inv_std = K.layer_norm_fwd(x.data, gain.data, bias.data, eps)

    def vjp(g):
        dx, dgain, dbias = K.layer_norm_bwd(g, xhat, inv_std, gain.data)
        return [(x, dx), (gain, dgain), (bias, dbias)]

    return Tensor(y, parents=(x, gain, bias), vjp=vjp)


def dropout(x, rate, training, rng):
    """Inverted dropout; identity when not training or rate == 0."""
    if not (0.0 <= rate < 1.0):
        raise ConfigError(f"dropout rate must be in [0,1), got {rate}")
    if not training or rate == 0.0:
        return x
    mask = (rng.random(x.data.shape) >= rate) / (1.0 - rate)
    return Tensor(x.data * mask, parents=(x,), vjp=lambda g: [(x, g * mask)])


def lstm_gates(pre, c_prev):
    """Fused LSTM gate math: pre [B,4d] (i,f,o,g blocks), c_prev [B,d] -> (h, c)."""
    if pre.data.shape[1] != 4 * c_prev.data.shape[1]:
        raise ShapeError(
            f"lstm_gates shapes do not agree: {pre.data.shape} vs {c_prev.data.shape}"
        )
    h_d, c_d, i, f, o, g = K.lstm_gates_fwd(pre.data, c_prev.data)
    zeros = np.zeros_like(c_d)

    def vjp_h(gh):
        dpre, dcp = K.lstm_gates_bwd(gh, zeros, i, f, o, g, c_d, c_prev.data)
        return [(pre, dpre), (c_prev, dcp)]

    def vjp_c(gc):
        dpre, dcp = K.lstm_gates_bwd(zeros, gc, i, f, o, g, c_d, c_prev.data)
        return [(pre, dpre), (c_prev, dcp)]

    h = Tensor(h_d, parents=(pre, c_prev), vjp=vjp_h)
    c = Tensor(c_d, parents=(pre, c_prev), vjp=vjp_c)
    return h, c
