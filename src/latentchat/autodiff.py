"""Reverse-mode autodiff over dense float64 numpy arrays.

A :class:`Tensor` records its parents and a vector-Jacobian-product
closure when it is produced by an operation on a tensor that requires
grad; the implicit DAG of parent links is the computation tape.
``backward(loss)`` replays it in reverse topological order and
*accumulates* into ``.grad`` (running it twice without ``zero_grad``
doubles the gradients).

``.grad`` buffers are lazy: only leaves built with ``requires_grad=True``
get one at construction, and the root of a ``backward`` call gets one
there.  Intermediate nodes keep ``grad = None``; backward accumulates into
leaves and the root only.

Inside ``with no_grad():`` (also usable as a decorator) no tape is
recorded: every op returns a parentless Tensor with no VJP and no
``.grad``, so inference holds only the arrays it still needs.  The
context nests and restores the previous mode on exit, exceptions
included.

One coarse node, :func:`lstm_step`, covers a whole LN-LSTM step (both
projections, per-gate-block layer norm, gates, masked carry) on a packed
[B,2d] (h, c) state; its backward reuses :mod:`latentchat.kernels`.
"""

import contextlib

import numpy as np

from . import kernels as K
from .errors import ConfigError, NumericError, ShapeError

LN_EPS = 1e-5

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Build no tape inside the block: ops return bare Tensors."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp", "name")

    def __init__(self, data, requires_grad=False, parents=(), vjp=None, name=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.name = name
        if parents:
            # an op result: a tape node only if some input needs its gradient
            self.requires_grad = _grad_enabled and any(p.requires_grad for p in parents)
            self._parents = tuple(parents) if self.requires_grad else ()
            self._vjp = vjp if self.requires_grad else None
            self.grad = None
        else:
            self.requires_grad = requires_grad
            self._parents = ()
            self._vjp = None
            self.grad = np.zeros_like(self.data) if requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self):
        if self.grad is not None:
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
    """Accumulate d(loss)/d(t) into t.grad for the root and every reachable
    leaf that requires grad."""
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
        if node._vjp is None or node is loss:
            if node.grad is None:
                node.grad = np.zeros_like(node.data)
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


def tsum(a):
    def vjp(g):
        return [(a, np.broadcast_to(g, a.data.shape).copy())]

    return Tensor(a.data.sum(), parents=(a,), vjp=vjp)


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


def dropout(x, rate, training, rng):
    """Inverted dropout; identity when not training or rate == 0."""
    if not (0.0 <= rate < 1.0):
        raise ConfigError(f"dropout rate must be in [0,1), got {rate}")
    if not training or rate == 0.0:
        return x
    mask = (rng.random(x.data.shape) >= rate) / (1.0 - rate)
    return Tensor(x.data * mask, parents=(x,), vjp=lambda g: [(x, g * mask)])


def lstm_step(x, state, Wx, Wh, gain, bias, keep=None):
    """One layer-normalised LSTM step as a single tape node: x [B,d_in] and
    the packed state [B,2d] = (h, c) -> the next packed state.  gain/bias
    [4d] normalise each (i,f,o,g) block on its own; rows where the bool
    `keep` [B] is False carry their state over unchanged."""
    b, d = state.data.shape[0], state.data.shape[1] // 2
    n_in = Wx.data.shape[0]
    shapes = tuple(t.data.shape for t in (x, state, Wx, Wh, gain, bias))
    want = ((b, n_in), (b, 2 * d), (n_in, 4 * d), (d, 4 * d), (4 * d,), (4 * d,))
    if shapes != want or (keep is not None and keep.shape != (b,)):
        raise ShapeError(f"lstm_step shapes do not agree: {shapes}")
    h_prev = state.data[:, :d]
    c_prev = state.data[:, d:]
    pre = (x.data @ Wx.data + h_prev @ Wh.data).reshape(b, 4, d)
    gain4 = gain.data.reshape(4, d)
    y, xhat, inv_std = K.layer_norm_fwd(pre, gain4, bias.data.reshape(4, d), LN_EPS)
    h, c, i, f, o, g = K.lstm_gates_fwd(y.reshape(b, 4 * d), c_prev)
    out = np.concatenate([h, c], axis=1)
    if keep is not None:
        out = np.where(keep[:, None], out, state.data)

    def vjp(gs):
        zeros = np.zeros_like(c)
        if keep is not None:
            carried = np.where(keep[:, None], 0.0, gs)
            gs = np.where(keep[:, None], gs, 0.0)
        # one gate backward for the h part and one for the c part, summed
        # after, keeps fixed-seed runs bitwise: a single call with both
        # rounds differently (after 32 desk ltcm steps the epoch objective
        # moved by 1e-14 relative, parameters by up to 5e-11)
        dy_h, dc_h = K.lstm_gates_bwd(gs[:, :d], zeros, i, f, o, g, c, c_prev)
        dy_c, dc_c = K.lstm_gates_bwd(zeros, gs[:, d:], i, f, o, g, c, c_prev)
        dpre, dgain, dbias = K.layer_norm_bwd(
            (dy_h + dy_c).reshape(b, 4, d), xhat, inv_std, gain4)
        dpre = dpre.reshape(b, 4 * d)
        dstate = np.concatenate([dpre @ Wh.data.T, dc_h + dc_c], axis=1)
        if keep is not None:
            dstate += carried
        return [(x, dpre @ Wx.data.T), (state, dstate), (Wx, x.data.T @ dpre),
                (Wh, h_prev.T @ dpre), (gain, dgain.ravel()), (bias, dbias.ravel())]

    return Tensor(out, parents=(x, state, Wx, Wh, gain, bias), vjp=vjp)
