"""Neural building blocks on top of the autodiff core: LN-LSTM cells,
the bidirectional-bottom encoder stack, the decoder stack, and MLPs.
A cell step is one ``autodiff.lstm_step`` node on a packed (h, c) state."""

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


def init_uniform(rng, shape, scale=0.08):
    return Tensor(rng.uniform(-scale, scale, size=shape), requires_grad=True)


def init_zeros(shape):
    return Tensor(np.zeros(shape), requires_grad=True)


def init_const(shape, value):
    return Tensor(np.full(shape, float(value)), requires_grad=True)


class LSTMCell:
    """One LSTM cell whose gate pre-activations are layer-normalised per
    gate block. Forget-gate bias starts at +1."""

    def __init__(self, rng, d_in, d, prefix, params):
        self.Wx = init_uniform(rng, (d_in, 4 * d))
        self.Wh = init_uniform(rng, (d, 4 * d))
        self.ln_gain = init_const((4 * d,), 1.0)
        bias = np.zeros(4 * d)
        bias[d : 2 * d] = 1.0
        self.ln_bias = Tensor(bias, requires_grad=True)
        params[f"{prefix}.Wx"] = self.Wx
        params[f"{prefix}.Wh"] = self.Wh
        params[f"{prefix}.ln_gain"] = self.ln_gain
        params[f"{prefix}.ln_bias"] = self.ln_bias

    def step(self, x, state, keep=None):
        """Packed state [B,2d] -> next packed state; `keep` rows advance."""
        return ad.lstm_step(x, state, self.Wx, self.Wh, self.ln_gain, self.ln_bias, keep)


class MLP:
    """Single-hidden-layer perceptron with tanh hidden units.

    The output layer starts near zero so downstream Gaussians begin
    close to N(mean_bias, 1)."""

    def __init__(self, rng, d_in, d_hidden, d_out, prefix, params, out_scale=0.01):
        self.W1 = init_uniform(rng, (d_in, d_hidden))
        self.b1 = init_zeros((d_hidden,))
        self.W2 = init_uniform(rng, (d_hidden, d_out), scale=out_scale)
        self.b2 = init_zeros((d_out,))
        for n, t in (("W1", self.W1), ("b1", self.b1), ("W2", self.W2), ("b2", self.b2)):
            params[f"{prefix}.{n}"] = t

    def __call__(self, x):
        return ad.matmul(ad.tanh(ad.matmul(x, self.W1) + self.b1), self.W2) + self.b2


class EncoderStack:
    """Bidirectional first layer (d/2 per direction), unidirectional
    layers above, residual skips from `residual_start` upward."""

    def __init__(self, rng, cfg, params):
        d, half = cfg.d, cfg.d // 2
        self.cfg = cfg
        self.emb = init_uniform(rng, (cfg.vocab_size, cfg.d_emb))
        params["enc.emb"] = self.emb
        self.fwd = LSTMCell(rng, cfg.d_emb, half, "enc.l1f", params)
        self.bwd = LSTMCell(rng, cfg.d_emb, half, "enc.l1b", params)
        self.upper = [
            LSTMCell(rng, d, d, f"enc.l{i + 2}", params) for i in range(cfg.n_layers - 1)
        ]

    def forward(self, prompt, prompt_len, training=False, rng=None):
        """prompt [B,U] int ids -> (per-step top states, (h, c) finals per
        layer).  Steps past a row's prompt length carry its state over."""
        b, u_max = prompt.shape
        d, half = self.cfg.d, self.cfg.d // 2
        drop = self.cfg.dropout if training else 0.0
        keeps = [t < prompt_len for t in range(u_max)]

        def run(cell, n, inputs, order):
            state = Tensor(np.zeros((b, 2 * n)))
            outs = [None] * u_max
            for t in order:
                state = cell.step(inputs[t], state, keeps[t])
                outs[t] = ad.narrow(state, 1, 0, n)
            return outs, state

        def drop_all(xs):
            return [ad.dropout(x, drop, training, rng) for x in xs] if drop else xs

        embs = drop_all([ad.embedding(self.emb, prompt[:, t]) for t in range(u_max)])
        f_outs, fs = run(self.fwd, half, embs, range(u_max))
        b_outs, bs = run(self.bwd, half, embs, range(u_max - 1, -1, -1))
        states = [ad.concat([f_outs[t], b_outs[t]], axis=1) for t in range(u_max)]
        finals = [tuple(
            ad.concat([ad.narrow(fs, 1, lo, half), ad.narrow(bs, 1, lo, half)], axis=1)
            for lo in (0, half)
        )]

        for li, cell in enumerate(self.upper):
            outs, state = run(cell, d, drop_all(states), range(u_max))
            if li + 2 >= self.cfg.residual_start:
                outs = [out + x for out, x in zip(outs, states)]
            states = outs
            finals.append((ad.narrow(state, 1, 0, d), ad.narrow(state, 1, d, d)))
        return states, finals


class DecoderStack:
    """Unidirectional stack; `extra_in` widens the bottom layer's input
    for a per-step latent slot.  Each layer's state is packed (h, c)."""

    def __init__(self, rng, cfg, params, extra_in=0):
        d = cfg.d
        self.cfg = cfg
        self.emb = init_uniform(rng, (cfg.vocab_size, cfg.d_emb))
        params["dec.emb"] = self.emb
        self.cells = [
            LSTMCell(rng, cfg.d_emb + extra_in if i == 0 else d, d, f"dec.l{i + 1}", params)
            for i in range(cfg.n_layers)
        ]
        # output projection: logits = h @ V_T, V rows are per-word vectors
        self.V_T = init_uniform(rng, (d, cfg.vocab_size))
        params["dec.V_T"] = self.V_T

    def init_states(self, enc_finals):
        return [ad.concat([h, c], axis=1) for h, c in enc_finals]

    def step(self, x, states, training=False, rng=None):
        """x [B, d_emb(+extra)] -> (h_top [B,d], new states)."""
        drop = self.cfg.dropout if training else 0.0
        new_states = []
        inp = x
        prev_out = None
        for i, cell in enumerate(self.cells):
            if drop and i > 0:
                inp = ad.dropout(inp, drop, training, rng)
            state = cell.step(inp, states[i])
            new_states.append(state)
            out = ad.narrow(state, 1, 0, self.cfg.d)
            if i + 1 >= self.cfg.residual_start and prev_out is not None:
                out = out + prev_out
            prev_out = out
            inp = out
        return prev_out, new_states

    def embed_step(self, ids, training=False, rng=None):
        drop = self.cfg.dropout if training else 0.0
        e = ad.embedding(self.emb, ids)
        return ad.dropout(e, drop, training, rng) if drop else e

    def logits(self, h):
        return ad.matmul(h, self.V_T)
