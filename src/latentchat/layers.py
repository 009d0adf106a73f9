"""Neural building blocks on top of the autodiff core: LN-LSTM cells,
the bidirectional-bottom encoder stack, the decoder stack, and MLPs.
A layer (one direction of it, in the encoder's bottom layer) over a whole
sequence is one ``autodiff.lstm_layer`` node on packed (h, c) states."""

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

    def layer(self, xs, state0, keep=None, reverse=False):
        """[T,B,d_in] inputs -> [T,B,2d] packed states, one tape node;
        where keep [T,B] is False a row carries its state."""
        return ad.lstm_layer(xs, state0, self.Wx, self.Wh, self.ln_gain,
                             self.ln_bias, keep, reverse)

    def step(self, x, state):
        """One step on arrays, no tape: [B,d_in], packed [B,2d] -> next."""
        return ad.lstm_cell(x @ self.Wx.data, state, self.Wh.data,
                            self.ln_gain.data, self.ln_bias.data)[0]


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
        """prompt [B,U] int ids -> (top states [U,B,d], (h, c) finals per
        layer).  Steps past a row's prompt length carry its state over.
        Each layer input draws one dropout mask over all its steps."""
        b, u_max = prompt.shape
        d, half = self.cfg.d, self.cfg.d // 2
        drop = self.cfg.dropout if training else 0.0
        keep = np.arange(u_max)[:, None] < prompt_len  # [U,B]
        zeros = Tensor(np.zeros((b, d)))

        embs = ad.dropout(ad.embedding(self.emb, prompt.T), drop, training, rng)
        fw = self.fwd.layer(embs, zeros, keep)
        bw = self.bwd.layer(embs, zeros, keep, reverse=True)
        states = ad.concat([fw[:, :, :half], bw[:, :, :half]], axis=2)
        # a direction's final state is the one after its last step
        finals = [tuple(
            ad.concat([fw[-1, :, lo : lo + half], bw[0, :, lo : lo + half]], axis=1)
            for lo in (0, half)
        )]
        for li, cell in enumerate(self.upper):
            out = cell.layer(ad.dropout(states, drop, training, rng),
                             Tensor(np.zeros((b, 2 * d))), keep)
            top = out[:, :, :d]
            states = top + states if li + 2 >= self.cfg.residual_start else top
            finals.append((out[-1, :, :d], out[-1, :, d:]))
        return states, finals


class DecoderStack:
    """Unidirectional stack; `extra_in` widens the bottom layer's input
    for a per-step latent slot.  Each layer's state is packed (h, c).
    ``forward`` runs a teacher-forced sequence as one tape node per layer;
    ``step`` runs one decoding step without a tape.  Both go through
    ``autodiff.lstm_cell``, so they compute the same numbers."""

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

    def _residual(self, i):
        return i > 0 and i + 1 >= self.cfg.residual_start

    def forward(self, ids, states, step_in=None, training=False, rng=None):
        """Teacher-forced ids [B,T] from init_states' states, with step_in
        [B,k] appended to every input -> top states [T*B,d], time-major.

        Dropout draws its masks as stepping would: per step, the
        embedding's and then each upper layer input's."""
        b, n_t = ids.shape
        d, n = self.cfg.d, len(self.cells)
        drop = self.cfg.dropout if training else 0.0
        x = ad.embedding(self.emb, ids.T)  # [T,B,d_emb]
        if drop:
            widths = [b * self.cfg.d_emb] + [b * d] * (n - 1)
            masks = np.split(ad.dropout_mask(rng, (n_t, sum(widths)), drop),
                             np.cumsum(widths)[:-1], axis=1)
            masks = [m.reshape(n_t, b, -1) for m in masks]
            x = ad.scale(x, masks[0])
        if step_in is not None:
            x = ad.concat([x, ad.broadcast_to(step_in, (n_t,) + step_in.shape)], axis=2)
        prev = None
        for i, cell in enumerate(self.cells):
            if drop and i > 0:
                x = ad.scale(x, masks[i])
            out = cell.layer(x, states[i])[:, :, :d]
            if self._residual(i):
                out = out + prev
            prev = x = out
        return ad.reshape(prev, (n_t * b, d))

    def step(self, x, states):
        """One decoding step from parameter values, no tape and no
        dropout: x [B, d_emb(+extra)] -> (h_top [B,d], new states)."""
        d = self.cfg.d
        new_states = []
        inp = x.data
        prev = None
        for i, cell in enumerate(self.cells):
            state = cell.step(inp, states[i].data)
            new_states.append(Tensor(state))
            out = state[:, :d]
            if self._residual(i):
                out = out + prev
            prev = inp = out
        return Tensor(prev), new_states

    def embed_step(self, ids):
        """Word ids [B] -> a decoding step's embeddings [B,d_emb]."""
        return ad.embedding(self.emb, ids)

    def logits(self, h):
        return ad.matmul(h, self.V_T)
