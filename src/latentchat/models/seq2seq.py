"""Baseline encoder-decoder conversational model with teacher-forced
likelihood training."""

import numpy as np

from .. import autodiff as ad
from ..autodiff import Tensor
from ..layers import DecoderStack, EncoderStack
from .base import BaseModel, flat_targets, per_sequence


class Seq2Seq(BaseModel):
    kind = "s2s"

    def __init__(self, cfg, rng, extra_in=0):
        super().__init__(cfg)
        self.encoder = EncoderStack(rng, cfg, self.params)
        self.decoder = DecoderStack(rng, cfg, self.params, extra_in=extra_in)

    # ----- forward pieces ---------------------------------------------------

    def encode(self, batch, training=False, rng=None):
        """Returns (per-step top states, per-layer finals, prompt summary)."""
        return self._encode_ids(
            batch.prompt, batch.prompt_len, training=training, rng=rng
        )

    def _encode_ids(self, prompt, prompt_len, training=False, rng=None):
        states, finals = self.encoder.forward(
            prompt, prompt_len, training=training, rng=rng
        )
        return states, finals, finals[-1][0]

    def decoder_h_tops(self, batch, finals, nu=None, training=False, rng=None):
        inputs = batch.decoder_inputs()
        states = self.decoder.init_states(finals)
        h_tops = []
        for t in range(inputs.shape[1]):
            x = self.decoder.embed_step(inputs[:, t], training=training, rng=rng)
            if nu is not None:
                x = ad.concat([x, nu], axis=1)
            h, states = self.decoder.step(x, states, training=training, rng=rng)
            h_tops.append(h)
        return h_tops

    def word_loglik(self, h_tops, batch, topic_add=None):
        """Masked per-step log-likelihoods of the gold targets.

        Returns (ll_flat [T*B] time-major, ll_sum scalar)."""
        H = ad.concat(h_tops, axis=0)
        logits = self.decoder.logits(H)
        if topic_add is not None:
            logits = logits + topic_add
        lp = ad.log_softmax(logits)
        tgt, mask, _ = flat_targets(batch)
        ll = ad.pick(lp, tgt) * Tensor(mask)
        return ll, ad.tsum(ll)

    # ----- training / evaluation -------------------------------------------

    def objective(self, batch, w=1.0, training=True, rng=None, eps=None):
        _, finals, _ = self.encode(batch, training=training, rng=rng)
        h_tops = self.decoder_h_tops(batch, finals, training=training, rng=rng)
        ll_flat, ll_sum = self.word_loglik(h_tops, batch)
        obj = (-1.0 / batch.size) * ll_sum
        nll = -float(ll_sum.data)
        stats = {
            "nll": nll,
            "recon": nll,
            "kl": 0.0,
            "gate": 0.0,
            "tokens": batch.n_tokens,
            "per_seq_neg_bound": -per_sequence(ll_flat.data, batch),
            "per_seq_kl": np.zeros(batch.size),
        }
        return obj, stats

    @ad.no_grad()
    def eval_sums(self, batch, rng=None):
        """Evaluation accumulators: approx NLL (= exact here), bound, KL."""
        _, stats = self.objective(batch, training=False)
        return {
            "approx_nll": stats["nll"],
            "tokens": stats["tokens"],
            "per_seq_neg_bound": stats["per_seq_neg_bound"],
            "per_seq_kl": None,
            "n_seqs": batch.size,
        }
