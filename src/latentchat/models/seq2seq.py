"""Baseline encoder-decoder conversational model with teacher-forced
likelihood training, and the three pieces every decoder family builds
its likelihood from: ``encode``, ``latent_inputs`` and ``seq_loglik``."""

from dataclasses import dataclass

import numpy as np

from .. import autodiff as ad
from ..autodiff import Tensor
from ..layers import DecoderStack, EncoderStack
from .base import BaseModel, flat_targets, per_sequence


@dataclass
class DecoderInputs:
    """What one latent draw gives the decoder: a per-step input slot
    concatenated to every word embedding ([B,k]), and a topic term added
    to the word logits wherever the gate is on ([B,L])."""

    step: Tensor = None
    topic: Tensor = None


@dataclass
class SeqLogLik:
    """log p(y[,l] | nu, x) of one batch: masked time-major per-token
    terms [T*B] and their sums, the words and the gate kept apart."""

    words: Tensor
    words_sum: Tensor
    gate: Tensor = None
    gate_sum: Tensor = None

    def total(self):
        t = float(self.words_sum.data)
        return t if self.gate is None else t + float(self.gate_sum.data)

    def per_seq(self, batch):
        """Per-sequence log-likelihood [B], gate included."""
        s = per_sequence(self.words.data, batch)
        return s if self.gate is None else s + per_sequence(self.gate.data, batch)


class Seq2Seq(BaseModel):
    kind = "s2s"

    def __init__(self, cfg, rng, extra_in=0):
        super().__init__(cfg)
        self.encoder = EncoderStack(rng, cfg, self.params)
        self.decoder = DecoderStack(rng, cfg, self.params, extra_in=extra_in)

    # ----- forward pieces ---------------------------------------------------

    def encode(self, prompt, prompt_len, training=False, rng=None):
        """Returns (top states [U,B,d], per-layer (h, c) finals, prompt summary)."""
        states, finals = self.encoder.forward(
            prompt, prompt_len, training=training, rng=rng
        )
        return states, finals, finals[-1][0]

    def latent_inputs(self, nu=None):
        """No latent reaches this decoder."""
        return DecoderInputs()

    def decoder_h_tops(self, batch, finals, nu=None, training=False, rng=None):
        """Teacher-forced decoder top states [T*B,d], time-major; nu [B,k]
        is appended to every step's input."""
        return self.decoder.forward(batch.decoder_inputs(), self.decoder.init_states(finals),
                                    nu, training=training, rng=rng)

    def word_loglik(self, h_tops, batch, topic_add=None):
        """Masked per-step log-likelihoods of the gold targets from the
        [T*B,d] decoder top states.

        Returns (ll_flat [T*B] time-major, ll_sum scalar)."""
        logits = self.decoder.logits(h_tops)
        if topic_add is not None:
            logits = logits + topic_add
        lp = ad.log_softmax(logits)
        tgt, mask, _ = flat_targets(batch)
        ll = ad.pick(lp, tgt) * Tensor(mask)
        return ll, ad.tsum(ll)

    def seq_loglik(self, h_tops, batch, inputs, reuse=None):
        """log p(y | nu, x) from the decoder top states of a decode that
        took inputs.step.  reuse, a SeqLogLik of the same decode, may
        supply the terms that do not depend on nu; words have none."""
        return SeqLogLik(*self.word_loglik(h_tops, batch))

    # ----- training / evaluation -------------------------------------------

    def objective(self, batch, w=1.0, training=True, rng=None, eps=None):
        _, finals, _ = self.encode(
            batch.prompt, batch.prompt_len, training=training, rng=rng
        )
        h_tops = self.decoder_h_tops(batch, finals, training=training, rng=rng)
        ll = self.seq_loglik(h_tops, batch, self.latent_inputs())
        obj = (-1.0 / batch.size) * ll.words_sum
        nll = -ll.total()
        stats = {
            "nll": nll,
            "recon": nll,
            "kl": 0.0,
            "gate": 0.0,
            "tokens": batch.n_tokens,
            "per_seq_neg_bound": -ll.per_seq(batch),
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
