"""Baseline encoder-decoder conversational model, and the one objective
and evaluation sums every decoder family shares.  A family builds
log p(y[,l] | nu, x) from ``encode``, ``latent_inputs`` and
``seq_loglik``, and supplies ``bound_terms`` and ``approx_nll``; without
a latent, as here, the bound is the exact log-likelihood."""

from dataclasses import dataclass

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


@dataclass
class BoundTerms:
    """One draw's share of the bound: log p(y[,l] | nu, x), the KL(q||p)
    rows [B] (None without a latent), the decoder top states [T*B,d] of
    that decode and the prior p."""

    ll: SeqLogLik
    kl_rows: Tensor = None
    h_tops: Tensor = None
    prior: object = None

    def neg_bound(self, batch):
        """Per-sequence negated bound [B]."""
        neg = -self.ll.per_seq(batch)
        return neg if self.kl_rows is None else neg + self.kl_rows.data


class Seq2Seq(BaseModel):
    kind = "s2s"

    def __init__(self, cfg, rng, extra_in=0):
        super().__init__(cfg)
        self.encoder = EncoderStack(rng, cfg, self.params)
        self.decoder = DecoderStack(rng, cfg, self.params, extra_in=extra_in)

    # ----- forward pieces ---------------------------------------------------

    def encode(self, prompt, prompt_len, training=False, rng=None):
        """Returns (packed [B,2d] final state per layer, prompt summary [B,d])."""
        return self.encoder.forward(prompt, prompt_len, training=training, rng=rng)

    def latent_inputs(self, nu=None):
        """No latent reaches this decoder."""
        return DecoderInputs()

    def decoder_h_tops(self, batch, finals, nu=None, training=False, rng=None):
        """Teacher-forced decoder top states [T*B,d], time-major, from the
        encoder's finals; nu [B,k] is appended to every step's input."""
        return self.decoder.forward(batch.decoder_inputs(), finals, nu, training=training, rng=rng)

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

    def regularizer(self):
        """Penalty on the family's own parameters added to the objective."""
        return None

    # ----- the bound ----------------------------------------------------------

    def bound_terms(self, batch, enc, eps=None, training=False, rng=None):
        """log p(y | x) from one decode of enc, this batch's encode; there
        is no latent, so eps is ignored and there is no KL."""
        finals, _ = enc
        h_tops = self.decoder_h_tops(batch, finals, training=training, rng=rng)
        return BoundTerms(self.seq_loglik(h_tops, batch, self.latent_inputs()),
                          h_tops=h_tops)

    def approx_nll(self, batch, enc=None, bound=None):
        """-log p(y | x), exact here; enc and bound may carry this batch's
        encode and BoundTerms, which are then reused."""
        if bound is None:
            bound = self.bound_terms(batch, enc or self.encode(batch.prompt, batch.prompt_len))
        return -bound.ll.total()

    def objective(self, batch, w=1.0, training=True, rng=None, eps=None):
        """Negated bound averaged over the batch, KL weighted by w, plus the
        family's regulariser; eps [B,k] is drawn from rng when not given."""
        enc = self.encode(batch.prompt, batch.prompt_len, training=training, rng=rng)
        bound = self.bound_terms(batch, enc, eps, training, rng)
        ll, kl_rows = bound.ll, bound.kl_rows
        neg = -1.0 * ll.words_sum
        if ll.gate is not None:
            neg = neg - ll.gate_sum
        if kl_rows is not None:
            kl_sum = ad.tsum(kl_rows)
            neg = neg + w * kl_sum
        obj = (1.0 / batch.size) * neg
        penalty = self.regularizer()
        if penalty is not None:
            obj = obj + penalty
        stats = {
            "recon": -float(ll.words_sum.data),
            "kl": 0.0 if kl_rows is None else float(kl_sum.data),
            "gate": 0.0 if ll.gate is None else -float(ll.gate_sum.data),
            "tokens": batch.n_tokens,
            "per_seq_neg_bound": bound.neg_bound(batch),
            "per_seq_kl": None if kl_rows is None else kl_rows.data.copy(),
        }
        return obj, stats

    @ad.no_grad()
    def eval_sums(self, batch, rng=None):
        """The bound at one draw from rng (the posterior mean without one)
        and the approximate NLL, from one encode of the batch."""
        enc = self.encode(batch.prompt, batch.prompt_len)
        bound = self.bound_terms(batch, enc, rng=rng)
        return {
            "approx_nll": self.approx_nll(batch, enc, bound),
            "tokens": batch.n_tokens,
            "per_seq_neg_bound": bound.neg_bound(batch),
            "per_seq_kl": None if bound.kl_rows is None else bound.kl_rows.data,
        }
