"""Diagonal-Gaussian machinery and the latent-variable encoder-decoder:
reparameterised sampling, closed-form KL, prior/inference networks, and
the linear KL annealing schedule."""

from dataclasses import dataclass

import numpy as np

from .. import autodiff as ad
from ..autodiff import Tensor
from ..errors import ConfigError
from ..layers import MLP
from .seq2seq import DecoderInputs, Seq2Seq


@dataclass
class DiagonalGaussian:
    """Factorised Gaussian held as (mean, log-variance) tensors [B,k]."""

    mu: Tensor
    logvar: Tensor

    @classmethod
    def standard(cls, b, k):
        return cls(Tensor(np.zeros((b, k))), Tensor(np.zeros((b, k))))


def reparam_sample(g, eps):
    """nu = mu + sigma * eps with eps ~ N(0, I) drawn by the caller."""
    return g.mu + ad.exp(0.5 * g.logvar) * Tensor(eps)


def kl_diag(q, p):
    """Closed-form KL(q||p) per row, summed over dimensions -> [B]."""
    diff = p.mu - q.mu
    term = (
        ad.exp(q.logvar - p.logvar)
        + diff * diff * ad.exp(-1.0 * p.logvar)
        - 1.0
        + p.logvar
        - q.logvar
    )
    return 0.5 * ad.sum_axis(term, axis=1)


class AnnealSchedule:
    """Linear 0 -> 1 ramp of the KL weight over one epoch of steps."""

    def __init__(self, steps_per_epoch, enabled=True):
        if steps_per_epoch <= 0:
            raise ConfigError("steps_per_epoch must be positive")
        self.steps_per_epoch = steps_per_epoch
        self.enabled = enabled

    def weight(self, step):
        if not self.enabled:
            return 1.0
        return min(1.0, step / self.steps_per_epoch)


class GaussianHead:
    """Two single-hidden-layer MLPs producing mean and log-variance."""

    def __init__(self, rng, d_in, d_hidden, k, prefix, params):
        self.mu = MLP(rng, d_in, d_hidden, k, f"{prefix}.mu", params)
        self.logvar = MLP(rng, d_in, d_hidden, k, f"{prefix}.logvar", params)

    def __call__(self, x):
        return DiagonalGaussian(self.mu(x), self.logvar(x))


def eval_noise(rng, b, k):
    """Reparameterisation noise for evaluation: drawn from rng, or zero
    (the posterior mean) without one."""
    return rng.standard_normal((b, k)) if rng is not None else np.zeros((b, k))


class GaussianLatentSeq2Seq(Seq2Seq):
    """Encoder-decoder with a sentence-level diagonal Gaussian latent nu:
    the prior (standard, or conditioned on the prompt summary), the
    bag-of-words inference net, and the objective, approximate NLL and
    evaluation sums shared by every family built on it.

    A family says how nu reaches the decoder through the three pieces its
    likelihood is built from: ``encode`` (the prompt, once per batch),
    ``latent_inputs(nu)`` (what the decoder receives) and ``seq_loglik``
    (log p(y[,l] | nu, x), words and gate apart)."""

    def _build_latent_heads(self, rng):
        """Prior and inference nets.  Called after the subclass's own
        parameters, which fixes the init draws and the parameter order."""
        cfg = self.cfg
        self.conditional = cfg.latent_mode == "conditional"
        if self.conditional:
            self.prior_net = GaussianHead(
                rng, cfg.d, cfg.mlp_hidden, cfg.k, "prior_net", self.params
            )
        self.infer_net = GaussianHead(
            rng, 2 * cfg.vocab_size, cfg.mlp_hidden, cfg.k, "infer_net", self.params
        )

    def prior(self, u_summary, b):
        if self.conditional:
            return self.prior_net(u_summary)
        return DiagonalGaussian.standard(b, self.cfg.k)

    def posterior(self, batch):
        bows = Tensor(np.concatenate([batch.bow_prompt, batch.bow_response], axis=1))
        return self.infer_net(bows)

    def regularizer(self):
        """Penalty on the family's own parameters added to the objective."""
        return None

    def bound_terms(self, batch, enc, eps, training=False, rng=None):
        """log p(y[,l] | nu, x) at nu = mu_q + sigma_q * eps, KL(q||p) per
        row [B], and the decoder top states of that decode."""
        _, finals, u = enc
        q = self.posterior(batch)
        inputs = self.latent_inputs(reparam_sample(q, eps))
        h_tops = self.decoder_h_tops(batch, finals, inputs.step, training, rng)
        kl_rows = kl_diag(q, self.prior(u, batch.size))
        return self.seq_loglik(h_tops, batch, inputs), kl_rows, h_tops

    def objective(self, batch, w=1.0, training=True, rng=None, eps=None):
        enc = self.encode(batch.prompt, batch.prompt_len, training=training, rng=rng)
        if eps is None:
            eps = rng.standard_normal((batch.size, self.cfg.k))
        ll, kl_rows, _ = self.bound_terms(batch, enc, eps, training, rng)
        kl_sum = ad.tsum(kl_rows)
        neg_ll = -1.0 * ll.words_sum
        if ll.gate is not None:
            neg_ll = neg_ll - ll.gate_sum
        obj = (1.0 / batch.size) * (neg_ll + w * kl_sum)
        penalty = self.regularizer()
        if penalty is not None:
            obj = obj + penalty
        stats = {
            "nll": -float(ll.words_sum.data),
            "recon": -float(ll.words_sum.data),
            "kl": float(kl_sum.data),
            "gate": 0.0 if ll.gate is None else -float(ll.gate_sum.data),
            "tokens": batch.n_tokens,
            "per_seq_neg_bound": -ll.per_seq(batch) + kl_rows.data,
            "per_seq_kl": kl_rows.data.copy(),
        }
        return obj, stats

    def approx_nll(self, batch, enc=None, h_tops=None):
        """-log p(y[,l] | nu-hat, x) at nu-hat = the prior mean, with no
        sampling.  enc may carry this batch's encode, and h_tops a decode
        of it; the decode is reused when the decoder takes no per-step
        latent input, which leaves its states independent of nu."""
        if enc is None:
            enc = self.encode(batch.prompt, batch.prompt_len)
        _, finals, u = enc
        inputs = self.latent_inputs(self.prior(u, batch.size).mu)
        if h_tops is None or inputs.step is not None:
            h_tops = self.decoder_h_tops(batch, finals, nu=inputs.step)
        return -self.seq_loglik(h_tops, batch, inputs).total()

    @ad.no_grad()
    def eval_sums(self, batch, rng=None):
        """The bound at one posterior draw and the approximate NLL, from
        one encode of the batch."""
        eps = eval_noise(rng, batch.size, self.cfg.k)
        enc = self.encode(batch.prompt, batch.prompt_len)
        ll, kl_rows, h_tops = self.bound_terms(batch, enc, eps)
        return {
            "approx_nll": self.approx_nll(batch, enc, h_tops),
            "tokens": batch.n_tokens,
            "per_seq_neg_bound": -ll.per_seq(batch) + kl_rows.data,
            "per_seq_kl": kl_rows.data,
            "n_seqs": batch.size,
        }


class LatentSeq2Seq(GaussianLatentSeq2Seq):
    """Encoder-decoder with the latent concatenated to the decoder input at
    every step; trained on the variational bound."""

    kind = "lvs2s"

    def __init__(self, cfg, rng):
        super().__init__(cfg, rng, extra_in=cfg.k)
        # wide init on the latent input rows: at the default scale the
        # decoder ignores nu and the posterior collapses before the
        # latent path can contribute
        self.params["dec.l1.Wx"].data[cfg.d_emb:, :] *= 12.5
        self._build_latent_heads(rng)

    def latent_inputs(self, nu):
        """nu itself, as the per-step decoder input slot."""
        return DecoderInputs(step=nu)
