"""Diagonal-Gaussian machinery and the latent-variable encoder-decoder:
reparameterised sampling, closed-form KL, prior/inference networks, and
the linear KL annealing schedule."""

from dataclasses import dataclass

import numpy as np

from .. import autodiff as ad
from ..autodiff import Tensor
from ..errors import ConfigError
from ..layers import MLP
from .base import per_sequence
from .seq2seq import Seq2Seq


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
    """Encoder-decoder with a sentence-level diagonal Gaussian: the prior
    (standard, or conditioned on the prompt summary), the bag-of-words
    inference net and the evaluation sums.  Subclasses decide how the
    latent reaches the decoder and define objective and approx_nll."""

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

    @ad.no_grad()
    def eval_sums(self, batch, rng=None):
        eps = eval_noise(rng, batch.size, self.cfg.k)
        stats, approx_nll = self._eval_pass(batch, eps)
        return {
            "approx_nll": approx_nll,
            "tokens": stats["tokens"],
            "per_seq_neg_bound": stats["per_seq_neg_bound"],
            "per_seq_kl": stats["per_seq_kl"],
            "n_seqs": batch.size,
        }

    def _eval_pass(self, batch, eps):
        """Bound statistics at eps and the approximate NLL."""
        _, stats = self.objective(batch, w=1.0, training=False, eps=eps)
        return stats, self.approx_nll(batch)


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

    def objective(self, batch, w=1.0, training=True, rng=None, eps=None):
        _, finals, u = self.encode(batch, training=training, rng=rng)
        q = self.posterior(batch)
        p = self.prior(u, batch.size)
        if eps is None:
            eps = rng.standard_normal((batch.size, self.cfg.k))
        nu = reparam_sample(q, eps)
        h_tops = self.decoder_h_tops(batch, finals, nu=nu, training=training, rng=rng)
        ll_flat, ll_sum = self.word_loglik(h_tops, batch)
        kl_rows = kl_diag(q, p)
        kl_sum = ad.tsum(kl_rows)
        obj = (1.0 / batch.size) * (-1.0 * ll_sum + w * kl_sum)
        stats = {
            "nll": -float(ll_sum.data),
            "recon": -float(ll_sum.data),
            "kl": float(kl_sum.data),
            "gate": 0.0,
            "tokens": batch.n_tokens,
            "per_seq_neg_bound": -per_sequence(ll_flat.data, batch) + kl_rows.data,
            "per_seq_kl": kl_rows.data.copy(),
        }
        return obj, stats

    def approx_nll(self, batch):
        """Deterministic decode with nu-hat = prior mean (no sampling)."""
        _, finals, u = self.encode(batch, training=False)
        p = self.prior(u, batch.size)
        h_tops = self.decoder_h_tops(batch, finals, nu=p.mu)
        _, ll_sum = self.word_loglik(h_tops, batch)
        return -float(ll_sum.data)
