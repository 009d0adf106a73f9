"""Diagonal-Gaussian machinery and the latent-variable encoder-decoder:
reparameterised sampling, closed-form KL, prior/inference networks, the
Gaussian families' bound pieces and approximate NLL, and the linear KL
annealing schedule.  The objective and evaluation sums built from those
pieces live on ``Seq2Seq``."""

from dataclasses import dataclass

import numpy as np

from .. import autodiff as ad
from ..autodiff import Tensor
from ..errors import ConfigError
from ..layers import MLP
from .seq2seq import BoundTerms, DecoderInputs, Seq2Seq


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


def latent_noise(rng, b, k):
    """Reparameterisation noise [b,k]: drawn from rng, or zero (the
    posterior mean) without one."""
    return rng.standard_normal((b, k)) if rng is not None else np.zeros((b, k))


class GaussianLatentSeq2Seq(Seq2Seq):
    """Encoder-decoder with a sentence-level diagonal Gaussian latent nu:
    the prior (standard, or conditioned on the prompt summary), the
    bag-of-words inference net, and the bound's pieces and approximate NLL
    of every family built on it.  A family says how nu reaches the decoder
    through ``latent_inputs(nu)`` and ``seq_loglik``."""

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

    def bound_terms(self, batch, enc, eps=None, training=False, rng=None):
        """The bound's pieces at nu = mu_q + sigma_q * eps; eps [B,k] is
        drawn from rng when not given (zero without an rng)."""
        if eps is None:
            eps = latent_noise(rng, batch.size, self.cfg.k)
        finals, u = enc
        q = self.posterior(batch)
        inputs = self.latent_inputs(reparam_sample(q, eps))
        h_tops = self.decoder_h_tops(batch, finals, inputs.step, training, rng)
        prior = self.prior(u, batch.size)
        return BoundTerms(self.seq_loglik(h_tops, batch, inputs), kl_diag(q, prior),
                          h_tops, prior)

    def approx_nll(self, batch, enc=None, bound=None):
        """-log p(y[,l] | nu-hat, x) at nu-hat = the prior mean, with no
        sampling.  enc may carry this batch's encode and bound its
        BoundTerms: the prior is reused, and so are the decode and its
        nu-free terms when the decoder takes no per-step latent input,
        which leaves its states independent of nu."""
        finals, u = enc or self.encode(batch.prompt, batch.prompt_len)
        prior = bound.prior if bound is not None else self.prior(u, batch.size)
        inputs = self.latent_inputs(prior.mu)
        if bound is not None and inputs.step is None:
            return -self.seq_loglik(bound.h_tops, batch, inputs, reuse=bound.ll).total()
        h_tops = self.decoder_h_tops(batch, finals, nu=inputs.step)
        return -self.seq_loglik(h_tops, batch, inputs).total()


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
