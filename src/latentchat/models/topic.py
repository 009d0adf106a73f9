"""Gaussian-softmax neural topic model and the topic-gated conversational
model: topic proportions, word-level topic gate, additive logit fusion,
and the topic-matrix regularisers."""

import numpy as np

from .. import autodiff as ad
from ..autodiff import Tensor
from ..errors import InputError
from ..kernels import sigmoid
from ..layers import init_uniform
from ..text import N_RESERVED
from .base import BaseModel, flat_targets
from .latent import (
    DiagonalGaussian,
    GaussianHead,
    GaussianLatentSeq2Seq,
    kl_diag,
    latent_noise,
    reparam_sample,
)
from .seq2seq import DecoderInputs, SeqLogLik


def topic_proportion(nu, w1):
    """theta = softmax(W1^T nu): [B,k] x [k,K] -> simplex rows [B,K]."""
    return ad.softmax(ad.matmul(nu, w1))


def beta_regularizers(beta, lambda_ma, lambda_l2):
    """Mean squared cosine between topic columns plus squared Frobenius
    norm, one node; zero-norm columns are skipped in the angular part."""
    b = beta.data
    gram = b.T @ b
    k = gram.shape[0]
    eye = np.eye(k)
    diag = (gram * eye).sum(axis=1)  # [K] column norms^2
    nz = (diag > 0.0).astype(np.float64)
    pair_mask = np.outer(nz, nz) * (1.0 - eye)
    denom = diag[:, None] * diag + (1.0 - pair_mask)  # masked slots stay safe
    inv = 1.0 / denom
    cos2 = gram * gram * inv * pair_mask
    w_ma = 0.5 / max(k * (k - 1) / 2, 1)
    value = (w_ma * cos2.sum()) * lambda_ma + (b * b).sum() * lambda_l2

    def vjp(g):
        # d/dG of sum cos2 over ordered pairs, G symmetric: 2 G_ij / (n_i n_j)
        # off the diagonal, -2 sum_j cos2_ij / n_i on it; dbeta = 2 beta dG
        dgram = 2.0 * gram * inv * pair_mask
        dgram[np.diag_indices(k)] = -2.0 * cos2.sum(axis=1) / np.where(nz > 0, diag, 1.0)
        return [(beta, g * (2.0 * lambda_ma * w_ma * (b @ dgram) + 2.0 * lambda_l2 * b))]

    return Tensor(value, parents=(beta,), vjp=vjp)


def top_words_per_topic(beta_data, vocab, k_words):
    """Per topic column, the k_words vocabulary items with the largest
    entries, ties lexicographic."""
    k_words = min(k_words, len(vocab))
    out = []
    for kcol in range(beta_data.shape[1]):
        ranked = sorted(
            range(len(vocab)),
            key=lambda i: (-beta_data[i, kcol], vocab.token_of(i)),
        )
        out.append([vocab.token_of(i) for i in ranked[:k_words]])
    return out


def _nonreserved_row_mask(vocab_size):
    m = np.ones((vocab_size, 1))
    m[:N_RESERVED] = 0.0
    return m


class TopicGatedSeq2Seq(GaussianLatentSeq2Seq):
    """Encoder-decoder whose word logits are additively fused with a
    gated topic contribution beta @ theta, theta = softmax(W1^T nu); the
    per-word binary gate is observed from the stop-word labels during
    training."""

    kind = "ltcm"

    def __init__(self, cfg, rng):
        super().__init__(cfg, rng, extra_in=0)
        L, K, k = cfg.vocab_size, cfg.K, cfg.k
        # wide init on the topic path: at the default 0.08 scale the
        # nu -> theta -> logits chain carries no usable gradient and the
        # latent collapses before the topic matrix can specialise
        self.beta = init_uniform(rng, (L, K), scale=1.0)
        self.beta.data[:N_RESERVED] = 0.0
        self.params["beta"] = self.beta
        self._row_mask = Tensor(_nonreserved_row_mask(L))
        self.w1 = init_uniform(rng, (k, K), scale=2.0)
        self.params["topic_proj_w1"] = self.w1
        self.w2 = init_uniform(rng, (cfg.d, 1))
        self.params["gate_w2"] = self.w2
        self._build_latent_heads(rng)

    # ----- topic pieces -----------------------------------------------------

    def masked_beta(self):
        """beta with reserved-token rows pinned to zero (no gradient)."""
        return self.beta * self._row_mask

    def latent_inputs(self, nu):
        """The [B,L] topic term theta beta^T; the decoder input is plain."""
        theta = topic_proportion(nu, self.w1)
        return DecoderInputs(topic=ad.matmul(theta, ad.transpose(self.masked_beta())))

    def fused_loglik(self, h_tops, batch, topic_part, gate_flat):
        """Word log-likelihood with the [B,L] topic term added to the
        logits; gate_flat is the observed [T*B] 0/1 label vector."""
        tiled = ad.concat([topic_part] * batch.response.shape[1], axis=0)
        topic_add = tiled * Tensor(gate_flat[:, None])
        return self.word_loglik(h_tops, batch, topic_add=topic_add)

    def gate_logits(self, H):
        """[N,d] decoder top states -> [N] gate logits."""
        return ad.sum_axis(ad.matmul(H, self.w2), axis=1)

    def gate_loglik(self, h_tops, batch):
        _, mask, gate = flat_targets(batch)
        z = self.gate_logits(h_tops)
        ll = (
            Tensor(gate) * ad.log_sigmoid(z)
            + Tensor(1.0 - gate) * ad.log_sigmoid(-1.0 * z)
        ) * Tensor(mask)
        return ll, ad.tsum(ll)

    def seq_loglik(self, h_tops, batch, inputs, reuse=None):
        """Words with the topic term added where the observed gate label
        is on, and the gate labels themselves.  The gate term does not
        depend on nu: reuse, a SeqLogLik of the same decode, supplies it."""
        _, _, gate = flat_targets(batch)
        words, words_sum = self.fused_loglik(h_tops, batch, inputs.topic, gate)
        if reuse is None:
            return SeqLogLik(words, words_sum, *self.gate_loglik(h_tops, batch))
        return SeqLogLik(words, words_sum, reuse.gate, reuse.gate_sum)

    def regularizer(self):
        return beta_regularizers(
            self.masked_beta(), self.cfg.lambda_ma, self.cfg.lambda_l2
        )

    @ad.no_grad()
    def gate_probs_forced(self, batch):
        """sigmoid(W2^T h_t) at reference positions -> ([T*B] probs,
        emitted token ids, validity mask)."""
        finals, _ = self.encode(batch.prompt, batch.prompt_len)
        z = self.gate_logits(self.decoder_h_tops(batch, finals))
        probs = sigmoid(z.data)
        tgt, mask, _ = flat_targets(batch)
        return probs, tgt, mask


class NeuralTopicModel(BaseModel):
    """Standalone bag-of-words topic model: theta = softmax(W^T nu) over
    a document-level Gaussian, word mixture from column-normalised beta."""

    kind = "ntm"

    def __init__(self, cfg, rng):
        super().__init__(cfg)
        L, K, k = cfg.vocab_size, cfg.K, cfg.k
        self.beta = init_uniform(rng, (L, K))
        self.params["beta"] = self.beta
        self.w1 = init_uniform(rng, (k, K))
        self.params["topic_proj_w1"] = self.w1
        self.infer_net = GaussianHead(
            rng, L, cfg.mlp_hidden, k, "infer_net", self.params
        )

    def word_mixture(self, theta):
        """p(word | theta): columns of beta softmax-normalised over the
        vocabulary, mixed by theta -> [B,L]."""
        topics = ad.softmax(ad.transpose(self.beta))  # [K,L] rows on simplex
        return ad.matmul(theta, topics)

    def bound(self, bags, rng=None, eps=None):
        """Variational bound per batch of document bags [B,L] (reserved
        columns must be zero)."""
        if bags.shape[0] == 0 or not np.any(bags.sum(axis=1) > 0):
            raise InputError("empty document bag")
        b = bags.shape[0]
        q = self.infer_net(Tensor(bags))
        p = DiagonalGaussian.standard(b, self.cfg.k)
        if eps is None:
            eps = latent_noise(rng, b, self.cfg.k)
        nu = reparam_sample(q, eps)
        theta = topic_proportion(nu, self.w1)
        mix = self.word_mixture(theta)
        ll_rows = ad.sum_axis(ad.log(mix) * Tensor(bags), axis=1)
        kl_rows = kl_diag(q, p)
        return ll_rows, kl_rows

    def objective(self, batch, w=1.0, training=True, rng=None, eps=None):
        bags = batch.bow_prompt + batch.bow_response
        ll_rows, kl_rows = self.bound(bags, rng=rng, eps=eps)
        ll_sum = ad.tsum(ll_rows)
        kl_sum = ad.tsum(kl_rows)
        penalty = beta_regularizers(
            self.beta, self.cfg.lambda_ma, self.cfg.lambda_l2
        )
        obj = (1.0 / bags.shape[0]) * (-1.0 * ll_sum + w * kl_sum) + penalty
        stats = {
            "recon": -float(ll_sum.data),
            "kl": float(kl_sum.data),
            "gate": 0.0,
            "tokens": float(bags.sum()),
            "per_seq_neg_bound": -ll_rows.data + kl_rows.data,
            "per_seq_kl": kl_rows.data.copy(),
        }
        return obj, stats

    @ad.no_grad()
    def eval_sums(self, batch, rng=None):
        bags = batch.bow_prompt + batch.bow_response
        ll_rows, kl_rows = self.bound(bags, rng=rng)
        neg_bound = -ll_rows.data + kl_rows.data
        return {
            "approx_nll": float(neg_bound.sum()),
            "tokens": float(bags.sum()),
            "per_seq_neg_bound": neg_bound,
            "per_seq_kl": kl_rows.data.copy(),
        }
