import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_model, tiny_batch, tiny_cfg, tiny_vocab
from latentchat import autodiff as ad
from latentchat.autodiff import Tensor
from latentchat.errors import ConfigError
from latentchat.models.latent import (
    AnnealSchedule,
    DiagonalGaussian,
    kl_diag,
    reparam_sample,
)
from latentchat.optim import grad_check


def gaussian(mu, logvar):
    return DiagonalGaussian(
        Tensor(np.asarray(mu, dtype=np.float64), requires_grad=True),
        Tensor(np.asarray(logvar, dtype=np.float64), requires_grad=True),
    )


# ---------------------------------------------------------------------------
# reparameterisation


def test_zero_noise_returns_mean():
    g = gaussian([[1.0, -2.0]], [[0.3, -0.7]])
    nu = reparam_sample(g, np.zeros((1, 2)))
    assert np.array_equal(nu.data, g.mu.data)


def test_monte_carlo_moments():
    g = gaussian(np.zeros((100_000, 2)), np.zeros((100_000, 2)))
    eps = np.random.default_rng(0).standard_normal((100_000, 2))
    nu = reparam_sample(g, eps).data
    assert np.all(np.abs(nu.mean(axis=0)) < 0.02)
    assert np.all((nu.var(axis=0) > 0.97) & (nu.var(axis=0) < 1.03))


def test_reparam_gradients():
    g = gaussian([[0.4, -0.3]], [[0.2, 0.5]])
    eps = np.random.default_rng(1).standard_normal((1, 2))
    w = Tensor(np.random.default_rng(2).standard_normal((1, 2)))

    def f():
        return ad.tsum(reparam_sample(g, eps) * w)

    assert grad_check(f, {"mu": g.mu, "logvar": g.logvar}) < 1e-6


# ---------------------------------------------------------------------------
# KL divergence


def test_kl_identity_is_zero():
    q = gaussian([[0.5, -1.0]], [[0.2, 0.1]])
    p = gaussian([[0.5, -1.0]], [[0.2, 0.1]])
    assert np.allclose(kl_diag(q, p).data, 0.0, atol=1e-12)


def test_kl_unit_shift_hand_value():
    q = gaussian([[1.0]], [[0.0]])
    p = gaussian([[0.0]], [[0.0]])
    assert kl_diag(q, p).data[0] == pytest.approx(0.5)


def test_kl_matches_monte_carlo():
    rng = np.random.default_rng(3)
    q = gaussian([[0.7, -0.4]], [[0.3, -0.6]])
    p = gaussian([[-0.2, 0.5]], [[0.1, 0.4]])
    closed = kl_diag(q, p).data[0]

    n = 1_000_000
    eps = rng.standard_normal((n, 2))
    x = q.mu.data + np.exp(0.5 * q.logvar.data) * eps

    def logpdf(x, g):
        var = np.exp(g.logvar.data)
        return -0.5 * (np.log(2 * np.pi) + g.logvar.data + (x - g.mu.data) ** 2 / var).sum(axis=1)

    mc = (logpdf(x, q) - logpdf(x, p)).mean()
    assert closed == pytest.approx(mc, rel=0.01)


@given(
    st.lists(st.floats(-2, 2), min_size=2, max_size=2),
    st.lists(st.floats(-2, 2), min_size=2, max_size=2),
)
@settings(max_examples=50, deadline=None)
def test_kl_nonnegative_property(mu, logvar):
    q = gaussian([mu], [logvar])
    p = gaussian([[0.0, 0.0]], [[0.0, 0.0]])
    assert kl_diag(q, p).data[0] >= -1e-12


# ---------------------------------------------------------------------------
# bound objective


def _forced_standard_posterior(model):
    """Zero the inference head so q = N(0, I) exactly."""
    for name in ("infer_net.mu", "infer_net.logvar"):
        for leaf in ("W2", "b2"):
            model.params[f"{name}.{leaf}"].data[...] = 0.0


def test_zero_weight_objective_is_pure_reconstruction():
    cfg = tiny_cfg("lvs2s", latent_mode="unconditional")
    model = make_model(cfg)
    batch = tiny_batch(tiny_vocab())
    eps = np.zeros((batch.size, cfg.k))
    obj, stats = model.objective(batch, w=0.0, training=False, eps=eps)
    assert float(obj.data) == pytest.approx(stats["recon"] / batch.size, abs=1e-9)


def test_posterior_equal_prior_kills_kl():
    cfg = tiny_cfg("lvs2s", latent_mode="unconditional")
    model = make_model(cfg)
    _forced_standard_posterior(model)
    batch = tiny_batch(tiny_vocab())
    _, stats = model.objective(batch, training=False, eps=np.zeros((batch.size, cfg.k)))
    assert stats["kl"] == pytest.approx(0.0, abs=1e-12)


def test_full_gradient_with_frozen_noise():
    cfg = tiny_cfg("lvs2s")
    model = make_model(cfg)
    batch = tiny_batch(tiny_vocab())
    eps = np.random.default_rng(4).standard_normal((batch.size, cfg.k))

    def f():
        obj, _ = model.objective(batch, training=False, eps=eps)
        return obj

    assert grad_check(f, model.params, h=1e-5) < 1e-3


def test_approx_perplexity_deterministic():
    cfg = tiny_cfg("lvs2s")
    model = make_model(cfg)
    batch = tiny_batch(tiny_vocab())
    assert model.approx_nll(batch) == model.approx_nll(batch)


def test_approx_nll_reduces_to_plain_model_when_latent_ignored():
    cfg = tiny_cfg("lvs2s", latent_mode="unconditional")
    lv = make_model(cfg)
    # decoder ignores nu: zero the latent input rows of the bottom cell
    lv.params["dec.l1.Wx"].data[cfg.d_emb:, :] = 0.0
    s2s = make_model(tiny_cfg("s2s"))
    for k in s2s.params:
        if k == "dec.l1.Wx":
            s2s.params[k].data[...] = lv.params[k].data[: cfg.d_emb]
        else:
            s2s.params[k].data[...] = lv.params[k].data
    batch = tiny_batch(tiny_vocab())
    _, stats = s2s.objective(batch, training=False)
    assert lv.approx_nll(batch) == pytest.approx(stats["recon"], abs=1e-9)


def test_bound_not_below_reconstruction_at_prior_mean():
    cfg = tiny_cfg("lvs2s")
    model = make_model(cfg)
    batch = tiny_batch(tiny_vocab())
    sums = model.eval_sums(batch, rng=np.random.default_rng(5))
    assert np.isfinite(sums["per_seq_neg_bound"]).all()
    assert np.exp(sums["approx_nll"] / sums["tokens"]) > 0.0


# ---------------------------------------------------------------------------
# annealing schedule


def test_anneal_boundaries():
    s = AnnealSchedule(10)
    assert s.weight(0) == 0.0
    assert s.weight(5) == 0.5
    assert s.weight(20) == 1.0


def test_anneal_disabled_is_constant_one():
    s = AnnealSchedule(10, enabled=False)
    assert s.weight(0) == 1.0


def test_anneal_rejects_bad_steps():
    with pytest.raises(ConfigError):
        AnnealSchedule(0)


@pytest.mark.parametrize("kind", ["s2s", "lvs2s", "ltcm", "ntm"])
def test_every_parameter_gets_gradient(kind):
    # a parameter that no loss reaches never trains
    cfg = tiny_cfg(kind)
    model = make_model(cfg)
    batch = tiny_batch(tiny_vocab(), stopwords={"w0", "w1", "w2", "w3"}, n=3)
    on = batch.gate_labels[batch.mask > 0]
    assert 0 < on.sum() < on.size  # mixed gates
    eps = np.random.default_rng(4).standard_normal((batch.size, cfg.k))
    model.zero_grad()
    obj, _ = model.objective(batch, training=False, eps=eps)
    obj.backward()
    dead = [n for n, p in model.params.items() if not np.any(p.grad)]
    assert not dead, dead
