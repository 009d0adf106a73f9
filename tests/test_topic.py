import math
import warnings

import numpy as np
import pytest

from conftest import make_model, tiny_batch, tiny_cfg, tiny_pairs, tiny_vocab
from latentchat import autodiff as ad
from latentchat import kernels
from latentchat.autodiff import Tensor
from latentchat.errors import InputError
from latentchat.generate import generate
from latentchat.models.topic import (
    beta_regularizers,
    top_words_per_topic,
    topic_proportion,
)
from latentchat.optim import grad_check
from latentchat.text import assemble_batch


# ---------------------------------------------------------------------------
# topic proportions


def test_theta_uniform_at_zero_latent():
    w1 = Tensor(np.random.default_rng(0).standard_normal((2, 4)))
    theta = topic_proportion(Tensor(np.zeros((1, 2))), w1)
    # nu = 0 makes every pre-activation 0 regardless of W1
    assert np.allclose(theta.data, 0.25)


def test_theta_hand_case():
    # projections [ln 3, 0] -> [0.75, 0.25]
    nu = Tensor([[1.0]])
    w1 = Tensor([[math.log(3.0), 0.0]])
    theta = topic_proportion(nu, w1)
    assert np.allclose(theta.data, [[0.75, 0.25]], atol=1e-12)


def test_theta_gradient():
    rng = np.random.default_rng(1)
    nu = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    w1 = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    w = Tensor(rng.standard_normal((2, 4)))

    def f():
        return ad.tsum(topic_proportion(nu, w1) * w)

    assert grad_check(f, {"nu": nu, "w1": w1}) < 1e-6


def test_theta_simplex_under_all_paths():
    cfg = tiny_cfg("ltcm")
    model = make_model(cfg)
    batch = tiny_batch(tiny_vocab())
    rng = np.random.default_rng(2)
    _, _, u = model.encode(batch.prompt, batch.prompt_len)
    p = model.prior(u, batch.size)
    q = model.posterior(batch)
    for g, eps in ((p, np.zeros((batch.size, cfg.k))),
                   (p, rng.standard_normal((batch.size, cfg.k))),
                   (q, rng.standard_normal((batch.size, cfg.k)))):
        nu = g.mu.data + np.exp(0.5 * g.logvar.data) * eps
        theta = topic_proportion(Tensor(nu), model.w1).data
        assert np.all(theta >= 0.0)
        assert np.allclose(theta.sum(axis=1), 1.0)


# ---------------------------------------------------------------------------
# logit fusion


def test_fusion_hand_case():
    # word logits [1,0,0], topic term [0,1,0], gate on -> softmax([1,1,0])
    fused = np.array([1.0, 0.0, 0.0]) + 1.0 * np.array([0.0, 1.0, 0.0])
    dist = ad.softmax(Tensor(fused)).data
    expect = np.exp([1.0, 1.0, 0.0])
    expect /= expect.sum()
    assert np.allclose(dist, expect, atol=1e-12)


def test_gate_off_reduces_to_plain_logits():
    cfg = tiny_cfg("ltcm")
    model = make_model(cfg)
    vocab = tiny_vocab()
    pairs = tiny_pairs(vocab)
    # every real word a stop-word: all gate labels 0
    stop = set(vocab.id_to_token[6:])
    batch = assemble_batch(pairs, vocab, stop)
    assert batch.gate_labels.sum() == 0.0
    eps = np.zeros((batch.size, cfg.k))
    _, stats = model.objective(batch, training=False, eps=eps)
    plain = make_model(tiny_cfg("s2s"))
    for k in plain.params:
        plain.params[k].data[...] = model.params[k].data
    _, plain_stats = plain.objective(batch, training=False)
    assert stats["nll"] == pytest.approx(plain_stats["nll"], abs=1e-9)


def test_gradient_routing_all_gates_zero():
    cfg = tiny_cfg("ltcm", lambda_ma=0.0, lambda_l2=0.0)
    model = make_model(cfg)
    vocab = tiny_vocab()
    stop = set(vocab.id_to_token[6:])
    batch = assemble_batch(tiny_pairs(vocab), vocab, stop)
    model.zero_grad()
    obj, _ = model.objective(batch, training=False,
                             eps=np.zeros((batch.size, cfg.k)))
    obj.backward()
    for name in ("beta", "topic_proj_w1"):
        assert np.array_equal(model.params[name].grad,
                              np.zeros_like(model.params[name].grad)), name


def test_reserved_beta_rows_never_update():
    cfg = tiny_cfg("ltcm")
    model = make_model(cfg)
    batch = tiny_batch(tiny_vocab())
    model.zero_grad()
    obj, _ = model.objective(batch, training=False,
                             eps=np.zeros((batch.size, cfg.k)))
    obj.backward()
    assert np.array_equal(model.beta.grad[:6], np.zeros((6, cfg.K)))
    assert np.array_equal(model.beta.data[:6], np.zeros((6, cfg.K)))


# ---------------------------------------------------------------------------
# gate likelihood


def test_gate_loglik_uniform_head():
    cfg = tiny_cfg("ltcm")
    model = make_model(cfg)
    model.params["gate_w2"].data[...] = 0.0
    batch = tiny_batch(tiny_vocab())
    _, finals, _ = model.encode(batch.prompt, batch.prompt_len)
    h_tops = model.decoder_h_tops(batch, finals)
    _, total = model.gate_loglik(h_tops, batch)
    assert float(total.data) == pytest.approx(batch.n_tokens * math.log(0.5), abs=1e-9)


def test_gate_loglik_saturated_logits():
    labels = np.array([1.0, 0.0, 1.0])
    z = Tensor(np.array([20.0, -20.0, 20.0]))
    ll = (Tensor(labels) * ad.log_sigmoid(z)
          + Tensor(1.0 - labels) * ad.log_sigmoid(-1.0 * z))
    assert float(ad.tsum(ll).data) == pytest.approx(0.0, abs=1e-8)


# ---------------------------------------------------------------------------
# regularisers


def test_regularizer_orthogonal_columns():
    beta = Tensor(np.array([[1.0, 0.0], [0.0, 2.0]]), requires_grad=True)
    pen = beta_regularizers(beta, lambda_ma=1.0, lambda_l2=0.0)
    assert float(pen.data) == pytest.approx(0.0, abs=1e-12)


def test_regularizer_duplicated_column():
    beta = Tensor(np.array([[1.0, 1.0], [2.0, 2.0]]), requires_grad=True)
    pen = beta_regularizers(beta, lambda_ma=1.0, lambda_l2=0.0)
    # one pair at cos^2 = 1
    assert float(pen.data) == pytest.approx(1.0, abs=1e-12)


def test_regularizer_l2_hand_case():
    beta = Tensor(np.array([[1.0, 0.0], [0.0, 2.0]]), requires_grad=True)
    pen = beta_regularizers(beta, lambda_ma=0.0, lambda_l2=1.0)
    assert float(pen.data) == pytest.approx(5.0, abs=1e-12)


def test_regularizer_cosine_scale_invariance():
    rng = np.random.default_rng(3)
    b = rng.standard_normal((5, 3))
    pen1 = beta_regularizers(Tensor(b.copy()), 1.0, 0.0)
    b[:, 1] *= 7.5
    pen2 = beta_regularizers(Tensor(b), 1.0, 0.0)
    assert float(pen1.data) == pytest.approx(float(pen2.data), abs=1e-10)


def test_regularizer_gradient():
    rng = np.random.default_rng(4)
    beta = Tensor(rng.standard_normal((4, 3)), requires_grad=True)

    def f():
        return beta_regularizers(beta, 0.7, 0.3)

    assert grad_check(f, {"beta": beta}) < 1e-6


def _beta_regularizers_composed(beta, lambda_ma, lambda_l2):
    """The regularisers as the composition of fine autodiff nodes that
    the one-node version replaced."""
    gram = ad.matmul(ad.transpose(beta), beta)
    k = gram.data.shape[0]
    eye = np.eye(k)
    diag = ad.sum_axis(gram * Tensor(eye), axis=1)
    nz = (diag.data > 0.0).astype(np.float64)
    pair_mask = np.outer(nz, nz) * (1.0 - eye)
    denom = ad.reshape(diag, (k, 1)) * diag + Tensor(1.0 - pair_mask)
    recip = Tensor(1.0 / denom.data, parents=(denom,),
                   vjp=lambda g: [(denom, -g / (denom.data * denom.data))])
    cos2 = gram * gram * recip * Tensor(pair_mask)
    ma = (0.5 / max(k * (k - 1) / 2, 1)) * ad.tsum(cos2)
    return lambda_ma * ma + lambda_l2 * ad.tsum(beta * beta)


def test_regularizer_node_with_zero_column():
    rng = np.random.default_rng(5)
    data = rng.standard_normal((6, 4))
    data[:, 2] = 0.0  # a zero-norm column, skipped in the angular part
    beta = Tensor(data, requires_grad=True)
    pen = beta_regularizers(beta, 0.7, 0.3)
    assert len(pen._parents) == 1  # one node
    want = _beta_regularizers_composed(Tensor(data), 0.7, 0.3)
    assert abs(float(pen.data) - float(want.data)) <= 1e-12
    assert grad_check(lambda: beta_regularizers(beta, 0.7, 0.3), {"beta": beta}) < 1e-5
    ref = Tensor(data.copy(), requires_grad=True)
    _beta_regularizers_composed(ref, 0.7, 0.3).backward()
    assert np.allclose(beta.grad, ref.grad, rtol=0.0, atol=1e-12)


def test_top_words_one_hot_and_ties():
    vocab = tiny_vocab(8)
    beta = np.zeros((8, 2))
    beta[7, 0] = 5.0  # "w1"
    lists = top_words_per_topic(beta, vocab, 3)
    assert lists[0][0] == vocab.token_of(7)
    # all-equal column falls back to lexicographic order
    assert lists[1] == sorted(vocab.id_to_token)[:3]


# ---------------------------------------------------------------------------
# full ltcm objective


def test_ltcm_full_gradient():
    cfg = tiny_cfg("ltcm")
    model = make_model(cfg)
    batch = tiny_batch(tiny_vocab(), n=2, u=2, m=3)
    eps = np.random.default_rng(5).standard_normal((batch.size, cfg.k))

    def f():
        obj, _ = model.objective(batch, training=False, eps=eps)
        return obj

    assert grad_check(f, model.params, h=1e-5) < 1e-3


def test_ltcm_degenerate_perplexity_decomposition():
    cfg = tiny_cfg("ltcm")
    model = make_model(cfg)
    model.params["beta"].data[...] = 0.0
    model.params["gate_w2"].data[...] = 0.0
    plain = make_model(tiny_cfg("s2s"))
    for k in plain.params:
        plain.params[k].data[...] = model.params[k].data
    batch = tiny_batch(tiny_vocab())
    _, plain_stats = plain.objective(batch, training=False)
    # word part matches s2s; gate factor adds ln 2 per token
    expect = plain_stats["nll"] + batch.n_tokens * math.log(2.0)
    assert model.approx_nll(batch) == pytest.approx(expect, abs=1e-9)


def test_ltcm_objective_normalises_once_per_cell_step(monkeypatch):
    cfg = tiny_cfg("ltcm")
    model = make_model(cfg)
    batch = tiny_batch(tiny_vocab(), n=2, u=3, m=4)
    real = kernels.layer_norm_fwd
    calls = []

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(kernels, "layer_norm_fwd", counting)
    eps = np.random.default_rng(5).standard_normal((batch.size, cfg.k))
    model.objective(batch, training=False, eps=eps)
    u = batch.prompt.shape[1]
    t = batch.decoder_inputs().shape[1]
    # two bottom directions and n_layers - 1 upper layers over the prompt,
    # n_layers over the response
    assert len(calls) == (2 + cfg.n_layers - 1) * u + cfg.n_layers * t


@pytest.mark.parametrize("kind, decodes", [("lvs2s", 2), ("ltcm", 1)])
def test_eval_sums_decodes_once_for_ltcm_and_matches_both_passes(kind, decodes):
    cfg = tiny_cfg(kind)
    model = make_model(cfg)
    batch = tiny_batch(tiny_vocab(), stopwords={"w0", "w1", "w2", "w3"}, n=3)
    on = batch.gate_labels[batch.mask > 0]
    assert 0 < on.sum() < on.size  # mixed gates
    calls = {"encode": 0, "decoder_h_tops": 0, "prior": 0}
    if kind == "ltcm":
        calls["gate_loglik"] = 0

    def counting(name):
        real = getattr(model, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapped

    for name in calls:
        setattr(model, name, counting(name))
    sums = model.eval_sums(batch, rng=np.random.default_rng(4))
    # one encode and one prior serve the bound and the approximate NLL; the
    # ltcm decoder takes no latent input, so one decode and its nu-free
    # gate term serve both as well
    assert calls == {"encode": 1, "decoder_h_tops": decodes, "prior": 1,
                     **({"gate_loglik": 1} if kind == "ltcm" else {})}
    for name in calls:
        delattr(model, name)

    eps = np.random.default_rng(4).standard_normal((batch.size, cfg.k))
    _, stats = model.objective(batch, w=1.0, training=False, eps=eps)
    assert sums["approx_nll"] == model.approx_nll(batch)
    assert np.array_equal(sums["per_seq_neg_bound"], stats["per_seq_neg_bound"])
    assert np.array_equal(sums["per_seq_kl"], stats["per_seq_kl"])
    assert sums["tokens"] == stats["tokens"] and sums["n_seqs"] == batch.size


def test_gate_probs_saturate_without_overflow():
    vocab = tiny_vocab()
    model = make_model(tiny_cfg("ltcm"))
    batch = tiny_batch(vocab)
    for scale in (1e4, -1e4):  # one of the two drives some logits below -709
        model.params["gate_w2"].data[...] = scale
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            probs, _, _ = model.gate_probs_forced(batch)
            samples = generate(model, vocab, tiny_pairs(vocab), latent="prior",
                               n=1, max_len=4)
        assert np.all((probs >= 0.0) & (probs <= 1.0))
        assert all(0.0 <= g <= 1.0 for s in samples for r in s.gate_probs for g in r)


# ---------------------------------------------------------------------------
# bag-of-words topic model


def test_ntm_word_mixture_rows_on_simplex():
    cfg = tiny_cfg("ntm")
    model = make_model(cfg)
    theta = topic_proportion(Tensor(np.random.default_rng(6).standard_normal((3, cfg.k))),
                             model.w1)
    mix = model.word_mixture(theta).data
    assert np.all(mix > 0.0)
    assert np.allclose(mix.sum(axis=1), 1.0)


def test_ntm_uniform_beta_gives_inverse_vocab():
    cfg = tiny_cfg("ntm")
    model = make_model(cfg)
    model.beta.data[...] = 0.0
    theta = topic_proportion(Tensor(np.zeros((1, cfg.k))), model.w1)
    mix = model.word_mixture(theta).data
    assert np.allclose(mix, 1.0 / cfg.vocab_size, atol=1e-12)


def test_ntm_single_topic_multinomial_bound():
    cfg = tiny_cfg("ntm", K=1)
    model = make_model(cfg)
    bags = np.zeros((1, cfg.vocab_size))
    bags[0, 7] = 3.0
    bags[0, 9] = 1.0
    ll_rows, kl_rows = model.bound(bags, eps=np.zeros((1, cfg.k)))
    # K=1: theta = [1], mixture is the single softmax column
    col = np.exp(model.beta.data[:, 0] - model.beta.data[:, 0].max())
    col /= col.sum()
    expect = 3.0 * np.log(col[7]) + 1.0 * np.log(col[9])
    assert ll_rows.data[0] == pytest.approx(expect, abs=1e-9)
    assert kl_rows.data[0] >= 0.0


def test_ntm_empty_bag_rejected():
    cfg = tiny_cfg("ntm")
    model = make_model(cfg)
    with pytest.raises(InputError):
        model.bound(np.zeros((1, cfg.vocab_size)), eps=np.zeros((1, cfg.k)))


def test_ntm_full_gradient():
    cfg = tiny_cfg("ntm")
    model = make_model(cfg)
    batch = tiny_batch(tiny_vocab())
    eps = np.random.default_rng(7).standard_normal((batch.size, cfg.k))

    def f():
        obj, _ = model.objective(batch, training=False, eps=eps)
        return obj

    assert grad_check(f, model.params, h=1e-5) < 1e-3
