"""Acceptance suite: one test per acceptance criterion, each printing a
single PASS/FAIL line.  Module-scoped fixtures share trained models
between the directional-replication and gate-separation criteria."""

import json
import math
import os
import time

import numpy as np
import pytest

from conftest import make_model, tiny_cfg, tiny_pairs, tiny_vocab
from latentchat import autodiff as ad
from latentchat import checkpoint as ckpt
from latentchat.autodiff import Tensor
from latentchat.config import RunConfig, apply_preset
from latentchat.metrics import evaluate, gate_analysis, uniqueness, zipf_coefficient
from latentchat.models import build_model
from latentchat.models.base import flat_targets, per_sequence
from latentchat.models.latent import reparam_sample
from latentchat.models.topic import topic_proportion
from latentchat.optim import grad_check
from latentchat.synth import SyntheticSpec, make_corpus
from latentchat.text import (
    N_RESERVED,
    assemble_batch,
    build_vocab,
    encode_corpus,
    select_stopwords,
)
from latentchat.train import Trainer, split_pairs


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)


# ---------------------------------------------------------------------------
# shared synthetic-corpus fixtures


@pytest.fixture(scope="module")
def corpus():
    spec = SyntheticSpec(n_clusters=3, words_per_cluster=10, n_pairs=600, seed=0)
    records, _ = make_corpus(spec)
    raw = [(r["prompt"], r["response"]) for r in records]
    vocab = build_vocab(raw, 2000)
    stop = select_stopwords(vocab, 8)
    pairs = encode_corpus(raw, vocab)
    sp = split_pairs(pairs)
    topic_words = {f"{spec.cluster_name(c)}{j}" for c in range(3) for j in range(10)}
    return {
        "vocab": vocab,
        "stop": stop,
        "train": sp["train"],
        "dev": sp["dev"],
        "topic_words": topic_words,
    }


def _train(corpus, tmp_dir, **overrides):
    cfg = apply_preset(RunConfig(), "desk")
    cfg = RunConfig.from_dict(
        {**cfg.to_dict(), "vocab_size": len(corpus["vocab"]), **overrides}
    )
    trainer = Trainer(cfg, corpus["vocab"], corpus["stop"], corpus["train"], tmp_dir)
    trainer.run()
    return trainer


@pytest.fixture(scope="module")
def trained_pair(corpus, tmp_path_factory):
    """s2s and ltcm trained with the same budget on the shared corpus."""
    t0 = time.monotonic()
    s2s = _train(corpus, str(tmp_path_factory.mktemp("acc_s2s")),
                 model="s2s", epochs=5, seed=0)
    ltcm = _train(corpus, str(tmp_path_factory.mktemp("acc_ltcm")),
                  model="ltcm", epochs=5, seed=0, kl_anneal=False)
    return {"s2s": s2s.model, "ltcm": ltcm.model, "wall": time.monotonic() - t0}


# ---------------------------------------------------------------------------
# 1. gradient correctness


def test_criterion_01_gradient_correctness():
    t0 = time.monotonic()
    worst_model = 0.0
    for kind in ("s2s", "lvs2s", "ltcm", "ntm"):
        cfg = tiny_cfg(kind)
        model = make_model(cfg)
        batch = assemble_batch(
            tiny_pairs(tiny_vocab(), n=2, u=2, m=3), tiny_vocab(),
            set(tiny_vocab().id_to_token[8:10]),
        )
        eps = np.random.default_rng(5).standard_normal((batch.size, cfg.k))

        def f():
            obj, _ = model.objective(batch, training=False, eps=eps)
            return obj

        worst_model = max(worst_model, grad_check(f, model.params, h=1e-5))

    rng = np.random.default_rng(0)
    worst_prim = 0.0
    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    wm = Tensor(rng.standard_normal((3, 2)))
    worst_prim = max(worst_prim, grad_check(
        lambda: ad.tsum(ad.matmul(a, b) * wm), {"a": a, "b": b}, h=1e-6))
    x = Tensor(rng.standard_normal((2, 5)), requires_grad=True)
    w = Tensor(rng.standard_normal((2, 5)))
    worst_prim = max(worst_prim, grad_check(
        lambda: ad.tsum(ad.softmax(x) * w), {"x": x}, h=1e-6))
    layer_in = {
        "xs": Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True),
        "state0": Tensor(0.5 * rng.standard_normal((3, 6)), requires_grad=True),
        "Wx": Tensor(0.5 * rng.standard_normal((4, 12)), requires_grad=True),
        "Wh": Tensor(0.5 * rng.standard_normal((3, 12)), requires_grad=True),
        "gain": Tensor(np.ones(12), requires_grad=True),
        "bias": Tensor(np.zeros(12), requires_grad=True),
    }
    ws = Tensor(rng.standard_normal((2, 3, 6)))
    keep = np.array([[True, False, True], [True, True, False]])
    worst_prim = max(worst_prim, grad_check(
        lambda: ad.tsum(ad.lstm_layer(**layer_in, keep=keep) * ws), layer_in, h=1e-6))

    wall = time.monotonic() - t0
    ok = worst_model < 1e-3 and worst_prim < 1e-5 and wall < 60.0
    report(1, ok, f"models {worst_model:.2e} < 1e-3, primitives "
                  f"{worst_prim:.2e} < 1e-5, {wall:.1f}s < 60s")
    assert worst_model < 1e-3
    assert worst_prim < 1e-5
    assert wall < 60.0


# ---------------------------------------------------------------------------
# 2. bound validity against quadrature (k = 1)


def _gh_nodes(n=80):
    x, w = np.polynomial.hermite.hermgauss(n)
    return x, w / math.sqrt(math.pi)


def _logsumexp(values, log_weights):
    m = np.max(values + log_weights)
    return m + np.log(np.sum(np.exp(values + log_weights - m)))


def test_criterion_02_bound_validity():
    t0 = time.monotonic()
    nodes, weights = _gh_nodes()
    log_w = np.log(weights)
    worst = -np.inf

    vocab = tiny_vocab()
    stop = set(vocab.id_to_token[8:10])
    batch = assemble_batch(tiny_pairs(vocab, n=2, u=2, m=3), vocab, stop)

    for kind in ("lvs2s", "ltcm"):
        cfg = tiny_cfg(kind, k=1, latent_mode="unconditional")
        model = make_model(cfg)
        finals, _ = model.encode(batch.prompt, batch.prompt_len)
        q = model.posterior(batch)
        mu, sig = q.mu.data[:, 0], np.exp(0.5 * q.logvar.data[:, 0])

        def ll_words(nu_col):
            inputs = model.latent_inputs(Tensor(nu_col[:, None]))
            h_tops = model.decoder_h_tops(batch, finals, nu=inputs.step)
            ll = model.seq_loglik(h_tops, batch, inputs)
            return per_sequence(ll.words.data, batch)  # [B]

        # E_q[ll] and exact log-marginal, both by Gauss-Hermite
        ll_at_q = np.stack([ll_words(mu + math.sqrt(2.0) * sig * x) for x in nodes])
        e_q = (weights[:, None] * ll_at_q).sum(axis=0)
        kl = 0.5 * (sig**2 + mu**2 - 1.0 - np.log(sig**2))
        bound = e_q - kl
        ll_at_p = np.stack([ll_words(np.full(batch.size, math.sqrt(2.0) * x))
                            for x in nodes])
        exact = np.array([_logsumexp(ll_at_p[:, i], log_w)
                          for i in range(batch.size)])
        worst = max(worst, float(np.max(bound - exact)))

    cfg = tiny_cfg("ntm", k=1)
    model = make_model(cfg)
    bags = batch.bow_prompt + batch.bow_response
    q = model.infer_net(Tensor(bags))
    mu, sig = q.mu.data[:, 0], np.exp(0.5 * q.logvar.data[:, 0])

    def ll_bags(nu_col):
        theta = topic_proportion(Tensor(nu_col[:, None]), model.w1)
        mix = model.word_mixture(theta)
        return (np.log(mix.data) * bags).sum(axis=1)

    ll_at_q = np.stack([ll_bags(mu + math.sqrt(2.0) * sig * x) for x in nodes])
    e_q = (weights[:, None] * ll_at_q).sum(axis=0)
    kl = 0.5 * (sig**2 + mu**2 - 1.0 - np.log(sig**2))
    bound = e_q - kl
    ll_at_p = np.stack([ll_bags(np.full(bags.shape[0], math.sqrt(2.0) * x))
                        for x in nodes])
    exact = np.array([_logsumexp(ll_at_p[:, i], log_w)
                      for i in range(bags.shape[0])])
    worst = max(worst, float(np.max(bound - exact)))

    wall = time.monotonic() - t0
    ok = worst <= 1e-6 and wall < 30.0
    report(2, ok, f"max(bound - exact) {worst:.2e} <= 1e-6, {wall:.1f}s < 30s")
    assert worst <= 1e-6
    assert wall < 30.0


# ---------------------------------------------------------------------------
# 3. gradient routing


def test_criterion_03_routing_all_gates_zero():
    cfg = tiny_cfg("ltcm", lambda_ma=0.0, lambda_l2=0.0)
    model = make_model(cfg)
    vocab = tiny_vocab()
    stop = set(vocab.id_to_token[N_RESERVED:])  # every real word a stop-word
    batch = assemble_batch(tiny_pairs(vocab), vocab, stop)
    assert batch.gate_labels.sum() == 0.0
    model.zero_grad()
    obj, _ = model.objective(batch, training=False,
                             eps=np.zeros((batch.size, cfg.k)))
    obj.backward()
    ok = all(
        np.array_equal(model.params[n].grad, np.zeros_like(model.params[n].grad))
        for n in ("beta", "topic_proj_w1")
    )
    report(3, ok, "all-gate-zero batch -> bitwise-zero grads on "
                  "beta / topic projection")
    for n in ("beta", "topic_proj_w1"):
        assert np.array_equal(model.params[n].grad,
                              np.zeros_like(model.params[n].grad)), n


def test_criterion_03_never_emitted_rows():
    """beta gradient routing under mixed gates.

    With fused logits z_t = W h_t + g_t * beta theta_b and a per-batch
    mean word loss, the beta gradient is

        G = -(1/B) sum_{t,b} mask * g_t * (onehot(y_t) - softmax(z_t)) theta_b^T

    with the reserved-token rows pinned to zero. So (a) reserved rows get
    bitwise-zero gradient; (b) a word never emitted gets only the
    softmax-spread term (1/B) sum mask * g_t * p_{t,i} theta_b, which is
    strictly positive whenever a gate is on; (c) the whole beta gradient
    equals G, so a word emitted only at gate-off steps gets no target pull.
    """
    cfg = tiny_cfg("ltcm", lambda_ma=0.0, lambda_l2=0.0)
    model = make_model(cfg)
    vocab = tiny_vocab()
    stop = set(vocab.id_to_token[8:10])
    batch = assemble_batch(tiny_pairs(vocab), vocab, stop)
    assert 0.0 < batch.gate_labels.sum() < batch.gate_labels.size
    eps = np.zeros((batch.size, cfg.k))
    model.zero_grad()
    obj, _ = model.objective(batch, training=False, eps=eps)
    obj.backward()
    grad = model.params["beta"].grad

    # numpy reference from the forward pieces
    finals, _ = model.encode(batch.prompt, batch.prompt_len)
    h_tops = model.decoder_h_tops(batch, finals)
    logits = model.decoder.logits(h_tops).data  # [T*B,L]
    theta = topic_proportion(reparam_sample(model.posterior(batch), eps),
                             model.w1).data  # [B,K]
    tgt, mask, gate = flat_targets(batch)
    theta_flat = np.tile(theta, (batch.response.shape[1], 1))  # time-major, like tgt
    beta = model.params["beta"].data.copy()
    beta[:N_RESERVED] = 0.0
    fused = logits + gate[:, None] * (theta_flat @ beta.T)
    probs = np.exp(fused - fused.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    onehot = np.eye(len(vocab))[tgt]
    weight = (mask * gate)[:, None]
    expected = -(weight * (onehot - probs)).T @ theta_flat / batch.size
    spread = (weight * probs).T @ theta_flat / batch.size
    expected[:N_RESERVED] = 0.0

    emitted = set(int(t) for t in batch.response[batch.response > 0])
    never = [i for i in range(N_RESERVED, len(vocab)) if i not in emitted]
    assert never
    reserved_zero = np.array_equal(grad[:N_RESERVED],
                                   np.zeros_like(grad[:N_RESERVED]))
    spread_diff = float(np.abs(grad[never] - spread[never]).max())
    smallest = float(grad[never].min())
    diff = float(np.abs(grad - expected).max())
    ok = reserved_zero and spread_diff <= 1e-12 and smallest > 0.0 and diff <= 1e-12
    report(3, ok, "mixed-gate beta grad = -(1/B) sum mask*g*(onehot - p) theta^T, "
                  f"max diff {diff:.2e} <= 1e-12; reserved rows zero: "
                  f"{reserved_zero}; never-emitted rows vs spread term "
                  f"{spread_diff:.2e} <= 1e-12, min entry {smallest:.2e} > 0")
    assert reserved_zero, "reserved beta rows receive gradient"
    assert spread_diff <= 1e-12, spread_diff
    assert smallest > 0.0, smallest
    assert diff <= 1e-12, diff


# ---------------------------------------------------------------------------
# 4. fusion identity


def test_criterion_04_fusion_identity():
    cfg = tiny_cfg("ltcm")
    model = make_model(cfg)
    model.params["beta"].data[...] = 0.0
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        h = Tensor(rng.standard_normal((1, cfg.d)))
        nu = Tensor(rng.standard_normal((1, cfg.k)))
        theta = topic_proportion(nu, model.w1)
        base = ad.softmax(model.decoder.logits(h)).data
        fused_logits = model.decoder.logits(h).data + 1.0 * ad.matmul(
            theta, ad.transpose(model.masked_beta())).data
        fused = ad.softmax(Tensor(fused_logits)).data
        worst = max(worst, float(np.abs(fused - base).max()))
    ok = worst <= 1e-12
    report(4, ok, f"beta=0 fused vs plain distributions, max diff {worst:.2e} <= 1e-12")
    assert worst <= 1e-12


# ---------------------------------------------------------------------------
# 5. metric oracles


def test_criterion_05_metric_oracles():
    u_all_same = uniqueness([["a", "b"]] * 50)
    five_decode = []
    for p in range(10):
        five_decode.extend([[f"p{p}"]] * 5)
    u_ceiling = uniqueness(five_decode)

    inv_rank = [[]]
    for r in range(1, 101):
        inv_rank[0].extend([f"t{r:03d}"] * round(100_000 / r))
    z_one = zipf_coefficient(inv_rank)

    hand = [["a"] * 8 + ["b"] * 4 + ["c"] * 2 + ["d"]]
    z_hand = zipf_coefficient(hand)
    x = np.log(np.arange(1, 5))
    y = np.log([8.0, 4.0, 2.0, 1.0])
    slope = ((x - x.mean()) * (y - y.mean())).sum() / ((x - x.mean()) ** 2).sum()

    ok = (
        u_all_same == pytest.approx(2.0)
        and u_ceiling == pytest.approx(20.0)
        and abs(z_one - 1.0) <= 0.01
        and z_hand == pytest.approx(-slope, abs=1e-9)
        and z_hand == pytest.approx(1.46, abs=0.02)
    )
    report(5, ok, f"uniqueness {u_all_same:.1f}%/{u_ceiling:.1f}%, "
                  f"zipf {z_one:.3f}/{z_hand:.3f}")
    assert u_all_same == pytest.approx(2.0)
    assert u_ceiling == pytest.approx(20.0)
    assert abs(z_one - 1.0) <= 0.01
    assert z_hand == pytest.approx(-slope, abs=1e-9)
    assert z_hand == pytest.approx(1.46, abs=0.02)


# ---------------------------------------------------------------------------
# 6. directional replication on the 3-cluster corpus


def test_criterion_06_directional_replication(corpus, trained_pair):
    vocab, stop, dev = corpus["vocab"], corpus["stop"], corpus["dev"]
    r_s2s = evaluate(trained_pair["s2s"], vocab, stop, dev, seed=0,
                     strategy="greedy", latent="none")
    r_cond = evaluate(trained_pair["ltcm"], vocab, stop, dev, seed=0,
                      strategy="greedy", latent="conditional")
    r_prior = evaluate(trained_pair["ltcm"], vocab, stop, dev, seed=0,
                       strategy="greedy", latent="prior")
    wall = trained_pair["wall"]

    a = r_s2s.unique_pct <= 25.0
    b = r_cond.unique_pct >= r_s2s.unique_pct + 15.0
    c = r_cond.unique_pct >= r_prior.unique_pct
    d = r_cond.ppx <= 2.0 * r_s2s.ppx
    ok = a and b and c and d and wall < 900.0
    report(6, ok, f"s2s uniq {r_s2s.unique_pct:.1f}% <= 25, ltcm cond "
                  f"{r_cond.unique_pct:.1f}% >= s2s+15, cond >= prior "
                  f"{r_prior.unique_pct:.1f}%, ppx {r_cond.ppx:.2f} <= "
                  f"2x{r_s2s.ppx:.2f}, {wall:.0f}s < 900s")
    assert a, "s2s greedy uniqueness above 25%"
    assert b, "conditional uniqueness lead below 15 points"
    assert c, "conditional uniqueness below prior-sampling uniqueness"
    assert d, "ltcm perplexity above twice the s2s perplexity"
    assert wall < 900.0


# ---------------------------------------------------------------------------
# 7. gate separation


def test_criterion_07_gate_separation(corpus, trained_pair):
    table = dict(gate_analysis(trained_pair["ltcm"], corpus["vocab"],
                               corpus["stop"], corpus["dev"]))
    stop_mean = np.mean([p for t, p in table.items() if t in corpus["stop"]])
    topic_mean = np.mean([p for t, p in table.items()
                          if t in corpus["topic_words"]])
    sep = (topic_mean - stop_mean) / 100.0
    ok = sep >= 0.2
    report(7, ok, f"gate separation {sep:.2f} >= 0.2 "
                  f"(stop {stop_mean:.1f}% vs topic {topic_mean:.1f}%)")
    assert sep >= 0.2


# ---------------------------------------------------------------------------
# 8. KL annealing behaviour


def test_criterion_08_kl_annealing(corpus, tmp_path_factory):
    steps_per_epoch = int(np.ceil(len(corpus["train"]) / 16))

    def run(anneal):
        out = str(tmp_path_factory.mktemp(f"acc_lv_{int(anneal)}"))
        trainer = _train(corpus, out, model="lvs2s", epochs=12, seed=3,
                         kl_anneal=anneal,
                         anneal_steps=steps_per_epoch * 11 if anneal else 0)
        last = json.loads(
            open(os.path.join(out, "train_log.jsonl")).read().splitlines()[-1])
        r = evaluate(trainer.model, corpus["vocab"], corpus["stop"],
                     corpus["dev"], seed=0, strategy="greedy",
                     latent="conditional")
        return last["kl"], r.unique_pct

    kl_a, uniq_a = run(True)
    kl_p, uniq_p = run(False)
    ratio = kl_a / max(kl_p, 1e-9)
    ok = ratio >= 1.5 and uniq_a > uniq_p
    report(8, ok, f"annealed KL {kl_a:.1f} vs plain {kl_p:.1f} (ratio "
                  f"{ratio:.2f} >= 1.5), uniqueness {uniq_a:.1f}% > {uniq_p:.1f}%")
    assert ratio >= 1.5
    assert uniq_a > uniq_p


# ---------------------------------------------------------------------------
# 9. determinism and persistence


def test_criterion_09_determinism_persistence(corpus, tmp_path):
    def train_once(out):
        return _train(corpus, str(out), model="s2s", epochs=1, seed=0,
                      d=16, d_emb=16, n_layers=2)

    out = tmp_path / "run"
    train_once(out)
    first = (out / "final.ckpt").read_bytes()
    for name in os.listdir(out):
        os.remove(out / name)
    train_once(out)
    rerun_identical = first == (out / "final.ckpt").read_bytes()

    # save -> load -> save round-trip
    cfg = ckpt.config_from_header(ckpt.read_header(out / "final.ckpt"))
    model = build_model(cfg, np.random.default_rng(0))
    header = ckpt.load(out / "final.ckpt", model)
    again = tmp_path / "again.ckpt"
    ckpt.save(again, model, rng_state=header["rng"], epoch=header["epoch"],
              extra=header["extra"])
    # resume: 1 epoch + 1 resumed epoch vs 2 uninterrupted epochs
    two = tmp_path / "two"
    _train(corpus, str(two), model="s2s", epochs=2, seed=0,
           d=16, d_emb=16, n_layers=2)
    resumed = tmp_path / "resumed"
    _train(corpus, str(resumed), model="s2s", epochs=1, seed=0,
           d=16, d_emb=16, n_layers=2)
    cfg2 = apply_preset(RunConfig(), "desk")
    cfg2 = RunConfig.from_dict({**cfg2.to_dict(), "model": "s2s", "epochs": 2,
                                "seed": 0, "d": 16, "d_emb": 16, "n_layers": 2,
                                "vocab_size": len(corpus["vocab"])})
    tr = Trainer(cfg2, corpus["vocab"], corpus["stop"], corpus["train"],
                 str(resumed))
    tr.run(resume=str(resumed / "last.ckpt"))
    m_two = build_model(cfg2, np.random.default_rng(0))
    m_res = build_model(cfg2, np.random.default_rng(0))
    ckpt.load(two / "final.ckpt", m_two)
    ckpt.load(resumed / "final.ckpt", m_res)
    resume_exact = all(
        np.array_equal(m_two.params[k].data, m_res.params[k].data)
        for k in m_two.params
    )

    roundtrip_identical = True
    model_b = build_model(cfg, np.random.default_rng(1))
    header_b = ckpt.load(again, model_b)
    third = tmp_path / "third.ckpt"
    ckpt.save(third, model_b, rng_state=header_b["rng"], epoch=header_b["epoch"],
              extra=header_b["extra"])
    roundtrip_identical = again.read_bytes() == third.read_bytes()

    ok = rerun_identical and roundtrip_identical and resume_exact
    report(9, ok, f"rerun byte-identical {rerun_identical}, round-trip "
                  f"byte-identical {roundtrip_identical}, resume bit-exact "
                  f"{resume_exact}")
    assert rerun_identical
    assert roundtrip_identical
    assert resume_exact


# ---------------------------------------------------------------------------
# 10. overfit sanity


def test_criterion_10_overfit(tmp_path):
    words = ["river0", "engine0", "garden0", "violin0"]
    raw = [(w, " ".join([w] * 12)) for w in words for _ in range(8)]
    vocab = build_vocab(raw, 2000)
    stop = select_stopwords(vocab, 0)
    pairs = encode_corpus(raw, vocab)
    assert len(pairs) == 32

    results = {}
    for kind in ("s2s", "lvs2s", "ltcm", "ntm"):
        t0 = time.monotonic()
        cfg = apply_preset(RunConfig(), "desk")
        extra = {"lr": 2e-2, "batch_size": 4} if kind == "ntm" else {}
        cfg = RunConfig.from_dict({**cfg.to_dict(), "model": kind,
                                   "vocab_size": len(vocab), "epochs": 200,
                                   "seed": 0, "kl_anneal": False,
                                   "stopword_n": 0, "split": "all", "K": 4,
                                   "dropout": 0.0, **extra})
        out = tmp_path / kind
        Trainer(cfg, vocab, stop, pairs, str(out)).run()
        last = json.loads(
            open(out / "train_log.jsonl").read().splitlines()[-1])
        results[kind] = (last["train_ppx"], time.monotonic() - t0)

    ok = all(p < 1.5 and t < 120.0 for p, t in results.values())
    detail = ", ".join(f"{k} ppx {p:.2f} in {t:.0f}s" for k, (p, t) in results.items())
    report(10, ok, detail)
    for kind, (p, t) in results.items():
        assert p < 1.5, f"{kind} train perplexity {p}"
        assert t < 120.0, f"{kind} took {t}s"
