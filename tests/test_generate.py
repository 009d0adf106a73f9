import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_model, tiny_cfg, tiny_pairs, tiny_vocab
from latentchat.autodiff import Tensor
from latentchat.errors import ConfigError
from latentchat.generate import generate, sample_rows


def test_s2s_greedy_is_deterministic():
    cfg = tiny_cfg("s2s", max_len=6)
    model = make_model(cfg)
    vocab = tiny_vocab()
    pairs = tiny_pairs(vocab, n=2)
    samples = generate(model, vocab, pairs, strategy="greedy", latent="none",
                       n=5, seed=0, max_len=6)
    for s in samples:
        assert len(s.responses) == 5
        assert all(r == s.responses[0] for r in s.responses)


def test_fixed_seed_reproducible():
    cfg = tiny_cfg("ltcm", max_len=6)
    model = make_model(cfg)
    vocab = tiny_vocab()
    pairs = tiny_pairs(vocab, n=2)
    kw = dict(strategy="greedy", latent="prior", n=3, seed=7, max_len=6)
    a = generate(model, vocab, pairs, **kw)
    b = generate(model, vocab, pairs, **kw)
    assert [s.responses for s in a] == [s.responses for s in b]
    assert [s.gate_probs for s in a] == [s.gate_probs for s in b]


def test_streams_independent_of_batching():
    cfg = tiny_cfg("lvs2s", max_len=6)
    model = make_model(cfg)
    vocab = tiny_vocab()
    pairs = tiny_pairs(vocab, n=3)
    joint = generate(model, vocab, pairs, strategy="greedy", latent="prior",
                     n=2, seed=3, max_len=6)
    solo = [generate(model, vocab, [p], strategy="greedy", latent="prior",
                     n=2, seed=3, max_len=6)[0] for p in pairs]
    # stream RNG is derived from the prompt index, so single-prompt calls
    # reproduce the first batched stream
    assert joint[0].responses == solo[0].responses

    # sampled tokens and sampled gates: a prefix of the prompts decodes as
    # in the full batch, gate probabilities included
    cfg = tiny_cfg("ltcm", max_len=6, gate_mode="sample")
    model = make_model(cfg)
    pairs = tiny_pairs(vocab, n=4)
    for latent in ("prior", "conditional"):
        kw = dict(strategy="sample", temperature=0.8, latent=latent, n=3, seed=3,
                  max_len=6, gate_mode="sample")
        joint = generate(model, vocab, pairs, **kw)
        assert any(g for s in joint for g in s.gate_probs)
        for k in (1, 2, 3):
            part = generate(model, vocab, pairs[:k], **kw)
            assert [s.responses for s in part] == [s.responses for s in joint[:k]]
            gates = [[np.asarray(g) for g in s.gate_probs] for s in part]
            want = [[np.asarray(g) for g in s.gate_probs] for s in joint[:k]]
            for a, b in zip(gates, want):
                for ga, gb in zip(a, b):
                    if k == 1:
                        # a one-row gate product rounds apart from the
                        # batched one, by about 1e-16 here
                        assert np.allclose(ga, gb, rtol=0, atol=1e-12)
                    else:
                        assert np.array_equal(ga, gb)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 6),
    vocab_size=st.integers(2, 400),
    temperature=st.sampled_from([0.05, 0.3, 0.7, 1.0, 1.7, 20.0]),
    scale=st.sampled_from([0.01, 1.0, 8.0, 60.0]),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_sample_rows_matches_generator_choice(rows, vocab_size, temperature, scale, seed):
    rng = np.random.default_rng(seed)
    logits = scale * rng.standard_normal((rows, vocab_size))
    logits[:, 0] = -1e30
    seeds = rng.integers(0, 2 ** 63, size=rows)
    fast = [np.random.default_rng(s) for s in seeds]
    got = sample_rows(logits / temperature, fast)
    for r, s in enumerate(seeds):
        lp = logits[r] / temperature
        lp -= lp.max()
        probs = np.exp(lp)
        probs /= probs.sum()
        ref = np.random.default_rng(s)
        assert got[r] == ref.choice(vocab_size, p=probs)
        # one uniform spent per row, as choice spends
        assert fast[r].random() == ref.random()


def test_generate_builds_no_tape(monkeypatch):
    built = {"all": 0, "with_parents": 0}
    orig = Tensor.__init__

    def init(self, *args, **kwargs):
        orig(self, *args, **kwargs)
        built["all"] += 1
        built["with_parents"] += bool(self._parents)

    monkeypatch.setattr(Tensor, "__init__", init)
    vocab = tiny_vocab()
    pairs = tiny_pairs(vocab, n=3)
    for kind, latent in (("s2s", "none"), ("lvs2s", "conditional"), ("ltcm", "prior")):
        model = make_model(tiny_cfg(kind, max_len=5))
        built["all"] = built["with_parents"] = 0
        generate(model, vocab, pairs, strategy="sample", latent=latent, n=2,
                 seed=1, max_len=5)
        assert built["all"] > 0 and built["with_parents"] == 0, kind


def test_generate_encodes_once_per_call():
    vocab = tiny_vocab()
    model = make_model(tiny_cfg("ltcm", max_len=4))
    real = model.encode
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    model.encode = counting
    generate(model, vocab, tiny_pairs(vocab, n=2), strategy="sample",
             latent="conditional", n=3, seed=0, max_len=4)
    assert len(calls) == 1


def test_responses_terminate():
    cfg = tiny_cfg("ltcm", max_len=5)
    model = make_model(cfg)
    vocab = tiny_vocab()
    samples = generate(model, vocab, tiny_pairs(vocab, n=2), strategy="sample",
                       latent="prior", n=3, seed=0, max_len=5)
    for s in samples:
        for r in s.responses:
            assert len(r) <= 5
            assert "</s>" not in r[:-1]
            assert "<pad>" not in r and "<s>" not in r


def test_ltcm_beta_zero_gate_off_matches_s2s_greedy():
    cfg = tiny_cfg("ltcm", max_len=6, gate_mode="threshold")
    model = make_model(cfg)
    model.params["beta"].data[...] = 0.0
    plain = make_model(tiny_cfg("s2s", max_len=6))
    for k in plain.params:
        plain.params[k].data[...] = model.params[k].data
    vocab = tiny_vocab()
    pairs = tiny_pairs(vocab, n=2)
    a = generate(model, vocab, pairs, strategy="greedy", latent="prior",
                 n=1, seed=0, max_len=6, gate_mode="threshold")
    b = generate(plain, vocab, pairs, strategy="greedy", latent="none",
                 n=1, seed=0, max_len=6)
    assert [s.responses for s in a] == [s.responses for s in b]


def test_conditional_with_zero_variance_collapses():
    cfg = tiny_cfg("lvs2s", max_len=6)
    model = make_model(cfg)
    # prior net: mean fixed, log-variance driven to -inf surrogate
    for leaf in ("W2", "b2"):
        model.params[f"prior_net.logvar.{leaf}"].data[...] = 0.0
    model.params["prior_net.logvar.b2"].data[...] = -60.0
    vocab = tiny_vocab()
    samples = generate(model, vocab, tiny_pairs(vocab, n=1),
                       strategy="greedy", latent="conditional",
                       n=5, seed=0, max_len=6)
    rs = samples[0].responses
    assert all(r == rs[0] for r in rs)


def test_invalid_combinations_rejected():
    vocab = tiny_vocab()
    pairs = tiny_pairs(vocab, n=1)
    s2s = make_model(tiny_cfg("s2s"))
    with pytest.raises(ConfigError):
        generate(s2s, vocab, pairs, latent="prior")
    with pytest.raises(ConfigError):
        generate(s2s, vocab, pairs, strategy="beam", latent="none")
    lv = make_model(tiny_cfg("lvs2s"))
    with pytest.raises(ConfigError):
        generate(lv, vocab, pairs, latent="none")
    lv_u = make_model(tiny_cfg("lvs2s", latent_mode="unconditional"))
    with pytest.raises(ConfigError):
        generate(lv_u, vocab, pairs, latent="conditional")
    ntm = make_model(tiny_cfg("ntm"))
    with pytest.raises(ConfigError):
        generate(ntm, vocab, pairs, latent="none")
    with pytest.raises(ConfigError, match="n must be"):
        generate(s2s, vocab, pairs, latent="none", n=0)
    for t in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ConfigError, match="temperature"):
            generate(s2s, vocab, pairs, strategy="sample", temperature=t,
                     latent="none")
    # greedy decoding never reads the temperature
    assert generate(s2s, vocab, pairs, temperature=0.0, latent="none", n=1,
                    max_len=2)
