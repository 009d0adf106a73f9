import math

import numpy as np
import pytest

from conftest import make_model, tiny_batch, tiny_cfg, tiny_pairs, tiny_vocab
from latentchat import autodiff as ad
from latentchat.autodiff import Tensor
from latentchat.optim import grad_check
from latentchat.text import assemble_batch


def test_duplicated_pair_gives_identical_finals():
    cfg = tiny_cfg()
    model = make_model(cfg)
    vocab = tiny_vocab()
    pair = tiny_pairs(vocab, n=1)[0]
    batch = assemble_batch([pair, pair], vocab, set())
    finals, u = model.encode(batch.prompt, batch.prompt_len)
    for state in finals:
        assert np.array_equal(state.data[0], state.data[1])
    assert np.array_equal(u.data[0], u.data[1])


def test_padding_does_not_change_per_sequence_loss():
    cfg = tiny_cfg()
    model = make_model(cfg)
    vocab = tiny_vocab()
    rng = np.random.default_rng(3)
    short = tiny_pairs(vocab, rng, n=1, u=2, m=2)[0]
    long = tiny_pairs(vocab, rng, n=1, u=4, m=5)[0]
    joint = assemble_batch([short, long], vocab, set())
    _, stats = model.objective(joint, training=False)
    solo_short = model.objective(assemble_batch([short], vocab, set()), training=False)[1]
    solo_long = model.objective(assemble_batch([long], vocab, set()), training=False)[1]
    assert stats["per_seq_neg_bound"][0] == pytest.approx(
        solo_short["per_seq_neg_bound"][0], abs=1e-9
    )
    assert stats["per_seq_neg_bound"][1] == pytest.approx(
        solo_long["per_seq_neg_bound"][0], abs=1e-9
    )


def test_zero_output_projection_gives_uniform_loss():
    cfg = tiny_cfg()
    model = make_model(cfg)
    model.params["dec.V_T"].data[...] = 0.0
    vocab = tiny_vocab()
    batch = tiny_batch(vocab)
    _, stats = model.objective(batch, training=False)
    assert stats["recon"] == pytest.approx(batch.n_tokens * math.log(cfg.vocab_size), abs=1e-9)


def test_untrained_loss_near_uniform():
    cfg = tiny_cfg()
    model = make_model(cfg)
    vocab = tiny_vocab()
    batch = tiny_batch(vocab, n=1, u=2, m=1)
    _, stats = model.objective(batch, training=False)
    per_token = stats["recon"] / batch.n_tokens
    assert abs(per_token - math.log(cfg.vocab_size)) < 0.5


def test_uniform_perplexity_identity():
    # loss = M ln 10 over M tokens -> ppx 10; loss 0 -> ppx 1
    assert math.exp((7 * math.log(10)) / 7) == pytest.approx(10.0)
    assert math.exp(0.0) == pytest.approx(1.0)


def test_full_gradient_matches_finite_differences():
    cfg = tiny_cfg()
    model = make_model(cfg)
    vocab = tiny_vocab()
    batch = tiny_batch(vocab)

    def f():
        obj, _ = model.objective(batch, training=False)
        return obj

    assert grad_check(f, model.params, h=1e-5) < 1e-4


def test_eval_sums_deterministic():
    cfg = tiny_cfg()
    model = make_model(cfg)
    batch = tiny_batch(tiny_vocab())
    a = model.eval_sums(batch)
    b = model.eval_sums(batch)
    assert a["approx_nll"] == b["approx_nll"]
    assert np.array_equal(a["per_seq_neg_bound"], b["per_seq_neg_bound"])


def test_mask_carry_ignores_padded_prompt_steps():
    cfg = tiny_cfg()
    model = make_model(cfg)
    vocab = tiny_vocab()
    pair = tiny_pairs(vocab, n=1, u=3)[0]
    batch1 = assemble_batch([pair], vocab, set())
    # manually widen the prompt with trailing pads
    wide = np.zeros((1, 6), dtype=np.int64)
    wide[0, :3] = batch1.prompt[0]
    finals_a, _ = model.encode(batch1.prompt, batch1.prompt_len)
    finals_b, _ = model.encode(wide, batch1.prompt_len)
    for a, b in zip(finals_a, finals_b):
        assert np.allclose(a.data, b.data, atol=1e-12)


@pytest.mark.parametrize("kind", ["s2s", "lvs2s", "ltcm"])
def test_decoder_h_tops_matches_decoder_steps(kind):
    # the training entry point (one node per layer) and the decoding one
    # (DecoderStack.step) compute the same states, bit for bit
    model = make_model(tiny_cfg(kind, n_layers=3, residual_start=3))
    vocab = tiny_vocab()
    for n in (3, 1):
        batch = tiny_batch(vocab, rng=np.random.default_rng(n), n=n, u=3, m=4)
        finals, _ = model.encode(batch.prompt, batch.prompt_len)
        nu = Tensor(np.random.default_rng(2).standard_normal((n, 2)))
        step_in = model.latent_inputs(nu).step
        h_tops = model.decoder_h_tops(batch, finals, nu=step_in)
        states = finals
        ids = batch.decoder_inputs()
        with ad.no_grad():
            for t in range(ids.shape[1]):
                x = model.decoder.embed_step(ids[:, t])
                if step_in is not None:
                    x = ad.concat([x, step_in], axis=1)
                h, states = model.decoder.step(x, states)
                assert np.array_equal(h.data, h_tops.data[t * n : (t + 1) * n]), (n, t)


@pytest.mark.parametrize("kind", ["s2s", "lvs2s"])
def test_decoder_forward_draws_dropout_as_stepping_would(kind):
    # per step: the embedding's mask, then each upper layer input's mask,
    # the order a step-by-step decoder draws them in
    cfg = tiny_cfg(kind, n_layers=3, residual_start=3, dropout=0.3)
    model = make_model(cfg)
    batch = tiny_batch(tiny_vocab(), n=3, u=3, m=4)
    finals, _ = model.encode(batch.prompt, batch.prompt_len)
    nu = model.latent_inputs(Tensor(np.random.default_rng(2).standard_normal((3, 2)))).step
    h_tops = model.decoder_h_tops(batch, finals, nu=nu, training=True,
                                  rng=np.random.default_rng(7))

    rng, keep = np.random.default_rng(7), 1.0 - cfg.dropout
    dec = model.decoder
    states = [s.data for s in finals]
    ids = batch.decoder_inputs()
    for t in range(ids.shape[1]):
        x = dec.emb.data[ids[:, t]] * ((rng.random((3, cfg.d_emb)) >= cfg.dropout) / keep)
        if nu is not None:
            x = np.concatenate([x, nu.data], axis=1)
        prev = None
        for i, cell in enumerate(dec.cells):
            if i > 0:
                x = x * ((rng.random((3, cfg.d)) >= cfg.dropout) / keep)
            states[i] = cell.step(x, states[i])
            out = states[i][:, : cfg.d]
            if i + 1 >= cfg.residual_start:
                out = out + prev
            prev = x = out
        assert np.array_equal(prev, h_tops.data[3 * t : 3 * (t + 1)]), t
