"""Response generation: greedy or temperature sampling, with the latent
drawn per response from the standard prior or the prompt-conditional one.

Every (prompt, response) stream owns a derived RNG so output is
reproducible regardless of batching."""

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError
from .kernels import sigmoid
from .models.topic import TopicGatedSeq2Seq, topic_proportion

GREEDY, SAMPLE = "greedy", "sample"
LATENT_MODES = ("none", "prior", "conditional")


def default_latent(model):
    """The latent mode to decode with when none is asked for: none for
    s2s, otherwise the prior the model was trained with."""
    if model.kind == "s2s":
        return "none"
    return "conditional" if model.cfg.latent_mode == "conditional" else "prior"


@dataclass
class GenerationSample:
    prompt: str
    responses: list
    gate_probs: list  # per response, per emitted token; [] for gateless models
    latent: str
    seed: int


def _stream_rng(seed, prompt_index, response_index):
    return np.random.default_rng(
        np.random.SeedSequence([seed, 11, prompt_index, response_index])
    )


def _check_combo(model, strategy, latent, n, temperature):
    if strategy not in (GREEDY, SAMPLE):
        raise ConfigError(f"unknown decoding strategy '{strategy}'")
    if n < 1:
        raise ConfigError(f"n must be at least 1, got {n}")
    if strategy == SAMPLE and not (math.isfinite(temperature) and temperature > 0):
        raise ConfigError(f"sampling temperature must be finite and > 0, got {temperature}")
    if latent not in LATENT_MODES:
        raise ConfigError(f"unknown latent mode '{latent}'")
    kind = model.kind
    if kind == "ntm":
        raise ConfigError("the bag-of-words topic model does not generate responses")
    if kind == "s2s" and latent != "none":
        raise ConfigError("s2s has no latent variable; use latent=none")
    if kind in ("lvs2s", "ltcm") and latent == "none":
        raise ConfigError(f"{kind} requires latent=prior or latent=conditional")
    if latent == "conditional" and not getattr(model, "conditional", False):
        raise ConfigError("checkpoint was built with an unconditional prior")


def generate(model, vocab, prompt_pairs, strategy=GREEDY, temperature=1.0,
             latent="none", n=5, seed=0, max_len=50, gate_mode="sample",
             prompt_texts=None):
    """Decode `n` responses for each prompt.

    prompt_pairs: DialoguePairs whose prompt side is used (response side
    ignored).  Returns a list of GenerationSample."""
    _check_combo(model, strategy, latent, n, temperature)
    b = len(prompt_pairs)
    u_max = max(p.U for p in prompt_pairs)
    prompt = np.zeros((b, u_max), dtype=np.int64)
    prompt_len = np.zeros(b, dtype=np.int64)
    for r, p in enumerate(prompt_pairs):
        prompt[r, : p.U] = p.prompt_ids
        prompt_len[r] = p.U
    if prompt_texts is None:
        prompt_texts = [" ".join(p.prompt_tokens) for p in prompt_pairs]

    samples = [
        GenerationSample(prompt_texts[i], [], [], latent, seed) for i in range(b)
    ]
    for ri in range(n):
        rngs = [_stream_rng(seed, pi, ri) for pi in range(b)]
        responses, gates = _decode_round(
            model, prompt, prompt_len, rngs, strategy, temperature, latent,
            max_len, gate_mode,
        )
        for i in range(b):
            samples[i].responses.append([vocab.token_of(t) for t in responses[i]])
            if gates[i] is not None:
                samples[i].gate_probs.append(gates[i])
    return samples


def _decode_round(model, prompt, prompt_len, rngs, strategy, temperature,
                  latent, max_len, gate_mode):
    b = prompt.shape[0]
    k = model.cfg.k
    _, finals, u = model._encode_ids(prompt, prompt_len)

    nu = None
    theta_rows = None
    if latent != "none":
        eps = np.stack([rng.standard_normal(k) for rng in rngs])
        if latent == "prior":
            nu_data = eps
        else:
            p = model.prior(u, b)
            nu_data = p.mu.data + np.exp(0.5 * p.logvar.data) * eps
        if isinstance(model, TopicGatedSeq2Seq):
            theta_rows = topic_proportion(Tensor(nu_data), model.w1)
            topic_part = ad.matmul(
                theta_rows, ad.transpose(model.masked_beta())
            ).data
        else:
            nu = Tensor(nu_data)

    states = model.decoder.init_states(finals)
    prev = np.ones(b, dtype=np.int64)  # <s>
    finished = np.zeros(b, dtype=bool)
    out = [[] for _ in range(b)]
    gate_out = [[] if theta_rows is not None else None for _ in range(b)]
    eos = 2
    for _ in range(max_len):
        x = model.decoder.embed_step(prev)
        if nu is not None:
            x = ad.concat([x, nu], axis=1)
        h, states = model.decoder.step(x, states)
        logits = model.decoder.logits(h).data.copy()
        if theta_rows is not None:
            z = ad.matmul(h, model.w2).data[:, 0]
            gate_p = sigmoid(z)
            for i in range(b):
                if finished[i]:
                    continue
                if gate_mode == "sample":
                    l_i = 1.0 if rngs[i].random() < gate_p[i] else 0.0
                else:
                    l_i = 1.0 if gate_p[i] > 0.5 else 0.0
                logits[i] += l_i * topic_part[i]
                gate_out[i].append(float(gate_p[i]))
        logits[:, 0] = -1e30  # never emit <pad> or <s>
        logits[:, 1] = -1e30
        nxt = np.empty(b, dtype=np.int64)
        for i in range(b):
            if finished[i]:
                nxt[i] = 0
                continue
            if strategy == GREEDY:
                nxt[i] = int(np.argmax(logits[i]))
            else:
                lp = logits[i] / temperature
                lp -= lp.max()
                probs = np.exp(lp)
                probs /= probs.sum()
                nxt[i] = int(rngs[i].choice(len(probs), p=probs))
        for i in range(b):
            if not finished[i]:
                out[i].append(int(nxt[i]))
                if nxt[i] == eos:
                    finished[i] = True
        prev = nxt
        if finished.all():
            break
    return out, gate_out
