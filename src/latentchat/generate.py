"""Response generation: greedy or temperature sampling, with the latent
drawn per response from the standard prior or the prompt-conditional one.

The prompts are encoded once per call.  Every (prompt, response) stream
owns a derived RNG so output is reproducible regardless of batching.
Decoding runs without a tape (``autodiff.no_grad``), and each step draws
the gates and tokens of all live rows at once: a stream spends one
``random()`` on its gate, then one on its token."""

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError
from .kernels import sigmoid

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


@ad.no_grad()
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
    finals, u = model.encode(prompt, prompt_len)
    prior = model.prior(u, b) if latent == "conditional" else None
    # u views the encoder top layer's whole [U,B,2d] output
    del u
    for ri in range(n):
        rngs = [_stream_rng(seed, pi, ri) for pi in range(b)]
        responses, gates = _decode_round(
            model, finals, prior, rngs, strategy, temperature, latent,
            max_len, gate_mode,
        )
        for i in range(b):
            samples[i].responses.append([vocab.token_of(t) for t in responses[i]])
            if gates[i] is not None:
                samples[i].gate_probs.append(gates[i])
    return samples


def _decode_round(model, states, prior, rngs, strategy, temperature,
                  latent, max_len, gate_mode):
    """One response per stream from one encode; prior is the conditional
    prior of the prompts, or None to draw nu from N(0, I)."""
    b = len(rngs)
    nu = None
    if latent != "none":
        eps = np.stack([rng.standard_normal(model.cfg.k) for rng in rngs])
        if prior is not None:
            eps = prior.mu.data + np.exp(0.5 * prior.logvar.data) * eps
        nu = Tensor(eps)
    inputs = model.latent_inputs(nu)
    gated = inputs.topic is not None

    prev = np.ones(b, dtype=np.int64)  # <s>
    finished = np.zeros(b, dtype=bool)
    lengths = np.zeros(b, dtype=np.int64)
    tokens, gate_steps = [], []
    eos = 2
    for _ in range(max_len):
        # finished rows keep stepping (fed <pad>): dropping them would
        # change the rounding of the row products for the live rows
        x = model.decoder.embed_step(prev)
        if inputs.step is not None:
            x = ad.concat([x, inputs.step], axis=1)
        h, states = model.decoder.step(x, states)
        live = np.flatnonzero(~finished)
        logits = model.decoder.logits(h).data[live]
        if gated:
            gate_p = sigmoid(model.gate_logits(h).data)
            if gate_mode == "sample":
                on = np.array([rngs[i].random() for i in live]) < gate_p[live]
            else:
                on = gate_p[live] > 0.5
            logits += on[:, None] * inputs.topic.data[live]
            gate_steps.append(gate_p)
        logits[:, 0] = -1e30  # never emit <pad> or <s>
        logits[:, 1] = -1e30
        nxt = np.zeros(b, dtype=np.int64)
        if strategy == GREEDY:
            nxt[live] = logits.argmax(axis=1)
        else:
            nxt[live] = sample_rows(logits / temperature, [rngs[i] for i in live])
        tokens.append(nxt)
        lengths[live] += 1
        finished[live] = nxt[live] == eos
        prev = nxt
        if finished.all():
            break
    gates = _row_prefixes(gate_steps, lengths) if gated else [None] * b
    return _row_prefixes(tokens, lengths), gates


def _row_prefixes(steps, lengths):
    """Row r of the step-major [b] arrays in `steps`, cut to lengths[r]."""
    cols = np.stack(steps, axis=1) if steps else np.zeros((len(lengths), 0))
    return [cols[r, :n].tolist() for r, n in enumerate(lengths)]


def sample_rows(logits, rngs):
    """One draw per row from softmax(logits[r]) with one rngs[r].random()
    each, the very draw ``rngs[r].choice(V, p=softmax(logits[r]))`` makes:
    the count of normalised-cdf entries at or below the uniform."""
    lp = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(lp)
    probs /= probs.sum(axis=1, keepdims=True)
    cdf = np.cumsum(probs, axis=1)
    cdf /= cdf[:, -1:]
    u = np.array([rng.random() for rng in rngs])
    return (cdf <= u[:, None]).sum(axis=1)
