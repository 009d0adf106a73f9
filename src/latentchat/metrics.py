"""Corpus evaluation: approximate perplexity, variational bound, KL,
sentence uniqueness, Zipf coefficient, and the topic-gate analysis."""

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .generate import default_latent, generate
from .text import N_RESERVED, assemble_batch

_EXCLUDED_FROM_ZIPF = {"<pad>", "<s>", "</s>"}


def uniqueness(responses):
    """100 * distinct / total over exact token-sequence equality."""
    if not responses:
        raise InputError("uniqueness needs at least one response")
    distinct = len({tuple(r) for r in responses})
    return 100.0 * distinct / len(responses)


def zipf_coefficient(responses):
    """Negated least-squares slope of ln(freq) on ln(rank) over the
    token frequency table of the generated responses."""
    counts = {}
    for resp in responses:
        for tok in resp:
            if tok not in _EXCLUDED_FROM_ZIPF:
                counts[tok] = counts.get(tok, 0) + 1
    if len(counts) < 2:
        raise InputError("zipf coefficient needs at least two token types")
    freqs = sorted(counts.values(), reverse=True)
    x = np.log(np.arange(1, len(freqs) + 1, dtype=np.float64))
    y = np.log(np.asarray(freqs, dtype=np.float64))
    slope = np.polyfit(x, y, 1)[0]
    return -float(slope)


@dataclass
class MetricsReport:
    model: str
    ppx: float
    lowerbound: float        # negated bound, nats per sequence (loss-like)
    kl: float                # nats per sequence; None when not applicable
    unique_pct: float
    zipf: float
    n_prompts: int
    n_responses: int
    n_tokens: int

    def as_dict(self):
        return {
            "model": self.model,
            "ppx": self.ppx,
            "lowerbound": self.lowerbound,
            "kl": "n/a" if self.kl is None else self.kl,
            "unique_pct": "n/a" if self.unique_pct is None else self.unique_pct,
            "zipf": "n/a" if self.zipf is None else self.zipf,
            "n_prompts": self.n_prompts,
            "n_responses": self.n_responses,
            "n_tokens": self.n_tokens,
        }


def _batches(pairs, batch_size):
    for lo in range(0, len(pairs), batch_size):
        yield pairs[lo : lo + batch_size]


def evaluate(model, vocab, stopwords, pairs, seed=0, n_responses=5,
             strategy=None, latent=None, batch_size=None):
    """Reference-based metrics plus diversity of n generated responses
    per prompt; deterministic for a fixed seed."""
    if not pairs:
        raise InputError("evaluation corpus is empty")
    cfg = model.cfg
    batch_size = batch_size or cfg.batch_size

    nll = 0.0
    tokens = 0.0
    neg_bounds = []
    kls = []
    for bi, chunk in enumerate(_batches(pairs, batch_size)):
        batch = assemble_batch(chunk, vocab, stopwords)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 13, bi]))
        sums = model.eval_sums(batch, rng=rng)
        nll += sums["approx_nll"]
        tokens += sums["tokens"]
        neg_bounds.extend(sums["per_seq_neg_bound"].tolist())
        if sums["per_seq_kl"] is not None:
            kls.extend(sums["per_seq_kl"].tolist())

    unique_pct = zipf = None
    n_resp = 0
    if model.kind != "ntm":
        if strategy is None:
            strategy = "greedy"
        if latent is None:
            latent = default_latent(model)
        samples = generate(
            model, vocab, pairs, strategy=strategy, latent=latent,
            n=n_responses, seed=seed, max_len=cfg.max_len,
            gate_mode=cfg.gate_mode,
        )
        responses = [r for s in samples for r in s.responses]
        n_resp = len(responses)
        unique_pct = uniqueness(responses)
        try:
            zipf = zipf_coefficient(responses)
        except InputError:
            zipf = float("nan")  # degenerate single-type output

    return MetricsReport(
        model=model.kind,
        ppx=math.exp(min(700.0, nll / max(tokens, 1.0))),
        lowerbound=float(np.mean(neg_bounds)),
        kl=float(np.mean(kls)) if kls else None,
        unique_pct=unique_pct,
        zipf=zipf,
        n_prompts=len(pairs),
        n_responses=n_resp,
        n_tokens=int(tokens),
    )


def gate_analysis(model, vocab, stopwords, pairs, batch_size=None):
    """Mean gate probability (percent) per emitted vocabulary type under
    teacher forcing; reserved tokens are reported as 0. Sorted descending."""
    batch_size = batch_size or model.cfg.batch_size
    sums = {}
    counts = {}
    for chunk in _batches(pairs, batch_size):
        batch = assemble_batch(chunk, vocab, stopwords)
        probs, tgt, mask = model.gate_probs_forced(batch)
        for p, tok_id, m in zip(probs, tgt, mask):
            if m == 0.0:
                continue
            tok_id = int(tok_id)
            p = 0.0 if tok_id < N_RESERVED else float(p)
            sums[tok_id] = sums.get(tok_id, 0.0) + p
            counts[tok_id] = counts.get(tok_id, 0) + 1
    table = [
        (vocab.token_of(t), 100.0 * sums[t] / counts[t]) for t in sums
    ]
    table.sort(key=lambda kv: (-kv[1], kv[0]))
    return table


def write_report(report, out_dir):
    """Flat key-value report file plus an appended cross-model CSV row."""
    os.makedirs(out_dir, exist_ok=True)
    d = report.as_dict()
    txt = os.path.join(out_dir, f"report_{report.model}.txt")
    with open(txt, "w", encoding="utf-8") as fh:
        for k, v in d.items():
            fh.write(f"{k}: {v}\n")
    csv_path = os.path.join(out_dir, "models.csv")
    new = not os.path.exists(csv_path)
    with open(csv_path, "a", newline="", encoding="utf-8") as fh:
        w = csv.DictWriter(fh, fieldnames=list(d))
        if new:
            w.writeheader()
        w.writerow(d)
    return txt


def write_generations(samples, path):
    with open(path, "w", encoding="utf-8") as fh:
        for s in samples:
            fh.write(json.dumps({
                "prompt": s.prompt,
                "responses": [" ".join(r) for r in s.responses],
                "gate_probs": s.gate_probs,
                "latent": s.latent,
                "seed": s.seed,
            }) + "\n")
