"""The benchmark's output checks pass on right inputs and fail on wrong ones.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import spans
import workloads
from latentchat.config import RunConfig
from latentchat.generate import GenerationSample
from latentchat.metrics import MetricsReport, uniqueness, zipf_coefficient
from latentchat.models import build_model
from latentchat.text import DialoguePair, Vocabulary, assemble_batch

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def tiny_ltcm():
    cfg = RunConfig(model="ltcm", n_layers=2, d=6, d_emb=5, k=2, K=3, vocab_size=14,
                    mlp_hidden=4, batch_size=2, dropout=0.0, residual_start=2,
                    stopword_n=2)
    vocab = Vocabulary([f"w{i}" for i in range(8)])
    rng = np.random.default_rng(0)
    pairs = []
    for _ in range(2):
        p = rng.integers(6, 14, size=3).astype(np.int64)
        r = rng.integers(6, 14, size=4).astype(np.int64)
        pairs.append(DialoguePair(p, r, [vocab.token_of(i) for i in p],
                                  [vocab.token_of(i) for i in r]))
    batch = assemble_batch(pairs, vocab, {"w0", "w1"})
    model = build_model(cfg, np.random.default_rng(1))
    eps = rng.standard_normal((2, cfg.k))
    return model, batch, eps


def gradients(model, batch, eps, names):
    def loss():
        return model.objective(batch, training=False, eps=eps)[0]

    model.zero_grad()
    loss().backward()
    params = {n: model.params[n] for n in names}
    return loss, params, {n: p.grad.copy() for n, p in params.items()}


NAMES = ["dec.V_T", "dec.l1.Wx", "beta", "infer_net.mu.W1"]


def test_gradient_check_accepts_backward():
    model, batch, eps = tiny_ltcm()
    loss, params, grads = gradients(model, batch, eps, NAMES)
    rng = np.random.default_rng(0)
    coords = {n: checks.pick_coords(grads[n], rng) for n in NAMES}
    checks.finite_difference_check(lambda: loss().data, params, grads, coords)


@pytest.mark.parametrize("name", NAMES)
def test_gradient_check_rejects_perturbed_gradient(name):
    model, batch, eps = tiny_ltcm()
    loss, params, grads = gradients(model, batch, eps, NAMES)
    i = int(np.argmax(np.abs(grads[name])))
    grads[name].reshape(-1)[i] *= 1.001
    with pytest.raises(checks.CheckFailed, match=name):
        checks.finite_difference_check(lambda: loss().data, params, grads, {name: [i]})


def sample(*responses):
    return GenerationSample("p", [r.split() for r in responses], [], "conditional", 0)


def test_responses_accepted():
    samples = [sample("a b </s>", "c </s>"), sample("a a a", "b </s>")]
    assert checks.check_responses(samples, n=2, max_len=3) == 4


@pytest.mark.parametrize("bad", [
    "a <pad> </s>",      # padding token emitted
    "<s> a </s>",        # start token emitted
    "a b",               # stopped short of max_len without </s>
    "</s> a </s>",       # continues past </s>
])
def test_responses_rejected(bad):
    with pytest.raises(checks.CheckFailed):
        checks.check_responses([sample("a </s>", bad)], n=2, max_len=3)


def test_response_count_rejected():
    with pytest.raises(checks.CheckFailed, match="expected 3"):
        checks.check_responses([sample("a </s>", "b </s>")], n=3, max_len=3)


def test_prefix_decoding_must_match():
    full = [sample("a </s>"), sample("b </s>")]
    checks.check_same_responses([sample("a </s>")], full, "t")
    with pytest.raises(checks.CheckFailed):
        checks.check_same_responses([sample("b </s>")], full, "t")


def diverse_responses():
    rng = np.random.default_rng(3)
    words = [f"w{i}" for i in range(12)]
    out = [[words[j] for j in rng.integers(0, 12, size=rng.integers(1, 6))] + ["</s>"]
           for _ in range(40)]
    return out + out[:7]  # some repeats


def report_for(responses, **over):
    fields = dict(model="ltcm", ppx=3.0, lowerbound=10.0, kl=0.5,
                  unique_pct=uniqueness(responses), zipf=zipf_coefficient(responses),
                  n_prompts=len(responses), n_responses=len(responses), n_tokens=100)
    fields.update(over)
    return MetricsReport(**fields)


def test_own_diversity_figures_match_the_program():
    responses = diverse_responses()
    assert checks.unique_pct(responses) == uniqueness(responses)
    assert math.isclose(checks.zipf_slope(responses), zipf_coefficient(responses),
                        rel_tol=1e-10)
    checks.check_report(report_for(responses), responses, vocab_size=63)


def test_uniqueness_off_by_one_response_rejected():
    responses = diverse_responses()
    distinct = len({tuple(r) for r in responses})
    off = 100.0 * (distinct - 1) / len(responses)
    with pytest.raises(checks.CheckFailed, match="uniqueness"):
        checks.check_report(report_for(responses, unique_pct=off), responses, 63)


@pytest.mark.parametrize("over, what", [
    ({"zipf": 0.5}, "zipf"),
    ({"ppx": 0.9}, "perplexity"),
    ({"ppx": 64.0}, "perplexity"),
    ({"kl": -1e-3}, "KL"),
])
def test_report_ranges_rejected(over, what):
    responses = diverse_responses()
    with pytest.raises(checks.CheckFailed, match=what):
        checks.check_report(report_for(responses, **over), responses, 63)


def log(*nll_per_token):
    return [{"epoch": i + 1, "recon_nll": v * 100, "tokens": 100, "objective": v}
            for i, v in enumerate(nll_per_token)]


def test_train_log():
    checks.check_train_log(log(3.0, 2.0), 2)
    for bad, epochs in ((log(2.0, 3.0), 2), (log(3.0), 2), (log(3.0, float("nan")), 2)):
        with pytest.raises(checks.CheckFailed):
            checks.check_train_log(bad, epochs)


def test_bytes_equal(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.write_bytes(b"\x00\x01")
    b.write_bytes(b"\x00\x01")
    checks.check_bytes_equal(a, b)
    b.write_bytes(b"\x00\x02")
    with pytest.raises(checks.CheckFailed):
        checks.check_bytes_equal(a, b)


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == workloads.END_TO_END_UNITS
    extra = {"setups": 1, "checkpoint_bytes": 1, "gen_tokens": 1, "gen_peak_traced_mb": 1.0}
    layer = spans.layer_metrics(spans.Tracer(), extra)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: spans.unit_of(k) for k in layer}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_run", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-narrow", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
