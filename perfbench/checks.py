"""Output checks for the benchmark workloads.

Every check compares the program's output against a computation made here,
apart from the program, or against a property the method must have.  A
failed check raises :class:`CheckFailed` with a message naming what
differed; the workload driver turns that into ``"correct": false``.
"""

import json
import math

import numpy as np

PAD, BOS, EOS = "<pad>", "<s>", "</s>"
_NOT_ZIPF = {PAD, BOS, EOS}


class CheckFailed(AssertionError):
    pass


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# training


def finite_difference_check(loss_fn, params, analytic, coords, h=1e-5,
                            atol=1e-7, rtol=1e-5):
    """Central differences of the scalar ``loss_fn()`` at ``coords``.

    params: name -> Tensor whose ``.data`` is perturbed in place and restored.
    analytic: name -> gradient array from ``backward()`` at the unperturbed
    point.  coords: name -> list of flat indices.  Returns the worst absolute
    difference seen."""
    worst = 0.0
    for name, idxs in coords.items():
        flat = params[name].data.reshape(-1)
        grad = np.asarray(analytic[name]).reshape(-1)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + h
            up = float(loss_fn())
            flat[i] = orig - h
            down = float(loss_fn())
            flat[i] = orig
            num = (up - down) / (2.0 * h)
            err = abs(num - grad[i])
            require(
                err <= atol + rtol * abs(num),
                f"gradient of {name}[{i}]: backward {grad[i]:.10g}, "
                f"finite difference {num:.10g}",
            )
            worst = max(worst, err)
    return worst


def pick_coords(grad, rng, n_top=2, n_random=2):
    """Flat indices to probe: the largest-magnitude entries of ``grad`` (so
    the probe sees real signal) plus a few uniformly random ones."""
    flat = np.abs(np.asarray(grad)).reshape(-1)
    top = np.argsort(-flat, kind="stable")[:n_top].tolist()
    rand = rng.choice(flat.size, size=min(n_random, flat.size), replace=False).tolist()
    return sorted(set(top + rand))


def read_log(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_train_log(records, epochs):
    """One finite record per epoch, numbered 1..epochs, and the last
    epoch's reconstruction NLL per token below the first epoch's."""
    require(len(records) == epochs,
             f"train log holds {len(records)} records for {epochs} epochs")
    for k, rec in enumerate(records):
        require(rec.get("epoch") == k + 1, f"log record {k} has epoch {rec.get('epoch')}")
        for key, val in rec.items():
            if isinstance(val, (int, float)):
                require(math.isfinite(val), f"log epoch {k + 1}: {key} = {val}")
        require(rec["tokens"] > 0, f"log epoch {k + 1} counts no tokens")
    first = records[0]["recon_nll"] / records[0]["tokens"]
    last = records[-1]["recon_nll"] / records[-1]["tokens"]
    require(last < first,
             f"NLL per token did not fall: first epoch {first:.6g}, last {last:.6g}")


def check_bytes_equal(a_path, b_path):
    with open(a_path, "rb") as fa, open(b_path, "rb") as fb:
        a, b = fa.read(), fb.read()
    require(a == b, f"{b_path} differs from {a_path} "
                     f"({len(b)} vs {len(a)} bytes)")


# ---------------------------------------------------------------------------
# decoding and evaluation


def check_responses(samples, n, max_len):
    """n responses per prompt; each non-empty, free of <pad>/<s>, and
    either ends with </s> or has exactly max_len tokens."""
    total = 0
    for si, s in enumerate(samples):
        require(len(s.responses) == n,
                 f"prompt {si} has {len(s.responses)} responses, expected {n}")
        for ri, resp in enumerate(s.responses):
            total += 1
            where = f"prompt {si} response {ri}"
            require(len(resp) > 0, f"{where} is empty")
            require(PAD not in resp and BOS not in resp,
                     f"{where} contains <pad> or <s>: {' '.join(resp)}")
            require(resp[-1] == EOS or len(resp) == max_len,
                     f"{where} neither ends with </s> nor reaches {max_len} tokens")
            require(EOS not in resp[:-1], f"{where} continues past </s>")
    return total


def check_same_responses(prefix_samples, full_samples, what):
    """Decoding a prefix of the prompts alone gives the responses it gets
    inside the full batch (each stream owns its RNG)."""
    for i, s in enumerate(prefix_samples):
        require(s.responses == full_samples[i].responses,
                 f"{what}: prompt {i} decodes differently alone than in the batch")


def unique_pct(responses):
    """Percentage of distinct token sequences, counted here with sorted
    string keys rather than the program's tuple set."""
    keys = sorted("\x1f".join(r) for r in responses)
    distinct = sum(1 for i, k in enumerate(keys) if i == 0 or k != keys[i - 1])
    return 100.0 * distinct / len(keys)


def zipf_slope(responses):
    """Negated least-squares slope of ln(count) on ln(rank), in closed form."""
    counts = {}
    for resp in responses:
        for tok in resp:
            if tok not in _NOT_ZIPF:
                counts[tok] = counts.get(tok, 0) + 1
    freqs = sorted(counts.values(), reverse=True)
    if len(freqs) < 2:
        return math.nan
    x = [math.log(r) for r in range(1, len(freqs) + 1)]
    y = [math.log(f) for f in freqs]
    mx, my = sum(x) / len(x), sum(y) / len(y)
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = sum((a - mx) ** 2 for a in x)
    return -sxy / sxx


def check_report(report, responses, vocab_size):
    """The report's diversity figures equal the ones recomputed from the
    responses evaluate decoded; perplexity and KL lie in their ranges."""
    require(report.n_responses == len(responses),
             f"report counts {report.n_responses} responses, decoded {len(responses)}")
    mine = unique_pct(responses)
    require(abs(report.unique_pct - mine) <= 1e-9,
             f"uniqueness: report {report.unique_pct!r}, recomputed {mine!r}")
    z = zipf_slope(responses)
    same_nan = math.isnan(z) and math.isnan(report.zipf)
    require(same_nan or abs(report.zipf - z) <= 1e-8 * max(1.0, abs(z)),
             f"zipf: report {report.zipf!r}, recomputed {z!r}")
    require(1.0 <= report.ppx <= vocab_size,
             f"perplexity {report.ppx!r} outside [1, {vocab_size}]")
    require(report.kl is None or report.kl >= 0.0, f"mean KL {report.kl!r} < 0")
