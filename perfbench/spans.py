"""Spans around the calls into each latentchat module, recorded from the
benchmark's side: wrappers replace module functions and methods for the
length of a run and are removed afterwards.  Nothing in the package is
edited.

A span is (name, start, end, parent, phase, family).  Spans stay in
memory and are written out when the run ends.  A layer's self time is its
span minus the time its child spans cover.
"""

import functools
import json
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    """Records spans at the wrapped boundaries and counts Tensors built."""

    def __init__(self):
        self.spans = []         # [name, t0, t1, parent index, phase, family]
        self._stack = []
        self.phase = None
        self.family = None
        self.tensors = defaultdict(int)  # (phase, family) -> Tensors created
        self._undo = []
        self._outer = None

    # ----- recording --------------------------------------------------------

    def wrap(self, owner, attr, name):
        """Replace owner.attr by a wrapper that records a span called name."""
        orig = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            if self.phase is None:
                return orig(*args, **kwargs)
            parent = stack[-1] if stack else -1
            rec = [name, _clock(), 0.0, parent, self.phase, self.family]
            spans.append(rec)
            stack.append(len(spans) - 1)
            try:
                return orig(*args, **kwargs)
            finally:
                rec[2] = _clock()
                stack.pop()

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, orig))

    def count_tensors(self, tensor_cls):
        orig = tensor_cls.__init__
        counts = self.tensors

        @functools.wraps(orig)
        def init(obj, *args, **kwargs):
            if self.phase is not None:
                counts[(self.phase, self.family)] += 1
            orig(obj, *args, **kwargs)

        tensor_cls.__init__ = init
        self._undo.append((tensor_cls, "__init__", orig))

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # ----- reading ------------------------------------------------------------

    def select(self, name, phase, family=None):
        """Spans called name in phase (and family, if given) that have no
        ancestor of the same name, so nested calls count once."""
        if self._outer is None or self._outer[0] != len(self.spans):
            self._outer = (len(self.spans), self._outermost())
        recs = self._outer[1].get((name, phase), [])
        return recs if family is None else [r for r in recs if r[5] == family]

    def _outermost(self):
        index = defaultdict(list)
        for rec in self.spans:
            p = rec[3]
            while p >= 0 and self.spans[p][0] != rec[0]:
                p = self.spans[p][3]
            if p < 0:
                index[(rec[0], rec[4])].append(rec)
        return index

    def total_ms(self, name, phase, family=None):
        return 1000.0 * sum(r[2] - r[1] for r in self.select(name, phase, family))

    def calls(self, name, phase, family=None):
        return len(self.select(name, phase, family))

    def write(self, path):
        """Spans as JSON lines: name, start and end in seconds from the
        first span, parent index, phase and family."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, a, b, parent, phase, family in self.spans:
                fh.write(json.dumps(
                    [name, round(a - t0, 7), round(b - t0, 7), parent, phase, family]
                ) + "\n")


def install(tracer, lc):
    """Wrap the public boundaries of each module; lc is a namespace of the
    imported latentchat modules."""
    w = tracer.wrap
    s2s, lat, top = lc.seq2seq.Seq2Seq, lc.latent.LatentSeq2Seq, lc.topic.TopicGatedSeq2Seq
    w(s2s, "encode", "models.encode")
    w(s2s, "decoder_h_tops", "models.decode")
    w(s2s, "word_loglik", "models.output")
    w(top, "fused_loglik", "models.output")
    w(lat, "posterior", "models.posterior")
    w(top, "posterior", "models.posterior")
    w(lc.topic, "beta_regularizers", "models.topic_reg")
    w(lc.autodiff, "backward", "autodiff.backward")
    w(lc.kernels, "lstm_gates_fwd", "kernels.lstm_gates")
    w(lc.kernels, "lstm_gates_bwd", "kernels.lstm_gates")
    w(lc.kernels, "layer_norm_fwd", "kernels.layer_norm")
    w(lc.kernels, "layer_norm_bwd", "kernels.layer_norm")
    w(lc.optim.Adam, "step", "optim.adam")
    w(lc.train, "assemble_batch", "text.batch")
    w(lc.checkpoint, "save", "checkpoint.save")
    w(lc.checkpoint, "load", "checkpoint.load")
    w(lc.layers.DecoderStack, "step", "layers.decoder_step")
    w(lc.layers.DecoderStack, "logits", "layers.logits")
    w(lc.generate, "generate", "generate")
    w(lc.metrics, "generate", "metrics.eval_generate")
    for cls in (s2s, lat, top):
        w(cls, "eval_sums", "metrics.eval_sums")
    w(lat, "approx_nll", "metrics.approx_nll")
    w(top, "approx_nll", "metrics.approx_nll")
    w(lc.metrics, "evaluate", "metrics.evaluate")
    w(lc.synth, "make_corpus", "setup.synth")
    w(lc.text, "build_vocab", "setup.vocab")
    w(lc.text, "select_stopwords", "setup.vocab")
    w(lc.text, "encode_corpus", "setup.encode")
    tracer.count_tensors(lc.autodiff.Tensor)


# per-step layer metrics of the train phase: name -> (span, kind)
STEP_METRICS = {
    "models.encode_ms": ("models.encode", "ms"),
    "models.decode_ms": ("models.decode", "ms"),
    "models.output_ms": ("models.output", "ms"),
    "models.posterior_ms": ("models.posterior", "ms"),
    "models.topic_reg_ms": ("models.topic_reg", "ms"),
    "autodiff.backward_ms": ("autodiff.backward", "ms"),
    "autodiff.nodes_per_step": (None, "nodes"),
    "kernels.lstm_gates_calls": ("kernels.lstm_gates", "calls"),
    "kernels.layer_norm_calls": ("kernels.layer_norm", "calls"),
    "kernels.lstm_gates_ms": ("kernels.lstm_gates", "ms"),
    "kernels.layer_norm_ms": ("kernels.layer_norm", "ms"),
    "optim.adam_ms": ("optim.adam", "ms"),
    "text.batch_ms": ("text.batch", "ms"),
}
FAMILIES = ("s2s", "lvs2s", "ltcm")

UNITS = {
    "ms": "ms/step", "nodes": "count/step", "calls": "count/step",
    "text.batch_ms": "ms/batch",
    "checkpoint.save_ms": "ms", "checkpoint.bytes": "B", "checkpoint.load_ms": "ms",
    "setup.synth_ms": "ms", "setup.vocab_ms": "ms", "setup.encode_ms": "ms",
    "layers.decoder_step_ms": "ms/decode_step", "generate.self_ms": "ms/decode_step",
    "generate.nodes_per_token": "count/token", "generate.peak_traced_mb": "MB",
    "metrics.eval_sums_ms": "ms/batch", "metrics.eval_sums_calls": "count",
    "metrics.eval_generate_ms": "ms", "metrics.approx_nll_ms": "ms/batch",
    "metrics.approx_nll_pct": "%",
}


def unit_of(metric):
    """Unit of a per-layer metric, family suffix ignored."""
    base = metric.rsplit(".", 1)[0] if metric.endswith(FAMILIES) else metric
    if base in UNITS:
        return UNITS[base]
    return UNITS[STEP_METRICS[base][1]]


def _per(num, den):
    return num / den if den else 0.0


def step_metrics(tracer, family=None):
    steps = tracer.calls("optim.adam", "train", family)
    out = {}
    for metric, (span, kind) in STEP_METRICS.items():
        if kind == "nodes":
            fams = FAMILIES if family is None else (family,)
            n = sum(tracer.tensors[("train", f)] for f in fams)
            out[metric] = _per(n, steps)
        elif kind == "calls":
            out[metric] = _per(tracer.calls(span, "train", family), steps)
        else:
            out[metric] = _per(tracer.total_ms(span, "train", family), steps)
    return out


def layer_metrics(tracer, extra):
    """Per-layer metrics from the recorded spans.  extra carries figures the
    workload counted itself: setups made, checkpoint bytes, generated tokens
    and the traced peak of one decode round."""
    m = step_metrics(tracer)
    for fam in FAMILIES:
        for k, v in step_metrics(tracer, fam).items():
            m[f"{k}.{fam}"] = v
    m["checkpoint.save_ms"] = _per(tracer.total_ms("checkpoint.save", "train"),
                                   tracer.calls("checkpoint.save", "train"))
    m["checkpoint.bytes"] = extra["checkpoint_bytes"]
    loads = sum(tracer.calls("checkpoint.load", p) for p in ("setup", "train"))
    load_ms = sum(tracer.total_ms("checkpoint.load", p) for p in ("setup", "train"))
    m["checkpoint.load_ms"] = _per(load_ms, loads)
    for key in ("synth", "vocab", "encode"):
        m[f"setup.{key}_ms"] = _per(tracer.total_ms(f"setup.{key}", "setup"), extra["setups"])
    dec_steps = tracer.calls("layers.decoder_step", "gen")
    gen_ms = tracer.total_ms("generate", "gen")
    step_ms = tracer.total_ms("layers.decoder_step", "gen")
    logit_ms = tracer.total_ms("layers.logits", "gen")
    m["layers.decoder_step_ms"] = _per(step_ms, dec_steps)
    m["generate.self_ms"] = _per(gen_ms - step_ms - logit_ms, dec_steps)
    m["generate.nodes_per_token"] = _per(tracer.tensors[("gen", None)], extra["gen_tokens"])
    m["generate.peak_traced_mb"] = extra["gen_peak_traced_mb"]
    evals = tracer.calls("metrics.evaluate", "eval")
    eval_ms = tracer.total_ms("metrics.evaluate", "eval")
    sums_calls = tracer.calls("metrics.eval_sums", "eval")
    m["metrics.eval_sums_ms"] = _per(tracer.total_ms("metrics.eval_sums", "eval"), sums_calls)
    m["metrics.eval_sums_calls"] = _per(sums_calls, evals)
    m["metrics.eval_generate_ms"] = _per(tracer.total_ms("metrics.eval_generate", "eval"), evals)
    m["metrics.approx_nll_ms"] = _per(tracer.total_ms("metrics.approx_nll", "eval"), sums_calls)
    m["metrics.approx_nll_pct"] = 100.0 * _per(
        tracer.total_ms("metrics.approx_nll", "eval"), eval_ms)
    return m
