"""The three workloads and the phases they time.

Every workload is one closed-loop session in one process, with no
concurrency: set up, train, decode, evaluate.  The output contract of the
benchmark asks for every end-to-end metric on every run, so every workload
runs all three phases; what differs is the input and where the time goes:

- train-narrow: s2s, lvs2s and ltcm in turn on a 3-cluster corpus
  (V = 63).  A step is LN-LSTM recurrence and per-tape-node overhead.
  Decodes and evaluates the narrow fixture on a few dozen prompts.
- train-wide: ltcm on a 200-cluster corpus (V about 960), where the
  output layer, the [B,2L] inference net, the beta regularisers, Adam and
  the checkpoint grow with V.  Decodes and evaluates the wide fixture.
- decode-eval: the narrow fixture decodes and evaluates about 200 prompts,
  which is most of the run; training resumes the fixture for one epoch.

Decoding always uses a fixture (fixture.py), a well-trained ltcm, so the
length of its responses and hence the decoding work do not drift with the
seed.

A phase repeats its whole operation until its share of --seconds is spent,
at least once.
"""

import json
import os
import resource
import shutil
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

import checks
import fixture
import spans

import latentchat.autodiff
import latentchat.checkpoint
import latentchat.generate
import latentchat.kernels
import latentchat.layers
import latentchat.metrics
import latentchat.models
import latentchat.models.latent
import latentchat.models.seq2seq
import latentchat.models.topic
import latentchat.optim
import latentchat.synth
import latentchat.text
import latentchat.train

lc = SimpleNamespace(
    autodiff=latentchat.autodiff, checkpoint=latentchat.checkpoint,
    generate=latentchat.generate, kernels=latentchat.kernels,
    layers=latentchat.layers, metrics=latentchat.metrics,
    models=latentchat.models, seq2seq=latentchat.models.seq2seq,
    latent=latentchat.models.latent, topic=latentchat.models.topic,
    optim=latentchat.optim, synth=latentchat.synth, text=latentchat.text,
    train=latentchat.train,
)

_clock = time.perf_counter


@dataclass(frozen=True)
class Workload:
    clusters: int      # shape of the corpus built from --seed
    n_pairs: int
    families: tuple    # trained in turn on that corpus
    epochs: int        # per training job
    fixture: str       # the trained ltcm that gen and eval decode
    resume: bool       # train by resuming the fixture instead
    eval_prompts: int | None  # leading prompts of the fixture's test split
    shares: tuple      # (train, gen, eval) shares of --seconds


WORKLOADS = {
    "train-narrow": Workload(3, 400, ("s2s", "lvs2s", "ltcm"), 2, "narrow", False, 96,
                             (0.4, 0.3, 0.3)),
    "train-wide": Workload(200, 1000, ("ltcm",), 2, "wide", False, 100, (0.4, 0.3, 0.3)),
    "decode-eval": Workload(3, 2000, ("ltcm",), 1, "narrow", True, None, (0.3, 0.4, 0.3)),
}

GEN_N = 5           # temperature-sampled responses per prompt
EVAL_SEED = 0       # fixed, so the fixture's quality figures repeat exactly
SETUP_REPEATS = 9
PREFIX = 7          # prompts decoded alone for the per-stream RNG check
FD_SEED = 1234      # coordinates, batch and eps of the gradient check

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "train_tokens_per_s": "tok/s",
    "train_step_ms_p50": "ms",
    "train_step_ms_p90": "ms",
    "train_nll_per_token": "nat/tok",
    "gen_tokens_per_s": "tok/s",
    "gen_responses_per_s": "1/s",
    "eval_s": "s",
    "eval_ppx": "ppx",
    "eval_unique_pct": "%",
}


class StepClock:
    """Wall time of each training step, from the batch being assembled to
    the end of Adam.step: two clock reads per step, in every run."""

    def __init__(self):
        self.steps = []
        self._start = None
        self._undo = []

    def install(self):
        orig_batch, orig_step = lc.train.assemble_batch, lc.optim.Adam.step

        def batch(*args, **kwargs):
            self._start = _clock()
            return orig_batch(*args, **kwargs)

        def step(opt):
            orig_step(opt)
            self.steps.append(_clock() - self._start)

        lc.train.assemble_batch = batch
        lc.optim.Adam.step = step
        self._undo = [(lc.train, "assemble_batch", orig_batch),
                      (lc.optim.Adam, "step", orig_step)]

    def uninstall(self):
        for owner, attr, orig in self._undo:
            setattr(owner, attr, orig)


class Recorder:
    """Keeps what evaluate's internal generate call was last given and
    returned, so the report can be checked against the responses it counted."""

    def __init__(self):
        self.last = None
        self._orig = None

    def install(self):
        self._orig = orig = lc.metrics.generate

        def generate(*args, **kwargs):
            out = orig(*args, **kwargs)
            self.last = (args, kwargs, out)
            return out

        lc.metrics.generate = generate

    def uninstall(self):
        lc.metrics.generate = self._orig


# ---------------------------------------------------------------------------
# set-up


class Session:
    """Everything a workload builds before its first measured operation.

    Training reads the corpus of --seed (or, when resuming, the fixture's
    own).  Sampling decodes the test prompts of the --seed corpus;
    evaluation scores the fixture's own test split."""

    def __init__(self, w, seed, run_dir, fixture_dir):
        self.w = w
        self.run_dir = run_dir
        self.fixture_dir = fixture_dir
        fixture_raw = fixture.fixture_corpus(w.fixture)
        self.vocab, self.stop = fixture.read_vocabulary(fixture_dir)
        fixture_split = fixture.train_split(fixture_raw, self.vocab)
        self.eval_pairs = fixture_split["test"][:w.eval_prompts]
        raw = fixture.corpus(w.clusters, w.n_pairs, seed)
        self.gen_pairs = fixture.train_split(raw, self.vocab)["test"]

        if w.resume:
            self.train_vocab, self.train_stop = self.vocab, self.stop
            self.train_pairs = fixture_split["train"]
            epochs = fixture.FIXTURES[w.fixture].epochs + w.epochs
        else:
            self.train_vocab, self.train_stop = fixture.vocabulary(raw)
            self.train_pairs = fixture.train_split(raw, self.train_vocab)["train"]
            epochs = w.epochs
        self.configs = {f: fixture.desk_config(f, len(self.train_vocab), epochs)
                        for f in w.families}
        self.trainers = {f: self.trainer(f) for f in w.families}

        path = os.path.join(fixture_dir, "final.ckpt")
        cfg = lc.checkpoint.config_from_header(lc.checkpoint.read_header(path))
        self.model = lc.models.build_model(
            cfg, np.random.default_rng(np.random.SeedSequence([cfg.seed, 3])))
        lc.checkpoint.load(path, self.model)

    def trainer(self, family):
        out = os.path.join(self.run_dir, f"train-{family}")
        return lc.train.Trainer(self.configs[family], self.train_vocab, self.train_stop,
                                self.train_pairs, out)


# ---------------------------------------------------------------------------
# phases


def gradient_check(sess, family, rng):
    """Central differences against backward() on one batch of the
    workload, dropout off and eps fixed, at a few coordinates of dec.V_T,
    an LN-LSTM Wx and, for ltcm, beta and the inference net's first layer."""
    cfg = sess.configs[family]
    model = lc.models.build_model(
        cfg, np.random.default_rng(np.random.SeedSequence([cfg.seed, 3])))
    idx = rng.choice(len(sess.train_pairs), size=cfg.batch_size, replace=False)
    batch = lc.text.assemble_batch([sess.train_pairs[i] for i in idx],
                                   sess.train_vocab, sess.train_stop)
    eps = rng.standard_normal((batch.size, cfg.k))

    def loss():
        return model.objective(batch, training=False, eps=eps)[0]

    names = ["dec.V_T", "dec.l1.Wx"]
    if family == "ltcm":
        names += ["beta", "infer_net.mu.W1"]
    params = {n: model.params[n] for n in names}
    model.zero_grad()
    loss().backward()
    analytic = {n: p.grad.copy() for n, p in params.items()}
    coords = {n: checks.pick_coords(analytic[n], rng) for n in names}
    checks.finite_difference_check(lambda: loss().data, params, analytic, coords)


def train_job(sess, family, clock, tracer):
    """One Trainer.run of family, from a fresh model (or from a copy of the
    fixture when resuming)."""
    w = sess.w
    trainer = sess.trainers.pop(family, None) or sess.trainer(family)
    resume = None
    if w.resume:
        os.makedirs(trainer.out_dir, exist_ok=True)
        for name in ("last.ckpt", "train_log.jsonl"):
            shutil.copy(os.path.join(sess.fixture_dir, name), trainer.out_dir)
        resume = trainer.last_path
    first_step = len(clock.steps)
    tracer.phase, tracer.family = "train", family
    t0 = _clock()
    final = trainer.run(resume=resume)
    dt = _clock() - t0
    tracer.phase = tracer.family = None
    log = checks.read_log(os.path.join(trainer.out_dir, "train_log.jsonl"))
    return SimpleNamespace(
        family=family, trainer=trainer, final=final, seconds=dt, log=log,
        tokens=sum(r["tokens"] for r in log[-w.epochs:]),
        steps=clock.steps[first_step:],
    )


def check_training(sess, jobs):
    """The last job of each family: its log, and a save -> load -> save
    round trip of its final checkpoint through a fresh model and optimiser."""
    for job in jobs[-len(sess.w.families):]:
        cfg = job.trainer.cfg
        checks.check_train_log(job.log, cfg.epochs)
        model = lc.models.build_model(cfg, np.random.default_rng(0))
        opt = lc.optim.Adam(model.params, lr=cfg.lr, halve_every=cfg.halve_lr_every or None)
        header = lc.checkpoint.load(job.final, model, optimizer=opt)
        again = os.path.join(sess.run_dir, f"roundtrip-{job.family}.ckpt")
        lc.checkpoint.save(again, model, optimizer=opt, rng_state=header["rng"],
                           epoch=header["epoch"], extra=header["extra"])
        checks.check_bytes_equal(job.final, again)


def gen_args(sess, seed):
    cfg = sess.model.cfg
    return dict(strategy="sample", temperature=1.0, latent="conditional",
                n=GEN_N, seed=seed, max_len=cfg.max_len, gate_mode=cfg.gate_mode)


def generate_once(sess, args):
    t0 = _clock()
    samples = lc.generate.generate(sess.model, sess.vocab, sess.gen_pairs, **args)
    dt = _clock() - t0
    return SimpleNamespace(
        seconds=dt, samples=samples,
        responses=sum(len(s.responses) for s in samples),
        tokens=sum(len(r) for s in samples for r in s.responses),
    )


def evaluate_once(sess):
    t0 = _clock()
    report = lc.metrics.evaluate(sess.model, sess.vocab, sess.stop,
                                 sess.eval_pairs, seed=EVAL_SEED)
    return SimpleNamespace(seconds=_clock() - t0, report=report)


def measure(sess, seed, budgets, clock, tracer):
    """Training jobs (whole cycles over the families), generate calls and
    evaluate calls, alternated until each has spent its share of the run,
    so that all three sample the host over the same stretch of time."""
    families = sess.w.families
    args = gen_args(sess, seed)
    jobs, gens, evals = [], [], []

    def left(calls, budget):
        return not calls or sum(c.seconds for c in calls) < budget

    while True:
        train_left = len(jobs) % len(families) or left(jobs, budgets[0])
        gen_left, eval_left = left(gens, budgets[1]), left(evals, budgets[2])
        if not (train_left or gen_left or eval_left):
            return jobs, gens, evals
        if train_left:
            jobs.append(train_job(sess, families[len(jobs) % len(families)], clock, tracer))
        if gen_left:
            tracer.phase = "gen"
            gens.append(generate_once(sess, args))
        if eval_left:
            tracer.phase = "eval"
            evals.append(evaluate_once(sess))
        tracer.phase = None


def check_generation(sess, seed, calls):
    first = calls[0].samples
    checks.check_responses(first, GEN_N, sess.model.cfg.max_len)
    for c in calls[1:]:
        checks.check_same_responses(c.samples, first, "repeated generate")
    alone = lc.generate.generate(sess.model, sess.vocab, sess.gen_pairs[:PREFIX],
                                 **gen_args(sess, seed))
    checks.check_same_responses(alone, first, "sampled decoding")


def check_evaluation(sess, calls, recorder):
    args, kwargs, samples = recorder.last
    checks.check_responses(samples, kwargs["n"], kwargs["max_len"])
    responses = [r for s in samples for r in s.responses]
    report = calls[-1].report
    checks.check_report(report, responses, len(sess.vocab))
    for c in calls[:-1]:
        checks.require(c.report == report, "repeated evaluate disagrees")
    alone = lc.generate.generate(args[0], args[1], list(args[2][:PREFIX]), **kwargs)
    checks.check_same_responses(alone, samples, "greedy decoding in evaluate")


# ---------------------------------------------------------------------------
# a run


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(name, seed, seconds, traced):
    """One run of workload `name`.  Returns (correct, attempted, failed,
    metrics) with metrics as name -> (value, unit)."""
    w = WORKLOADS[name]
    run_dir = os.path.join(fixture.RUN_DIR, f"{name}-s{seed}-t{int(traced)}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    # every workload builds every fixture, so that only the first run in a
    # checkout pays for training them
    fixture_dir = {f: fixture.ensure_fixture(f) for f in fixture.FIXTURES}[w.fixture]

    clock, recorder = StepClock(), Recorder()
    clock.install()
    recorder.install()
    tracer = spans.Tracer()
    if traced:
        spans.install(tracer, lc)
    try:
        return _run(w, name, seed, seconds, traced, run_dir, fixture_dir,
                    clock, recorder, tracer)
    finally:
        tracer.uninstall()
        recorder.uninstall()
        clock.uninstall()
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(w, name, seed, seconds, traced, run_dir, fixture_dir, clock, recorder, tracer):
    t_start = _clock()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        tracer.phase = "setup"
        t0 = _clock()
        sess = Session(w, seed, run_dir, fixture_dir)
        setup_times.append(_clock() - t0)
        tracer.phase = None

    failure = None
    try:
        rng = np.random.default_rng(FD_SEED)
        for family in w.families:
            gradient_check(sess, family, rng)
    except checks.CheckFailed as exc:
        failure = failure or str(exc)

    budgets = [share * seconds for share in w.shares]
    jobs, gens, evals = measure(sess, seed, budgets, clock, tracer)
    try:
        check_training(sess, jobs)
        check_generation(sess, seed, gens)
        check_evaluation(sess, evals, recorder)
    except checks.CheckFailed as exc:
        failure = failure or str(exc)

    steps_ms = [1000.0 * s for j in jobs for s in j.steps]
    last = {j.family: j.log[-1] for j in jobs}
    report = evals[-1].report
    e2e = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
        "train_tokens_per_s": sum(j.tokens for j in jobs) / sum(j.seconds for j in jobs),
        "train_step_ms_p50": float(np.percentile(steps_ms, 50)),
        "train_step_ms_p90": float(np.percentile(steps_ms, 90)),
        "train_nll_per_token": (sum(r["recon_nll"] for r in last.values())
                                / sum(r["tokens"] for r in last.values())),
        "gen_tokens_per_s": statistics.median(c.tokens / c.seconds for c in gens),
        "gen_responses_per_s": statistics.median(c.responses / c.seconds for c in gens),
        "eval_s": statistics.median(c.seconds for c in evals),
        "eval_ppx": report.ppx,
        "eval_unique_pct": report.unique_pct,
    }
    attempted = len(steps_ms) + sum(c.responses for c in gens) + len(evals)
    if failure:
        print(f"check failed: {failure}", file=sys.stderr, flush=True)
    print(f"{name} seed {seed}: {_clock() - t_start:.1f} s in all; "
          f"setup {sum(setup_times):.1f} s x{len(setup_times)}, "
          f"train {sum(j.seconds for j in jobs):.1f} s x{len(jobs)} jobs, "
          f"gen {sum(c.seconds for c in gens):.1f} s x{len(gens)}, "
          f"eval {sum(c.seconds for c in evals):.1f} s x{len(evals)}",
          file=sys.stderr, flush=True)

    if not traced:
        return failure is None, attempted, 0, {
            k: (v, END_TO_END_UNITS[k]) for k, v in e2e.items()}

    tracemalloc.start()
    lc.generate.generate(sess.model, sess.vocab, sess.gen_pairs,
                         **{**gen_args(sess, seed), "n": 1})
    peak_traced = tracemalloc.get_traced_memory()[1] / 2 ** 20
    tracemalloc.stop()
    extra = {
        "setups": SETUP_REPEATS,
        "checkpoint_bytes": os.path.getsize(jobs[-1].final),
        "gen_tokens": sum(c.tokens for c in gens),
        "gen_peak_traced_mb": peak_traced,
    }
    layer = spans.layer_metrics(tracer, extra)
    out_base = os.path.join(fixture.RUN_DIR, f"trace-{name}-s{seed}")
    tracer.write(out_base + ".spans.jsonl")
    with open(out_base + ".summary.json", "w", encoding="utf-8") as fh:
        json.dump({"end_to_end": e2e, "per_layer": layer}, fh, indent=1, sort_keys=True)
    return failure is None, attempted, 0, {
        k: (v, spans.unit_of(k)) for k, v in layer.items()}
