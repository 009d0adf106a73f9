"""Training loop: deterministic epoch shuffling, KL annealing, per-epoch
checkpoints and a JSON-lines metrics log, bit-exact resume."""

import json
import math
import os
import time

import numpy as np

from . import checkpoint as ckpt
from .errors import ConfigError, TrainingError
from .models import build_model
from .models.latent import AnnealSchedule
from .optim import Adam
from .text import assemble_batch

TRAIN, DEV, TEST = "train", "dev", "test"
# config keys a resumed run may change: the epoch budget and the paths
RESUMABLE_KEYS = ("epochs", "corpus", "checkpoint_dir")


def split_of(index):
    """Deterministic 80/10/10 split by hash of the pair index."""
    h = (index * 2654435761) % (2 ** 32) % 100
    if h < 80:
        return TRAIN
    return DEV if h < 90 else TEST


def split_pairs(pairs):
    out = {TRAIN: [], DEV: [], TEST: []}
    for i, p in enumerate(pairs):
        out[split_of(i)].append(p)
    return out


def epoch_rng(seed, epoch):
    """Per-epoch generator; resume only needs (seed, epoch), no history."""
    return np.random.default_rng(np.random.SeedSequence([seed, 7, epoch]))


class Trainer:
    def __init__(self, cfg, vocab, stopwords, train_pairs, out_dir):
        self.cfg = cfg
        self.vocab = vocab
        self.stopwords = stopwords
        self.pairs = train_pairs
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)
        self.model = build_model(cfg, np.random.default_rng(np.random.SeedSequence([cfg.seed, 3])))
        self.opt = Adam(
            self.model.params, lr=cfg.lr,
            halve_every=cfg.halve_lr_every or None,
        )
        self.steps_per_epoch = max(1, math.ceil(len(train_pairs) / cfg.batch_size))
        self.anneal = AnnealSchedule(cfg.anneal_steps or self.steps_per_epoch,
                                     enabled=cfg.kl_anneal)

    @property
    def last_path(self):
        return os.path.join(self.out_dir, "last.ckpt")

    @property
    def final_path(self):
        return os.path.join(self.out_dir, "final.ckpt")

    def _save(self, path, epoch):
        ckpt.save(
            path, self.model, optimizer=self.opt,
            rng_state={"seed": self.cfg.seed, "next_epoch": epoch},
            epoch=epoch,
            extra={"vocab_file": "vocab.txt", "stopword_file": "stopwords.txt"},
        )

    def _check_resume(self, path):
        """Refuse a config that differs from the checkpoint's outside
        RESUMABLE_KEYS: the run would no longer match an uninterrupted one."""
        trained = ckpt.config_from_header(ckpt.read_header(path), path).to_dict()
        now = self.cfg.to_dict()
        changed = [f"{k}: {trained[k]!r} -> {now[k]!r}" for k in now
                   if k not in RESUMABLE_KEYS and now[k] != trained[k]]
        if changed:
            raise ConfigError(f"cannot resume {path} with a changed config: "
                              + "; ".join(changed))

    def run(self, resume=None):
        start_epoch = 0
        if resume is not None:
            self._check_resume(resume)
            header = ckpt.load(resume, self.model, optimizer=self.opt)
            start_epoch = int(header["epoch"])
        log_path = os.path.join(self.out_dir, "train_log.jsonl")
        mode = "a" if start_epoch else "w"
        with open(log_path, mode, encoding="utf-8") as log:
            step = start_epoch * self.steps_per_epoch
            for epoch in range(start_epoch, self.cfg.epochs):
                rng = epoch_rng(self.cfg.seed, epoch)
                order = rng.permutation(len(self.pairs))
                t0 = time.time()
                tot = {"obj": 0.0, "recon": 0.0, "kl": 0.0, "gate": 0.0, "tokens": 0}
                n_batches = 0
                w = 1.0
                for lo in range(0, len(order), self.cfg.batch_size):
                    idx = order[lo : lo + self.cfg.batch_size]
                    batch = assemble_batch(
                        [self.pairs[i] for i in idx], self.vocab, self.stopwords
                    )
                    w = self.anneal.weight(step)
                    self.opt.zero_grad()
                    obj, stats = self.model.objective(
                        batch, w=w, training=True, rng=rng
                    )
                    if not np.isfinite(obj.data):
                        raise TrainingError(
                            f"non-finite objective at step {step}; "
                            f"last checkpoint retained at {self.last_path}"
                        )
                    obj.backward()
                    self.opt.step()
                    step += 1
                    n_batches += 1
                    tot["obj"] += float(obj.data)
                    for key in ("recon", "kl", "gate"):
                        tot[key] += stats[key]
                    tot["tokens"] += stats["tokens"]
                record = {
                    "epoch": epoch + 1,
                    "step": step,
                    "objective": tot["obj"] / n_batches,
                    "recon_nll": tot["recon"],
                    "kl": tot["kl"],
                    "gate_nll": tot["gate"],
                    "tokens": tot["tokens"],
                    "train_ppx": math.exp(min(700.0, tot["recon"] / max(tot["tokens"], 1))),
                    "anneal_weight": w,
                    "wall_time_s": round(time.time() - t0, 3),
                }
                log.write(json.dumps(record) + "\n")
                log.flush()
                self._save(self.last_path, epoch + 1)
        self._save(self.final_path, self.cfg.epochs)
        return self.final_path
