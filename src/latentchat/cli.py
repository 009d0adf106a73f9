"""Command-line front end: train, generate, evaluate, topics, synth.

Exit codes: 0 success, 1 configuration error, 2 data, input, checkpoint
or shape error (and a missing file), 3 numeric or training failure; each
error class carries its code (see errors.py).
"""

import argparse
import os
import sys

import numpy as np

from . import checkpoint as ckpt
from .config import RunConfig, apply_preset
from .errors import CheckpointError, ConfigError, DataError, InputError, LatentChatError
from .generate import default_latent, generate
from .metrics import evaluate, gate_analysis, write_generations, write_report
from .models import build_model
from .models.topic import top_words_per_topic
from .synth import SyntheticSpec, write_corpus
from .text import (
    DialoguePair,
    Vocabulary,
    build_vocab,
    encode_corpus,
    filter_pair,
    load_corpus,
    select_stopwords,
)
from .train import Trainer, split_pairs


def _add_common(p):
    p.add_argument("--config", help="YAML/flat key-value run configuration")
    p.add_argument("--preset", choices=("paper", "desk"), help="named size preset")
    p.add_argument("--seed", type=int, help="override the configured seed")
    p.add_argument("--out", help="output directory")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="latentchat",
        description="Train, sample, and evaluate small conversational models.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a model and write checkpoints")
    _add_common(t)
    t.add_argument("--corpus", help="JSONL corpus (overrides config)")
    t.add_argument("--resume", help="checkpoint to resume from")

    g = sub.add_parser("generate", help="decode responses for prompts")
    g.add_argument("--checkpoint", required=True)
    g.add_argument("--prompts", required=True, help="text file, one prompt per line")
    g.add_argument("--n", type=int, default=5, help="responses per prompt")
    g.add_argument("--strategy", choices=("greedy", "sample"), default="greedy")
    g.add_argument("--temperature", type=float, default=1.0)
    g.add_argument("--latent", choices=("none", "prior", "conditional"))
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", help="write JSONL here instead of stdout")

    e = sub.add_parser("evaluate", help="metrics report over a corpus split")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--corpus", required=True)
    e.add_argument("--split", choices=("train", "dev", "test", "all"), default="test")
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--strategy", choices=("greedy", "sample"))
    e.add_argument("--latent", choices=("none", "prior", "conditional"))
    e.add_argument("--gates", action="store_true",
                   help="also print per-word gate probabilities")
    e.add_argument("--out", help="report directory")

    w = sub.add_parser("topics", help="top words per topic column")
    w.add_argument("--checkpoint", required=True)
    w.add_argument("--k-words", type=int, default=10)
    w.add_argument("--corpus", help="also print the gate table over this corpus")

    s = sub.add_parser("synth", help="generate a synthetic topical corpus")
    s.add_argument("--out", required=True, help="output directory")
    s.add_argument("--n-pairs", type=int, default=200)
    s.add_argument("--clusters", type=int, default=3)
    s.add_argument("--words-per-cluster", type=int, default=10)
    s.add_argument("--seed", type=int, default=0)
    return ap


def _train_config(args):
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    if args.preset:
        cfg = apply_preset(cfg, args.preset)
    if args.seed is not None:
        cfg = RunConfig.from_dict({**cfg.to_dict(), "seed": args.seed})
    if args.corpus:
        cfg = RunConfig.from_dict({**cfg.to_dict(), "corpus": args.corpus})
    if args.out:
        cfg = RunConfig.from_dict({**cfg.to_dict(), "checkpoint_dir": args.out})
    if not cfg.corpus:
        raise ConfigError("no corpus given (config key 'corpus' or --corpus)")
    if not cfg.checkpoint_dir:
        raise ConfigError("no output directory given (config key 'checkpoint_dir' or --out)")
    return cfg


def cmd_train(args):
    cfg = _train_config(args)
    raw = load_corpus(cfg.corpus)
    out_dir = cfg.checkpoint_dir
    os.makedirs(out_dir, exist_ok=True)
    if args.resume:
        vocab, stopwords = _read_vocabulary(args.resume, ckpt.read_header(args.resume))
    else:
        vocab = build_vocab(raw, cfg.vocab_size, max_len=cfg.max_len)
        stopwords = select_stopwords(vocab, cfg.stopword_n, direction=cfg.stopword_direction)
    # the checkpoints written to out_dir name these two files
    vocab.save(os.path.join(out_dir, "vocab.txt"))
    with open(os.path.join(out_dir, "stopwords.txt"), "w", encoding="utf-8") as fh:
        fh.writelines(w + "\n" for w in sorted(stopwords))
    if len(vocab) != cfg.vocab_size:
        # corpus has fewer types than requested; logits must match the vocab
        cfg = RunConfig.from_dict({**cfg.to_dict(), "vocab_size": len(vocab)})
    pairs = encode_corpus(raw, vocab, max_len=cfg.max_len)
    train_pairs = pairs if cfg.split == "all" else split_pairs(pairs)["train"]
    if not train_pairs:
        raise DataError("training split is empty")
    trainer = Trainer(cfg, vocab, stopwords, train_pairs, out_dir)
    final = trainer.run(resume=args.resume)
    print(f"trained {cfg.model} for {cfg.epochs} epochs -> {final}")
    return 0


def _read_vocabulary(checkpoint_path, header):
    """The vocabulary and stop-words beside a checkpoint, as its header
    names them, checked against the vocabulary size it was trained on."""
    vocab_size = ckpt.config_from_header(header, checkpoint_path).vocab_size
    base = os.path.dirname(os.path.abspath(checkpoint_path))
    extra = header.get("extra") or {}
    vocab_path = os.path.join(base, extra.get("vocab_file", "vocab.txt"))
    vocab = Vocabulary.load(vocab_path)
    if len(vocab) != vocab_size:
        raise CheckpointError(
            f"{vocab_path}: {len(vocab)} tokens, but {checkpoint_path} "
            f"was trained on {vocab_size}")
    stop_path = os.path.join(base, extra.get("stopword_file", "stopwords.txt"))
    with open(stop_path, encoding="utf-8") as fh:
        stopwords = {line.strip() for line in fh if line.strip()}
    unknown = sorted(stopwords - set(vocab.id_to_token))
    if unknown:
        raise CheckpointError(
            f"{stop_path}: stop-words not in {vocab_path}: {' '.join(unknown[:5])}")
    return vocab, stopwords


def _load_bundle(checkpoint_path):
    header = ckpt.read_header(checkpoint_path)
    cfg = ckpt.config_from_header(header, checkpoint_path)
    model = build_model(cfg, np.random.default_rng(np.random.SeedSequence([cfg.seed, 3])))
    ckpt.load(checkpoint_path, model)
    vocab, stopwords = _read_vocabulary(checkpoint_path, header)
    return model, vocab, stopwords, cfg


def cmd_generate(args):
    model, vocab, stopwords, cfg = _load_bundle(args.checkpoint)
    with open(args.prompts, encoding="utf-8") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if not lines:
        raise InputError(f"{args.prompts}: no prompts")
    pairs = []
    for line in lines:
        res = filter_pair(line, "x", vocab, max_len=cfg.max_len)
        if not isinstance(res, DialoguePair):
            raise InputError(f"prompt rejected ({res.reason}): {line}")
        pairs.append(res)
    samples = generate(
        model, vocab, pairs,
        strategy=args.strategy, temperature=args.temperature,
        latent=args.latent or default_latent(model),
        n=args.n, seed=args.seed, max_len=cfg.max_len, gate_mode=cfg.gate_mode,
        prompt_texts=lines,
    )
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "generations.jsonl")
        write_generations(samples, path)
        print(path)
    else:
        for s in samples:
            for r in s.responses:
                print(f"{s.prompt}\t{' '.join(r)}")
    return 0


def cmd_evaluate(args):
    model, vocab, stopwords, cfg = _load_bundle(args.checkpoint)
    raw = load_corpus(args.corpus)
    pairs = encode_corpus(raw, vocab, max_len=cfg.max_len)
    if args.split != "all":
        pairs = split_pairs(pairs)[args.split]
    if not pairs:
        raise DataError(f"split '{args.split}' of {args.corpus} is empty")
    report = evaluate(
        model, vocab, stopwords, pairs,
        seed=args.seed, strategy=args.strategy, latent=args.latent,
    )
    for k, v in report.as_dict().items():
        print(f"{k}: {v}")
    if args.gates:
        if model.kind != "ltcm":
            raise ConfigError("gate analysis needs a topic-gated checkpoint")
        for tok, pct in gate_analysis(model, vocab, stopwords, pairs):
            print(f"gate {tok}: {pct:.2f}")
    if args.out:
        write_report(report, args.out)
    return 0


def cmd_topics(args):
    model, vocab, stopwords, cfg = _load_bundle(args.checkpoint)
    if not hasattr(model, "beta"):
        raise ConfigError(f"checkpoint holds a '{model.kind}' model with no topic matrix")
    k_words = args.k_words
    if k_words > len(vocab):
        print(f"warning: --k-words {k_words} clamped to vocab size {len(vocab)}",
              file=sys.stderr)
        k_words = len(vocab)
    if k_words <= 0:
        raise ConfigError("--k-words must be positive")
    for kcol, words in enumerate(top_words_per_topic(model.beta.data, vocab, k_words)):
        print(f"topic {kcol}: {' '.join(words)}")
    if args.corpus:
        if model.kind != "ltcm":
            raise ConfigError("gate table needs a topic-gated checkpoint")
        pairs = encode_corpus(load_corpus(args.corpus), vocab, max_len=cfg.max_len)
        if not pairs:
            raise DataError(f"{args.corpus}: no usable pairs")
        for tok, pct in gate_analysis(model, vocab, stopwords, pairs):
            print(f"gate {tok}: {pct:.2f}")
    return 0


def cmd_synth(args):
    spec = SyntheticSpec(
        n_clusters=args.clusters,
        words_per_cluster=args.words_per_cluster,
        n_pairs=args.n_pairs,
        seed=args.seed,
    )
    os.makedirs(args.out, exist_ok=True)
    corpus = os.path.join(args.out, "corpus.jsonl")
    truth = os.path.join(args.out, "clusters.jsonl")
    write_corpus(spec, corpus, truth)
    print(corpus)
    return 0


_COMMANDS = {
    "train": cmd_train,
    "generate": cmd_generate,
    "evaluate": cmd_evaluate,
    "topics": cmd_topics,
    "synth": cmd_synth,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except LatentChatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
