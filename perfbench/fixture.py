"""The trained ltcm checkpoints that the workloads decode from.

It is trained by the code under test, from a fixed seed, in a child
process of its own (so its memory does not count towards the measuring
process), once per source tree: the cache key hashes every file of the
package and this file.  Nothing of it is committed.

Run as a script, it trains one fixture into the directory given:

    python3 perfbench/fixture.py --name narrow|wide --out DIR
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(HERE, "_run")

FIXTURE_SEED = 0


@dataclass(frozen=True)
class Fixture:
    clusters: int
    n_pairs: int
    epochs: int


FIXTURES = {
    # 1600 training pairs (100 desk steps per epoch), about 200 test prompts
    "narrow": Fixture(clusters=3, n_pairs=2000, epochs=6),
    # 800 training pairs over 200 clusters, V about 960, about 100 test
    # prompts; after 6 epochs temperature-1 sampling still rambled to
    # max_len now and then, which made the decoding work vary by seed
    "wide": Fixture(clusters=200, n_pairs=1000, epochs=20),
}


def pin_threads():
    """One BLAS thread: the desk matrices are too small to gain from more,
    and on a shared host a second thread only adds jitter.  Must run before
    numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def corpus(clusters, n_pairs, seed):
    """Raw (prompt, response) pairs of a synthetic corpus."""
    from latentchat import synth

    records, _ = synth.make_corpus(
        synth.SyntheticSpec(n_clusters=clusters, n_pairs=n_pairs, seed=seed))
    return [(r["prompt"], r["response"]) for r in records]


def desk_config(family, vocab_size, epochs):
    """The desk preset for one model family, sized to the vocabulary."""
    from latentchat.config import RunConfig, apply_preset

    cfg = apply_preset(RunConfig(model=family, epochs=epochs), "desk")
    return RunConfig.from_dict({**cfg.to_dict(), "vocab_size": vocab_size})


def vocabulary(raw):
    """Vocabulary and stop-words as the train command builds them."""
    from latentchat import text
    from latentchat.config import RunConfig, apply_preset

    base = apply_preset(RunConfig(), "desk")
    vocab = text.build_vocab(raw, base.vocab_size, max_len=base.max_len)
    stop = text.select_stopwords(vocab, base.stopword_n, direction=base.stopword_direction)
    return vocab, stop


def train_split(raw, vocab):
    from latentchat import text, train

    return train.split_pairs(text.encode_corpus(raw, vocab))


def read_vocabulary(fixture_dir):
    """Vocabulary and stop-words as written next to the checkpoint."""
    from latentchat.text import Vocabulary

    vocab = Vocabulary.load(os.path.join(fixture_dir, "vocab.txt"))
    with open(os.path.join(fixture_dir, "stopwords.txt"), encoding="utf-8") as fh:
        stop = {line.strip() for line in fh if line.strip()}
    return vocab, stop


def fixture_corpus(name):
    fx = FIXTURES[name]
    return corpus(fx.clusters, fx.n_pairs, FIXTURE_SEED)


def fixture_key(name):
    h = hashlib.sha256(name.encode())
    pkg = os.path.join(SRC, "latentchat")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    with open(os.path.abspath(__file__), "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()[:16]


def ensure_fixture(name):
    """Directory of the trained fixture, training it first if needed."""
    path = os.path.join(RUN_DIR, f"fixture-{name}-{fixture_key(name)}")
    if os.path.isfile(os.path.join(path, "final.ckpt")):
        return path
    tmp = path + f".tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    subprocess.run([sys.executable, os.path.abspath(__file__), "--name", name, "--out", tmp],
                   check=True, timeout=800, stdout=subprocess.DEVNULL)
    os.replace(tmp, path)
    return path


def build(name, out):
    from latentchat.train import Trainer

    raw = fixture_corpus(name)
    vocab, stop = vocabulary(raw)
    os.makedirs(out, exist_ok=True)
    vocab.save(os.path.join(out, "vocab.txt"))
    with open(os.path.join(out, "stopwords.txt"), "w", encoding="utf-8") as fh:
        fh.writelines(w + "\n" for w in sorted(stop))
    cfg = desk_config("ltcm", len(vocab), FIXTURES[name].epochs)
    Trainer(cfg, vocab, stop, train_split(raw, vocab)["train"], out).run()


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--name", required=True, choices=sorted(FIXTURES))
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    pin_threads()
    sys.path.insert(0, SRC)
    build(args.name, args.out)
