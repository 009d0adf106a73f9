import numpy as np
import pytest

from latentchat.config import RunConfig
from latentchat.models import build_model
from latentchat.text import DialoguePair, Vocabulary, assemble_batch


def tiny_cfg(model="s2s", **kw):
    """Smallest configuration that exercises every architectural feature."""
    base = dict(
        model=model, n_layers=2, d=6, d_emb=5, k=2, K=3, vocab_size=14,
        mlp_hidden=4, batch_size=2, dropout=0.0,
        residual_start=2, stopword_n=2, seed=0,
    )
    base.update(kw)
    return RunConfig.from_dict(base)


def tiny_vocab(size=14):
    return Vocabulary([f"w{i}" for i in range(size - 6)])


def tiny_pairs(vocab, rng=None, n=2, u=3, m=4):
    rng = rng or np.random.default_rng(0)
    out = []
    for _ in range(n):
        p = rng.integers(6, len(vocab), size=u).astype(np.int64)
        r = rng.integers(6, len(vocab), size=m).astype(np.int64)
        out.append(DialoguePair(p, r,
                                [vocab.token_of(i) for i in p],
                                [vocab.token_of(i) for i in r]))
    return out


def tiny_batch(vocab, stopwords=frozenset(), **kw):
    return assemble_batch(tiny_pairs(vocab, **kw), vocab, stopwords)


def make_model(cfg):
    return build_model(cfg, np.random.default_rng(np.random.SeedSequence([cfg.seed, 3])))


@pytest.fixture
def vocab():
    return tiny_vocab()
