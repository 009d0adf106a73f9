import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentchat.errors import ConfigError, DataError
from latentchat.text import (
    DialoguePair,
    Rejected,
    Vocabulary,
    assemble_batch,
    bag_of_words,
    build_vocab,
    filter_pair,
    load_corpus,
    select_stopwords,
    standardize,
)
from latentchat.train import split_of, split_pairs


# ---------------------------------------------------------------------------
# standardisation


def test_standardize_url():
    assert standardize("Visit https://a.b/c now") == "visit <url> now"


def test_standardize_number():
    assert standardize("I paid 42 dollars") == "i paid <number> dollars"


def test_standardize_identity():
    assert standardize("hello") == "hello"


def test_standardize_punctuation_split():
    assert standardize("Hi, there!") == "hi , there !"


@given(st.text(max_size=60))
@settings(max_examples=100, deadline=None)
def test_standardize_idempotent(text):
    once = standardize(text)
    assert standardize(once) == once


# ---------------------------------------------------------------------------
# pair filtering


def test_overlong_prompt_rejected():
    prompt = " ".join(["word"] * 51)
    res = filter_pair(prompt, "ok")
    assert isinstance(res, Rejected) and res.reason == "too_long"


def test_non_roman_rejected():
    res = filter_pair("привет", "hello")
    assert isinstance(res, Rejected) and res.reason == "non_roman"


def test_small_pair_accepted():
    res = filter_pair("hi", "hello there")
    assert isinstance(res, DialoguePair)
    assert res.U == 1 and res.M == 2


def test_empty_rejected():
    res = filter_pair("", "hello")
    assert isinstance(res, Rejected) and res.reason == "empty"


def test_load_corpus_rejects_non_string_fields(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"prompt": "hi there", "response": "hello"}\n'
                    '{"prompt": 3, "response": "hello"}\n')
    with pytest.raises(DataError, match=r"c\.jsonl:2: 'prompt' must be a string, got int"):
        load_corpus(path)
    path.write_text('{"prompt": "hi there", "response": null}\n')
    with pytest.raises(DataError, match=r":1: 'response' must be a string"):
        load_corpus(path)


# ---------------------------------------------------------------------------
# vocabulary


def test_build_vocab_counts():
    vocab = build_vocab([("a a", "b")], 20)
    assert "a" in vocab.token_to_id and "b" in vocab.token_to_id
    # a (freq 2) ranks before b (freq 1)
    assert vocab.lookup("a") < vocab.lookup("b")


def test_document_frequency_full_coverage():
    corpus = [("x y", "z"), ("x q", "r"), ("x", "s")]
    vocab = build_vocab(corpus, 20)
    assert vocab.doc_freq["x"] == 3 == vocab.n_docs
    assert vocab.idf("x") == 0.0


def test_vocab_counts_match_independent_oracle():
    rng = np.random.default_rng(0)
    words = [f"t{i}" for i in range(12)]
    corpus = []
    for _ in range(10):
        p = " ".join(rng.choice(words, size=4))
        r = " ".join(rng.choice(words, size=5))
        corpus.append((p, r))
    vocab = build_vocab(corpus, 50)
    # independent doc-frequency count
    oracle = {}
    for p, r in corpus:
        for t in set((p + " " + r).split()):
            oracle[t] = oracle.get(t, 0) + 1
    for t, df in oracle.items():
        assert vocab.doc_freq[t] == df


def test_vocab_truncation_and_reserved_header():
    corpus = [("a a a b b c", "d")]
    vocab = build_vocab(corpus, 8)  # room for 2 real words
    assert len(vocab) == 8
    assert vocab.id_to_token[:6] == ["<pad>", "<s>", "</s>", "<unk>", "<number>", "<url>"]
    assert vocab.id_to_token[6:] == ["a", "b"]
    assert vocab.lookup("zzz") == 3  # unk


def test_vocab_save_load_roundtrip(tmp_path):
    vocab = build_vocab([("a a", "b c")], 20)
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    again = Vocabulary.load(path)
    assert again.id_to_token == vocab.id_to_token


def test_vocab_load_rejects_missing_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("a\nb\n")
    with pytest.raises(DataError):
        Vocabulary.load(path)


# ---------------------------------------------------------------------------
# stop-words


def test_stopword_everywhere_selected_first():
    corpus = [("x y", "z"), ("x q", "r"), ("x", "s")]
    vocab = build_vocab(corpus, 20)
    assert "x" in select_stopwords(vocab, 1)


def test_stopword_zero_count():
    vocab = build_vocab([("a", "b")], 20)
    assert select_stopwords(vocab, 0) == set()


def test_stopword_count_bound():
    vocab = build_vocab([("a", "b")], 20)
    with pytest.raises(ConfigError):
        select_stopwords(vocab, len(vocab))


def test_stopword_selection_matches_idf_sort_oracle():
    rng = np.random.default_rng(1)
    words = [f"s{i}" for i in range(20)]
    corpus = []
    for _ in range(30):
        chosen = rng.choice(words, size=rng.integers(2, 6), replace=False)
        corpus.append((" ".join(chosen[:1]), " ".join(chosen[1:])))
    vocab = build_vocab(corpus, 40)
    picked = select_stopwords(vocab, 5)
    real = vocab.id_to_token[6:]
    oracle = sorted(real, key=lambda t: (math.log(vocab.n_docs / vocab.doc_freq[t]), t))
    assert picked == set(oracle[:5])


def test_stopword_direction_flag():
    corpus = [("x y", "z"), ("x q", "r"), ("x", "s")]
    vocab = build_vocab(corpus, 20)
    rare = select_stopwords(vocab, 1, direction="highest")
    assert "x" not in rare


# ---------------------------------------------------------------------------
# batches


def test_gate_labels_from_stopwords():
    vocab = build_vocab([("see", "the cat")], 20)
    pair = filter_pair("see", "the cat", vocab)
    batch = assemble_batch([pair], vocab, {"the"})
    # final step is </s> with gate 0
    assert batch.gate_labels[0].tolist() == [0.0, 1.0, 0.0]


def test_batch_padding_and_mask():
    vocab = build_vocab([("a b", "c d e f")], 20)
    p1 = filter_pair("a", "c d", vocab)
    p2 = filter_pair("a b", "c d e f", vocab)
    batch = assemble_batch([p1, p2], vocab, set())
    assert batch.response.shape[1] == 5  # 4 + </s>
    assert int(batch.mask.sum()) == 3 + 5
    assert (batch.mask == 0).sum() == 2


def test_decoder_inputs_shift():
    vocab = build_vocab([("a", "b c")], 20)
    pair = filter_pair("a", "b c", vocab)
    batch = assemble_batch([pair], vocab, set())
    inp = batch.decoder_inputs()
    assert inp[0, 0] == 1  # <s>
    assert inp[0, 1:].tolist() == batch.response[0, :-1].tolist()


def test_bag_of_words_counts():
    vocab = build_vocab([("see", "cat cat dog")], 20)
    ids = vocab.encode(["cat", "cat", "dog"])
    bow = bag_of_words(ids, len(vocab))
    assert bow[vocab.lookup("cat")] == 2.0
    assert bow[vocab.lookup("dog")] == 1.0
    assert bow.sum() == 3.0


def test_bag_of_words_excludes_reserved():
    bow = bag_of_words(np.array([1, 2, 3, 7]), 10)
    assert bow[:6].sum() == 0.0 and bow[7] == 1.0


def test_empty_batch_rejected():
    vocab = build_vocab([("a", "b")], 20)
    with pytest.raises(DataError):
        assemble_batch([], vocab, set())


# ---------------------------------------------------------------------------
# corpus split


def test_split_is_deterministic_and_partitions():
    pairs = list(range(1000))
    splits = split_pairs(pairs)
    total = sum(len(v) for v in splits.values())
    assert total == 1000
    assert 700 < len(splits["train"]) < 900
    assert 50 < len(splits["dev"]) < 150
    assert 50 < len(splits["test"]) < 150
    assert split_of(5) == split_of(5)
