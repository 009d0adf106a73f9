"""Corpus ingestion: standardisation, vocabulary, IDF stop-words, batches.

Corpus files are JSON lines with string fields "prompt" and "response".
Vocabulary files are one token per line, line number = id, with the
reserved tokens first in fixed order.

Standardisation runs its regexes over the whole text, not chunk by
chunk, and gives what the chunk rule gives: of the whitespace-separated
chunks, a reserved token is kept, a number becomes <number>, and any
other chunk splits into runs of [a-z0-9_] and single other characters,
the all-digit ones becoming <number>. Lookarounds on whitespace stand in
for the chunk edges; regex whitespace and str.split's are the same set
of characters.
"""

import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError

PAD, BOS, EOS, UNK, NUM, URL = "<pad>", "<s>", "</s>", "<unk>", "<number>", "<url>"
RESERVED = [PAD, BOS, EOS, UNK, NUM, URL]
N_RESERVED = len(RESERVED)

_URL_RE = re.compile(r"(?:[a-z][a-z0-9+.\-]*://\S+|www\.\S+)")
# a whole chunk that is a number
_NUMBER_RE = re.compile(r"(?<!\S)[+-]?\d+(?:\.\d+)?(?!\S)")
# a whole chunk that is a reserved token, else one piece of a chunk
_TOKEN_RE = re.compile(r"<(?<!\S<)(?:pad|s|/s|unk|number|url)>(?!\S)|[a-z0-9_]+|[^a-z0-9_\s]")


def standardize(text):
    """Lowercase, map URLs/numbers to placeholders, split punctuation.

    Idempotent: placeholders and already-split tokens pass through.
    """
    text = text.lower()
    # the URL pattern cannot match without one of these
    if "://" in text or "www." in text:
        text = _URL_RE.sub(f" {URL} ", text)
    tokens = _TOKEN_RE.findall(_NUMBER_RE.sub(NUM, text))
    return " ".join([NUM if t.isdigit() else t for t in tokens])


def is_roman(text):
    """Whether every letter of text is one of a-z."""
    if text.isascii():
        # the only ASCII letters are A-Z and a-z
        return text.lower() == text
    return all(not ch.isalpha() or "a" <= ch <= "z" for ch in text)


class Vocabulary:
    """Dense token<->id map; reserved tokens occupy ids 0..5."""

    def __init__(self, tokens, doc_freq=None, n_docs=0):
        self.id_to_token = list(RESERVED) + [t for t in tokens if t not in RESERVED]
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        self.doc_freq = dict(doc_freq or {})
        self.n_docs = n_docs

    def __len__(self):
        return len(self.id_to_token)

    def lookup(self, token):
        return self.token_to_id.get(token, self.token_to_id[UNK])

    def token_of(self, idx):
        return self.id_to_token[idx]

    def encode(self, tokens):
        get, unk = self.token_to_id.get, self.token_to_id[UNK]
        return np.array([get(t, unk) for t in tokens], dtype=np.int64)

    def idf(self, token):
        df = self.doc_freq.get(token, 0)
        if df == 0 or self.n_docs == 0:
            return math.inf
        return math.log(self.n_docs / df)

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for tok in self.id_to_token:
                fh.write(tok + "\n")

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as fh:
            tokens = [line.rstrip("\n") for line in fh]
        if tokens[:N_RESERVED] != RESERVED:
            raise DataError(f"vocabulary file {path} lacks the reserved-token header")
        return cls(tokens[N_RESERVED:])


@dataclass
class DialoguePair:
    prompt_ids: np.ndarray
    response_ids: np.ndarray
    prompt_tokens: list = field(default_factory=list)
    response_tokens: list = field(default_factory=list)

    @property
    def U(self):
        return len(self.prompt_ids) or len(self.prompt_tokens)

    @property
    def M(self):
        return len(self.response_ids) or len(self.response_tokens)


@dataclass
class Rejected:
    reason: str  # "too_long" | "non_roman" | "empty"


def filter_pair(prompt, response, vocab=None, max_len=50):
    """Standardise and screen one raw pair.

    Returns a DialoguePair (ids filled in when a vocabulary is given)
    or a Rejected carrying the reason code.
    """
    p = standardize(prompt)
    r = standardize(response)
    if not is_roman(p) or not is_roman(r):
        return Rejected("non_roman")
    p_toks = p.split()
    r_toks = r.split()
    if not p_toks or not r_toks:
        return Rejected("empty")
    if len(p_toks) > max_len or len(r_toks) > max_len:
        return Rejected("too_long")
    if vocab is None:
        return DialoguePair(np.array([], dtype=np.int64), np.array([], dtype=np.int64),
                            p_toks, r_toks)
    return DialoguePair(vocab.encode(p_toks), vocab.encode(r_toks), p_toks, r_toks)


def build_vocab(corpus, size, max_len=50):
    """Count tokens over accepted (prompt, response) raw-string pairs and
    keep the `size - len(RESERVED)` most frequent, ties lexicographic.

    One pair = one document for the document frequencies.
    """
    if size <= N_RESERVED:
        raise ConfigError(f"vocab size {size} must exceed {N_RESERVED} reserved slots")
    term_freq = Counter()
    doc_freq = Counter()
    n_docs = 0
    for prompt, response in corpus:
        pair = filter_pair(prompt, response, max_len=max_len)
        if isinstance(pair, Rejected):
            continue
        n_docs += 1
        toks = pair.prompt_tokens + pair.response_tokens
        term_freq.update(toks)
        doc_freq.update(set(toks))
    if n_docs == 0:
        raise DataError("corpus has no accepted pairs")
    for t in RESERVED:
        term_freq.pop(t, None)
    ranked = sorted(term_freq, key=lambda t: (-term_freq[t], t))
    kept = ranked[: size - N_RESERVED]
    vocab = Vocabulary(sorted(kept, key=lambda t: (-term_freq[t], t)))
    vocab.doc_freq = dict(doc_freq)
    vocab.n_docs = n_docs
    return vocab


def select_stopwords(vocab, n, direction="lowest"):
    """The n non-reserved in-vocabulary words at the `direction` end of the
    IDF ranking (idf = ln(N/df)); reserved tokens are implicit stop-words
    and are not part of the returned set or the count."""
    if n >= len(vocab):
        raise ConfigError(f"stop-word count {n} must be below vocab size {len(vocab)}")
    words = vocab.id_to_token[N_RESERVED:]
    sign = 1.0 if direction == "lowest" else -1.0
    ranked = sorted(words, key=lambda t: (sign * vocab.idf(t), t))
    return set(ranked[:n])


@dataclass
class Batch:
    prompt: np.ndarray        # [B, U_max] int ids, pad = 0
    prompt_len: np.ndarray    # [B]
    response: np.ndarray      # [B, T] targets y_1..y_M,</s>, pad = 0
    mask: np.ndarray          # [B, T] 1.0 on real target steps
    gate_labels: np.ndarray   # [B, T] 1.0 = topic word
    bow_prompt: np.ndarray    # [B, L] counts over non-reserved ids
    bow_response: np.ndarray  # [B, L]

    @property
    def size(self):
        return self.prompt.shape[0]

    @property
    def n_tokens(self):
        return int(self.mask.sum())

    def decoder_inputs(self):
        """Teacher-forcing inputs: <s>, y_1 .. y_M (shifted targets)."""
        inp = np.zeros_like(self.response)
        inp[:, 0] = 1  # <s>
        inp[:, 1:] = self.response[:, :-1]
        return inp


def bag_of_words(ids, lengths, vocab_size):
    """Counts of the non-reserved ids of each row, [len(lengths), vocab_size];
    ids holds the rows end to end, lengths[r] of them in row r."""
    n_rows = len(lengths)
    rows = np.repeat(np.arange(n_rows), lengths)
    real = ids >= N_RESERVED
    slots = rows[real] * vocab_size + ids[real]
    # the counts are small integers, exact in float64
    bow = np.bincount(slots, minlength=n_rows * vocab_size).astype(np.float64)
    return bow.reshape(n_rows, vocab_size)


def assemble_batch(pairs, vocab, stopwords):
    """Pad a list of DialoguePairs to a Batch; gate labels from the
    stop-word set (reserved tokens always 0)."""
    if not pairs:
        raise DataError("cannot assemble an empty batch")
    L = len(vocab)
    b = len(pairs)
    p_ids = np.concatenate([p.prompt_ids for p in pairs])
    r_ids = np.concatenate([p.response_ids for p in pairs])
    if np.any(p_ids == 0) or np.any(r_ids == 0):
        raise DataError("pair contains <pad> inside the unpadded region")
    prompt_len = np.array([p.U for p in pairs], dtype=np.int64)
    r_len = np.array([p.M for p in pairs], dtype=np.int64)
    u_max = int(prompt_len.max())
    t_max = int(r_len.max()) + 1  # room for </s>
    # a boolean-mask store fills row by row, the order of the concatenation
    p_real = np.arange(u_max) < prompt_len[:, None]
    r_real = np.arange(t_max) < r_len[:, None]
    prompt = np.zeros((b, u_max), dtype=np.int64)
    prompt[p_real] = p_ids
    response = np.zeros((b, t_max), dtype=np.int64)
    response[r_real] = r_ids
    eos = 2
    response[np.arange(b), r_len] = eos
    mask = (np.arange(t_max) < r_len[:, None] + 1).astype(np.float64)
    topic = np.ones(L, dtype=bool)
    topic[:N_RESERVED] = False
    ids = vocab.token_to_id
    topic[[ids[w] for w in stopwords if w in ids]] = False
    gate = np.zeros((b, t_max))
    gate[r_real] = topic[r_ids]
    bow_p = bag_of_words(p_ids, prompt_len, L)
    bow_r = bag_of_words(r_ids, r_len, L)
    return Batch(prompt, prompt_len, response, mask, gate, bow_p, bow_r)


def load_corpus(path):
    """Raw (prompt, response) string pairs from a JSON-lines file."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for ln, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                prompt, response = rec["prompt"], rec["response"]
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise DataError(f"{path}:{ln}: bad corpus record: {exc}") from exc
            for field, value in (("prompt", prompt), ("response", response)):
                if not isinstance(value, str):
                    raise DataError(
                        f"{path}:{ln}: '{field}' must be a string, "
                        f"got {type(value).__name__}"
                    )
            out.append((prompt, response))
    return out


def encode_corpus(raw_pairs, vocab, max_len=50):
    """Filter + encode raw pairs; rejections are dropped."""
    pairs = []
    for prompt, response in raw_pairs:
        res = filter_pair(prompt, response, vocab, max_len=max_len)
        if isinstance(res, DialoguePair):
            pairs.append(res)
    return pairs
