import json
import os
import re
import struct

import numpy as np
import pytest

from conftest import make_model, tiny_cfg
from latentchat import checkpoint as ckpt
from latentchat import cli, errors
from latentchat.cli import main
from latentchat.config import RunConfig, apply_preset
from latentchat.errors import CheckpointError, ConfigError
from latentchat.optim import Adam
from latentchat.synth import FUNCTION_WORDS, SyntheticSpec, make_corpus
from latentchat.text import build_vocab, select_stopwords


# ---------------------------------------------------------------------------
# config


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="bogus"):
        RunConfig.from_dict({"bogus": 1})


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("model: ltcm\nd: 32\nepochs: 3\n")
    cfg = RunConfig.from_file(path)
    assert cfg.model == "ltcm" and cfg.d == 32 and cfg.epochs == 3


def test_presets():
    paper = apply_preset(RunConfig(), "paper")
    assert paper.n_layers == 4 and paper.d == 500 and paper.batch_size == 128
    desk = apply_preset(RunConfig(), "desk")
    assert desk.d == 64 and desk.vocab_size == 2000
    with pytest.raises(ConfigError):
        apply_preset(RunConfig(), "giant")


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(d=7)
    with pytest.raises(ConfigError):
        RunConfig(model="transformer")
    with pytest.raises(ConfigError):
        RunConfig(dropout=1.5)
    bad_values = (
        dict(lr="1e-3"), dict(lr=0.0), dict(lr=float("inf")), dict(lr=float("nan")),
        dict(epochs=1.5), dict(epochs=-1), dict(batch_size=0), dict(n_layers=0),
        dict(model="ltcm", K=0), dict(d="abc"), dict(d=2), dict(d=True),
        dict(seed=-1), dict(kl_anneal="yes"), dict(corpus=3), dict(split="bogus"),
        dict(lambda_l2=-5.0), dict(lambda_ma=-1e-3),
    )
    for bad in bad_values:
        with pytest.raises(ConfigError, match=f"'{list(bad)[-1]}'"):
            RunConfig(**bad)
    RunConfig(lr=1, dropout=0)  # an integer is a valid float


# ---------------------------------------------------------------------------
# checkpoint format


def test_checkpoint_save_load_save_byte_identical(tmp_path):
    cfg = tiny_cfg("ltcm")
    model = make_model(cfg)
    opt = Adam(model.params)
    p1 = tmp_path / "a.ckpt"
    ckpt.save(p1, model, optimizer=opt, rng_state={"seed": 0, "next_epoch": 0},
              epoch=0, extra={"vocab_file": "vocab.txt"})
    model2 = make_model(cfg)
    for p in model2.params.values():
        p.data[...] = 0.0
    opt2 = Adam(model2.params)
    header = ckpt.load(p1, model2, optimizer=opt2)
    p2 = tmp_path / "b.ckpt"
    ckpt.save(p2, model2, optimizer=opt2, rng_state=header["rng"],
              epoch=header["epoch"], extra=header["extra"])
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_shape_mismatch_lists_shapes(tmp_path):
    small = make_model(tiny_cfg("s2s", d=6))
    path = tmp_path / "small.ckpt"
    ckpt.save(path, small)
    big = make_model(tiny_cfg("s2s", d=8))
    with pytest.raises(CheckpointError, match=r"\(6,") as err:
        ckpt.load(path, big)
    assert "vs" in str(err.value)


def test_checkpoint_config_echo_parses_back(tmp_path):
    cfg = tiny_cfg("lvs2s", epochs=4)
    model = make_model(cfg)
    path = tmp_path / "m.ckpt"
    ckpt.save(path, model)
    again = ckpt.config_from_header(ckpt.read_header(path))
    assert again == cfg


def _with_config_echo(src, dst, keys):
    """Copy checkpoint `src` to `dst` with `keys` set in its config echo."""
    blob = src.read_bytes()
    start = len(ckpt.MAGIC) + 8
    (n,) = struct.unpack("<Q", blob[len(ckpt.MAGIC):start])
    header = json.loads(blob[start:start + n])
    header["config"].update(keys)
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    dst.write_bytes(ckpt.MAGIC + struct.pack("<Q", len(head)) + head + blob[start + n:])


def test_checkpoint_magic_guard(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(CheckpointError):
        ckpt.read_header(path)


def test_checkpoint_truncation_and_padding_rejected(tmp_path):
    cfg = tiny_cfg("ltcm")
    model = make_model(cfg)
    path = tmp_path / "m.ckpt"
    ckpt.save(path, model)
    blob = path.read_bytes()
    header_end = len(ckpt.MAGIC) + 8
    # inside the magic, inside the header, inside the payload
    for cut in (len(ckpt.MAGIC) - 3, header_end + 10, len(blob) - 5):
        bad = tmp_path / f"cut{cut}.ckpt"
        bad.write_bytes(blob[:cut])
        with pytest.raises(CheckpointError, match=re.escape(str(bad))):
            ckpt.load(bad, make_model(cfg))
    longer = tmp_path / "long.ckpt"
    longer.write_bytes(blob + bytes(8))
    with pytest.raises(CheckpointError, match="payload"):
        ckpt.load(longer, make_model(cfg))
    # a length field cut short, and a header that is JSON but not an object
    short_len = tmp_path / "len.ckpt"
    short_len.write_bytes(ckpt.MAGIC + b"\x05\x00")
    with pytest.raises(CheckpointError, match="header length"):
        ckpt.read_header(short_len)
    listed = tmp_path / "list.ckpt"
    listed.write_bytes(ckpt.MAGIC + struct.pack("<Q", 2) + b"[]")
    with pytest.raises(CheckpointError, match="JSON object"):
        ckpt.read_header(listed)
    # an entry whose offset points past the payload
    (n,) = struct.unpack("<Q", blob[len(ckpt.MAGIC):header_end])
    header = ckpt.read_header(path)
    header["params"][0]["offset"] = 10**6
    head = json.dumps(header).encode()
    moved = tmp_path / "moved.ckpt"
    moved.write_bytes(ckpt.MAGIC + struct.pack("<Q", len(head)) + head
                      + blob[header_end + n:])
    with pytest.raises(CheckpointError, match="parameter table"):
        ckpt.load(moved, make_model(cfg))


def test_checkpoint_save_is_atomic(tmp_path, monkeypatch):
    cfg = tiny_cfg("lvs2s")
    model = make_model(cfg)
    path = tmp_path / "last.ckpt"
    ckpt.save(path, model)
    before = path.read_bytes()
    saved = {k: p.data.copy() for k, p in model.params.items()}

    for p in model.params.values():
        p.data += 1.0
    real = np.ascontiguousarray
    calls = []

    def fail_on_third_array(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise OSError("disk full")
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "ascontiguousarray", fail_on_third_array)
    with pytest.raises(OSError, match="disk full"):
        ckpt.save(path, model)
    monkeypatch.undo()

    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["last.ckpt"]
    fresh = make_model(cfg)
    ckpt.load(path, fresh)
    for k, p in fresh.params.items():
        assert np.array_equal(p.data, saved[k]), k


# ---------------------------------------------------------------------------
# synthetic corpus


def test_synth_deterministic():
    spec = SyntheticSpec(n_pairs=40, seed=5)
    assert make_corpus(spec) == make_corpus(spec)


def test_synth_rejects_zero_counts():
    with pytest.raises(ConfigError):
        SyntheticSpec(n_clusters=0)
    with pytest.raises(ConfigError):
        SyntheticSpec(words_per_cluster=0)


def test_synth_cluster_purity():
    spec = SyntheticSpec(n_clusters=3, n_pairs=60)
    records, truth = make_corpus(spec)
    for rec, t in zip(records, truth):
        cluster = set(t["cluster_words"])
        for tok in rec["response"].split():
            if tok not in FUNCTION_WORDS and tok != ",":
                assert tok in cluster


def test_synth_stopword_recovery():
    spec = SyntheticSpec(n_clusters=3, n_pairs=200)
    records, _ = make_corpus(spec)
    vocab = build_vocab([(r["prompt"], r["response"]) for r in records], 2000)
    picked = select_stopwords(vocab, len(FUNCTION_WORDS))
    assert picked == set(FUNCTION_WORDS)


# ---------------------------------------------------------------------------
# end-to-end commands


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert main(["synth", "--out", str(data), "--n-pairs", "80", "--seed", "0"]) == 0
    cfg = root / "s2s.yaml"
    cfg.write_text(
        "model: s2s\nd: 16\nd_emb: 16\nvocab_size: 100\nbatch_size: 16\n"
        "epochs: 2\ndropout: 0.0\nstopword_n: 8\nseed: 0\n"
    )
    out = root / "s2s"
    assert main(["train", "--config", str(cfg), "--corpus",
                 str(data / "corpus.jsonl"), "--out", str(out)]) == 0
    return root


def test_train_writes_artifacts(workspace):
    out = workspace / "s2s"
    for name in ("final.ckpt", "last.ckpt", "vocab.txt", "stopwords.txt",
                 "train_log.jsonl"):
        assert (out / name).exists(), name
    records = [json.loads(l) for l in (out / "train_log.jsonl").read_text().splitlines()]
    assert [r["epoch"] for r in records] == [1, 2]
    for r in records:
        assert set(r) >= {"step", "objective", "recon_nll", "kl",
                          "anneal_weight", "wall_time_s", "train_ppx"}


def test_training_perplexity_nonincreasing(workspace):
    records = [json.loads(l) for l in
               (workspace / "s2s" / "train_log.jsonl").read_text().splitlines()]
    assert records[1]["train_ppx"] <= records[0]["train_ppx"]


def test_generate_deterministic_and_greedy_identical(workspace):
    prompts = workspace / "prompts.txt"
    prompts.write_text("so what do you think of the river stuff\n")
    out1 = workspace / "gen1"
    out2 = workspace / "gen2"
    ckpt_path = str(workspace / "s2s" / "final.ckpt")
    for out in (out1, out2):
        assert main(["generate", "--checkpoint", ckpt_path, "--prompts",
                     str(prompts), "--n", "5", "--seed", "1",
                     "--out", str(out)]) == 0
    f1 = (out1 / "generations.jsonl").read_bytes()
    assert f1 == (out2 / "generations.jsonl").read_bytes()
    rec = json.loads(f1)
    assert len(rec["responses"]) == 5
    assert len(set(rec["responses"])) == 1  # greedy s2s: identical decodes


def test_evaluate_writes_report(workspace, capsys):
    assert main(["evaluate", "--checkpoint", str(workspace / "s2s" / "final.ckpt"),
                 "--corpus", str(workspace / "data" / "corpus.jsonl"),
                 "--split", "all", "--out", str(workspace / "report")]) == 0
    text = (workspace / "report" / "report_s2s.txt").read_text()
    fields = dict(line.split(": ", 1) for line in text.splitlines())
    assert fields["kl"] == "n/a"
    for key in ("ppx", "lowerbound", "unique_pct"):
        assert np.isfinite(float(fields[key]))


def test_resume_matches_uninterrupted_params(workspace, tmp_path):
    cfg1 = tmp_path / "e1.yaml"
    cfg1.write_text(
        "model: s2s\nd: 16\nd_emb: 16\nvocab_size: 100\nbatch_size: 16\n"
        "epochs: 1\ndropout: 0.0\nstopword_n: 8\nseed: 0\n"
    )
    corpus = str(workspace / "data" / "corpus.jsonl")
    resumed = tmp_path / "resumed"
    assert main(["train", "--config", str(cfg1), "--corpus", corpus,
                 "--out", str(resumed)]) == 0
    cfg2 = tmp_path / "e2.yaml"
    cfg2.write_text(cfg1.read_text().replace("epochs: 1", "epochs: 2"))
    assert main(["train", "--config", str(cfg2), "--corpus", corpus,
                 "--out", str(resumed), "--resume",
                 str(resumed / "last.ckpt")]) == 0

    base_cfg = ckpt.config_from_header(
        ckpt.read_header(workspace / "s2s" / "final.ckpt"))
    a = make_model(base_cfg)
    b = make_model(base_cfg)
    ckpt.load(workspace / "s2s" / "final.ckpt", a)
    ckpt.load(resumed / "final.ckpt", b)
    for k in a.params:
        assert np.array_equal(a.params[k].data, b.params[k].data), k


def _resume_dir(workspace, out, stop_extra=""):
    """A copy of the s2s run's first checkpoint bundle, ready to resume."""
    run = workspace / "s2s"
    out.mkdir()
    for name in ("last.ckpt", "vocab.txt"):
        (out / name).write_bytes((run / name).read_bytes())
    (out / "stopwords.txt").write_text((run / "stopwords.txt").read_text() + stop_extra)
    return str(out / "last.ckpt")


@pytest.mark.parametrize("key, cfg_extra, argv_extra", [
    ("seed", "", ["--seed", "9"]),
    ("lr", "lr: 0.01\n", []),
], ids=["seed", "lr"])
def test_resume_refuses_a_changed_config(workspace, tmp_path, capsys, key, cfg_extra,
                                         argv_extra):
    # only the epoch budget and the paths may change on resume; any other
    # key would silently break bit-exact resume
    cfg = tmp_path / "more.yaml"
    cfg.write_text((workspace / "s2s.yaml").read_text().replace("epochs: 2", "epochs: 3")
                   + cfg_extra)
    out = tmp_path / "run"
    last = _resume_dir(workspace, out)
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--corpus",
                 str(workspace / "data" / "corpus.jsonl"), "--out", str(out),
                 "--resume", last] + argv_extra) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"changed config: {key}: " in err, err
    assert ";" not in err  # no other key named
    assert not (out / "final.ckpt").exists()


def test_resume_rejects_a_stopword_outside_the_vocabulary(workspace, tmp_path, capsys):
    cfg = tmp_path / "more.yaml"
    cfg.write_text((workspace / "s2s.yaml").read_text().replace("epochs: 2", "epochs: 3"))
    out = tmp_path / "run"
    last = _resume_dir(workspace, out, stop_extra="zzzunseen\n")
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--corpus",
                 str(workspace / "data" / "corpus.jsonl"), "--out", str(out),
                 "--resume", last]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out / "stopwords.txt") in err, err
    assert not (out / "final.ckpt").exists()


def test_exit_codes(workspace, tmp_path, capsys):
    bad_cfg = tmp_path / "bad.yaml"
    bad_cfg.write_text("model: s2s\nwhatever: 1\n")
    assert main(["train", "--config", str(bad_cfg), "--corpus", "x",
                 "--out", str(tmp_path)]) == 1

    bad_corpus = tmp_path / "bad.jsonl"
    bad_corpus.write_text("{not json}\n")
    good_cfg = tmp_path / "ok.yaml"
    good_cfg.write_text("model: s2s\nd: 16\nd_emb: 16\nepochs: 1\n")
    assert main(["train", "--config", str(good_cfg), "--corpus",
                 str(bad_corpus), "--out", str(tmp_path / "o")]) == 2

    assert main(["train", "--config", str(good_cfg), "--corpus",
                 str(tmp_path / "missing.jsonl"), "--out",
                 str(tmp_path / "o")]) == 2

    # topics on a model without a topic matrix
    assert main(["topics", "--checkpoint",
                 str(workspace / "s2s" / "final.ckpt")]) == 1

    # a corpus field that is not a string
    typed = tmp_path / "typed.jsonl"
    typed.write_text('{"prompt": 3, "response": "hello there"}\n')
    assert main(["train", "--config", str(good_cfg), "--corpus",
                 str(typed), "--out", str(tmp_path / "o")]) == 2

    # decoding arguments out of range
    final = str(workspace / "s2s" / "final.ckpt")
    prompts = tmp_path / "prompts.txt"
    prompts.write_text("so what do you think of the river stuff\n")
    for extra in (["--n", "0"],
                  ["--strategy", "sample", "--temperature", "0"],
                  ["--strategy", "sample", "--temperature", "-1"]):
        assert main(["generate", "--checkpoint", final,
                     "--prompts", str(prompts)] + extra) == 1, extra

    # config values of the wrong type or out of range, and malformed YAML
    corpus = str(workspace / "data" / "corpus.jsonl")
    for body in ("lr: 1e-3\n", "epochs: 1.5\n", "batch_size: 0\n", "n_layers: 0\n",
                 "model: ltcm\nK: 0\n", "d: abc\n", "model: [s2s\n"):
        typed_cfg = tmp_path / "typed.yaml"
        typed_cfg.write_text(body)
        capsys.readouterr()
        assert main(["train", "--config", str(typed_cfg), "--corpus", corpus,
                     "--out", str(tmp_path / "o")]) == 1, body
        assert capsys.readouterr().err.startswith("error: "), body

    # a truncated checkpoint
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes((workspace / "s2s" / "final.ckpt").read_bytes()[:100])
    assert main(["generate", "--checkpoint", str(cut),
                 "--prompts", str(prompts)]) == 2

    # a vocabulary cut short, or a stop-word outside it, beside a valid checkpoint
    run = workspace / "s2s"
    vocab_lines = (run / "vocab.txt").read_text().splitlines(keepends=True)
    stop_text = (run / "stopwords.txt").read_text()
    for name, vocab_text, stops in (
            ("short", "".join(vocab_lines[:20]), stop_text),
            ("stops", "".join(vocab_lines), stop_text + "zzzunseen\n")):
        bundle = tmp_path / name
        bundle.mkdir()
        (bundle / "final.ckpt").write_bytes((run / "final.ckpt").read_bytes())
        (bundle / "vocab.txt").write_text(vocab_text)
        (bundle / "stopwords.txt").write_text(stops)
        bad_file = "vocab.txt" if name == "short" else "stopwords.txt"
        ck = str(bundle / "final.ckpt")
        for argv in (["generate", "--checkpoint", ck, "--prompts", str(prompts)],
                     ["evaluate", "--checkpoint", ck, "--corpus", corpus],
                     ["topics", "--checkpoint", ck]):
            capsys.readouterr()
            assert main(argv) == 2, (name, argv[0])
            err = capsys.readouterr().err
            assert err.startswith("error: ") and str(bundle / bad_file) in err, err


def test_checkpoint_with_retired_keys_loads(workspace, tmp_path):
    run = workspace / "s2s"
    old = tmp_path / "old"
    old.mkdir()
    for name in ("vocab.txt", "stopwords.txt"):
        (old / name).write_bytes((run / name).read_bytes())
    # the config echo of checkpoints written before these keys were retired
    _with_config_echo(run / "final.ckpt", old / "final.ckpt",
                      {"layer_norm": True, "tie_topic_proj": True, "vocab": "",
                       "report_dir": ""})
    corpus = str(workspace / "data" / "corpus.jsonl")
    for ck, out in ((run, "now"), (old, "then")):
        assert main(["evaluate", "--checkpoint", str(ck / "final.ckpt"),
                     "--corpus", corpus, "--out", str(tmp_path / out)]) == 0
    report = "report_s2s.txt"
    assert (tmp_path / "now" / report).read_bytes() == (tmp_path / "then" / report).read_bytes()

    # trained without layer norm or with an untied topic projection, or an
    # echo that is no valid config
    for bad in ({"layer_norm": False}, {"tie_topic_proj": False}, {"split": "bogus"}):
        plain = old / "bad.ckpt"
        _with_config_echo(run / "final.ckpt", plain, bad)
        with pytest.raises(CheckpointError, match=re.escape(str(plain))):
            ckpt.config_from_header(ckpt.read_header(plain), plain)
        assert main(["evaluate", "--checkpoint", str(plain), "--corpus", corpus]) == 2


def test_ltcm_trains_without_annealing(workspace, tmp_path):
    cfg = tmp_path / "ltcm.yaml"
    cfg.write_text(
        "model: ltcm\nd: 16\nd_emb: 16\nk: 4\nK: 3\nvocab_size: 100\n"
        "batch_size: 16\nepochs: 2\ndropout: 0.0\nstopword_n: 8\nseed: 0\n"
        "kl_anneal: false\n"
    )
    out = tmp_path / "ltcm"
    assert main(["train", "--config", str(cfg), "--corpus",
                 str(workspace / "data" / "corpus.jsonl"),
                 "--out", str(out)]) == 0
    records = [json.loads(l) for l in (out / "train_log.jsonl").read_text().splitlines()]
    assert all(np.isfinite(r["objective"]) for r in records)
    assert main(["topics", "--checkpoint", str(out / "final.ckpt"),
                 "--k-words", "5"]) == 0


def test_topics_clamps_k_words(workspace, tmp_path, capsys):
    cfg = tmp_path / "ltcm.yaml"
    cfg.write_text(
        "model: ltcm\nd: 16\nd_emb: 16\nk: 4\nK: 2\nvocab_size: 40\n"
        "epochs: 1\ndropout: 0.0\nstopword_n: 4\nseed: 0\n"
    )
    out = tmp_path / "m"
    assert main(["train", "--config", str(cfg), "--corpus",
                 str(workspace / "data" / "corpus.jsonl"),
                 "--out", str(out)]) == 0
    assert main(["topics", "--checkpoint", str(out / "final.ckpt"),
                 "--k-words", "10000"]) == 0
    captured = capsys.readouterr()
    assert "clamped" in captured.err


def _documented_exit_codes():
    """Class name -> exit code, as the errors module docstring lists them."""
    codes = {}
    for names, code in re.findall(r"((?:\w+Error,?\s*)+)->\s*(\d)", errors.__doc__):
        for name in re.findall(r"\w+Error", names):
            codes[name] = int(code)
    return codes


@pytest.mark.parametrize("cls", errors.LatentChatError.__subclasses__(),
                         ids=lambda c: c.__name__)
def test_every_error_class_has_its_documented_exit_code(cls, monkeypatch, capsys):
    code = _documented_exit_codes()[cls.__name__]

    def boom(args):
        raise cls("bad thing in some.file")

    monkeypatch.setitem(cli._COMMANDS, "synth", boom)
    assert main(["synth", "--out", "unused"]) == code
    captured = capsys.readouterr()
    assert captured.err == "error: bad thing in some.file\n"
    assert "Traceback" not in captured.out + captured.err
