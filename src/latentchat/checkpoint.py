"""Binary checkpoints: JSON header (config echo, shapes, RNG state,
training progress) followed by raw little-endian float64 payloads.

Layout:  magic line, 8-byte LE header length, UTF-8 JSON header with
sorted keys, then the concatenated parameter/optimizer arrays in header
order.  Save/load/save round-trips byte-identically.
"""

import contextlib
import json
import os
import struct

import numpy as np

from .config import RunConfig
from .errors import CheckpointError, ConfigError

MAGIC = b"LATENTCHAT-CKPT-1\n"


def _entries(arrays):
    out = []
    offset = 0
    for name, arr in arrays:
        out.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += arr.size
    return out, offset


def save(path, model, optimizer=None, rng_state=None, epoch=0, extra=None):
    arrays = [(k, p.data) for k, p in model.params.items()]
    opt_state = None
    if optimizer is not None:
        opt_state = {"t": optimizer.t}
        arrays += [(f"adam_m:{k}", m) for k, m in optimizer.m.items()]
        arrays += [(f"adam_v:{k}", v) for k, v in optimizer.v.items()]
    entries, total = _entries(arrays)
    header = {
        "config": model.cfg.to_dict(),
        "params": entries,
        "optimizer": opt_state,
        "rng": rng_state,
        "epoch": epoch,
        "extra": extra or {},
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    # write beside the target and rename over it, so that a crash mid-save
    # leaves the previous file whole
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<Q", len(blob)))
            fh.write(blob)
            for _, arr in arrays:
                fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _read_header(fh, path):
    if fh.read(len(MAGIC)) != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    raw = fh.read(8)
    if len(raw) != 8:
        raise CheckpointError(f"{path}: truncated before the header length")
    (n,) = struct.unpack("<Q", raw)
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > left:
        raise CheckpointError(f"{path}: header needs {n} bytes, {left} are left")
    try:
        header = json.loads(fh.read(n).decode())
    except ValueError as exc:  # bad UTF-8 or bad JSON
        raise CheckpointError(f"{path}: unreadable header: {exc}") from None
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    return header


def _read_payload(fh, path, header):
    """The float64 payload, checked to hold exactly the entries of the
    header's parameter table, which lie back to back in table order."""
    try:
        n_values = 0
        for e in header["params"]:
            if e["offset"] != n_values:
                raise ValueError
            n_values += int(np.prod(e["shape"]))
    except (KeyError, TypeError, ValueError):
        raise CheckpointError(f"{path}: malformed parameter table") from None
    data = fh.read()
    if len(data) != 8 * n_values:
        raise CheckpointError(
            f"{path}: payload is {len(data)} bytes, its entries need {8 * n_values}"
        )
    return np.frombuffer(data, dtype="<f8")


def read_header(path):
    with open(path, "rb") as fh:
        return _read_header(fh, path)


def load(path, model, optimizer=None):
    """Restore parameters (and optimizer state) in place; returns the
    header for config/rng/epoch access."""
    with open(path, "rb") as fh:
        header = _read_header(fh, path)
        payload = _read_payload(fh, path, header)
    by_name = {e["name"]: e for e in header["params"]}

    def fetch(name, expect_shape):
        if name not in by_name:
            raise CheckpointError(f"{path}: missing parameter '{name}'")
        e = by_name[name]
        if tuple(e["shape"]) != tuple(expect_shape):
            raise CheckpointError(
                f"{path}: shape mismatch for '{name}': "
                f"checkpoint {tuple(e['shape'])} vs model {tuple(expect_shape)}"
            )
        size = int(np.prod(e["shape"])) if e["shape"] else 1
        return payload[e["offset"] : e["offset"] + size].reshape(e["shape"])

    mismatches = []
    for k, p in model.params.items():
        if k in by_name and tuple(by_name[k]["shape"]) != p.data.shape:
            mismatches.append(f"{k}: {tuple(by_name[k]['shape'])} vs {p.data.shape}")
    if mismatches:
        raise CheckpointError(f"{path}: architecture mismatch: " + "; ".join(mismatches))
    for k, p in model.params.items():
        p.data[...] = fetch(k, p.data.shape)
    if optimizer is not None:
        if header["optimizer"] is None:
            raise CheckpointError(f"{path}: checkpoint has no optimizer state")
        optimizer.t = int(header["optimizer"]["t"])
        for k in optimizer.m:
            optimizer.m[k][...] = fetch(f"adam_m:{k}", optimizer.m[k].shape)
            optimizer.v[k][...] = fetch(f"adam_v:{k}", optimizer.v[k].shape)
    return header


# keys that older headers echo and that no longer exist, with the one
# value this version can still run (None: any value)
RETIRED_KEYS = {"layer_norm": True, "tie_topic_proj": True,
                "report_dir": None, "vocab": None}


def config_from_header(header, path="checkpoint"):
    data = dict(header["config"])
    for key, runnable in RETIRED_KEYS.items():
        value = data.pop(key, runnable)
        if runnable is not None and value is not runnable:
            raise CheckpointError(
                f"{path}: trained with {key}: {json.dumps(value)}, "
                "which this version cannot run"
            )
    try:
        return RunConfig.from_dict(data)
    except ConfigError as exc:
        raise CheckpointError(f"{path}: bad config echo: {exc}") from None
