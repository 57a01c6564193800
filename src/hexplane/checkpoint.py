"""Versioned binary container for named float64 parameter tensors.

Layout (little-endian):

    magic   b"HXCKPT\\0\\0"
    u16     version (= 1)
    u32     tensor count
    per tensor, sorted by name:
        u16       name length, then UTF-8 name bytes
        u8        ndim, then ndim * u64 dims
        float64   payload, C order

Sorted names make the byte stream a pure function of the mapping.
"""

from __future__ import annotations

import math
import struct

import numpy as np

_MAGIC = b"HXCKPT\x00\x00"
_VERSION = 1


class ByteReader:
    """Reads `raw` front to back from `offset`; a read past its end is
    refused as a truncated `what`."""

    def __init__(self, raw, offset, what):
        self.raw, self.offset, self.what = raw, offset, what

    def take(self, nbytes):
        end = self.offset + nbytes
        if end > len(self.raw):
            raise ValueError(f"truncated {self.what}: needs {end} bytes, has {len(self.raw)}")
        self.offset = end
        return self.raw[end - nbytes : end]


def save_checkpoint(path, params: dict) -> None:
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<HI", _VERSION, len(params)))
        for name in sorted(params):
            arr = np.ascontiguousarray(params[name], dtype=np.float64)
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            fh.write(arr.tobytes())


def load_checkpoint(path) -> dict:
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.startswith(_MAGIC):
        raise ValueError("not a checkpoint file (bad magic)")
    reader = ByteReader(raw, len(_MAGIC), "checkpoint")
    take = reader.take
    version, count = struct.unpack("<HI", take(6))
    if version != _VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    params = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        name = take(name_len).decode("utf-8")
        (ndim,) = struct.unpack("<B", take(1))
        shape = struct.unpack(f"<{ndim}Q", take(8 * ndim))
        size = math.prod(shape)  # exact: a corrupt dim must not overflow
        arr = np.frombuffer(take(8 * size), dtype="<f8").reshape(shape).copy()
        # training never writes one: AdamW and the divergence guard stop first
        if not np.isfinite(arr).all():
            raise ValueError(f"checkpoint tensor {name} is not finite")
        params[name] = arr
    if reader.offset != len(raw):
        raise ValueError("trailing bytes after last tensor")
    return params
