"""Binary checkpoint format.

Layout (all integers unsigned 32-bit little-endian):

    magic "SDCP" | version u32 | config_len u32 | config text (key=value lines)
    then per-array records up to the checksum:
    name_len u32 | name utf-8 | dtype u32 | rank u32 | extents u32 * rank | data
    then crc32 u32, the ``zlib.crc32`` of every byte before it, ending the file

``dtype`` is the item size of the little-endian float data: 4 for float32,
8 for float64, so parameters of either precision round-trip bitwise. The
checksum is verified before anything after the version is parsed, so a
damaged file is refused instead of loading as a different model. Version 2
files have no checksum; version 1 files also have no ``dtype`` field and
always hold float32 data.

Version 4 has version 3's layout; it marks the parameter layout in which an
upsample transformer's heads share one hidden layer. Up to version 3 each
attention kernel had a first layer of its own, so a version 1-3 file of an
``uptrans`` or ``pointwise`` model is refused with a FormatError that says
so. Version 1-3 files of the other generators still load: their only
transformers are the encoder's, at rate 1, whose one kernel is the shared
layer and the one head, read under their new names (``kernels0.lin0`` is
``hidden``, ``kernels0.lin1`` is ``heads0``).

Model parameters are written first in model order. Adam's state, when
saved, follows under the reserved ``adam.`` prefix so training can resume
deterministically: ``adam.step`` (the step count as one float32 value), then
``adam.m.<name>`` and ``adam.v.<name>``, each parameter's moments in the
optimizer's order. This module alone writes and checks those records.
"""

from __future__ import annotations

import contextlib
import math
import os
import re
import struct
import threading
import zlib

import numpy as np

from .errors import ContractError, FormatError, ParseError
from .pipeline import CompletionModel, ModelConfig, parse_config_text

MAGIC = b"SDCP"
VERSION = 4
# the generators whose parameters changed layout at version 4
_SHARED_HIDDEN_LAYER = ("uptrans", "pointwise")
# an encoder transformer's one kernel in the name of a record before version
# 4, a parameter or its moment
_ENCODER_KERNEL = re.compile(r"(encoder\.refine\d+\.core)\.kernels0\.lin([01])\.")
_DTYPES = {4: np.dtype("<f4"), 8: np.dtype("<f8")}  # by the dtype field
_MAX_RANK = 32  # numpy's dimension limit before 2.0
_CRC_CHUNK = 1 << 16  # checksum read size; large reads would move glibc's mmap threshold


def _write_u32(fh, value):
    fh.write(struct.pack("<I", value))


def _read_exact(fh, size, n, what):
    """The next ``n`` bytes of a ``size``-byte file; refuses before reading
    when fewer are left, so a corrupt length never asks for a huge read."""
    if n > size - fh.tell():
        raise FormatError(f"truncated checkpoint while reading {what}")
    return fh.read(n)


def _read_u32(fh, size, what):
    return struct.unpack("<I", _read_exact(fh, size, 4, what))[0]


def _crc32(fh, n):
    """CRC-32 of the first ``n`` bytes of ``fh``, read in fixed-size chunks."""
    fh.seek(0)
    crc = 0
    chunk = memoryview(bytearray(_CRC_CHUNK))
    while n:
        got = fh.readinto(chunk[: min(n, _CRC_CHUNK)])
        if not got:
            raise FormatError("truncated checkpoint while checking its checksum")
        crc = zlib.crc32(chunk[:got], crc)
        n -= got
    return crc


def _write_record(fh, name, array):
    encoded = name.encode("utf-8")
    _write_u32(fh, len(encoded))
    fh.write(encoded)
    arr = np.asarray(array)
    arr = np.ascontiguousarray(arr, dtype="<f8" if arr.dtype == np.float64 else "<f4")
    _write_u32(fh, arr.itemsize)
    _write_u32(fh, arr.ndim)
    for extent in arr.shape:
        _write_u32(fh, extent)
    fh.write(arr.tobytes())


def _read_record(fh, size, version):
    if fh.tell() == size:
        return None
    name_len = _read_u32(fh, size, "record header")
    raw_name = _read_exact(fh, size, name_len, "record name")
    try:
        name = raw_name.decode("utf-8")
    except UnicodeDecodeError:
        raise FormatError("checkpoint record name is not valid utf-8") from None
    dtype = _DTYPES[4]
    if version >= 2:
        code = _read_u32(fh, size, f"dtype of {name!r}")
        if code not in _DTYPES:
            raise FormatError(f"checkpoint record {name!r} has unknown dtype code {code}")
        dtype = _DTYPES[code]
    rank = _read_u32(fh, size, f"rank of {name!r}")
    if rank > _MAX_RANK:
        raise FormatError(f"checkpoint record {name!r} has rank {rank}")
    shape = struct.unpack(f"<{rank}I", _read_exact(fh, size, 4 * rank, f"extents of {name!r}"))
    count = math.prod(shape)  # python ints: extents cannot wrap around
    payload = _read_exact(fh, size, dtype.itemsize * count, f"data of {name!r}")
    return name, np.frombuffer(payload, dtype=dtype).reshape(shape).copy()


def save_checkpoint(model, path, optimizer=None):
    """Write model parameters (and optionally optimizer state) to ``path``.

    The file is written beside ``path`` and renamed over it when complete,
    so a save that fails part way leaves any earlier checkpoint intact.
    """
    # one sibling per thread: two saves to one path must not share a file
    partial = f"{os.fspath(path)}.{os.getpid()}.{threading.get_ident()}.partial"
    try:
        with open(partial, "w+b") as fh:
            fh.write(MAGIC)
            _write_u32(fh, VERSION)
            encoded = model.config.to_text().encode("utf-8")
            _write_u32(fh, len(encoded))
            fh.write(encoded)
            for param in model.named_parameters():
                _write_record(fh, param.name, param.tensor.data)
            if optimizer is not None:
                step = np.array([float(optimizer.step_count)], dtype=np.float32)
                _write_record(fh, "adam.step", step)
                for name in optimizer.moment1:
                    _write_record(fh, f"adam.m.{name}", optimizer.moment1[name])
                    _write_record(fh, f"adam.v.{name}", optimizer.moment2[name])
            _write_u32(fh, _crc32(fh, fh.tell()))
        os.replace(partial, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(partial)
        raise


def read_checkpoint(path):
    """Parse a checkpoint into ``(config_mapping, {name: float array})``.

    Refuses a version 1-3 file of a model whose attention layout changed at
    version 4 (module docstring)."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(4)
        if magic != MAGIC:
            raise FormatError(f"bad checkpoint magic {magic!r}")
        version = _read_u32(fh, size, "version")
        if version not in (1, 2, 3, VERSION):
            raise FormatError(f"unsupported checkpoint version {version}")
        if version >= 3:
            size -= 4  # the trailing checksum is not payload
            if size < 8:
                raise FormatError("truncated checkpoint while reading its checksum")
            fh.seek(size)
            (stored,) = struct.unpack("<I", fh.read(4))
            if _crc32(fh, size) != stored:
                raise FormatError("checkpoint checksum mismatch: the file is damaged")
            fh.seek(8)
        config_len = _read_u32(fh, size, "config length")
        raw = _read_exact(fh, size, config_len, "config")
        try:
            mapping = parse_config_text(raw.decode("utf-8"), source="checkpoint config")
        except (UnicodeDecodeError, ParseError) as exc:
            raise FormatError(f"malformed checkpoint config: {exc}") from None
        generator = mapping.get("generator", ModelConfig.generator)
        if version < 4 and generator in _SHARED_HIDDEN_LAYER:
            raise FormatError(
                f"checkpoint version {version} holds the per-kernel attention layout of a "
                f"{generator!r} model, one first layer per kernel; since version 4 a "
                "transformer's heads share one hidden layer, so it cannot load")
        arrays = {}
        while True:
            record = _read_record(fh, size, version)
            if record is None:
                break
            name = record[0]
            if version < 4:
                name = _ENCODER_KERNEL.sub(
                    lambda m: f"{m[1]}.{'hidden' if m[2] == '0' else 'heads0'}.", name, count=1)
            arrays[name] = record[1]
    return mapping, arrays


def _stored(arrays, key, like, kind, missing):
    """Record ``key``, present and of ``like``'s shape, cast to its dtype;
    ``kind`` and ``missing`` word the errors."""
    if key not in arrays:
        raise FormatError(f"{missing} {key!r}")
    stored = arrays[key]
    if stored.shape != like.shape:
        raise FormatError(f"{kind} {key!r} has shape {stored.shape} in the "
                          f"checkpoint but {like.shape} in the model")
    return stored.astype(like.dtype, copy=False)


def load_checkpoint(path, into=None, optimizer=None):
    """Rebuild (or fill) a model from a checkpoint.

    Args:
        path: checkpoint file.
        into: optional existing model; its parameters must match the stored
            records by name and shape, otherwise FormatError names the first
            mismatch. When omitted the model is rebuilt from the embedded
            config.
        optimizer: optional Adam of ``into`` (ContractError without it,
            before the file is read) whose step count and moments are
            restored from the ``adam.`` records (FormatError if none).

    A record outside the ``adam.`` prefix that names no parameter of the
    model, or, with ``optimizer``, an ``adam.m.`` or ``adam.v.`` record that
    names none of its parameters, belongs to another model: FormatError names
    the first. Without ``optimizer`` the ``adam.`` records are skipped. Every
    record is checked before any is assigned, so a refused load leaves
    ``into`` and ``optimizer`` unchanged. Returns the model.
    """
    if optimizer is not None and into is None:
        raise ContractError("load_checkpoint(optimizer=...) needs the model it updates as into=")
    mapping, arrays = read_checkpoint(path)
    if into is None:
        try:
            model = CompletionModel(ModelConfig.from_mapping(mapping))
        except (ParseError, ContractError) as exc:
            raise FormatError(f"malformed checkpoint config: {exc}") from None
    else:
        model = into
    owned = {param.name for param in model.named_parameters()}
    if optimizer is not None:
        owned.update(f"adam.{kind}.{name}" for name in optimizer.moment1 for kind in "mv")
    for key in arrays:
        moment = optimizer is not None and key.startswith(("adam.m.", "adam.v."))
        if key not in owned and (moment or not key.startswith("adam.")):
            raise FormatError(f"checkpoint record {key!r} names no parameter of this model")
    params = [
        (param.tensor, _stored(
            arrays, param.name, param.tensor.data, "parameter",
            "checkpoint is missing parameter",
        ))
        for param in model.named_parameters()
    ]
    if optimizer is not None:
        if not any(name.startswith("adam.") for name in arrays):
            raise FormatError("checkpoint carries no optimizer state")
        step = arrays.get("adam.step")
        if step is None or step.shape != (1,) or not np.isfinite(step[0]) or step[0] < 0:
            raise FormatError(f"optimizer record 'adam.step' is not one step count: {step}")
        moments = [
            (store, name, _stored(
                arrays, prefix + name, store[name], "optimizer record",
                "optimizer state missing record",
            ))
            for name in optimizer.moment1
            for prefix, store in (("adam.m.", optimizer.moment1), ("adam.v.", optimizer.moment2))
        ]
    for tensor, data in params:
        tensor.data = data
    if optimizer is not None:
        optimizer.step_count = int(round(float(step[0])))
        for store, name, data in moments:
            store[name] = data
    return model
