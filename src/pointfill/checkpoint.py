"""Binary checkpoint format.

Layout (all integers unsigned 32-bit little-endian):

    magic "SDCP" | version u32 | config_len u32 | config text (key=value lines)
    then per-array records until EOF:
    name_len u32 | name utf-8 | rank u32 | extents u32 * rank | float32 LE data

Model parameters are written first in model order; optimizer state, when
saved, follows as extra records under the reserved ``adam.`` name prefix so
training can resume deterministically.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import FormatError, ParseError
from .pipeline import CompletionModel, ModelConfig, parse_config_text

MAGIC = b"SDCP"
VERSION = 1


def _write_u32(fh, value):
    fh.write(struct.pack("<I", value))


def _read_u32(fh, what):
    raw = fh.read(4)
    if len(raw) != 4:
        raise FormatError(f"truncated checkpoint while reading {what}")
    return struct.unpack("<I", raw)[0]


def _write_record(fh, name, array):
    encoded = name.encode("utf-8")
    _write_u32(fh, len(encoded))
    fh.write(encoded)
    arr = np.ascontiguousarray(array, dtype="<f4")
    _write_u32(fh, arr.ndim)
    for extent in arr.shape:
        _write_u32(fh, extent)
    fh.write(arr.tobytes())


def _read_record(fh):
    head = fh.read(4)
    if not head:
        return None
    if len(head) != 4:
        raise FormatError("truncated checkpoint while reading record header")
    (name_len,) = struct.unpack("<I", head)
    raw_name = fh.read(name_len)
    if len(raw_name) != name_len:
        raise FormatError("truncated checkpoint while reading record name")
    try:
        name = raw_name.decode("utf-8")
    except UnicodeDecodeError:
        raise FormatError("checkpoint record name is not valid utf-8") from None
    rank = _read_u32(fh, f"rank of {name!r}")
    shape = tuple(_read_u32(fh, f"extent of {name!r}") for _ in range(rank))
    count = int(np.prod(shape)) if shape else 1
    payload = fh.read(4 * count)
    if len(payload) != 4 * count:
        raise FormatError(f"truncated checkpoint while reading data of {name!r}")
    return name, np.frombuffer(payload, dtype="<f4").reshape(shape).copy()


def save_checkpoint(model, path, optimizer=None):
    """Write model parameters (and optionally optimizer state) to ``path``."""
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        _write_u32(fh, VERSION)
        encoded = model.config.to_text().encode("utf-8")
        _write_u32(fh, len(encoded))
        fh.write(encoded)
        for param in model.named_parameters():
            _write_record(fh, param.name, param.tensor.data)
        if optimizer is not None:
            for name, array in optimizer.state_arrays().items():
                _write_record(fh, name, array)


def read_checkpoint(path):
    """Parse a checkpoint into ``(config_mapping, {name: float32 array})``."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise FormatError(f"bad checkpoint magic {magic!r}")
        version = _read_u32(fh, "version")
        if version != VERSION:
            raise FormatError(f"unsupported checkpoint version {version}")
        config_len = _read_u32(fh, "config length")
        raw = fh.read(config_len)
        if len(raw) != config_len:
            raise FormatError("truncated checkpoint while reading config")
        try:
            mapping = parse_config_text(raw.decode("utf-8"), source="checkpoint config")
        except (UnicodeDecodeError, ParseError) as exc:
            raise FormatError(f"malformed checkpoint config: {exc}") from None
        arrays = {}
        while True:
            record = _read_record(fh)
            if record is None:
                break
            arrays[record[0]] = record[1]
    return mapping, arrays


def load_checkpoint(path, into=None, optimizer=None):
    """Rebuild (or fill) a model from a checkpoint.

    Args:
        path: checkpoint file.
        into: optional existing model; its parameters must match the stored
            records by name and shape, otherwise FormatError names the first
            mismatch. When omitted the model is rebuilt from the embedded
            config.
        optimizer: optional Adam whose state is restored from the ``adam.``
            records (FormatError if the checkpoint carries none).

    Returns the model.
    """
    mapping, arrays = read_checkpoint(path)
    if into is None:
        try:
            config = ModelConfig.from_mapping(mapping)
        except ParseError as exc:
            raise FormatError(f"malformed checkpoint config: {exc}") from None
        model = CompletionModel(config)
    else:
        model = into
    for param in model.named_parameters():
        if param.name not in arrays:
            raise FormatError(f"checkpoint is missing parameter {param.name!r}")
        stored = arrays[param.name]
        if stored.shape != param.tensor.shape:
            raise FormatError(
                f"parameter {param.name!r} has shape {stored.shape} in the "
                f"checkpoint but {param.tensor.shape} in the model"
            )
        param.tensor.data = stored.astype(model.config.dtype, copy=False).copy()
    if optimizer is not None:
        state = {k: v for k, v in arrays.items() if k.startswith("adam.")}
        if not state:
            raise FormatError("checkpoint carries no optimizer state")
        optimizer.load_state_arrays(state)
    return model
