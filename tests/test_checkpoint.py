"""Checkpoint format: exact round trips in both precisions, version 1 files,
and damaged files, which must load or fail with FormatError, nothing else."""

import functools
import io
import re
import struct
import tempfile
import threading
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointfill import checkpoint
from pointfill.checkpoint import load_checkpoint, read_checkpoint, save_checkpoint
from pointfill.errors import ContractError, FormatError
from pointfill.generator import GENERATOR_VARIANTS
from pointfill.pipeline import Adam, CompletionModel, ModelConfig, run_training

CONFIGS = {
    "micro": lambda: ModelConfig.micro(init_seed=3),  # float64
    "desk": lambda: ModelConfig.desk(init_seed=3),  # float32
}


def trained(config):
    """A model and optimizer after one step, so the moments are non-zero."""
    rng = np.random.default_rng(0)
    model = CompletionModel(config)
    optimizer = Adam(model, lr=1e-3)
    n = config.input_points
    pair = (rng.standard_normal((n, 3)), rng.standard_normal((n, 3)))
    run_training(model, [pair], 1, optimizer)
    return model, optimizer


def sealed(body):
    """A checksummed file from everything before its checksum, so damage made
    on purpose reaches the parser check under test instead of the checksum."""
    return body + struct.pack("<I", zlib.crc32(body))


def write_version(path, model, version, optimizer=None):
    """``model``, and ``optimizer``'s state when given, saved as a version 1,
    2 or 3 file whose encoder transformers are named as then: a kernel
    ``kernels0`` of two layers, not ``hidden`` and ``heads0``. Version 3 is
    version 4's layout; version 2 has no checksum; version 1 has no dtype
    codes either and float32 data."""
    body = io.BytesIO()
    text = model.config.to_text().encode("utf-8")
    body.write(b"SDCP" + struct.pack("<II", version, len(text)) + text)
    records = [(p.name, p.tensor.data) for p in model.named_parameters()]
    if optimizer is not None:
        records.append(("adam.step", np.array([float(optimizer.step_count)], np.float32)))
        records += [(f"adam.{kind}.{name}", store[name]) for name in optimizer.moment1
                    for kind, store in (("m", optimizer.moment1), ("v", optimizer.moment2))]
    for name, data in records:
        name = re.sub(r"(encoder\.refine\d\.core)\.(hidden|heads0)\.",
                      lambda m: f"{m[1]}.kernels0.lin{int(m[2] == 'heads0')}.", name)
        if version > 1:
            checkpoint._write_record(body, name, data)
            continue
        arr = np.ascontiguousarray(data, dtype="<f4")
        body.write(struct.pack("<I", len(name)) + name.encode("utf-8"))
        body.write(struct.pack(f"<{1 + arr.ndim}I", arr.ndim, *arr.shape))
        body.write(arr.tobytes())
    raw = body.getvalue()
    path.write_bytes(sealed(raw) if version == 3 else raw)


def with_records(path, arrays):
    """Rewrite the checkpoint at ``path`` to hold ``arrays`` after its config
    block, resealed."""
    raw = path.read_bytes()
    (config_len,) = struct.unpack_from("<I", raw, 8)
    body = io.BytesIO()
    body.write(raw[:12 + config_len])
    for name, array in arrays.items():
        checkpoint._write_record(body, name, array)
    path.write_bytes(sealed(body.getvalue()))


def with_stage_attention(raw, value):
    """Checkpoint bytes whose config block carries ``stage_attention = value``
    where earlier writers put the key, before ``attention_scale``; resealed."""
    (config_len,) = struct.unpack_from("<I", raw, 8)
    config = raw[12: 12 + config_len]
    at = config.index(b"attention_scale = ")
    config = config[:at] + f"stage_attention = {value}\n".encode() + config[at:]
    return sealed(raw[:8] + struct.pack("<I", len(config)) + config + raw[12 + config_len:-4])


@pytest.mark.parametrize("scale", sorted(CONFIGS))
def test_round_trip_is_bitwise_with_optimizer_state(tmp_path, scale):
    model, optimizer = trained(CONFIGS[scale]())
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path, optimizer=optimizer)
    loaded = load_checkpoint(path)
    restored = Adam(loaded, lr=1e-3)
    load_checkpoint(path, into=loaded, optimizer=restored)
    dtype = model.config.dtype
    for before, after in zip(model.named_parameters(), loaded.named_parameters()):
        assert after.tensor.data.dtype == dtype
        assert np.array_equal(before.tensor.data, after.tensor.data), before.name
    assert restored.step_count == optimizer.step_count == 1
    for saved, got in ((optimizer.moment1, restored.moment1),
                       (optimizer.moment2, restored.moment2)):
        assert list(saved) == list(got)
        for name in saved:
            assert got[name].dtype == saved[name].dtype == dtype, name
            assert np.array_equal(saved[name], got[name]), name


def test_optimizer_records_follow_the_parameters_in_model_order(tmp_path):
    model, optimizer = trained(CONFIGS["micro"]())
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path, optimizer=optimizer)
    _, arrays = read_checkpoint(path)
    params = [p.name for p in model.named_parameters()]
    moments = [f"adam.{kind}.{name}" for name in params for kind in ("m", "v")]
    assert list(arrays) == [*params, "adam.step", *moments]
    step = arrays["adam.step"]
    assert step.dtype == np.float32 and step.shape == (1,) and step[0] == 1.0


def test_optimizer_without_the_model_it_updates_is_refused_before_reading(tmp_path):
    model, optimizer = trained(CONFIGS["micro"]())
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path, optimizer=optimizer)
    restored = Adam(model, lr=1e-3)
    with pytest.raises(ContractError, match="into="):
        load_checkpoint(path, optimizer=restored)
    with pytest.raises(ContractError, match="into="):
        load_checkpoint(tmp_path / "absent.ckpt", optimizer=restored)
    assert restored.step_count == 0


MOMENT = "adam.v.encoder.abstract1.lift.lin0.w"  # the parameter is (3, 6)
LAST_MOMENT = "adam.v.stages1.offset_map.lin1.b"  # the last record of the file
MISSHAPEN_STATE = {
    "transposed_moment": (MOMENT, np.zeros((6, 3))),
    "moment_of_19": (MOMENT, np.zeros(19)),
    "last_moment_of_7": (LAST_MOMENT, np.zeros(7)),
    "empty_step": ("adam.step", np.zeros(0, dtype=np.float32)),
    "nan_step": ("adam.step", np.array([np.nan], dtype=np.float32)),
}


@pytest.mark.parametrize("case", sorted(MISSHAPEN_STATE))
def test_misshapen_optimizer_record_is_format_error_naming_it(tmp_path, case):
    model, optimizer = trained(CONFIGS["micro"]())
    key, bad = MISSHAPEN_STATE[case]
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path, optimizer=optimizer)
    _, arrays = read_checkpoint(path)
    with_records(path, {**arrays, key: bad})
    # a fresh model of the same layout: a refused load must leave it and its
    # optimizer as they were, not half-loaded
    into = CompletionModel(ModelConfig.micro(init_seed=9))
    restored = Adam(into, lr=1e-3)
    params = [p.tensor.data.copy() for p in into.named_parameters()]
    moments = [{n: m.copy() for n, m in store.items()}
               for store in (restored.moment1, restored.moment2)]
    with pytest.raises(FormatError, match=f"'{key}'"):
        load_checkpoint(path, into=into, optimizer=restored)
    for before, after in zip(params, into.named_parameters()):
        assert np.array_equal(before, after.tensor.data), after.name
    assert restored.step_count == 0
    for before, store in zip(moments, (restored.moment1, restored.moment2)):
        assert list(before) == list(store)
        for name in before:
            assert np.array_equal(before[name], store[name]), name


@pytest.mark.parametrize("with_optimizer", [False, True], ids=["model", "model_and_adam"])
def test_record_of_another_model_is_format_error_naming_it(tmp_path, with_optimizer):
    # a file of three stages into a model of two: the third stage's records
    # name no parameter of the model
    model, optimizer = trained(ModelConfig.micro(init_seed=3, rates=(1, 2, 2)))
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path, optimizer=optimizer)
    into = CompletionModel(ModelConfig.micro(init_seed=9))
    restored = Adam(into, lr=1e-3) if with_optimizer else None
    params = [p.tensor.data.copy() for p in into.named_parameters()]
    first = next(p.name for p in model.named_parameters() if p.name.startswith("stages2."))
    with pytest.raises(FormatError, match=f"'{first}'"):
        load_checkpoint(path, into=into, optimizer=restored)
    for before, after in zip(params, into.named_parameters()):
        assert np.array_equal(before, after.tensor.data), after.name


def test_moment_of_a_parameter_the_optimizer_lacks_is_format_error_naming_it(tmp_path):
    model, optimizer = trained(CONFIGS["micro"]())
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path, optimizer=optimizer)
    _, arrays = read_checkpoint(path)
    key = "adam.m.stages2.offset_map.lin1.b"  # micro has stages 0 and 1
    with_records(path, {**arrays, key: np.zeros(3), "adam.v.stages2.offset_map.lin1.b": np.zeros(3)})
    into = CompletionModel(ModelConfig.micro(init_seed=9))
    restored = Adam(into, lr=1e-3)
    with pytest.raises(FormatError, match=f"'{key}'"):
        load_checkpoint(path, into=into, optimizer=restored)
    assert restored.step_count == 0
    # without an optimizer the adam. records are skipped
    load_checkpoint(path, into=into)
    for before, after in zip(model.named_parameters(), into.named_parameters()):
        assert np.array_equal(before.tensor.data, after.tensor.data), after.name


def test_records_keep_their_precision(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(CompletionModel(CONFIGS["micro"]()), path)
    _, arrays = read_checkpoint(path)
    assert {a.dtype for a in arrays.values()} == {np.dtype(np.float64)}


def test_version_1_file_still_loads(tmp_path):
    # a generator without attention: an attention model's file of version 1
    # is refused (test_files_before_version_4_load_unless_attention_changed)
    model = CompletionModel(ModelConfig.desk(init_seed=3, generator="folding"))
    old, new = tmp_path / "v1.ckpt", tmp_path / "v3.ckpt"
    write_version(old, model, 1)
    write_version(new, model, 3)
    loaded = load_checkpoint(old)
    for before, after in zip(model.named_parameters(), loaded.named_parameters()):
        assert np.array_equal(before.tensor.data, after.tensor.data), before.name
    # float32 records hold the same bytes as before, plus one dtype code
    # each; the file ends with the checksum
    records = sum(1 for _ in model.named_parameters())
    assert new.stat().st_size == old.stat().st_size + 4 * records + 4


def test_unknown_dtype_code_is_format_error(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(CompletionModel(CONFIGS["micro"]()), path)
    raw = path.read_bytes()
    (config_len,) = struct.unpack_from("<I", raw, 8)
    (name_len,) = struct.unpack_from("<I", raw, 12 + config_len)
    code_at = 16 + config_len + name_len
    path.write_bytes(sealed(raw[:code_at] + struct.pack("<I", 2) + raw[code_at + 4:-4]))
    with pytest.raises(FormatError, match="dtype code 2"):
        load_checkpoint(path)


def test_extent_larger_than_file_is_refused_before_reading(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(CompletionModel(CONFIGS["micro"]()), path)
    raw = path.read_bytes()
    (config_len,) = struct.unpack_from("<I", raw, 8)
    (name_len,) = struct.unpack_from("<I", raw, 12 + config_len)
    rank_at = 20 + config_len + name_len
    path.write_bytes(
        sealed(raw[:rank_at] + struct.pack("<2I", 1, 2**32 - 1) + raw[rank_at + 8:-4])
    )
    with pytest.raises(FormatError, match="truncated"):
        load_checkpoint(path)


def test_rank_beyond_numpy_limit_is_format_error(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(CompletionModel(CONFIGS["micro"]()), path)
    raw = path.read_bytes()
    (config_len,) = struct.unpack_from("<I", raw, 8)
    record = struct.pack("<I", 1) + b"x" + struct.pack("<2I", 4, 66)
    record += struct.pack("<66I", *[1] * 66) + np.zeros(1, "<f4").tobytes()
    path.write_bytes(sealed(raw[: 12 + config_len] + record))
    with pytest.raises(FormatError, match="rank 66"):
        load_checkpoint(path)


@functools.lru_cache(maxsize=None)
def micro_checkpoint_bytes():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "micro.ckpt"
        save_checkpoint(CompletionModel(CONFIGS["micro"]()), path)
        return path.read_bytes()


def loads_or_format_error(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "damaged.ckpt"
        path.write_bytes(raw)
        try:
            load_checkpoint(path)
        except FormatError:
            pass


FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@FUZZ
@given(st.data())
def test_truncated_checkpoint_loads_or_raises_format_error(data):
    raw = micro_checkpoint_bytes()
    loads_or_format_error(raw[: data.draw(st.integers(0, len(raw) - 1))])


@FUZZ
@given(st.data())
def test_bit_flipped_checkpoint_loads_or_raises_format_error(data):
    raw = bytearray(micro_checkpoint_bytes())
    # half the flips land in the header, config and first records
    limit = data.draw(st.sampled_from([min(len(raw), 1024), len(raw)]))
    at = data.draw(st.integers(0, limit - 1))
    raw[at] ^= 1 << data.draw(st.integers(0, 7))
    loads_or_format_error(bytes(raw))


def test_version_2_file_still_loads(tmp_path):
    model = CompletionModel(ModelConfig.micro(init_seed=3, generator="deconv"))
    path = tmp_path / "model.ckpt"
    write_version(path, model, 2)
    loaded = load_checkpoint(path)
    for before, after in zip(model.named_parameters(), loaded.named_parameters()):
        assert np.array_equal(before.tensor.data, after.tensor.data), before.name


@pytest.mark.parametrize("generator", GENERATOR_VARIANTS)
@pytest.mark.parametrize("version", [1, 2, 3])
def test_files_before_version_4_load_unless_attention_changed(tmp_path, version, generator):
    # up to version 3 an upsample transformer had one first layer per
    # kernel; its heads now share one, so such a file must not load as a
    # model it does not describe. The other generators' only transformers
    # are the encoder's, at rate 1: their records and moments load renamed
    model, optimizer = trained(ModelConfig.micro(init_seed=3, generator=generator))
    path = tmp_path / "old.ckpt"
    write_version(path, model, version, optimizer)
    if generator in ("uptrans", "pointwise"):
        with pytest.raises(FormatError, match=f"version {version} holds the per-kernel "
                                              f"attention layout of a '{generator}' model"):
            load_checkpoint(path)
        return
    loaded = load_checkpoint(path)
    restored = Adam(loaded, lr=1e-3)
    load_checkpoint(path, into=loaded, optimizer=restored)
    dtype = np.float32 if version == 1 else np.float64  # version 1 holds float32 data
    for before, after in zip(model.named_parameters(), loaded.named_parameters()):
        assert np.array_equal(before.tensor.data.astype(dtype), after.tensor.data), after.name
    assert restored.step_count == 1
    for saved, got in ((optimizer.moment1, restored.moment1),
                       (optimizer.moment2, restored.moment2)):
        for name in saved:
            assert np.array_equal(saved[name].astype(dtype), got[name]), name


def test_every_bit_flip_of_the_config_block_is_format_error(tmp_path):
    # without the checksum some flips load silently as another model
    # (other rates or init_seed); the block is the length field and the text
    raw = micro_checkpoint_bytes()
    (config_len,) = struct.unpack_from("<I", raw, 8)
    path = tmp_path / "damaged.ckpt"
    loaded = []
    for at in range(8, 12 + config_len):
        for bit in range(8):
            damaged = bytearray(raw)
            damaged[at] ^= 1 << bit
            path.write_bytes(damaged)
            try:
                load_checkpoint(path)
                loaded.append((at, bit))
            except FormatError:
                pass
    assert loaded == []


@FUZZ
@given(st.data())
def test_resealed_bit_flip_loads_or_raises_format_error(data):
    # the checksum stops almost every flip above; resealing after the flip
    # fuzzes the parser's own bounds checks, as a buggy writer would
    raw = bytearray(micro_checkpoint_bytes()[:-4])
    limit = data.draw(st.sampled_from([min(len(raw), 1024), len(raw)]))
    at = data.draw(st.integers(8, limit - 1))  # past the magic and version
    raw[at] ^= 1 << data.draw(st.integers(0, 7))
    loads_or_format_error(sealed(bytes(raw)))


@pytest.mark.parametrize("value", ["", "softmax,softmax"])
def test_file_with_a_softmax_stage_attention_key_loads_bitwise(tmp_path, value):
    # every file written while the stages' attention was a config key carries
    # it, empty; the stages always use softmax, so those files still load
    model, optimizer = trained(CONFIGS["micro"]())
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path, optimizer=optimizer)
    path.write_bytes(with_stage_attention(path.read_bytes(), value))
    assert f"stage_attention = {value}\n".encode() in path.read_bytes()
    loaded = load_checkpoint(path)
    assert loaded.config == model.config
    for before, after in zip(model.named_parameters(), loaded.named_parameters()):
        assert np.array_equal(before.tensor.data, after.tensor.data), before.name
    partial = np.random.default_rng(1).standard_normal((model.config.input_points, 3))
    assert np.array_equal(loaded.complete(partial), model.complete(partial))


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_interrupted_save_keeps_the_previous_checkpoint(tmp_path, monkeypatch, error):
    # the file used to be truncated first: a save that failed part way left a
    # short file that no longer loaded
    model, optimizer = trained(CONFIGS["micro"]())
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path, optimizer=optimizer)
    before = path.read_bytes()
    write_record = checkpoint._write_record
    calls = []

    def fail_on_the_fifth(fh, name, array):
        calls.append(name)
        if len(calls) == 5:
            raise error("interrupted")
        write_record(fh, name, array)

    monkeypatch.setattr(checkpoint, "_write_record", fail_on_the_fifth)
    with pytest.raises(error):
        save_checkpoint(CompletionModel(ModelConfig.micro(init_seed=4)), path)
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_bytes() == before
    loaded = load_checkpoint(path)
    for saved, got in zip(model.named_parameters(), loaded.named_parameters()):
        assert np.array_equal(saved.tensor.data, got.tensor.data), saved.name


def test_threads_saving_one_path_leave_one_whole_model(tmp_path, monkeypatch):
    # both threads used to write one {path}.{pid}.partial: one save raised
    # FileNotFoundError and the file left passed its CRC holding parameters
    # of both models
    models = [CompletionModel(ModelConfig.micro(init_seed=s)) for s in (1, 2)]
    path = tmp_path / "model.ckpt"
    write_record = checkpoint._write_record
    barrier = threading.Barrier(2, timeout=60)

    def meet_after_the_hidden_layer(fh, name, array):
        write_record(fh, name, array)
        if name == "stages0.core.hidden.w":
            barrier.wait()

    monkeypatch.setattr(checkpoint, "_write_record", meet_after_the_hidden_layer)
    errors = []

    def save(model):
        try:
            save_checkpoint(model, path)
        except Exception as exc:  # reported below, not lost in the thread
            errors.append(exc)

    threads = [threading.Thread(target=save, args=(m,)) for m in models]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert list(tmp_path.iterdir()) == [path]
    loaded = list(load_checkpoint(path).named_parameters())
    assert len(loaded) == 147
    assert any(
        all(np.array_equal(got.tensor.data, want.tensor.data)
            for got, want in zip(loaded, model.named_parameters()))
        for model in models
    )
