"""Binary container round-trips and corruption diagnostics."""

import json
import struct

import numpy as np
import pytest

from neurodecode import data, eegb
from neurodecode.errors import (
    BadMagicError,
    DataError,
    MetaMismatchError,
    TruncatedPayloadError,
    VersionMismatchError,
)


def _tensor(seed=0, shape=(5, 3, 4), dtype=np.float32):
    return np.random.default_rng(seed).standard_normal(shape).astype(dtype)


def _meta(n):
    return [{"trial_id": i, "label": i % 2} for i in range(n)]


class TestEpochFile:
    def test_round_trip_bitwise(self, tmp_path):
        path = tmp_path / "epochs.eegb"
        t = _tensor()
        eegb.write_tensor_file(path, t, _meta(5))
        back, meta = eegb.read_tensor_file(path)
        assert back.dtype == t.dtype
        assert back.shape == t.shape
        assert np.array_equal(back.view(np.uint8), t.view(np.uint8))
        assert meta == _meta(5)

    def test_round_trip_float64(self, tmp_path):
        path = tmp_path / "epochs.eegb"
        t = _tensor(dtype=np.float64)
        eegb.write_tensor_file(path, t, _meta(5))
        back, _ = eegb.read_tensor_file(path)
        assert back.dtype == np.float64
        assert np.array_equal(back, t)

    @pytest.mark.parametrize("tensor", [
        _tensor(),
        _tensor(dtype=np.float64),
        _tensor(shape=(5, 4, 3), dtype=np.float64).transpose(0, 2, 1),  # not C-contiguous
    ], ids=["float32", "float64", "non-contiguous"])
    def test_file_is_header_then_tobytes(self, tmp_path, tensor):
        path = tmp_path / "epochs.eegb"
        eegb.write_tensor_file(path, tensor, _meta(5))
        code = {np.float32: 0, np.float64: 1}[tensor.dtype.type]
        header = eegb.EPOCH_MAGIC + struct.pack("<5I", eegb.FORMAT_VERSION, *tensor.shape, code)
        assert path.read_bytes() == header + tensor.tobytes()

    def test_rewrite_that_fails_in_the_sidecar_leaves_no_valid_pair(self, tmp_path):
        path = tmp_path / "epochs.eegb"
        eegb.write_tensor_file(path, _tensor(), _meta(5))
        # the third line cannot be encoded, after two have been written
        bad = _meta(5)
        bad[2]["label"] = object()
        with pytest.raises(TypeError):
            eegb.write_tensor_file(path, _tensor(1), bad)
        with pytest.raises(DataError, match="no such file"):
            eegb.read_tensor_file(path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["epochs.eegb.jsonl"]

    def test_rewrite_that_fails_in_the_tensor_leaves_no_valid_pair(self, tmp_path, monkeypatch):
        path = tmp_path / "epochs.eegb"
        eegb.write_tensor_file(path, _tensor(), _meta(5))
        replace = eegb.os.replace

        def fail_on_the_tensor(src, dst):
            if dst == path:
                raise OSError("disk full")
            replace(src, dst)

        monkeypatch.setattr(eegb.os, "replace", fail_on_the_tensor)
        with pytest.raises(OSError, match="disk full"):
            eegb.write_tensor_file(path, _tensor(1), _meta(4))
        with pytest.raises(DataError, match="no such file"):
            eegb.read_tensor_file(path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["epochs.eegb.jsonl"]

    def test_rewrite_replaces_both_files(self, tmp_path):
        path = tmp_path / "epochs.eegb"
        eegb.write_tensor_file(path, _tensor(), _meta(5))
        eegb.write_tensor_file(path, _tensor(1, (4, 3, 4)), _meta(4))
        back, meta = eegb.read_tensor_file(path)
        assert np.array_equal(back, _tensor(1, (4, 3, 4))) and meta == _meta(4)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["epochs.eegb", "epochs.eegb.jsonl"]

    def test_sidecar_lives_next_to_payload(self, tmp_path):
        path = tmp_path / "epochs.eegb"
        eegb.write_tensor_file(path, _tensor(), _meta(5))
        assert eegb.sidecar_path(path).exists()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "epochs.eegb"
        eegb.write_tensor_file(path, _tensor(), _meta(5))
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(BadMagicError):
            eegb.read_tensor_file(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "epochs.eegb"
        eegb.write_tensor_file(path, _tensor(), _meta(5))
        raw = bytearray(path.read_bytes())
        raw[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(VersionMismatchError):
            eegb.read_tensor_file(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "epochs.eegb"
        eegb.write_tensor_file(path, _tensor(), _meta(5))
        raw = path.read_bytes()
        path.write_bytes(raw[:-7])
        with pytest.raises(TruncatedPayloadError):
            eegb.read_tensor_file(path)

    def test_header_sizes_beyond_the_file_are_truncation(self, tmp_path):
        # n_channels = n_samples = 0xFFFFFFFF promises more bytes than a
        # read call can even ask for; the size is checked before reading
        path = tmp_path / "epochs.eegb"
        eegb.write_tensor_file(path, _tensor(), _meta(5))
        raw = bytearray(path.read_bytes())
        raw[12:20] = b"\xff" * 8
        path.write_bytes(bytes(raw))
        with pytest.raises(TruncatedPayloadError, match="header promises"):
            eegb.read_tensor_file(path)

    def test_trailing_garbage_detected(self, tmp_path):
        path = tmp_path / "epochs.eegb"
        eegb.write_tensor_file(path, _tensor(), _meta(5))
        with open(path, "ab") as fh:
            fh.write(b"\x00\x01")
        with pytest.raises(DataError):
            eegb.read_tensor_file(path)

    def test_meta_count_mismatch(self, tmp_path):
        # the raw variant stores header+event lines, so the container reader
        # takes any count; one record per trial is the epoch file's rule
        path = tmp_path / "epochs.eegb"
        cfg = data.SynthConfig(mode="linear", n_trials=6)
        data.save_epochs(path, data.split(data.generate_synthetic(cfg), data.TEST_FRAC, 0))
        side = eegb.sidecar_path(path)
        lines = side.read_text().splitlines()
        side.write_text("\n".join(lines[:-1]) + "\n")
        _, meta = eegb.read_tensor_file(path)
        assert len(meta) == 5
        with pytest.raises(MetaMismatchError, match="declares 6 trials but sidecar has 5"):
            data.load_epochs(path)

    @pytest.mark.parametrize("dtype", [">f4", ">f8", np.float16, np.int32])
    def test_dtype_other_than_native_float_is_rejected_before_writing(self, tmp_path, dtype):
        # a big-endian float32 under the little-endian header read back
        # [0, 1, 2] as [0, 4.6e-41, 9.0e-44]
        path = tmp_path / "epochs.eegb"
        with pytest.raises(DataError, match="epoch tensor must be native float32 or float64"):
            eegb.write_tensor_file(path, np.arange(3, dtype=dtype).reshape(1, 1, 3), _meta(1))
        assert list(tmp_path.iterdir()) == []

    def test_missing_sidecar(self, tmp_path):
        path = tmp_path / "epochs.eegb"
        eegb.write_tensor_file(path, _tensor(), _meta(5))
        eegb.sidecar_path(path).unlink()
        with pytest.raises(DataError):
            eegb.read_tensor_file(path)

    @pytest.mark.parametrize("line", [b'{"trial_id": 3, "lab', b'{"trial_id": "\xff"}', b"[3, 1]"])
    def test_bad_sidecar_line_is_data_error(self, tmp_path, line):
        path = tmp_path / "epochs.eegb"
        eegb.write_tensor_file(path, _tensor(), _meta(5))
        side = eegb.sidecar_path(path)
        side.write_bytes(side.read_bytes() + line + b"\n")
        with pytest.raises(DataError, match=str(side)):
            eegb.read_tensor_file(path)


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        path = tmp_path / "model.ckpt"
        tensors = {
            "param:w": _tensor(1, (4, 7), np.float64),
            "param:b": _tensor(2, (7,), np.float32),
            "buffer:running": _tensor(3, (7,), np.float64),
            "buffer:step": np.array(1.5),  # 0-d: read back 0-d, not as shape (1,)
        }
        desc = {"arch": "eegnet", "size": "small", "seed": 3}
        eegb.save_checkpoint(path, desc, tensors)
        back_desc, back = eegb.load_checkpoint(path)
        assert back_desc == desc
        assert set(back) == set(tensors)
        for k in tensors:
            assert back[k].dtype == tensors[k].dtype
            assert back[k].shape == tensors[k].shape
            assert np.array_equal(back[k], tensors[k])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.ckpt"
        eegb.save_checkpoint(path, {}, {"param:w": _tensor()})
        raw = bytearray(path.read_bytes())
        raw[:4] = b"EEGX"
        path.write_bytes(bytes(raw))
        with pytest.raises(BadMagicError):
            eegb.load_checkpoint(path)

    def test_truncation(self, tmp_path):
        path = tmp_path / "model.ckpt"
        eegb.save_checkpoint(path, {}, {"param:w": _tensor()})
        raw = path.read_bytes()
        path.write_bytes(raw[:-11])
        with pytest.raises(TruncatedPayloadError):
            eegb.load_checkpoint(path)

    def test_tensor_name_not_utf8_is_data_error(self, tmp_path):
        path = tmp_path / "model.ckpt"
        eegb.save_checkpoint(path, {}, {"param:w": _tensor()})
        raw = bytearray(path.read_bytes())
        # magic, version, json_len, b"{}", n_tensors, name_len, then the name
        raw[22] = 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match=str(path)):
            eegb.load_checkpoint(path)

    def test_tensor_dims_beyond_the_file_are_truncation(self, tmp_path):
        path = tmp_path / "model.ckpt"
        eegb.save_checkpoint(path, {}, {"w": _tensor()})
        raw = bytearray(path.read_bytes())
        # ... name_len, b"w", dtype, ndim, then the first dim
        raw[31:35] = b"\xff" * 4
        path.write_bytes(bytes(raw))
        with pytest.raises(TruncatedPayloadError, match="tensor 'w' payload"):
            eegb.load_checkpoint(path)

    @pytest.mark.parametrize("blob", [b'{"arch": "eeg', b'{"arch": "\xff"}', b'["eegnet"]'])
    def test_descriptor_not_a_json_object_is_data_error(self, tmp_path, blob):
        path = tmp_path / "model.ckpt"
        path.write_bytes(
            eegb.CKPT_MAGIC + struct.pack("<2I", eegb.FORMAT_VERSION, len(blob)) + blob
            + struct.pack("<I", 0)
        )
        with pytest.raises(DataError, match=str(path)):
            eegb.load_checkpoint(path)

    @pytest.mark.parametrize("tensors", [
        {},
        {"param:w": _tensor(1, (4, 3), np.float64).T, "buffer:b": _tensor(2, (7,))},
    ], ids=["empty", "float64-and-float32"])
    def test_file_is_the_documented_layout(self, tmp_path, tensors):
        path = tmp_path / "model.ckpt"
        desc = {"size": "small", "arch": "eegnet", "seed": 3}
        eegb.save_checkpoint(path, desc, tensors)
        blob = json.dumps(desc, sort_keys=True).encode("utf-8")
        want = eegb.CKPT_MAGIC + struct.pack("<2I", eegb.FORMAT_VERSION, len(blob)) + blob
        want += struct.pack("<I", len(tensors))
        for name, arr in tensors.items():
            code = {np.float32: 0, np.float64: 1}[arr.dtype.type]
            want += struct.pack("<I", len(name)) + name.encode("utf-8")
            want += struct.pack(f"<{2 + arr.ndim}I", code, arr.ndim, *arr.shape) + arr.tobytes()
        assert path.read_bytes() == want

    def test_trailing_byte_is_data_error(self, tmp_path):
        path = tmp_path / "model.ckpt"
        eegb.save_checkpoint(path, {}, {"param:w": _tensor()})
        with open(path, "ab") as fh:
            fh.write(b"\x00")
        with pytest.raises(DataError, match="trailing bytes"):
            eegb.load_checkpoint(path)

    def test_repeated_tensor_name_is_data_error(self, tmp_path):
        path = tmp_path / "model.ckpt"
        eegb.save_checkpoint(path, {}, {"param:a": _tensor(1, (2,)), "param:b": _tensor(2, (2,))})
        raw = path.read_bytes()
        path.write_bytes(raw.replace(b"param:b", b"param:a"))
        with pytest.raises(DataError, match="tensor 'param:a' appears twice"):
            eegb.load_checkpoint(path)

    def test_preserves_insertion_order(self, tmp_path):
        path = tmp_path / "model.ckpt"
        tensors = {f"param:{i}": _tensor(i, (2,)) for i in range(6)}
        eegb.save_checkpoint(path, {}, tensors)
        _, back = eegb.load_checkpoint(path)
        assert list(back) == list(tensors)

    def test_write_that_fails_partway_leaves_no_file(self, tmp_path):
        path = tmp_path / "model.ckpt"
        # the second tensor's dtype is rejected after the first has been written
        tensors = {"param:w": _tensor(), "param:n": np.arange(3)}
        with pytest.raises(DataError, match="param:n"):
            eegb.save_checkpoint(path, {}, tensors)
        assert list(tmp_path.iterdir()) == []

    def test_write_that_fails_partway_keeps_the_old_checkpoint(self, tmp_path):
        path = tmp_path / "model.ckpt"
        eegb.save_checkpoint(path, {"seed": 1}, {"param:w": _tensor()})
        before = path.read_bytes()
        with pytest.raises(DataError):
            eegb.save_checkpoint(path, {"seed": 2}, {"param:w": _tensor(), "param:n": np.arange(3)})
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]
