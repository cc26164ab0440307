"""Container round-trips and format rejection."""

import json

import numpy as np
import pytest

import helpers
from nmprune import (
    FormatError,
    NMPruneError,
    load_bundle,
    save_bundle,
)


def craft_container(header: dict, payload: bytes) -> bytes:
    raw = json.dumps(header).encode("utf-8")
    return len(raw).to_bytes(8, "little") + raw + payload


class TestRoundTrip:
    def test_single_f32_tensor(self, tmp_path):
        w = np.array([[1, 2], [3, 4]], dtype=np.float32)
        path = tmp_path / "one.tensors"
        save_bundle({"w": w}, path)
        out = load_bundle(path)
        assert list(out) == ["w"]
        assert out["w"].shape == (2, 2)
        assert out["w"].dtype == np.float32
        np.testing.assert_array_equal(out["w"], w)

    def test_empty_bundle(self, tmp_path):
        path = tmp_path / "empty.tensors"
        save_bundle({}, path)
        assert len(load_bundle(path)) == 0

    def test_random_f32_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        w = rng.standard_normal((3, 5)).astype(np.float32)
        path = tmp_path / "rand.tensors"
        save_bundle({"w": w}, path)
        got = load_bundle(path)["w"]
        assert got.tobytes() == w.tobytes()

    def test_uint8_mask_preserved(self, tmp_path):
        mask = (np.arange(32).reshape(4, 8) % 2).astype(np.uint8)
        path = tmp_path / "mask.tensors"
        save_bundle({"mask": mask}, path)
        got = load_bundle(path)["mask"]
        assert got.dtype == np.uint8
        np.testing.assert_array_equal(got, mask)

    @pytest.mark.parametrize("shape", [(4, 0), (0, 4), (0,), ()])
    def test_empty_and_scalar_entries(self, tmp_path, shape):
        path = tmp_path / "edge.tensors"
        entries = {"a": np.zeros(shape, dtype=np.uint8), "b": np.ones((2, 3), dtype=np.float32)}
        save_bundle(entries, path)
        out = load_bundle(path)
        assert out["a"].shape == shape and out["a"].dtype == np.uint8
        np.testing.assert_array_equal(out["b"], entries["b"])

    def test_loaded_arrays_are_writable_and_separate(self, tmp_path):
        path = tmp_path / "two.tensors"
        save_bundle({"a": np.ones((2, 2), np.float32), "b": np.zeros(4, np.uint8)}, path)
        out = load_bundle(path)
        out["a"][0, 0] = 5.0
        assert out["a"].flags.writeable and out["a"].flags.c_contiguous
        assert not np.shares_memory(out["a"], out["b"])

    def test_save_is_byte_deterministic(self, tmp_path):
        rng = np.random.default_rng(5)
        entries = {"b": rng.standard_normal((2, 3)).astype(np.float32),
                   "a": np.ones((4,), dtype=np.uint8)}
        p1, p2 = tmp_path / "x1", tmp_path / "x2"
        save_bundle(entries, p1)
        save_bundle(dict(reversed(entries.items())), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestFormatRejection:
    def test_truncated_payload(self, tmp_path):
        header = {"w": {"dtype": "f32", "shape": [2, 2], "offset": 0, "nbytes": 16}}
        path = tmp_path / "short.tensors"
        path.write_bytes(craft_container(header, b"\x00" * 8))
        with pytest.raises(FormatError):
            load_bundle(path)

    def test_huge_declared_shape_is_truncated_payload(self, tmp_path):
        # rejected before any array of that size is allocated
        header = {"w": {"dtype": "f32", "shape": [1 << 20, 1 << 20], "offset": 0,
                        "nbytes": 1 << 42}}
        path = tmp_path / "huge.tensors"
        path.write_bytes(craft_container(header, b"\x00" * 16))
        with pytest.raises(FormatError, match="truncated payload"):
            load_bundle(path)

    def test_header_longer_than_file(self, tmp_path):
        path = tmp_path / "bad.tensors"
        path.write_bytes((999).to_bytes(8, "little") + b"{}")
        with pytest.raises(FormatError):
            load_bundle(path)

    def test_header_not_json(self, tmp_path):
        path = tmp_path / "bad.tensors"
        path.write_bytes((4).to_bytes(8, "little") + b"nope")
        with pytest.raises(FormatError):
            load_bundle(path)

    def test_duplicate_names_in_header(self, tmp_path):
        meta = '{"dtype":"u8","shape":[1],"offset":0,"nbytes":1}'
        raw = f'{{"w":{meta},"w":{meta}}}'.encode()
        path = tmp_path / "dup.tensors"
        path.write_bytes(len(raw).to_bytes(8, "little") + raw + b"\x00")
        with pytest.raises(FormatError, match="duplicate"):
            load_bundle(path)

    def test_nbytes_shape_mismatch(self, tmp_path):
        header = {"w": {"dtype": "f32", "shape": [2, 2], "offset": 0, "nbytes": 12}}
        path = tmp_path / "bad.tensors"
        path.write_bytes(craft_container(header, b"\x00" * 16))
        with pytest.raises(FormatError):
            load_bundle(path)

    def test_unknown_dtype_tag(self, tmp_path):
        header = {"w": {"dtype": "f64", "shape": [1], "offset": 0, "nbytes": 8}}
        path = tmp_path / "bad.tensors"
        path.write_bytes(craft_container(header, b"\x00" * 8))
        with pytest.raises(FormatError):
            load_bundle(path)

    @pytest.mark.parametrize("field, value", [("shape", [True, 2]), ("offset", False),
                                              ("nbytes", True)])
    def test_boolean_counts_rejected(self, tmp_path, field, value):
        header = {"w": {"dtype": "u8", "shape": [1, 2], "offset": 0, "nbytes": 2}}
        header["w"][field] = value
        path = tmp_path / "bool.tensors"
        path.write_bytes(craft_container(header, b"\x00" * 2))
        with pytest.raises(FormatError, match="entry 'w'"):
            load_bundle(path)

    def test_file_too_short_for_length(self, tmp_path):
        path = tmp_path / "tiny.tensors"
        path.write_bytes(b"\x01\x02")
        with pytest.raises(FormatError):
            load_bundle(path)


class TestBundleInvariants:
    def test_empty_name_rejected(self, tmp_path):
        with pytest.raises(NMPruneError, match="entry names must be non-empty strings"):
            save_bundle({"": np.zeros((1,), dtype=np.float32)}, tmp_path / "x.tensors")

    def test_unsupported_dtype_rejected(self, tmp_path):
        with pytest.raises(NMPruneError, match="only float32 and uint8 are stored"):
            save_bundle({"w": np.zeros((1,), dtype=np.float64)}, tmp_path / "x.tensors")

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(NMPruneError, match="cannot write"):
            save_bundle({"w": np.zeros((1,), dtype=np.float32)},
                        tmp_path / "missing" / "dir" / "x.tensors")


def container(tmp_path, header):
    path = tmp_path / "bad.tensors"
    path.write_bytes(craft_container(header, b"\x00"))
    return path


META = {"dtype": "u8", "shape": [1], "offset": 0, "nbytes": 1}

REFUSALS = [
    pytest.param([META], "container header must be a JSON object", id="list-header"),
    pytest.param({"": META}, "container header has an empty entry name", id="empty-name"),
    pytest.param({"w": 1}, "entry 'w': header record must be an object", id="number-record"),
    pytest.param({"w": {k: v for k, v in META.items() if k != "offset"}},
                 "entry 'w': missing header field 'offset'", id="missing-field"),
]


@pytest.mark.parametrize("header, message", REFUSALS)
def test_refusals(tmp_path, header, message):
    path = container(tmp_path, header)
    assert helpers.outcome(load_bundle, path)[0] == (FormatError, message)
