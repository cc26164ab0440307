"""Container round-trips, format rejection, and the CSV debug format."""

import json

import numpy as np
import pytest

from nmprune import (
    FormatError,
    InvariantError,
    IoError,
    ShapeError,
    TensorBundle,
    load_bundle,
    load_csv_matrix,
    save_bundle,
    save_csv_matrix,
)


def craft_container(header: dict, payload: bytes) -> bytes:
    raw = json.dumps(header).encode("utf-8")
    return len(raw).to_bytes(8, "little") + raw + payload


class TestRoundTrip:
    def test_single_f32_tensor(self, tmp_path):
        w = np.array([[1, 2], [3, 4]], dtype=np.float32)
        path = tmp_path / "one.tensors"
        save_bundle(TensorBundle({"w": w}), path)
        out = load_bundle(path)
        assert list(out.entries) == ["w"]
        assert out["w"].shape == (2, 2)
        assert out["w"].dtype == np.float32
        np.testing.assert_array_equal(out["w"], w)

    def test_empty_bundle(self, tmp_path):
        path = tmp_path / "empty.tensors"
        save_bundle(TensorBundle({}), path)
        assert len(load_bundle(path)) == 0

    def test_random_f32_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        w = rng.standard_normal((3, 5)).astype(np.float32)
        path = tmp_path / "rand.tensors"
        save_bundle(TensorBundle({"w": w}), path)
        got = load_bundle(path)["w"]
        assert got.tobytes() == w.tobytes()

    def test_uint8_mask_preserved(self, tmp_path):
        mask = (np.arange(32).reshape(4, 8) % 2).astype(np.uint8)
        path = tmp_path / "mask.tensors"
        save_bundle(TensorBundle({"mask": mask}), path)
        got = load_bundle(path)["mask"]
        assert got.dtype == np.uint8
        np.testing.assert_array_equal(got, mask)

    def test_save_is_byte_deterministic(self, tmp_path):
        rng = np.random.default_rng(5)
        entries = {"b": rng.standard_normal((2, 3)).astype(np.float32),
                   "a": np.ones((4,), dtype=np.uint8)}
        p1, p2 = tmp_path / "x1", tmp_path / "x2"
        save_bundle(TensorBundle(entries), p1)
        save_bundle(TensorBundle(dict(reversed(entries.items()))), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestFormatRejection:
    def test_truncated_payload(self, tmp_path):
        header = {"w": {"dtype": "f32", "shape": [2, 2], "offset": 0, "nbytes": 16}}
        path = tmp_path / "short.tensors"
        path.write_bytes(craft_container(header, b"\x00" * 8))
        with pytest.raises(FormatError):
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

    def test_file_too_short_for_length(self, tmp_path):
        path = tmp_path / "tiny.tensors"
        path.write_bytes(b"\x01\x02")
        with pytest.raises(FormatError):
            load_bundle(path)


class TestBundleInvariants:
    def test_empty_name_rejected(self):
        with pytest.raises(InvariantError):
            TensorBundle({"": np.zeros((1,), dtype=np.float32)})

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(InvariantError):
            TensorBundle({"w": np.zeros((1,), dtype=np.float64)})

    def test_unwritable_path(self, tmp_path):
        bundle = TensorBundle({"w": np.zeros((1,), dtype=np.float32)})
        with pytest.raises(IoError):
            save_bundle(bundle, tmp_path / "missing" / "dir" / "x.tensors")


class TestCsv:
    def test_csv_matches_container_values(self, tmp_path):
        rng = np.random.default_rng(3)
        w = (rng.standard_normal((5, 7)) * 10).astype(np.float32)
        csv_path = tmp_path / "w.csv"
        bin_path = tmp_path / "w.tensors"
        save_csv_matrix(w, csv_path)
        save_bundle(TensorBundle({"w": w}), bin_path)
        np.testing.assert_array_equal(load_csv_matrix(csv_path), load_bundle(bin_path)["w"])

    def test_no_header_row(self, tmp_path):
        path = tmp_path / "w.csv"
        save_csv_matrix(np.eye(2, dtype=np.float32), path)
        first = path.read_text().splitlines()[0]
        assert first.split(",")[0] == "1"

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3\n4,5\n")
        with pytest.raises(FormatError):
            load_csv_matrix(path)

    def test_export_needs_matrix(self, tmp_path):
        with pytest.raises(ShapeError):
            save_csv_matrix(np.zeros(3, dtype=np.float32), tmp_path / "v.csv")
