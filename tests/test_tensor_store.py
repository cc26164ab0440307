"""Container round-trips and format rejection."""

import json
import os
from unittest import mock

import numpy as np
import pytest

import helpers
from nmprune import metrics, tensor_store
from nmprune import (
    FormatError,
    NMPruneError,
    load_bundle,
    save_bundle,
)
from nmprune.tensor_store import BlockSource


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


def rows_of(arr, step):
    return [arr[i : i + step] for i in range(0, len(arr), step)]


class TestBlockSource:
    """An entry streamed as row blocks writes the bytes of the whole array."""

    @pytest.mark.parametrize("step", [1, 2, 3, 7])
    def test_streamed_entry_matches_the_whole_array(self, tmp_path, step):
        rng = np.random.default_rng(5)
        w = rng.standard_normal((7, 5)).astype(np.float32)
        mask = rng.integers(0, 2, size=(7, 5)).astype(np.uint8)
        save_bundle({"w": w, "mask": mask, "z": w[:2]}, tmp_path / "whole.tensors")
        streamed = {"w": BlockSource(np.float32, w.shape, iter(rows_of(w, step))),
                    "mask": BlockSource(np.dtype(np.uint8), mask.shape, rows_of(mask, step)),
                    "z": w[:2]}
        save_bundle(streamed, tmp_path / "streamed.tensors")
        assert (tmp_path / "streamed.tensors").read_bytes() == (
            tmp_path / "whole.tensors").read_bytes()

    @pytest.mark.parametrize("change", [-1, 1])
    def test_a_byte_too_few_or_too_many_is_refused(self, tmp_path, change):
        blocks = [np.zeros(3, dtype=np.uint8), np.zeros(2 + change, dtype=np.uint8)]
        entries = {"a": np.ones(2, dtype=np.float32),
                   "mask": BlockSource(np.uint8, (5,), blocks)}
        target = tmp_path / "x.tensors"
        with pytest.raises(NMPruneError) as info:
            save_bundle(entries, target)
        assert str(info.value) == "entry 'mask': row blocks do not fill its shape exactly"
        assert list(tmp_path.iterdir()) == []

    def test_an_existing_target_survives_a_refused_stream(self, tmp_path):
        target = tmp_path / "x.tensors"
        target.write_bytes(b"old")
        with pytest.raises(NMPruneError, match="entry 'w'"):
            save_bundle({"w": BlockSource(np.float32, (2, 2), [np.zeros((1, 2))])}, target)
        assert list(tmp_path.iterdir()) == [target] and target.read_bytes() == b"old"

    def test_unsupported_dtype_rejected(self, tmp_path):
        source = BlockSource(np.float64, (1,), [np.zeros(1)])
        with pytest.raises(NMPruneError) as info:
            save_bundle({"w": source}, tmp_path / "x.tensors")
        assert str(info.value) == (
            "entry 'w' has dtype float64; only float32 and uint8 are stored")
        assert helpers.outcome(save_bundle, {"w": np.zeros(1)}, tmp_path / "x.tensors")[0] == (
            NMPruneError, str(info.value))
        assert list(tmp_path.iterdir()) == []


class TestOnDemand:
    """load_bundle checks the header; each entry is read when it is asked for."""

    @pytest.fixture
    def path(self, tmp_path):
        rng = np.random.default_rng(3)
        path = tmp_path / "two.tensors"
        save_bundle({"mask": rng.integers(0, 2, size=(9, 5)).astype(np.uint8),
                     "w": rng.standard_normal((9, 5)).astype(np.float32)}, path)
        return path

    def test_each_index_reads_the_file_and_keeps_nothing(self, path, tmp_path):
        bundle = load_bundle(path)
        opened, open_entry = [], tensor_store.Bundle._open
        with mock.patch.object(tensor_store.Bundle, "_open",
                               lambda bundle, name: opened.append(name) or open_entry(bundle, name)):
            first, second = bundle["w"], bundle["w"]
        assert opened == ["w", "w"] and first is not second
        assert first.tobytes() == second.tobytes()
        assert "w" in bundle and "x" not in bundle
        assert sorted(bundle) == ["mask", "w"] and len(bundle) == 2
        with pytest.raises(KeyError):
            bundle["x"]
        # an entry read before the file changed is not handed out again
        save_bundle({"mask": bundle["mask"], "w": first}, tmp_path / "new.tensors")
        os.replace(tmp_path / "new.tensors", path)
        for _ in range(2):
            with pytest.raises(FormatError, match="^entry 'w': the file changed"):
                bundle["w"]

    @pytest.mark.parametrize("name", ["mask", "w"])
    def test_rows_over_several_blocks_equal_the_whole_read(self, path, tmp_path, name):
        whole = load_bundle(path)[name]
        with mock.patch.object(metrics, "_TOPK_CHUNK", 10):  # two rows per block
            source = load_bundle(path).rows(name)
            blocks = [block.copy() for block in source.blocks]
        assert len(blocks) == 5 and (source.dtype, source.shape) == (whole.dtype, whole.shape)
        assert np.concatenate(blocks).tobytes() == whole.tobytes()
        with mock.patch.object(metrics, "_TOPK_CHUNK", 10):
            save_bundle({name: load_bundle(path).rows(name)}, tmp_path / "streamed.tensors")
        assert load_bundle(tmp_path / "streamed.tensors")[name].tobytes() == whole.tobytes()

    def test_truncated_after_the_load_is_refused_by_name(self, path):
        bundle = load_bundle(path)
        os.truncate(path, path.stat().st_size - 1)
        message = "entry 'w': the file changed after its header was checked"
        with pytest.raises(FormatError) as info:
            bundle["w"]
        assert str(info.value) == message
        with pytest.raises(FormatError) as info:
            list(bundle.rows("w").blocks)
        assert str(info.value) == message

    def test_truncated_while_rows_stream_is_refused_by_name(self, tmp_path):
        path = tmp_path / "big.tensors"  # 40 KiB: more than the reader buffers ahead
        save_bundle({"w": np.ones((40, 256), np.float32)}, path)
        with mock.patch.object(metrics, "_TOPK_CHUNK", 512):
            blocks = iter(load_bundle(path).rows("w").blocks)  # one pass of the re-iterable blocks
            next(blocks)
            os.truncate(path, path.stat().st_size // 2)
            with pytest.raises(FormatError, match="^entry 'w': truncated payload$"):
                list(blocks)

    def test_rows_read_again_check_the_file_again(self, path):
        source = load_bundle(path).rows("w")
        first = [block.copy() for block in source.blocks]
        assert [block.tobytes() for block in source.blocks] == [b.tobytes() for b in first]
        save_bundle({"w": np.concatenate(first)}, path)  # the same entry, in a new file
        with pytest.raises(FormatError, match="^entry 'w': the file changed after its header"):
            list(source.blocks)

    def test_replaced_after_the_load_is_refused(self, path, tmp_path):
        bundle = load_bundle(path)
        save_bundle({"mask": np.zeros((9, 5), np.uint8), "w": np.zeros((9, 5), np.float32)},
                    path)
        with pytest.raises(FormatError, match="^entry 'mask': the file changed"):
            bundle["mask"]


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
