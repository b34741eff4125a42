import struct

import numpy as np
import pytest

from sepseg.autograd import Rng
from sepseg.data import (
    CheckpointError,
    DataError,
    NiftiError,
    build_slice_dataset,
    generate_phantom,
    load_checkpoint,
    load_into_model,
    read_nifti,
    save_checkpoint,
    write_pgm,
)
from sepseg.metrics import mask_scores
from sepseg.model import ModelSpec, build_model
from sepseg.preprocess import WindowSpec

from conftest import make_nifti


class TestNiftiReader:
    def test_basic_int16_roundtrip(self, nifti_factory):
        data = np.arange(32, dtype=np.int16).reshape(2, 4, 4)
        vol = read_nifti(nifti_factory("v.nii", data))
        # the voxels themselves, (Z, Y, X) float32, for header dims (X, Y, Z) = (4, 4, 2)
        assert type(vol) is np.ndarray and vol.dtype == np.float32 and vol.shape == (2, 4, 4)
        np.testing.assert_array_equal(vol, data.astype(np.float32))

    def test_slope_intercept(self, nifti_factory):
        data = np.arange(32, dtype=np.int16).reshape(2, 4, 4)
        vol = read_nifti(nifti_factory("v.nii", data, slope=2.0, inter=-1000.0))
        np.testing.assert_array_equal(vol, 2.0 * data - 1000.0)

    def test_zero_slope_treated_as_one(self, nifti_factory):
        data = np.ones((1, 2, 2), dtype=np.int16) * 7
        vol = read_nifti(nifti_factory("v.nii", data, slope=0.0, inter=3.0))
        np.testing.assert_array_equal(vol, 10.0)

    def test_float32_payload(self, nifti_factory):
        data = np.random.default_rng(0).normal(size=(2, 3, 3)).astype(np.float32)
        vol = read_nifti(nifti_factory("v.nii", data, datatype=16))
        np.testing.assert_array_equal(vol, data)

    def test_big_endian_detected(self, nifti_factory):
        data = np.arange(8, dtype=np.int16).reshape(1, 2, 4)
        vol = read_nifti(nifti_factory("v.nii", data, byteorder=">"))
        np.testing.assert_array_equal(vol, data)

    def test_detached_header_rejected(self, nifti_factory):
        data = np.zeros((1, 2, 2), dtype=np.int16)
        path = nifti_factory("v.nii", data, magic=b"ni1\x00")
        with pytest.raises(NiftiError, match="detached header"):
            read_nifti(path)

    def test_bad_magic(self, nifti_factory):
        path = nifti_factory("v.nii", np.zeros((1, 2, 2), dtype=np.int16),
                             magic=b"XXXX")
        with pytest.raises(NiftiError, match="magic"):
            read_nifti(path)

    def test_unsupported_datatype(self, nifti_factory):
        path = nifti_factory("v.nii", np.zeros((1, 2, 2), dtype=np.int16),
                             datatype=64)
        with pytest.raises(NiftiError, match="datatype"):
            read_nifti(path)

    def test_truncated_payload(self, nifti_factory):
        path = nifti_factory("v.nii", np.zeros((2, 4, 4), dtype=np.int16),
                             truncate=10)
        with pytest.raises(NiftiError, match="truncated"):
            read_nifti(path)

    @staticmethod
    def _patch(path, offset, fmt, value):
        with open(path, "r+b") as fh:
            fh.seek(offset)
            fh.write(struct.pack(fmt, value))

    @pytest.mark.parametrize("axis,value", [(1, -3), (2, 0), (3, -1)])
    def test_non_positive_dim_rejected(self, nifti_factory, axis, value):
        path = nifti_factory("v.nii", np.zeros((2, 3, 3), dtype=np.int16))
        self._patch(path, 40 + 2 * axis, "<h", value)
        with pytest.raises(NiftiError, match="non-positive"):
            read_nifti(path)

    @pytest.mark.parametrize("dim", [(4, 4, 4, 2, 3), (5, 4, 4, 2, 1, 3)])
    def test_several_volumes_rejected(self, nifti_factory, dim):
        # three 4x4x2 volumes, along dim[4] (a time series) or along dim[5]
        path = nifti_factory("v.nii", np.arange(96, dtype=np.int16).reshape(6, 4, 4))
        for i, d in enumerate(dim):
            self._patch(path, 40 + 2 * i, "<h", d)
        with pytest.raises(NiftiError, match="only one 3-D volume"):
            read_nifti(path)

    def test_trailing_unit_dims_accepted(self, nifti_factory):
        data = np.arange(32, dtype=np.int16).reshape(2, 4, 4)
        path = nifti_factory("v.nii", data)
        self._patch(path, 40, "<h", 7)  # dim[4..7] are 1
        np.testing.assert_array_equal(read_nifti(path), data)

    @pytest.mark.parametrize("vox_offset", [0.0, 348.0, float("nan"), float("inf")])
    def test_vox_offset_inside_header_rejected(self, nifti_factory, vox_offset):
        path = nifti_factory("v.nii", np.zeros((2, 3, 3), dtype=np.int16))
        self._patch(path, 108, "<f", vox_offset)
        with pytest.raises(NiftiError, match="vox_offset"):
            read_nifti(path)

    @pytest.mark.parametrize("vox_offset", [353.5, 352.25])
    def test_non_integral_vox_offset_rejected(self, nifti_factory, vox_offset):
        # truncated to a whole byte, 353.5 would shift every int16 by a byte
        path = nifti_factory("v.nii", np.arange(18, dtype=np.int16).reshape(2, 3, 3) * 10,
                             vox_offset=356)
        self._patch(path, 108, "<f", vox_offset)
        with pytest.raises(NiftiError, match="vox_offset"):
            read_nifti(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_float_voxel_names_its_slice(self, nifti_factory, value):
        data = np.zeros((3, 4, 4), dtype=np.float32)
        data[1, 2, 3] = value
        data[2, 0, 0] = value
        with pytest.raises(NiftiError, match="slice 1 holds a non-finite voxel"):
            read_nifti(nifti_factory("v.nii", data, datatype=16))

    @pytest.mark.parametrize("field,offset", [("scl_slope", 112), ("scl_inter", 116)])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_scaling_rejected(self, nifti_factory, field, offset, value):
        path = nifti_factory("v.nii", np.ones((2, 3, 3), dtype=np.int16))
        self._patch(path, offset, "<f", value)
        with pytest.raises(NiftiError, match=field):
            read_nifti(path)

    def test_scaling_overflow_rejected(self, nifti_factory):
        data = np.zeros((2, 3, 3), dtype=np.int16)
        data[1, 0, 0] = 30000
        path = nifti_factory("v.nii", data, slope=3e38)
        with pytest.raises(NiftiError, match="slice 1"):
            read_nifti(path)

    def test_vox_offset_past_extension_accepted(self, nifti_factory):
        data = np.arange(18, dtype=np.int16).reshape(2, 3, 3)
        vol = read_nifti(nifti_factory("v.nii", data, vox_offset=400))
        np.testing.assert_array_equal(vol, data)


def _volume_pair(z=5, side=32, lesion_slices=(2,)):
    rng = np.random.default_rng(0)
    img = rng.integers(-200, 300, (z, side, side)).astype(np.int16)
    mask = np.zeros((z, side, side), dtype=np.int16)
    for i in lesion_slices:
        mask[i, 8:16, 8:16] = 1
    return img, mask


class TestSliceDataset:
    def _read(self, nifti_factory, img, mask, name="0"):
        v = read_nifti(nifti_factory(f"volume-{name}.nii", img))
        m = read_nifti(nifti_factory(f"segmentation-{name}.nii", mask))
        return {name: (v, m)}

    def test_lesion_filter_empty_when_no_lesion(self, nifti_factory):
        img, mask = _volume_pair(lesion_slices=())
        volumes = self._read(nifti_factory, img, mask)
        samples = build_slice_dataset(volumes, WindowSpec(), resize=32, lesion_class=1)
        assert samples == []

    def test_lesion_filter_with_neighbors(self, nifti_factory):
        img, mask = _volume_pair(z=8, lesion_slices=(3,))
        volumes = self._read(nifti_factory, img, mask)
        samples = build_slice_dataset(volumes, WindowSpec(), resize=32, lesion_class=1)
        assert [s.slice_index for s in samples] == [1, 2, 3, 4, 5]

    def test_lesion_filter_keeps_the_lesion_class(self, nifti_factory):
        img, mask = _volume_pair(z=9, lesion_slices=())
        mask[:, 4:28, 4:28] = 1
        mask[4, 8:16, 8:16] = 2
        volumes = self._read(nifti_factory, img, mask)
        kept = [[s.slice_index for s in build_slice_dataset(volumes, WindowSpec(), resize=32,
                                                            lesion_class=c)]
                for c in (2, 1)]
        assert kept == [[2, 3, 4, 5, 6], list(range(9))]

    def test_pipeline_value_ranges(self, nifti_factory):
        img, mask = _volume_pair()
        volumes = self._read(nifti_factory, img, mask)
        for s in build_slice_dataset(volumes, WindowSpec(), resize=32, lesion_class=1):
            assert s.image.min() >= 0.0 and s.image.max() <= 1.0
            assert set(np.unique(s.mask)) <= {0, 1}

    def test_missing_mask(self, tmp_path, nifti_factory):
        # the loader of a data directory pairs each volume with its mask
        from sepseg.cli import _load_dataset
        from sepseg.config import RunConfig

        img, _ = _volume_pair()
        nifti_factory("volume-0.nii", img)
        with pytest.raises(DataError, match="'0'"):
            _load_dataset(str(tmp_path), RunConfig())

    def test_dim_mismatch(self, nifti_factory):
        img, _ = _volume_pair()
        v = read_nifti(nifti_factory("volume-0.nii", img))
        bad_mask = read_nifti(
            nifti_factory("segmentation-bad.nii", np.zeros((3, 32, 32), dtype=np.int16))
        )
        with pytest.raises(DataError, match=r"image dims \(32, 32, 5\) != mask dims \(32, 32, 3\)"):
            build_slice_dataset({"0": (v, bad_mask)}, WindowSpec(), resize=32, lesion_class=1)

    @pytest.mark.parametrize("stored", ["float32 labels", "scl_slope"])
    def test_non_integral_mask_label_names_its_slice(self, nifti_factory, stored):
        # 1.7 on slice 2 and 0.6 on slice 3 would become labels 1 and 0
        img, mask = _volume_pair(lesion_slices=())
        if stored == "float32 labels":
            mask = mask.astype(np.float32)
            mask[2, 4, 4], mask[3, 5, 5] = 1.7, 0.6
            m = read_nifti(nifti_factory("segmentation-0.nii", mask, datatype=16))
        else:
            mask[2, 4, 4], mask[3, 5, 5] = 17, 6
            m = read_nifti(nifti_factory("segmentation-0.nii", mask, slope=0.1))
        v = read_nifti(nifti_factory("volume-0.nii", img))
        with pytest.raises(DataError, match="volume '0' slice 2: .*not a whole number"):
            build_slice_dataset({"0": (v, m)}, WindowSpec(), resize=32, lesion_class=1)

    def test_whole_float_labels_accepted(self, nifti_factory):
        img, mask = _volume_pair(lesion_slices=(2,))
        m = read_nifti(nifti_factory("segmentation-0.nii", mask * 4, slope=0.25))
        v = read_nifti(nifti_factory("volume-0.nii", img))
        samples = build_slice_dataset({"0": (v, m)}, WindowSpec(), resize=32, lesion_class=1)
        assert [s.slice_index for s in samples] == [0, 1, 2, 3, 4]
        assert all(set(np.unique(s.mask)) <= {0, 1} for s in samples)


class TestPhantoms:
    def test_count_and_nonempty_masks(self):
        samples = generate_phantom(Rng(0, 9), 64, 8)
        assert len(samples) == 8
        for s in samples:
            assert s.mask.any()
            assert s.image.shape == (1, 64, 64)
            assert 0.0 <= s.image.min() and s.image.max() <= 1.0

    def test_same_seed_bit_identical(self):
        a = generate_phantom(Rng(3, 9), 64, 4)
        b = generate_phantom(Rng(3, 9), 64, 4)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.image, sb.image)
            np.testing.assert_array_equal(sa.mask, sb.mask)

    def test_area_fraction_bounds(self):
        for s in generate_phantom(Rng(1, 9), 64, 16):
            frac = s.mask.mean()
            assert 0.02 <= frac <= 0.20

    def test_self_score_is_one(self):
        for s in generate_phantom(Rng(2, 9), 64, 4):
            assert mask_scores(s.mask, s.mask)[0] == 1.0

    def test_size_must_divide_16(self):
        with pytest.raises(ValueError):
            generate_phantom(Rng(0), 60, 2)


class TestCheckpoint:
    def test_save_load_save_byte_identical(self, tmp_path):
        model = build_model(ModelSpec(base_depth=8), Rng(0, 0))
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(model.named_parameters(), p1)
        loaded = load_checkpoint(p1)
        save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_roundtrip_restores_values_and_order(self, tmp_path):
        model = build_model(ModelSpec(base_depth=8), Rng(0, 0))
        path = tmp_path / "m.ckpt"
        save_checkpoint(model.named_parameters(), path)
        loaded = load_checkpoint(path)
        assert list(loaded) == list(model.named_parameters())
        for name, t in model.named_parameters().items():
            np.testing.assert_array_equal(loaded[name], t.data)

    def test_roundtrip_preserves_forward(self, tmp_path):
        from sepseg.autograd import Tensor
        from sepseg.model import forward

        model = build_model(ModelSpec(base_depth=8), Rng(0, 0))
        x = Tensor(np.random.default_rng(0).normal(size=(1, 1, 32, 32)).astype(np.float32))
        before = forward(model, x, "infer").data.copy()
        path = tmp_path / "m.ckpt"
        save_checkpoint(model.named_parameters(), path)
        fresh = build_model(ModelSpec(base_depth=8), Rng(99, 0))
        load_into_model(fresh, load_checkpoint(path))
        np.testing.assert_array_equal(forward(fresh, x, "infer").data, before)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"JUNK" + b"\x00" * 32)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_flipped_payload_byte_changes_a_tensor(self, tmp_path):
        model = build_model(ModelSpec(base_depth=8), Rng(0, 0))
        path = tmp_path / "m.ckpt"
        save_checkpoint(model.named_parameters(), path)
        blob = bytearray(path.read_bytes())
        blob[-3] ^= 0xFF  # inside the last tensor's payload
        path.write_bytes(bytes(blob))
        loaded = load_checkpoint(path)  # framing still parses
        last = list(model.named_parameters().items())[-1]
        assert not np.array_equal(loaded[last[0]], last[1].data)

    def test_truncation_detected(self, tmp_path):
        model = build_model(ModelSpec(base_depth=8), Rng(0, 0))
        path = tmp_path / "m.ckpt"
        save_checkpoint(model.named_parameters(), path)
        path.write_bytes(path.read_bytes()[:-17])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_non_utf8_name_rejected(self, tmp_path):
        model = build_model(ModelSpec(base_depth=8), Rng(0, 0))
        path = tmp_path / "m.ckpt"
        save_checkpoint(model.named_parameters(), path)
        blob = bytearray(path.read_bytes())
        blob[16] = 0xFF  # first byte of the first entry name
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="UTF-8"):
            load_checkpoint(path)

    @pytest.mark.parametrize("tail", [b"\x00", bytes(4), b"SSEG"])
    def test_trailing_bytes_rejected(self, tmp_path, tail):
        model = build_model(ModelSpec(base_depth=8), Rng(0, 0))
        path = tmp_path / "m.ckpt"
        save_checkpoint(model.named_parameters(), path)
        path.write_bytes(path.read_bytes() + tail)
        with pytest.raises(CheckpointError, match=f"{len(tail)} trailing bytes"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected_by_name(self, tmp_path, value):
        params = build_model(ModelSpec(base_depth=8), Rng(0, 0)).named_parameters()
        names = list(params)
        for name in (names[3], names[7]):  # the first one is named
            params[name].data.flat[-1] = value
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, path)
        with pytest.raises(CheckpointError, match=f"{names[3]}.*NaN or an Inf"):
            load_checkpoint(path)

    @pytest.mark.parametrize("shape,payload,reason", [
        ((1,) * 65, bytes(4), "maximum supported dimension"),
        ((2**32 - 1,) * 3 + (0,), b"", "cannot reshape"),
        ((0,) + (2**32 - 1,) * 3, b"", "too big"),
    ], ids=["rank 65", "zero size, huge extents", "too big"])
    def test_unusable_entry_shape_rejected_by_name(self, tmp_path, shape, payload, reason):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"SSEG" + struct.pack("<III", 1, 1, 1) + b"w"
                         + struct.pack(f"<I{len(shape)}I", len(shape), *shape) + payload)
        with pytest.raises(CheckpointError, match=f"entry 'w' has unusable shape.*{reason}"):
            load_checkpoint(path)

    def test_checkpoint_with_statistics_loads(self, tmp_path):
        model = build_model(ModelSpec(base_depth=8), Rng(0, 0))
        stats = model.named_statistics()
        for arr in stats.values():
            arr += 0.5
        path = tmp_path / "m.ckpt"
        save_checkpoint({**model.named_parameters(), **stats}, path)
        fresh = build_model(ModelSpec(base_depth=8), Rng(1, 0))
        load_into_model(fresh, load_checkpoint(path))
        for name, arr in fresh.named_statistics().items():
            np.testing.assert_array_equal(arr, stats[name])

    def test_negative_running_variance_rejected_by_name(self, tmp_path):
        model = build_model(ModelSpec(base_depth=8), Rng(0, 0))
        stats = model.named_statistics()
        stats["enc3.res.bn.running_var"][1] = -1.0
        path = tmp_path / "m.ckpt"
        save_checkpoint({**model.named_parameters(), **stats}, path)
        fresh = build_model(ModelSpec(base_depth=8), Rng(1, 0))
        with pytest.raises(CheckpointError,
                           match="entry 'enc3.res.bn.running_var' holds a negative running"):
            load_into_model(fresh, load_checkpoint(path))

    def test_shape_mismatch_names_first_entry(self, tmp_path):
        small = build_model(ModelSpec(base_depth=8), Rng(0, 0))
        big = build_model(ModelSpec(base_depth=16), Rng(0, 0))
        path = tmp_path / "m.ckpt"
        save_checkpoint(small.named_parameters(), path)
        with pytest.raises(CheckpointError, match="enc1"):
            load_into_model(big, load_checkpoint(path))


class TestPgm:
    def test_header_and_values(self, tmp_path):
        mask = np.array([[0, 1], [1, 0]])
        path = tmp_path / "m.pgm"
        write_pgm(mask, path)
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n2 2\n255\n")
        assert blob[-4:] == bytes([0, 255, 255, 0])
