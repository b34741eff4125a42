"""Volume and checkpoint I/O plus dataset assembly.

Covers a minimal uncompressed NIfTI-1 reader (int16 / float32 / uint8,
slope/intercept scaling, endianness detection), axial slice-dataset
construction, a synthetic ellipse-phantom generator for desk-scale
runs, and the bit-exact binary checkpoint format.
"""

from __future__ import annotations

import os
import struct
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .autograd import Rng, Tensor
from .preprocess import WindowSpec, prepare_slice, resize_nearest

CHECKPOINT_MAGIC = b"SSEG"
CHECKPOINT_VERSION = 1

NIFTI_DTYPES = {2: np.uint8, 4: np.int16, 16: np.float32}


class NiftiError(ValueError):
    """Malformed or unsupported NIfTI-1 input."""


class CheckpointError(ValueError):
    """Malformed checkpoint file or model mismatch."""


class DataError(ValueError):
    """Dataset-level inconsistency (missing mask, dim mismatch...)."""


@dataclass
class Volume:
    dims: tuple  # (X, Y, Z)
    voxels: np.ndarray  # (Z, Y, X) float32, Hounsfield units


@dataclass
class SliceSample:
    image: np.ndarray  # (1, S, S) float32 in [0, 1]
    mask: np.ndarray  # (S, S) integer labels
    volume_id: str
    slice_index: int


# -- NIfTI-1 ------------------------------------------------------------------


def read_nifti(path) -> Volume:
    """Read an uncompressed single-file NIfTI-1 volume into HU voxels."""
    with open(path, "rb") as fh:
        header = fh.read(348)
        if len(header) < 348:
            raise NiftiError(f"header truncated: got {len(header)} bytes, need 348")
        rest = fh.read()

    magic = header[344:348]
    if magic == b"ni1\x00":
        raise NiftiError("unsupported: detached header (magic 'ni1')")
    if magic != b"n+1\x00":
        raise NiftiError(f"bad magic {magic!r}, expected 'n+1\\0'")

    # dim[0] must be 1..7; if not, the file was written on the other endianness
    dim0_le = struct.unpack_from("<h", header, 40)[0]
    endian = "<" if 1 <= dim0_le <= 7 else ">"
    sizeof_hdr = struct.unpack_from(endian + "i", header, 0)[0]
    if sizeof_hdr != 348:
        raise NiftiError(f"sizeof_hdr is {sizeof_hdr}, expected 348")
    dim = struct.unpack_from(endian + "8h", header, 40)
    if not 1 <= dim[0] <= 7:
        raise NiftiError(f"dim[0] = {dim[0]} outside [1, 7]")
    datatype = struct.unpack_from(endian + "h", header, 70)[0]
    if datatype not in NIFTI_DTYPES:
        raise NiftiError(f"unsupported datatype code {datatype}")
    vox_offset = int(struct.unpack_from(endian + "f", header, 108)[0])
    slope = struct.unpack_from(endian + "f", header, 112)[0]
    inter = struct.unpack_from(endian + "f", header, 116)[0]
    if slope == 0.0:
        slope = 1.0

    x, y = dim[1], dim[2]
    z = dim[3] if dim[0] >= 3 else 1
    count = x * y * z
    dtype = np.dtype(NIFTI_DTYPES[datatype]).newbyteorder(endian)
    payload = header + rest
    need = vox_offset + count * dtype.itemsize
    if len(payload) < need:
        raise NiftiError(
            f"payload truncated: file has {len(payload)} bytes, "
            f"voxels need {need} (vox_offset {vox_offset})"
        )
    raw = np.frombuffer(payload, dtype=dtype, count=count, offset=vox_offset)
    voxels = (raw.astype(np.float32) * slope + inter).reshape(z, y, x)
    return Volume(dims=(x, y, z), voxels=voxels)


# -- dataset assembly -----------------------------------------------------------


def build_slice_dataset(
    volumes,
    masks,
    window: WindowSpec = WindowSpec(),
    *,
    resize: int,
    slice_filter: str = "all",
    neighbor_k: int = 2,
):
    """Axial slices windowed, equalized and resized into SliceSamples.

    ``volumes`` and ``masks`` are mappings volume-id -> Volume; ordering
    of the result is deterministic by (volume-id, slice-index).
    ``slice_filter`` is "all" or "lesion" (lesion-bearing slices plus
    ``neighbor_k`` neighbors on each side).
    """
    if slice_filter not in ("all", "lesion"):
        raise ValueError(f"unknown slice filter {slice_filter!r}")
    samples = []
    for vid in sorted(volumes):
        vol = volumes[vid]
        if vid not in masks:
            raise DataError(f"missing mask volume for {vid!r}")
        msk = masks[vid]
        if vol.dims != msk.dims:
            raise DataError(f"volume {vid!r}: image dims {vol.dims} != mask dims {msk.dims}")
        z = vol.dims[2]
        if slice_filter == "lesion":
            lesion_z = {i for i in range(z) if np.any(msk.voxels[i] > 0)}
            keep = set()
            for i in lesion_z:
                keep.update(range(max(0, i - neighbor_k), min(z, i + neighbor_k + 1)))
            indices = sorted(keep)
        else:
            indices = range(z)
        for i in indices:
            img = prepare_slice(vol.voxels[i], window, resize)
            m = resize_nearest(msk.voxels[i].astype(np.int64), resize)
            samples.append(SliceSample(img[None], m, str(vid), i))
    return samples


def generate_phantom(rng: Rng, size: int = 64, n: int = 8):
    """Synthetic slices: smooth background plus a bright random ellipse.

    The ellipse interior is the mask; intensities land in [0, 1] as if
    already windowed. Ellipse area stays within a few percent to ~20% of
    the image.
    """
    if size < 16 or size % 16:
        raise DataError(f"phantom size must be a positive multiple of 16, got {size}")
    if n < 1:
        raise DataError(f"phantom count must be >= 1, got {n}")
    samples = []
    yy, xx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    for i in range(n):
        r = rng.substream(i)
        gy, gx = r.uniform(-0.15, 0.15, 2)
        base = r.uniform(0.15, 0.35)
        background = base + gy * (yy / size) + gx * (xx / size)
        # area fraction pi*a*b/size^2 targeted to [0.03, 0.15]
        frac = r.uniform(0.03, 0.15)
        ratio = r.uniform(0.6, 1.6)
        a = np.sqrt(frac * size * size / np.pi * ratio)
        b = frac * size * size / np.pi / a
        cy = r.uniform(a + 1, size - a - 1)
        cx = r.uniform(b + 1, size - b - 1)
        mask = (((yy - cy) / a) ** 2 + ((xx - cx) / b) ** 2 <= 1.0).astype(np.int64)
        intensity = r.uniform(0.65, 0.9)
        image = np.where(mask, intensity, background)
        image = image + r.normal(0.0, 0.02, (size, size))
        image = np.clip(image, 0.0, 1.0).astype(np.float32)
        samples.append(SliceSample(image[None], mask, "phantom", i))
    return samples


# -- checkpoint format ----------------------------------------------------------


def save_checkpoint(named_tensors, path):
    """Write named tensors as little-endian float32; byte-stable layout.

    Layout: magic 'SSEG', u32 version, u32 entry count, then per entry
    u32 name length, name bytes, u32 rank, u32 extents, payload.
    Written to a temp file and renamed into place.
    """
    items = list(named_tensors.items())
    blob = bytearray()
    blob += CHECKPOINT_MAGIC
    blob += struct.pack("<II", CHECKPOINT_VERSION, len(items))
    for name, tensor in items:
        data = tensor.data if isinstance(tensor, Tensor) else np.asarray(tensor)
        arr = np.ascontiguousarray(data, dtype="<f4")
        nb = name.encode("utf-8")
        blob += struct.pack("<I", len(nb)) + nb
        blob += struct.pack("<I", arr.ndim)
        blob += struct.pack(f"<{arr.ndim}I", *arr.shape)
        blob += arr.tobytes()
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(blob)
    os.replace(tmp, path)


def load_checkpoint(path):
    """Read a checkpoint back into an ordered name -> float32 array map."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad magic {blob[:4]!r}, expected {CHECKPOINT_MAGIC!r}")
    off = 12
    out = OrderedDict()
    try:
        version, count = struct.unpack_from("<II", blob, 4)
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        for _ in range(count):
            (name_len,) = struct.unpack_from("<I", blob, off)
            off += 4
            name = blob[off : off + name_len].decode("utf-8")
            off += name_len
            (rank,) = struct.unpack_from("<I", blob, off)
            off += 4
            shape = struct.unpack_from(f"<{rank}I", blob, off)
            off += 4 * rank
            size = int(np.prod(shape, dtype=np.int64)) if rank else 1
            end = off + 4 * size
            if end > len(blob):
                raise CheckpointError(f"truncated payload for entry {name!r}")
            arr = np.frombuffer(blob, dtype="<f4", count=size, offset=off).reshape(shape)
            out[name] = arr.astype(np.float32)
            off = end
    except struct.error as exc:
        raise CheckpointError(f"truncated checkpoint: {exc}") from exc
    return out


def load_into_model(model, loaded):
    """Copy checkpoint entries into a built model, validating name order
    and shapes; the first mismatch is reported by name. The parameters
    come first; the batch-norm statistics may follow, and a file without
    them leaves the model's own statistics in place."""
    params = model.named_parameters()
    targets = list(params.items()) + list(model.named_statistics().items())
    for (pname, target), (cname, arr) in zip(targets, loaded.items()):
        if pname != cname:
            raise CheckpointError(f"parameter name mismatch: model has {pname!r}, "
                                  f"checkpoint has {cname!r}")
        if tuple(target.shape) != tuple(arr.shape):
            raise CheckpointError(
                f"shape mismatch for {pname!r}: model {tuple(target.shape)} "
                f"vs checkpoint {tuple(arr.shape)}"
            )
        if isinstance(target, Tensor):
            target.data = arr.astype(target.data.dtype)
        else:
            target[...] = arr
    if len(loaded) not in (len(params), len(targets)):
        raise CheckpointError(
            f"entry count mismatch: model has {len(params)} parameters and "
            f"{len(targets) - len(params)} statistics, checkpoint has {len(loaded)} entries"
        )


def write_pgm(mask, path):
    """Binary mask as a portable graymap (P5, maxval 255, values 0/255)."""
    mask = np.asarray(mask)
    h, w = mask.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write((np.where(mask > 0, 255, 0).astype(np.uint8)).tobytes())
