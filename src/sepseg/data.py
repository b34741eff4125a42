"""Volume and checkpoint I/O plus dataset assembly.

Covers a minimal uncompressed NIfTI-1 reader (int16 / float32 / uint8,
slope/intercept scaling, endianness detection) that returns a volume as
its (Z, Y, X) float32 voxels, axial slice-dataset construction, a
synthetic ellipse-phantom generator for desk-scale runs, and the
bit-exact binary checkpoint format.
"""

from __future__ import annotations

import math
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
NEIGHBOR_SLICES = 2  # slices kept on each side of a lesion-bearing one


class NiftiError(ValueError):
    """Malformed or unsupported NIfTI-1 input."""


class CheckpointError(ValueError):
    """Malformed checkpoint file or model mismatch."""


class DataError(ValueError):
    """Dataset-level inconsistency (missing mask, dim mismatch...)."""


@dataclass
class SliceSample:
    image: np.ndarray  # (1, S, S) float32 in [0, 1]
    mask: np.ndarray  # (S, S) integer labels
    volume_id: str
    slice_index: int


# -- NIfTI-1 ------------------------------------------------------------------


def read_nifti(path) -> np.ndarray:
    """Read an uncompressed single-file NIfTI-1 volume into its (Z, Y, X)
    float32 voxels in HU.

    A dim past the third above 1 (a series), a ``vox_offset`` that is not a
    whole number of bytes, or a NaN or an Inf after scaling (stored or made
    by the slope and intercept), raises ``NiftiError``."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 348:
        raise NiftiError(f"header truncated: got {len(blob)} bytes, need 348")
    header = blob[:348]

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
    vox_offset = struct.unpack_from(endian + "f", header, 108)[0]
    # an n+1 file stores its voxels after the header and 4 extension bytes
    if not (math.isfinite(vox_offset) and vox_offset >= 352 and vox_offset.is_integer()):
        raise NiftiError(f"vox_offset {vox_offset} must be a whole number >= 352, past the header")
    vox_offset = int(vox_offset)
    slope = struct.unpack_from(endian + "f", header, 112)[0]
    inter = struct.unpack_from(endian + "f", header, 116)[0]
    if not (math.isfinite(slope) and math.isfinite(inter)):
        raise NiftiError(f"scl_slope {slope} and scl_inter {inter} must be finite")
    if slope == 0.0:
        slope = 1.0

    if any(d > 1 for d in dim[4 : dim[0] + 1]):
        raise NiftiError(f"dims {dim[1 : dim[0] + 1]}: only one 3-D volume per file is read")
    x, y = dim[1], dim[2]
    z = dim[3] if dim[0] >= 3 else 1
    if min(x, y, z) < 1:
        raise NiftiError(f"non-positive image dims {(x, y, z)} (dim = {dim})")
    count = x * y * z
    dtype = np.dtype(NIFTI_DTYPES[datatype]).newbyteorder(endian)
    need = vox_offset + count * dtype.itemsize
    if len(blob) < need:
        raise NiftiError(
            f"payload truncated: file has {len(blob)} bytes, "
            f"voxels need {need} (vox_offset {vox_offset})"
        )
    raw = np.frombuffer(blob, dtype=dtype, count=count, offset=vox_offset)
    with np.errstate(over="ignore", invalid="ignore"):  # checked right below
        voxels = (raw.astype(np.float32) * slope + inter).reshape(z, y, x)
    finite = np.isfinite(voxels).reshape(z, -1).all(axis=1)
    if not finite.all():
        raise NiftiError(f"slice {int(np.argmin(finite))} holds a non-finite voxel "
                         "after slope/intercept scaling")
    return voxels


# -- dataset assembly -----------------------------------------------------------


def build_slice_dataset(volumes, window: WindowSpec, *, resize: int, lesion_class: int):
    """Axial slices windowed, equalized and resized into SliceSamples.

    ``volumes`` maps volume-id -> (voxels, mask), both (Z, Y, X) arrays as
    ``read_nifti`` returns them; ordering of the result is deterministic by
    (volume-id, slice-index). Only lesion-bearing slices are kept, plus
    ``NEIGHBOR_SLICES`` neighbors on each side: slices holding a label at or
    above ``lesion_class``, so that a label above the last class still
    reaches ``train``'s label check. A label that is not a whole number, as a
    float mask or a mask's ``scl_slope`` can make, raises ``DataError``.
    """
    samples = []
    for vid in sorted(volumes):
        vol, msk = volumes[vid]
        if vol.shape != msk.shape:
            raise DataError(f"volume {vid!r}: image dims {vol.shape[::-1]} "
                            f"!= mask dims {msk.shape[::-1]}")
        z = len(vol)
        whole = (msk == np.floor(msk)).reshape(z, -1).all(axis=1)
        if not whole.all():
            raise DataError(f"volume {vid!r} slice {int(np.argmin(whole))}: mask holds a "
                            "label that is not a whole number")
        keep = set()
        for i in range(z):
            if np.any(msk[i] >= lesion_class):
                keep.update(range(max(0, i - NEIGHBOR_SLICES), min(z, i + NEIGHBOR_SLICES + 1)))
        for i in sorted(keep):
            img = prepare_slice(vol[i], window, resize)
            m = resize_nearest(msk[i].astype(np.int64), resize)
            samples.append(SliceSample(img[None], m, str(vid), i))
    return samples


def generate_phantom(rng: Rng, size: int, n: int):
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
            try:
                name = blob[off : off + name_len].decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CheckpointError(f"entry name at byte {off} is not UTF-8") from exc
            off += name_len
            (rank,) = struct.unpack_from("<I", blob, off)
            off += 4
            shape = struct.unpack_from(f"<{rank}I", blob, off)
            off += 4 * rank
            size = math.prod(shape)
            end = off + 4 * size
            if end > len(blob):
                raise CheckpointError(f"truncated payload for entry {name!r}")
            try:
                arr = np.frombuffer(blob, dtype="<f4", count=size, offset=off).reshape(shape)
            except ValueError as exc:  # a rank above 64, or extents numpy cannot hold
                raise CheckpointError(f"entry {name!r} has unusable shape {shape}: {exc}") from exc
            if not np.isfinite(arr).all():
                raise CheckpointError(f"entry {name!r} holds a NaN or an Inf")
            out[name] = arr.astype(np.float32)
            off = end
    except struct.error as exc:
        raise CheckpointError(f"truncated checkpoint: {exc}") from exc
    if off != len(blob):
        raise CheckpointError(f"{len(blob) - off} trailing bytes after the last entry")
    return out


def load_into_model(model, loaded):
    """Copy checkpoint entries into a built model, validating name order
    and shapes; the first mismatch is reported by name. The parameters
    come first; the batch-norm statistics may follow, and a file without
    them leaves the model's own statistics in place. A negative running
    variance is rejected, since batch norm takes its square root."""
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
        if cname.endswith(".running_var") and np.any(arr < 0):
            raise CheckpointError(f"entry {cname!r} holds a negative running variance")
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
