import struct
import sys

import numpy as np
import pytest


def make_nifti(path, data, datatype=4, slope=1.0, inter=0.0, magic=b"n+1\x00",
               vox_offset=352, byteorder="<", truncate=0):
    """Write a minimal single-file NIfTI-1 fixture; data is (Z, Y, X)."""
    data = np.asarray(data)
    z, y, x = data.shape
    np_dtype = {2: np.uint8, 4: np.int16, 16: np.float32}.get(datatype, np.int16)
    header = bytearray(348)
    struct.pack_into(byteorder + "i", header, 0, 348)
    struct.pack_into(byteorder + "8h", header, 40, 3, x, y, z, 1, 1, 1, 1)
    struct.pack_into(byteorder + "h", header, 70, datatype)
    struct.pack_into(byteorder + "h", header, 72, np.dtype(np_dtype).itemsize * 8)
    struct.pack_into(byteorder + "f", header, 108, float(vox_offset))
    struct.pack_into(byteorder + "f", header, 112, slope)
    struct.pack_into(byteorder + "f", header, 116, inter)
    header[344:348] = magic
    payload = data.astype(np.dtype(np_dtype).newbyteorder(byteorder)).tobytes()
    blob = bytes(header) + b"\x00" * (vox_offset - 348) + payload
    if truncate:
        blob = blob[:-truncate]
    with open(path, "wb") as fh:
        fh.write(blob)
    return path


@pytest.fixture
def nifti_factory(tmp_path):
    def factory(name, data, **kwargs):
        return make_nifti(str(tmp_path / name), data, **kwargs)

    return factory


@pytest.fixture
def made_nodes(monkeypatch):
    """Every Tensor that ``autograd._make`` returns while the test runs, in
    creation order, as ``(tensor, linked)``; ``linked`` is whether the node
    joined the graph when it was made (``backward`` unlinks it later)."""
    import sepseg.autograd as ag

    made, orig = [], ag._make

    def recording_make(data, parents, backward_fn):
        out = orig(data, parents, backward_fn)
        made.append((out, bool(out._parents)))
        return out

    for name, module in list(sys.modules.items()):
        if name.startswith("sepseg") and getattr(module, "_make", None) is orig:
            monkeypatch.setattr(module, "_make", recording_make)
    return made


@pytest.fixture
def block_outputs(monkeypatch):
    """Every residual block output that ``model.forward`` makes while the
    test runs, in call order: enc1..enc4, bottleneck, dec1..dec4."""
    import sepseg.model as model

    outs, block = [], model.resnet_block_forward

    def recording(*args):
        outs.append(block(*args))
        return outs[-1]

    monkeypatch.setattr(model, "resnet_block_forward", recording)
    return outs
