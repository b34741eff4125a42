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


def patch_autograd(monkeypatch, name, replace):
    """Swap ``autograd.<name>`` for ``replace(original)`` in every loaded
    ``sepseg`` module that bound it, for the rest of the test."""
    import sepseg.autograd as ag

    orig = getattr(ag, name)
    new = replace(orig)
    for mod_name, module in list(sys.modules.items()):
        if mod_name.startswith("sepseg") and getattr(module, name, None) is orig:
            monkeypatch.setattr(module, name, new)


@pytest.fixture
def made_nodes(monkeypatch):
    """Every Tensor that ``autograd._make`` returns while the test runs, in
    creation order, as ``(tensor, linked)``; ``linked`` is whether the node
    joined the graph when it was made (``backward`` unlinks it later)."""
    made = []

    def recording(make):
        def recording_make(data, parents, backward_fn):
            out = make(data, parents, backward_fn)
            made.append((out, bool(out._parents)))
            return out

        return recording_make

    patch_autograd(monkeypatch, "_make", recording)
    return made


@pytest.fixture
def handed_dtypes(monkeypatch):
    """The dtypes of the gradients handed to ``autograd._accum`` while the
    test runs."""
    seen = set()

    def recording(accum):
        def recording_accum(node, g):
            seen.add(g.dtype)
            accum(node, g)

        return recording_accum

    patch_autograd(monkeypatch, "_accum", recording)
    return seen


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


@pytest.fixture
def readonly_grads(monkeypatch):
    """While the test runs, every interior node's closure is handed a
    read-only view of its gradient, and every array a closure hands on to
    an interior node becomes read-only for that closure too. A closure that
    writes into a gradient it receives or hands on then raises
    ``ValueError``; leaf gradients, which the optimizer scales in place,
    stay writable."""

    def guarded(make):
        def guarded_make(data, parents, backward_fn):
            def readonly_backward(g):
                view = g.view()
                view.flags.writeable = False
                backward_fn(view)

            return make(data, parents, readonly_backward)

        return guarded_make

    def freezing(accum):
        def freezing_accum(node, g):
            if node is not None and node._backward is not None:
                g.flags.writeable = False
            accum(node, g)

        return freezing_accum

    patch_autograd(monkeypatch, "_make", guarded)
    patch_autograd(monkeypatch, "_accum", freezing)
