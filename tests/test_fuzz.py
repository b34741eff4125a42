"""Seeded mutation fuzzing of the three readers: NIfTI volumes, checkpoints
and run configurations.

Each file is damaged by bit flips, truncations and sweeps of its header
fields through extreme values, with every draw from the package's own
``Rng``. Whatever the damage, a reader raises only the package's own
error types, and ``sepseg`` maps a rejected file to its exit code without
a traceback. Damaged configurations only go through the parser: one that
parses may ask for a run of hours.
"""

import struct

import numpy as np
import pytest

from sepseg.autograd import Rng
from sepseg.cli import main
from sepseg.config import ConfigError, KEYS, RunConfig, load_config, render_config
from sepseg.data import (
    CheckpointError,
    DataError,
    NiftiError,
    load_checkpoint,
    load_into_model,
    read_nifti,
    save_checkpoint,
)
from sepseg.model import ModelSpec, build_model

from conftest import make_nifti

READER_ERRORS = (NiftiError, CheckpointError, DataError, ConfigError)
SPEC = ModelSpec(base_depth=2)
INFER_CONFIG = "model.base-depth = 2\ndata.resize = 16\n"
# integers and floats at and around the edges of the header fields' types
SWEEP_VALUES = (0, 1, -1, 7, 8, 63, 64, 65, 348, 352, 2**15 - 1, -2**15, 2**16 - 1, 2**31 - 1,
                2**31, 2**32 - 1, 0.5, 351.5, 1e30, -1e30, float("nan"), float("inf"))


def bit_flips(blob, rng, count, span):
    """``count`` copies of ``blob``, each with one bit of its first
    ``span`` bytes flipped."""
    for bit in rng.integers(0, 8 * min(span, len(blob)), count):
        out = bytearray(blob)
        out[bit // 8] ^= 1 << (bit % 8)
        yield bytes(out)


def truncations(blob, rng, count):
    for n in rng.integers(0, len(blob), count):
        yield blob[:n]


def field_sweeps(blob, fields):
    """A copy of ``blob`` per (offset, struct format) field and per sweep
    value that the format can hold."""
    for offset, fmt in fields:
        for value in SWEEP_VALUES:
            try:
                packed = struct.pack(fmt, value)
            except struct.error:
                continue
            out = bytearray(blob)
            out[offset : offset + len(packed)] = packed
            yield bytes(out)


def fuzz(read, blobs, path):
    """(rejected blobs, escapes): the blobs ``read`` rejected with a reader
    error, and "type: message" of every other exception it raised."""
    rejected, escaped = [], set()
    for blob in blobs:
        path.write_bytes(blob)
        try:
            read(path)
        except READER_ERRORS:
            rejected.append(blob)
        except Exception as exc:  # any other type is what the fuzz looks for
            escaped.add(f"{type(exc).__name__}: {exc}")
    return rejected, sorted(escaped)


@pytest.fixture(scope="module")
def checkpoint_blob(tmp_path_factory):
    model = build_model(SPEC, Rng(0, 0))
    path = tmp_path_factory.mktemp("fuzz") / "model.ckpt"
    save_checkpoint({**model.named_parameters(), **model.named_statistics()}, path)
    return path.read_bytes()


def _infer_exit(tmp_path, capsys, checkpoint, volume):
    cfg = tmp_path / "infer.cfg"
    cfg.write_text(INFER_CONFIG)
    code = main(["infer", "--config", str(cfg), "--checkpoint", str(checkpoint),
                 "--input", str(volume), "--out", str(tmp_path / "out")])
    return code, capsys.readouterr().err


def test_nifti_reader_raises_only_nifti_errors(tmp_path, capsys, checkpoint_blob):
    rng = Rng(0, 21)
    header = [(0, "<i"), (70, "<h"), (72, "<h"), (108, "<f"), (112, "<f"), (116, "<f")]
    header += [(40 + 2 * i, "<h") for i in range(8)]
    volume = np.arange(3 * 8 * 8).reshape(3, 8, 8) % 200 - 50
    rejected, escaped = [], []
    for datatype in (2, 4, 16):
        good = make_nifti(str(tmp_path / "good.nii"), volume, datatype=datatype)
        blob = open(good, "rb").read()
        blobs = [*bit_flips(blob, rng, 1500, 352), *truncations(blob, rng, 20),
                 *field_sweeps(blob, header)]
        got, esc = fuzz(read_nifti, blobs, tmp_path / "damaged.nii")
        rejected += got
        escaped += esc
    assert escaped == []
    assert len(rejected) > 400
    checkpoint = tmp_path / "model.ckpt"
    checkpoint.write_bytes(checkpoint_blob)
    for blob in rejected[:: len(rejected) // 3][:3]:
        (tmp_path / "volume.nii").write_bytes(blob)
        code, err = _infer_exit(tmp_path, capsys, checkpoint, tmp_path / "volume.nii")
        assert code == 2 and err.startswith("data error:") and "Traceback" not in err


def test_checkpoint_reader_raises_only_checkpoint_errors(tmp_path, capsys, checkpoint_blob):
    rng = Rng(0, 22)
    model = build_model(SPEC, Rng(0, 0))
    (name_len,) = struct.unpack_from("<I", checkpoint_blob, 12)
    rank_at = 16 + name_len
    (rank,) = struct.unpack_from("<I", checkpoint_blob, rank_at)
    fields = [(4, "<I"), (8, "<I"), (12, "<I")]
    fields += [(rank_at + 4 * i, "<I") for i in range(rank + 1)]
    blobs = [*bit_flips(checkpoint_blob, rng, 1000, 400),
             *truncations(checkpoint_blob, rng, 57), *field_sweeps(checkpoint_blob, fields)]
    rejected, escaped = fuzz(lambda path: load_into_model(model, load_checkpoint(path)),
                             blobs, tmp_path / "damaged.ckpt")
    assert escaped == []
    assert len(rejected) > 500
    make_nifti(str(tmp_path / "volume.nii"), np.zeros((2, 16, 16)))
    for blob in rejected[:: len(rejected) // 3][:3]:
        (tmp_path / "damaged.ckpt").write_bytes(blob)
        code, err = _infer_exit(tmp_path, capsys, tmp_path / "damaged.ckpt",
                                tmp_path / "volume.nii")
        assert code == 4 and err.startswith("checkpoint mismatch:") and "Traceback" not in err


def _byte_edits(blob, rng, count):
    """``count`` copies of ``blob``, each with one byte replaced, deleted
    or doubled, or one bit flipped, at a random place."""
    specials = b"=# \n.-+e0123456789xX\x00\xff\xc3"
    for kind, at, pick in zip(rng.integers(0, 4, count), rng.integers(0, len(blob), count),
                              rng.integers(0, len(specials), count)):
        if kind == 0:
            yield blob[:at] + specials[pick : pick + 1] + blob[at + 1 :]
        elif kind == 1:
            yield blob[:at] + blob[at + 1 :]
        elif kind == 2:
            yield blob[: at + 1] + blob[at:]
        else:
            yield blob[:at] + bytes([blob[at] ^ (1 << int(pick % 8))]) + blob[at + 1 :]


def test_config_reader_raises_only_config_errors(tmp_path, capsys):
    rng = Rng(0, 23)
    blob = render_config(RunConfig()).encode()
    sweeps = [f"{key} = {value}\n".encode() for key in KEYS for value in SWEEP_VALUES]
    sweeps += [f"{key} = {value}\n".encode() for key in KEYS
               for value in ("", "true", "yes", "x", "1e999", "-0", "１", "10" * 12)]
    blobs = [*_byte_edits(blob, rng, 800), *truncations(blob, rng, 20), *sweeps]
    rejected, escaped = fuzz(load_config, blobs, tmp_path / "damaged.cfg")
    assert escaped == []
    assert len(rejected) > 500
    for blob in rejected[:: len(rejected) // 3][:3]:
        (tmp_path / "damaged.cfg").write_bytes(blob)
        code = main(["train", "--config", str(tmp_path / "damaged.cfg"),
                     "--data", "phantoms:8x32", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("config error:") and "Traceback" not in err
    assert not (tmp_path / "out").exists()
