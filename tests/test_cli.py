import dataclasses
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import sepseg
from sepseg.autograd import Rng, _accum, _make
from sepseg.cli import main
from sepseg.config import KEYS, SECTIONS, ConfigError, RunConfig, parse_config, render_config
from sepseg.data import save_checkpoint
from sepseg.model import ModelSpec, build_model

from conftest import make_nifti

SMALL_CONFIG = """
model.variant = proposed
model.base-depth = 8
train.iterations = 4
train.batch-size = 2
train.eval-every = 2
data.resize = 32
seed = 3
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SMALL_CONFIG)
    return str(path)


class TestConfig:
    def test_defaults_carry_stated_values(self):
        cfg = parse_config("")
        assert cfg.train.iterations == 100_000
        assert cfg.train.batch_size == 16
        assert cfg.train.lr == 0.001
        assert cfg.model.dropout_rate == 0.05
        assert cfg.window.low == -100.0
        assert cfg.window.high == 200.0
        assert cfg.data.resize == 256
        assert cfg.data.folds == 4

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("model.colour = blue")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("train.iterations = many")

    def test_render_roundtrip(self):
        cfg = parse_config(SMALL_CONFIG)
        again = parse_config(render_config(cfg))
        assert cfg == again

    def _readme_block(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        return readme.split("```ini\n", 1)[1].split("```", 1)[0]

    def test_readme_block_is_the_default_config(self):
        assert parse_config(self._readme_block()) == RunConfig()

    def test_readme_block_lists_the_rendered_keys_in_order(self):
        documented = [line.split("=")[0].strip() for line in self._readme_block().splitlines()]
        rendered = [line.split(" = ")[0] for line in render_config(RunConfig()).splitlines()]
        assert documented == rendered and len(rendered) == 16

    def test_every_section_field_has_a_key(self):
        for section, cls in SECTIONS.items():
            keyed = {name for s, name in KEYS.values() if s == section}
            assert {f.name for f in dataclasses.fields(cls)} == keyed, section


class TestTrainCommand:
    def test_phantom_training_writes_outputs(self, tmp_path, config_path, capsys):
        out = tmp_path / "run1"
        code = main(["train", "--config", config_path,
                     "--data", "phantoms:4x32", "--out", str(out)])
        assert code == 0
        for fname in ("best.ckpt", "final.ckpt", "run_log.csv", "config.resolved"):
            assert (out / fname).exists()
        captured = capsys.readouterr()
        assert captured.err == ""

    def test_rerun_same_seed_identical_log_and_checkpoint(self, tmp_path, config_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", config_path,
                     "--data", "phantoms:4x32", "--out", str(out1)]) == 0
        assert main(["train", "--config", config_path,
                     "--data", "phantoms:4x32", "--out", str(out2)]) == 0
        assert (out1 / "run_log.csv").read_bytes() == (out2 / "run_log.csv").read_bytes()
        assert (out1 / "best.ckpt").read_bytes() == (out2 / "best.ckpt").read_bytes()

    def test_missing_mask_exit_2(self, tmp_path, config_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        make_nifti(str(data / "volume-7.nii"), np.zeros((2, 32, 32), dtype=np.int16))
        code = main(["train", "--config", config_path,
                     "--data", str(data), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "'7'" in capsys.readouterr().err

    def test_bad_config_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense.key = 1")
        code = main(["train", "--config", str(cfg),
                     "--data", "phantoms:4x32", "--out", str(tmp_path / "out")])
        assert code == 1

    @pytest.mark.parametrize("line", ["model.variant = foo", "folds = 1", "fold-index = 9",
                                      "data.window-low = 300", "data.resize = 30", "seed = -1",
                                      "train.iterations = 0", "train.iterations = -3",
                                      "train.dropout = 1", "data.window-low = -inf",
                                      "data.window-high = inf", "train.lr = inf"])
    def test_invalid_value_exit_1_names_its_line(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SMALL_CONFIG + line + "\n")
        code = main(["train", "--config", str(cfg),
                     "--data", "phantoms:4x32", "--out", str(tmp_path / "out")])
        assert code == 1
        lineno = len(SMALL_CONFIG.splitlines()) + 1
        assert f"line {lineno}: bad value for '{line.split()[0]}'" in capsys.readouterr().err

    def test_empty_validation_fold_exit_2(self, tmp_path, capsys):
        # 3 slices in 4 folds: the fourth fold holds no slice
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_CONFIG + "fold-index = 3\n")
        code = main(["train", "--config", str(cfg),
                     "--data", "phantoms:3x32", "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "validation split is empty" in err
        assert not (tmp_path / "out" / "best.ckpt").exists()

    @pytest.mark.parametrize("label", [2, -1])
    def test_mask_label_out_of_range_exit_2(self, tmp_path, config_path, nifti_factory, capsys,
                                            label):
        (tmp_path / "data").mkdir()
        mask = np.zeros((3, 32, 32), dtype=np.int16)
        mask[1, 8:16, 8:16] = 1
        mask[2, 0, 0] = label
        nifti_factory("data/volume-0.nii", np.zeros((3, 32, 32), dtype=np.int16))
        nifti_factory("data/segmentation-0.nii", mask)
        code = main(["train", "--config", config_path,
                     "--data", str(tmp_path / "data"), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "Traceback" not in err
        assert f"volume '0' slice 2: mask label {label} outside [0, 2)" in err

    def test_non_integral_mask_label_exit_2(self, tmp_path, config_path, nifti_factory, capsys):
        (tmp_path / "data").mkdir()
        mask = np.zeros((4, 32, 32), dtype=np.float32)
        mask[1, 8:16, 8:16] = 1
        mask[2, 0, 0], mask[3, 0, 0] = 1.7, 0.6
        nifti_factory("data/volume-0.nii", np.zeros((4, 32, 32), dtype=np.int16))
        nifti_factory("data/segmentation-0.nii", mask, datatype=16)
        code = main(["train", "--config", config_path,
                     "--data", str(tmp_path / "data"), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "volume '0' slice 2:" in err
        assert not (tmp_path / "out" / "best.ckpt").exists()

    def test_non_utf8_config_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(SMALL_CONFIG.encode() + b"# \xff\n")
        code = main(["train", "--config", str(cfg), "--data", "phantoms:8x32",
                     "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "utf-8" in err

    def test_utf8_config_reads_in_an_ascii_locale(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes("# 64\u00d764 phantoms\nseed = 7\n".encode())
        code = ("from sepseg.config import load_config; "
                f"print(load_config({str(cfg)!r}).train.seed)")
        env = {**os.environ, "PYTHONPATH": str(Path(sepseg.__file__).parents[1]),
               "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stdout == "7\n", proc.stderr

    def test_three_labels_score_the_last_class(self, tmp_path, nifti_factory):
        # LiTS's labels: liver (1) on all 14 slices, lesion (2) on slices 4-8
        from sepseg.data import build_slice_dataset, load_checkpoint, load_into_model, read_nifti
        from sepseg.train import _mean_dice, kfold_split

        (tmp_path / "data").mkdir()
        img = np.random.default_rng(0).integers(-200, 300, (14, 32, 32)).astype(np.int16)
        mask = np.zeros((14, 32, 32), dtype=np.int16)
        mask[:, 4:28, 4:28] = 1
        mask[4:9, 10:18, 12:20] = 2
        img[mask == 1] += 150
        vol = nifti_factory("data/volume-0.nii", img)
        seg = nifti_factory("data/segmentation-0.nii", mask)
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(SMALL_CONFIG + "model.num-classes = 3\n")
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg_path), "--data", str(tmp_path / "data"),
                     "--out", str(out)]) == 0

        cfg = parse_config(cfg_path.read_text())
        samples = build_slice_dataset({"0": (read_nifti(vol), read_nifti(seg))}, cfg.window,
                                      resize=32, lesion_class=2)
        assert [s.slice_index for s in samples] == list(range(2, 11))
        train_set, val_set = kfold_split(samples, cfg.data.folds, cfg.data.fold_index,
                                         cfg.train.seed)
        model = build_model(cfg.model, Rng(cfg.train.seed, 0))
        load_into_model(model, load_checkpoint(str(out / "final.ckpt")))
        row = (out / "run_log.csv").read_text().splitlines()[-1].split(",")
        lesion = [_mean_dice(model, s, 2)[0] for s in (train_set, val_set)]
        liver = [_mean_dice(model, s, 1)[0] for s in (train_set, val_set)]
        assert row[2:4] == [f"{d:.6f}" for d in lesion]
        assert row[2:4] != [f"{d:.6f}" for d in liver]

    @pytest.mark.parametrize("spec", ["phantoms:4x40", "phantoms:1x32", "phantoms:0x32"])
    def test_bad_phantom_spec_exit_2(self, tmp_path, config_path, capsys, spec):
        code = main(["train", "--config", config_path,
                     "--data", spec, "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith("data error:")


class TestInferEval:
    @pytest.fixture
    def trained(self, tmp_path, config_path):
        out = tmp_path / "train"
        assert main(["train", "--config", config_path,
                     "--data", "phantoms:4x32", "--out", str(out)]) == 0
        return out

    def test_infer_writes_pgm_masks(self, tmp_path, config_path, trained, capsys):
        out = tmp_path / "masks"
        code = main(["infer", "--config", config_path,
                     "--checkpoint", str(trained / "best.ckpt"),
                     "--input", "phantoms:4x32", "--out", str(out)])
        assert code == 0
        pgms = sorted(out.glob("slice_*.pgm"))
        assert len(pgms) == 4
        blob = pgms[0].read_bytes()
        assert blob.startswith(b"P5\n32 32\n255\n")
        values = set(blob[blob.index(b"255\n") + 4 :])
        assert values <= {0, 255}
        assert (out / "summary.txt").exists()

    def test_infer_spec_mismatch_exit_4(self, tmp_path, trained, capsys):
        # default config expects base-depth 64; the checkpoint is base 8
        code = main(["infer", "--checkpoint", str(trained / "best.ckpt"),
                     "--input", "phantoms:4x32", "--out", str(tmp_path / "x")])
        assert code == 4
        assert "enc1" in capsys.readouterr().err

    def test_infer_unreadable_input_exit_2(self, tmp_path, config_path, trained):
        code = main(["infer", "--config", config_path,
                     "--checkpoint", str(trained / "best.ckpt"),
                     "--input", str(tmp_path / "missing.nii"),
                     "--out", str(tmp_path / "x")])
        assert code == 2

    @pytest.mark.parametrize("kind,code", [("six-byte file", 4), ("directory", 2)])
    def test_unreadable_checkpoint_exit_code(self, tmp_path, config_path, capsys, kind, code):
        ckpt = tmp_path / "m.ckpt"
        if kind == "directory":
            ckpt.mkdir()
        else:
            ckpt.write_bytes(b"SSEG\x01\x00")
        assert main(["infer", "--config", config_path, "--checkpoint", str(ckpt),
                     "--input", "phantoms:4x32", "--out", str(tmp_path / "x")]) == code
        assert capsys.readouterr().err

    @pytest.fixture
    def untrained_ckpt(self, tmp_path):
        """Parameters and batch-norm statistics of a model built for SMALL_CONFIG."""
        model = build_model(ModelSpec(variant="proposed", base_depth=8), Rng(0, 0))
        path = tmp_path / "untrained.ckpt"
        save_checkpoint({**model.named_parameters(), **model.named_statistics()}, path)
        return path

    @pytest.mark.parametrize("damage,message", [
        ("non-UTF-8 name", "UTF-8"),
        ("trailing bytes", "trailing"),
    ])
    def test_damaged_checkpoint_exit_4(self, tmp_path, config_path, untrained_ckpt, capsys,
                                       damage, message):
        blob = bytearray(untrained_ckpt.read_bytes())
        if damage == "trailing bytes":
            blob += bytes(4)
        else:
            blob[16] = 0xFF  # first byte of the first entry name
        ckpt = tmp_path / "damaged.ckpt"
        ckpt.write_bytes(bytes(blob))
        code = main(["infer", "--config", config_path, "--checkpoint", str(ckpt),
                     "--input", "phantoms:4x32", "--out", str(tmp_path / "x")])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("checkpoint mismatch:") and message in err

    def test_unusable_entry_shape_exit_4(self, tmp_path, config_path, capsys):
        ckpt = tmp_path / "rank65.ckpt"
        ckpt.write_bytes(b"SSEG" + struct.pack("<III", 1, 1, 1) + b"w"
                         + struct.pack("<66I", 65, *[1] * 65) + bytes(4))
        code = main(["infer", "--config", config_path, "--checkpoint", str(ckpt),
                     "--input", "phantoms:4x32", "--out", str(tmp_path / "x")])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("checkpoint mismatch:") and "entry 'w'" in err

    @pytest.mark.parametrize("command", ["infer", "eval"])
    def test_non_finite_checkpoint_exit_4(self, tmp_path, config_path, capsys, command):
        model = build_model(ModelSpec(variant="proposed", base_depth=8), Rng(0, 0))
        model.blocks["enc2"].conv1.pointwise_weight.data[0, 0, 0, 0] = np.nan
        ckpt = tmp_path / "nan.ckpt"
        save_checkpoint(model.named_parameters(), ckpt)
        data_flag = "--input" if command == "infer" else "--data"
        argv = [command, "--config", config_path, "--checkpoint", str(ckpt),
                data_flag, "phantoms:4x32"]
        if command == "infer":
            argv += ["--out", str(tmp_path / "x")]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("checkpoint mismatch:") and "enc2.res.conv1.pw_weight" in err
        assert not (tmp_path / "x").exists()

    def test_negative_running_variance_exit_4(self, tmp_path, config_path, capsys):
        model = build_model(ModelSpec(variant="proposed", base_depth=8), Rng(0, 0))
        stats = model.named_statistics()
        stats["dec2.res.bn.running_var"][0] = -1.0
        ckpt = tmp_path / "negvar.ckpt"
        save_checkpoint({**model.named_parameters(), **stats}, ckpt)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # the sqrt of a negative
            code = main(["infer", "--config", config_path, "--checkpoint", str(ckpt),
                         "--input", "phantoms:2x32", "--out", str(tmp_path / "x")])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("checkpoint mismatch:") and "dec2.res.bn.running_var" in err
        assert "RuntimeWarning" not in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command,lesion_class", [("infer", 5), ("eval", -1), ("eval", 2)])
    def test_lesion_class_out_of_range_exit_1(self, tmp_path, config_path, capsys, command,
                                              lesion_class):
        data_flag = "--input" if command == "infer" else "--data"
        argv = [command, "--config", config_path, "--checkpoint", str(tmp_path / "none.ckpt"),
                data_flag, "phantoms:4x32", "--lesion-class", str(lesion_class)]
        if command == "infer":
            argv += ["--out", str(tmp_path / "x")]
        # the flag is checked first: the checkpoint it names does not exist
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"--lesion-class {lesion_class}" in err
        assert not (tmp_path / "x").exists()

    def test_untrained_checkpoint_infers(self, tmp_path, config_path, untrained_ckpt):
        assert main(["infer", "--config", config_path, "--checkpoint", str(untrained_ckpt),
                     "--input", "phantoms:4x32", "--out", str(tmp_path / "x")]) == 0

    @pytest.mark.parametrize("offset,fmt,value", [
        (42, "<h", -3),  # dim[1]
        (108, "<f", 0.0),  # vox_offset
    ])
    def test_bad_nifti_header_exit_2(self, tmp_path, config_path, untrained_ckpt, capsys,
                                     offset, fmt, value):
        nii = tmp_path / "volume.nii"
        make_nifti(str(nii), np.zeros((2, 32, 32), dtype=np.int16))
        blob = bytearray(nii.read_bytes())
        struct.pack_into(fmt, blob, offset, value)
        nii.write_bytes(bytes(blob))
        code = main(["infer", "--config", config_path, "--checkpoint", str(untrained_ckpt),
                     "--input", str(nii), "--out", str(tmp_path / "x")])
        assert code == 2
        assert capsys.readouterr().err.startswith("data error:")

    def test_four_d_nifti_exit_2(self, tmp_path, config_path, untrained_ckpt, capsys):
        nii = tmp_path / "volume.nii"
        make_nifti(str(nii), np.zeros((6, 32, 32), dtype=np.int16))
        blob = bytearray(nii.read_bytes())
        struct.pack_into("<5h", blob, 40, 4, 32, 32, 2, 3)  # three 32x32x2 volumes
        nii.write_bytes(bytes(blob))
        code = main(["infer", "--config", config_path, "--checkpoint", str(untrained_ckpt),
                     "--input", str(nii), "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "only one 3-D volume" in err
        assert not (tmp_path / "x").exists()

    @staticmethod
    def _nan_volume(path, slope=1.0):
        data = np.zeros((2, 32, 32), dtype=np.float32)
        if slope == 1.0:
            data[1, 5, 5] = np.nan
        make_nifti(str(path), data, datatype=16, slope=slope)

    @pytest.mark.parametrize("slope", [1.0, float("inf")])
    def test_non_finite_nifti_infer_exit_2(self, tmp_path, config_path, untrained_ckpt, capsys,
                                           slope):
        nii = tmp_path / "volume.nii"
        self._nan_volume(nii, slope)
        code = main(["infer", "--config", config_path, "--checkpoint", str(untrained_ckpt),
                     "--input", str(nii), "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:")
        assert ("slice 1" if slope == 1.0 else "scl_slope") in err
        assert not (tmp_path / "x").exists()

    def test_non_finite_nifti_eval_exit_2(self, tmp_path, config_path, untrained_ckpt, capsys):
        data = tmp_path / "data"
        data.mkdir()
        self._nan_volume(data / "volume-0.nii")
        make_nifti(str(data / "segmentation-0.nii"), np.ones((2, 32, 32), dtype=np.int16))
        code = main(["eval", "--config", config_path, "--checkpoint", str(untrained_ckpt),
                     "--data", str(data)])
        assert code == 2
        assert "slice 1 holds a non-finite voxel" in capsys.readouterr().err

    @pytest.mark.parametrize("label", [2, -1])
    def test_eval_mask_label_out_of_range_exit_2(self, tmp_path, config_path, untrained_ckpt,
                                                 nifti_factory, capsys, label):
        # a LiTS-style mask (liver 1, lesion 2) scored by a 2-class model
        (tmp_path / "data").mkdir()
        mask = np.zeros((5, 32, 32), dtype=np.int16)
        mask[2, 8:16, 8:16] = 1
        mask[2, 10:12, 10:12] = label
        nifti_factory("data/volume-0.nii", np.zeros((5, 32, 32), dtype=np.int16))
        nifti_factory("data/segmentation-0.nii", mask)
        code = main(["eval", "--config", config_path, "--checkpoint", str(untrained_ckpt),
                     "--data", str(tmp_path / "data")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("data error:") and "Traceback" not in captured.err
        assert f"volume '0' slice 2: mask label {label} outside [0, 2)" in captured.err
        assert captured.out == ""

    def test_eval_prints_score_columns(self, tmp_path, config_path, trained, capsys):
        csv = tmp_path / "scores.csv"
        code = main(["eval", "--config", config_path,
                     "--checkpoint", str(trained / "best.ckpt"),
                     "--data", "phantoms:4x32", "--csv", str(csv)])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        header, fields = csv.read_text().splitlines()
        assert header == "volume_id,overlap,dice,jaccard,overlap_global,dice_global,jaccard_global"
        assert fields.split(",")[0] == "phantom"
        v = [float(x) for x in fields.split(",")[1:]]
        cells = (f"{v[0]:>8.4f} {v[1]:>8.4f} {v[2]:>8.4f} "
                 f"{v[3]:>10.4f} {v[4]:>8.4f} {v[5]:>10.4f}")
        # one volume, so its row and the mean row hold the same scores
        assert out == [
            "volume        overlap     dice  jaccard  overlap_g   dice_g  jaccard_g",
            f"phantom      {cells}",
            f"mean         {cells}",
        ]


class TestParamsCommand:
    def test_baseline_total_in_range(self, capsys):
        assert main(["params", "--variant", "baseline-unet", "--base-depth", "64"]) == 0
        total = int(capsys.readouterr().out.strip().splitlines()[-1].split()[-1])
        assert 28_000_000 <= total <= 35_000_000

    def test_compare_prints_ratio(self, capsys):
        assert main(["params", "--compare", "--base-depth", "64"]) == 0
        out = capsys.readouterr().out
        ratio = float(out.strip().splitlines()[-1].split()[-1].rstrip("x"))
        assert ratio >= 5.0

    def test_table_internally_consistent(self, capsys):
        assert main(["params", "--variant", "proposed", "--base-depth", "8"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        counts = [int(line.split()[-1]) for line in lines[1:-1]]
        total = int(lines[-1].split()[-1])
        assert total == sum(counts)

    def test_csv_output(self, capsys):
        assert main(["params", "--variant", "proposed", "--base-depth", "8", "--csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "name,shape,count"
        assert lines[-1].startswith("total,,")

    @pytest.mark.parametrize("flags", [
        ["--base-depth", "7"],
        ["--kernel", "4"],
        ["--num-classes", "1"],
        ["--compare", "--kernel", "0"],
    ])
    def test_invalid_spec_exit_1(self, capsys, flags):
        assert main(["params", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:")
        assert captured.out == ""


class TestGradcheckCommand:
    def test_block_scope_passes(self, capsys):
        assert main(["gradcheck", "block"]) == 0
        out = capsys.readouterr().out
        assert "resnet_block_8_16" in out and "FAIL" not in out

    def test_corrupted_backward_exit_5(self, capsys, monkeypatch):
        import sepseg.gradcheck as gc

        def broken_double(x):
            # wrong backward rule on purpose: claims d(2x)/dx = 3
            def bwd(g):
                _accum(x.node, 3.0 * g)

            return _make(2.0 * x.data, (x,), bwd)

        def case(rng):
            return broken_double, {"input": rng.normal(size=(2, 2))}

        monkeypatch.setitem(gc.BLOCK_CASES, "broken_double", case)
        assert main(["gradcheck", "block"]) == 5
        out = capsys.readouterr().out
        assert "broken_double" in out and "FAIL" in out
