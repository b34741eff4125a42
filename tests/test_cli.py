from pathlib import Path

import numpy as np
import pytest

from sepseg.autograd import _accum, _make
from sepseg.cli import main
from sepseg.config import ConfigError, RunConfig, parse_config, render_config

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
                                      "data.window-low = 300", "data.resize = 30"])
    def test_invalid_value_exit_1_names_its_line(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SMALL_CONFIG + line + "\n")
        code = main(["train", "--config", str(cfg),
                     "--data", "phantoms:4x32", "--out", str(tmp_path / "out")])
        assert code == 1
        lineno = len(SMALL_CONFIG.splitlines()) + 1
        assert f"line {lineno}: bad value for '{line.split()[0]}'" in capsys.readouterr().err

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

    def test_eval_prints_score_columns(self, tmp_path, config_path, trained, capsys):
        code = main(["eval", "--config", config_path,
                     "--checkpoint", str(trained / "best.ckpt"),
                     "--data", "phantoms:4x32"])
        assert code == 0
        out = capsys.readouterr().out
        assert "overlap" in out and "dice" in out and "jaccard" in out
        assert "mean" in out


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
                _accum(x, 3.0 * g)

            return _make(2.0 * x.data, (x,), bwd)

        def case(rng):
            x = rng.normal(size=(2, 2))
            proj = gc._proj(rng, (2, 2))
            yield "input", x, lambda t: gc._score(broken_double(t), proj)

        monkeypatch.setitem(gc.BLOCK_CASES, "broken_double", case)
        assert main(["gradcheck", "block"]) == 5
        out = capsys.readouterr().out
        assert "broken_double" in out and "FAIL" in out
