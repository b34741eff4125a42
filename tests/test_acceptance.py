"""End-to-end acceptance gate.

Each test exercises one release criterion at its stated tolerance and
prints a single pass/fail line. Run with ``pytest tests/test_acceptance.py -v``
(add ``-s`` to see the summary lines as they are produced).
"""

import time

import numpy as np
import pytest

from sepseg.autograd import Rng, Tensor, backward
from sepseg.data import (
    CheckpointError,
    NiftiError,
    generate_phantom,
    load_checkpoint,
    read_nifti,
    save_checkpoint,
)
from sepseg.gradcheck import TOLERANCE, run_suite
from sepseg.layers import conv2d_param_count, separable_param_count
from sepseg.metrics import (
    ClassWeights,
    dice_standard,
    jaccard,
    overlap_score,
    weighted_cross_entropy,
)
from sepseg.model import ModelSpec, build_model, count_parameters, forward
from sepseg.preprocess import WindowSpec, rotate_pair, histogram_equalize, window_hu
from sepseg.train import AdamState, TrainConfig, adam_step, train

from conftest import make_nifti


def _report(index, label, ok):
    print(f"criterion {index} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {index} ({label}) failed"


class TestAcceptance:
    def test_01_gradient_checks(self):
        start = time.monotonic()
        results = run_suite("model", instances=5, seed=0)
        elapsed = time.monotonic() - start
        worst = max(err for _, _, _, err in results)
        names = {name for name, _, _, _ in results}
        ok = (
            worst <= TOLERANCE
            and elapsed < 120.0
            and "resnet_block_8_16" in names
            and len(names) == 10
        )
        _report(1, f"gradient checks, worst {worst:.2e} in {elapsed:.0f}s", ok)

    def test_02_forward_shapes_and_depths(self):
        model = build_model(ModelSpec(variant="proposed", base_depth=64), Rng(0, 0))
        x = Tensor(np.random.default_rng(0).normal(size=(1, 1, 256, 256))
                   .astype(np.float32))
        probs, features = forward(model, x, "infer", return_features=True)
        sums = probs.data.sum(axis=1)
        depths = [features[s].shape[1]
                  for s in ("enc1", "enc2", "enc3", "enc4", "bottleneck")]
        ok = (
            probs.shape == (1, 2, 256, 256)
            and np.abs(sums - 1.0).max() <= 1e-5
            and depths == [64, 128, 256, 512, 1024]
        )
        _report(2, f"forward {probs.shape}, depths {depths}", ok)

    def test_03_parameter_budget(self):
        _, proposed = count_parameters(
            build_model(ModelSpec(variant="proposed", base_depth=64), Rng(0, 0)))
        _, baseline = count_parameters(
            build_model(ModelSpec(variant="baseline-unet", base_depth=64), Rng(0, 0)))
        spots = (
            separable_param_count(64, 128, 3) == 8960
            and conv2d_param_count(64, 128, 3) == 73856
            and separable_param_count(512, 1024, 3) == 530432
        )
        ok = (28_000_000 <= baseline <= 35_000_000
              and proposed < baseline / 5
              and spots)
        _report(3, f"params proposed {proposed}, baseline {baseline}", ok)

    def test_04_parameter_free_upsampling(self):
        rows, _ = count_parameters(
            build_model(ModelSpec(variant="proposed", base_depth=8), Rng(0, 0)))
        stages = {name.split(".")[0] for name, _, _ in rows}
        kinds = {name.split(".")[2] for name, _, _ in rows
                 if not name.startswith("head")}
        ok = (
            not any("upsample" in n or "shuffle" in n for n, _, _ in rows)
            and stages <= {"enc1", "enc2", "enc3", "enc4", "bottleneck",
                           "dec1", "dec2", "dec3", "dec4", "head"}
            and kinds <= {"conv1", "conv2", "bn", "proj"}
        )
        _report(4, "upsampling layers hold no parameters", ok)

    def test_05_score_identities(self):
        rng = np.random.default_rng(0)
        worst_overlap = worst_dice = 0.0
        for _ in range(100):
            pred = rng.integers(0, 2, (16, 16))
            truth = rng.integers(0, 2, (16, 16))
            j = jaccard(pred, truth)
            worst_overlap = max(worst_overlap, abs(overlap_score(pred, truth) - j))
            worst_dice = max(worst_dice, abs(dice_standard(pred, truth)
                                             - 2 * j / (1 + j)))
        ok = worst_overlap <= 1e-12 and worst_dice <= 1e-12
        _report(5, f"score identities to {max(worst_overlap, worst_dice):.1e}", ok)

    def test_06_phantom_overfit(self, tmp_path):
        samples = generate_phantom(Rng(0, 9), 64, 8)
        spec = ModelSpec(variant="proposed", base_depth=8, dropout_rate=0.05)
        cfg = TrainConfig(iterations=300, batch_size=4, lr=0.001, seed=0,
                          eval_every=50, augment=True)
        start = time.monotonic()
        _, records, _ = train(spec, cfg, samples, samples[:2],
                              out_dir=str(tmp_path))
        elapsed = time.monotonic() - start
        final_dice = records[-1].train_dice

        # strict descent over ten steps on one fixed batch, no dropout
        fixed_spec = ModelSpec(variant="proposed", base_depth=8, dropout_rate=0.0)
        model = build_model(fixed_spec, Rng(0, 0))
        params = model.named_parameters()
        state = AdamState(lr=0.001)
        x = Tensor(np.stack([s.image for s in samples[:4]]))
        labels = np.stack([s.mask for s in samples[:4]])
        w = ClassWeights([1.0, 1.0])
        losses = []
        for _ in range(10):
            loss = weighted_cross_entropy(forward(model, x, "train", rng=Rng(0, 1)),
                                          labels, w)
            losses.append(float(loss.data))
            backward(loss)
            adam_step(params, state)
        descending = all(b < a for a, b in zip(losses, losses[1:]))

        ok = final_dice >= 0.95 and elapsed < 600.0 and descending
        _report(6, f"overfit dice {final_dice:.3f} in {elapsed:.0f}s", ok)

    def test_07_bit_identical_reruns(self, tmp_path):
        samples = generate_phantom(Rng(0, 9), 32, 4)
        cfg = TrainConfig(iterations=6, batch_size=2, seed=5, eval_every=2)
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            train(ModelSpec(variant="proposed", base_depth=8), cfg,
                  samples, samples[:1], out_dir=str(out))
            outs.append(out)
        same_log = ((outs[0] / "run_log.csv").read_bytes()
                    == (outs[1] / "run_log.csv").read_bytes())
        same_best = ((outs[0] / "best.ckpt").read_bytes()
                     == (outs[1] / "best.ckpt").read_bytes())
        same_final = ((outs[0] / "final.ckpt").read_bytes()
                      == (outs[1] / "final.ckpt").read_bytes())
        _report(7, "identical seeds reproduce logs and checkpoints",
                same_log and same_best and same_final)

    def test_08_preprocessing_contract(self):
        spec = WindowSpec(-100.0, 200.0)
        w = window_hu(np.array([-150.0, 50.0, 300.0]), spec)
        window_ok = w[0] == 0.0 and w[1] == 0.5 and w[2] == 1.0

        const = np.full((8, 8), 0.4, dtype=np.float32)
        rng = np.random.default_rng(0)
        x = rng.uniform(size=(32, 32)).astype(np.float32)
        eq = histogram_equalize(x)
        order = np.argsort(x.ravel(), kind="stable")
        equalize_ok = (
            np.array_equal(histogram_equalize(const), const)
            and np.all(np.diff(eq.ravel()[order]) >= -1e-7)
        )

        img = rng.uniform(size=(9, 9)).astype(np.float32)
        mask = (img > 0.5).astype(np.int64)
        once = rotate_pair(img, mask, 180.0)
        twice = rotate_pair(once[0], once[1], 180.0)
        rotate_ok = (np.array_equal(once[0], img[::-1, ::-1])
                     and np.array_equal(twice[0], img)
                     and np.array_equal(twice[1], mask))

        _report(8, "windowing, equalization, 180-degree rotation",
                window_ok and equalize_ok and rotate_ok)

    def test_09_io_formats(self, tmp_path):
        data = np.arange(32, dtype=np.int16).reshape(2, 4, 4)
        path = make_nifti(str(tmp_path / "v.nii"), data, slope=2.0, inter=-1024.0)
        vol = read_nifti(path)
        nifti_ok = np.array_equal(vol.voxels, 2.0 * data - 1024.0)

        errors_ok = True
        bad = make_nifti(str(tmp_path / "d.nii"), data, magic=b"ni1\x00")
        try:
            read_nifti(bad)
            errors_ok = False
        except NiftiError:
            pass

        model = build_model(ModelSpec(variant="proposed", base_depth=8), Rng(0, 0))
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(model.named_parameters(), p1)
        save_checkpoint(load_checkpoint(p1), p2)
        ckpt_ok = p1.read_bytes() == p2.read_bytes()

        p1.write_bytes(p1.read_bytes()[:-5])
        try:
            load_checkpoint(p1)
            errors_ok = False
        except CheckpointError:
            pass

        _report(9, "volume reader and checkpoint round-trip",
                nifti_ok and ckpt_ok and errors_ok)
