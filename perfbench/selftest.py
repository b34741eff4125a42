"""Self-test of the benchmark on a tiny config of every workload.

    python3 perfbench/selftest.py

Checks that every run is correct, that every metric of BENCHMARK.json is
reported with its unit, that layer metrics are non-zero exactly where a
workload runs that layer, that counts repeat exactly across seeds, that
the mult-adds of the leaf ops add up to the model's, and that the
benchmark refuses to run without the sepseg sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from worker import WORKLOADS, make_workload  # noqa: E402

LEAF_OPS = ("depthwise", "conv2d_1x1", "conv2d_3x3", "batch_norm", "bilinear_upsample_2x")
TRAIN_ONLY = (
    "autograd.backward_ms", "autograd.graph_nodes", "layers.dropout.", ".bwd_ms",
    "model.forward_train_ms", "train.", "preprocess.augment_ms", "metrics.loss.",
    "data.save_checkpoint_ms", "data.phantom_ms",
)
INFER_ONLY = (
    "preprocess.slice_prep_ms", "data.read_nifti", "data.load_checkpoint_ms",
    "data.write_pgm_ms",
)
PROPOSED_ONLY = ("layers.depthwise.", "layers.separable_conv2d.", "layers.pixel_shuffle.")
UNET_ONLY = ("layers.conv2d_3x3.",)
NO_MADDS = ("max_pool_2x2", "pixel_shuffle", "dropout", "softmax_channels")


def run(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def expected_nonzero(workload, name):
    train = workload.startswith("train")
    if name in [f"layers.{op}.madds" for op in NO_MADDS]:
        return False
    if any(k in name for k in TRAIN_ONLY) and not train:
        return False
    if any(k in name for k in INFER_ONLY) and train:
        return False
    if any(k in name for k in PROPOSED_ONLY) and "unet" in workload:
        return False
    if any(k in name for k in UNET_ONLY) and "unet" not in workload:
        return False
    return True


def check_result(res, spec):
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    want = {m["name"]: m["unit"] for m in spec}
    assert got == want, (sorted(set(got) ^ set(want)), got, want)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(tracing.PER_LAYER)
    for workload in WORKLOADS:
        check_result(result_of(run(workload, 1, 0)), bench["end_to_end"])
        traced = [result_of(run(workload, seed, 1)) for seed in (1, 2)]
        for res in traced:
            check_result(res, bench["per_layer"])
        values = [{k: m["value"] for k, m in res["metrics"].items()} for res in traced]
        for name, unit in tracing.PER_LAYER:
            if name == "trace.overhead_pct":
                continue
            nonzero = values[0][name] != 0
            assert nonzero == expected_nonzero(workload, name), (workload, name, values[0][name])
            if unit in tracing.COUNT_UNITS:
                assert values[0][name] == values[1][name], (workload, name)
        wl = make_workload(workload, tiny=True)
        leaf = sum(values[0][f"layers.{op}.madds"] for op in LEAF_OPS)
        assert leaf == values[0]["model.madds"] * wl.slices_per_op, (workload, leaf)
        print(f"ok {workload}")

    bare = os.path.join(ROOT, ".perfbench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run(WORKLOADS[0], 1, 0, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok refuses to run without sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
