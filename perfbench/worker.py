"""Runs one benchmark workload in this process and prints its result.

Started by ``run.py``, which supervises it so that a crash or an
out-of-memory kill still yields a result line. The program is driven
only through ``sepseg.cli.main``; layer timings come from ``tracing``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import struct
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

BASE_DEPTH = 8
REFERENCE_SEED = 0
SETUP_REPEATS = 3
# tolerances against reference.json: loose enough for reordered float sums
LOSS_RTOL = 1e-3
DICE_ATOL = 1e-2
PIXEL_SHARE_TOL = 1e-3

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_ms_iqm", "ms"),
    ("slices_per_s", "slices/s"),
)


class CheckFailed(Exception):
    """An output of the program is not what the workload expects."""


def median(values):
    return statistics.median(values) if values else 0.0


def iqm(values):
    """Interquartile mean: the mean of the middle half of the sorted
    values. Like the median it ignores the slowest and fastest quarter;
    unlike the median it does not jump from one mode to the other when
    a shared host runs part of a run slowly."""
    if not values:
        return 0.0
    ordered = sorted(values)
    quarter = len(ordered) // 4
    return statistics.fmean(ordered[quarter:len(ordered) - quarter])


def tail(values):
    """(percentile, value) of the highest whole percentile with at least
    ten samples beyond it, or None when there are fewer than 20 samples."""
    n = len(values)
    if n < 20:
        return None
    pct = math.floor(100 * (n - 10) / n)
    ordered = sorted(values)
    return pct, ordered[min(n - 1, math.ceil(pct / 100 * n) - 1)]


def sha256_files(paths):
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def write_nifti(path, voxels):
    """Single-file little-endian NIfTI-1, int16, voxels given as (Z, Y, X)."""
    z, y, x = voxels.shape
    header = bytearray(348)
    struct.pack_into("<i", header, 0, 348)
    struct.pack_into("<8h", header, 40, 3, x, y, z, 1, 1, 1, 1)
    struct.pack_into("<hh", header, 70, 4, 16)
    struct.pack_into("<fff", header, 108, 352.0, 1.0, 0.0)
    header[344:348] = b"n+1\x00"
    with open(path, "wb") as fh:
        fh.write(bytes(header) + b"\x00" * 4 + voxels.astype("<i2").tobytes())


def make_volume(seed, size, depth):
    """Seeded CT-like volume in HU: air, a body, a liver and 1-3 darker
    round lesions inside the liver on every slice, plus noise."""
    import numpy as np

    rng = np.random.default_rng(seed)
    yy, xx = np.meshgrid(np.linspace(-1, 1, size), np.linspace(-1, 1, size), indexing="ij")
    body = (yy / 0.75) ** 2 + (xx / 0.9) ** 2 <= 1
    vol = np.empty((depth, size, size), dtype=np.float64)
    for z in range(depth):
        hu = np.where(body, 40.0, -1000.0)
        cy, cx = rng.uniform(-0.2, 0.1), rng.uniform(-0.45, -0.15)
        liver = ((yy - cy) / 0.35) ** 2 + ((xx - cx) / 0.3) ** 2 <= 1
        hu[liver] = 60.0
        for _ in range(int(rng.integers(1, 4))):
            r = rng.uniform(0.03, 0.1)
            ly, lx = cy + rng.uniform(-0.15, 0.15), cx + rng.uniform(-0.12, 0.12)
            hu[((yy - ly) ** 2 + (xx - lx) ** 2 <= r * r) & liver] = rng.uniform(10, 35)
        vol[z] = hu + rng.normal(0.0, 12.0, hu.shape)
    return np.clip(np.rint(vol), -1024, 3071).astype(np.int16)


def write_config(path, lines):
    with open(path, "w") as fh:
        fh.write("".join(f"{k} = {v}\n" for k, v in lines.items()))


class TrainWorkload:
    """``sepseg train`` on ``phantoms:<slices>x<size>``; an op is one
    optimizer iteration, a command runs ``iterations`` of them and ends
    with one evaluation and the checkpoint writes."""

    unit_kind = "iter"

    def __init__(self, name, variant, size, slices, iterations, batch):
        self.name, self.variant, self.size = name, variant, size
        self.slices, self.iterations, self.batch = slices, iterations, batch
        self.slices_per_op = batch
        self.ops_per_command = iterations

    def prepare(self, work, seed):
        os.makedirs(work, exist_ok=True)
        cfg = os.path.join(work, "run.cfg")
        write_config(cfg, {
            "model.variant": self.variant,
            "model.base-depth": BASE_DEPTH,
            "train.iterations": self.iterations,
            "train.batch-size": self.batch,
            "train.eval-every": self.iterations,
            "train.augment": "true",
            "folds": 4,
            "seed": seed,
        })
        return {"config": cfg}

    def argv(self, inputs, out):
        return ["train", "--config", inputs["config"],
                "--data", f"phantoms:{self.slices}x{self.size}", "--out", out]

    def check(self, out):
        from sepseg.data import load_checkpoint, save_checkpoint

        with open(os.path.join(out, "run_log.csv")) as fh:
            rows = fh.read().splitlines()
        if rows[0] != "iteration,loss,train_dice,val_dice,val_overlap" or len(rows) != 2:
            raise CheckFailed(f"run_log.csv has unexpected rows {rows!r}")
        fields = rows[1].split(",")
        loss, val_dice = float(fields[1]), float(fields[3])
        if int(fields[0]) != self.iterations or not math.isfinite(loss):
            raise CheckFailed(f"bad final log row {rows[1]!r}")
        if not 0.0 <= val_dice <= 1.0:
            raise CheckFailed(f"val dice {val_dice} outside [0, 1]")
        final = os.path.join(out, "final.ckpt")
        again = os.path.join(out, "resaved.ckpt")
        save_checkpoint(load_checkpoint(final), again)
        with open(final, "rb") as a, open(again, "rb") as b:
            if a.read() != b.read():
                raise CheckFailed("final.ckpt does not save back byte-identical")
        os.remove(again)
        if not os.path.exists(os.path.join(out, "best.ckpt")):
            raise CheckFailed("best.ckpt missing")
        return {
            "loss": loss,
            "val_dice": val_dice,
            "checkpoint_bytes": os.path.getsize(final),
            "fingerprint": sha256_files([os.path.join(out, "run_log.csv"), final]),
        }

    def compare(self, facts, ref):
        if not math.isclose(facts["loss"], ref["loss"], rel_tol=LOSS_RTOL):
            raise CheckFailed(f"final loss {facts['loss']} != reference {ref['loss']}")
        if abs(facts["val_dice"] - ref["val_dice"]) > DICE_ATOL:
            raise CheckFailed(f"val dice {facts['val_dice']} != reference {ref['val_dice']}")

    def reference_of(self, facts):
        return {"loss": facts["loss"], "val_dice": facts["val_dice"]}


class InferWorkload:
    """``sepseg infer`` on a seeded int16 NIfTI volume with a checkpoint
    from seeded weights; an op is one volume, from the NIfTI file to all
    PGMs and ``summary.txt``."""

    unit_kind = "cmd"
    ops_per_command = 1

    def __init__(self, name, variant, resize, in_size, depth):
        self.name, self.variant, self.resize = name, variant, resize
        self.in_size, self.depth = in_size, depth
        self.slices_per_op = depth

    def prepare(self, work, seed):
        from sepseg.autograd import Rng
        from sepseg.data import save_checkpoint
        from sepseg.model import ModelSpec, build_model

        os.makedirs(work, exist_ok=True)
        paths = {name: os.path.join(work, name) for name in ("run.cfg", "volume.nii", "model.ckpt")}
        write_config(paths["run.cfg"], {
            "model.variant": self.variant,
            "model.base-depth": BASE_DEPTH,
            "data.resize": self.resize,
        })
        write_nifti(paths["volume.nii"], make_volume(seed, self.in_size, self.depth))
        model = build_model(ModelSpec(variant=self.variant, base_depth=BASE_DEPTH), Rng(seed, 0))
        save_checkpoint(model.named_parameters(), paths["model.ckpt"])
        return paths

    def argv(self, inputs, out):
        return ["infer", "--config", inputs["run.cfg"], "--checkpoint", inputs["model.ckpt"],
                "--input", inputs["volume.nii"], "--out", out]

    def check(self, out):
        import numpy as np

        names = [f"slice_{i:04d}.pgm" for i in range(self.depth)]
        found = sorted(os.listdir(out))
        if found != sorted(names + ["summary.txt"]):
            raise CheckFailed(f"unexpected output files {found}")
        header = f"P5\n{self.resize} {self.resize}\n255\n".encode("ascii")
        counts = []
        for name in names:
            with open(os.path.join(out, name), "rb") as fh:
                blob = fh.read()
            if not blob.startswith(header) or len(blob) != len(header) + self.resize ** 2:
                raise CheckFailed(f"{name} is not a {self.resize}x{self.resize} P5 PGM")
            pixels = np.frombuffer(blob, dtype=np.uint8, offset=len(header))
            if np.any((pixels != 0) & (pixels != 255)):
                raise CheckFailed(f"{name} has values other than 0 and 255")
            counts.append(int(np.count_nonzero(pixels)))
        with open(os.path.join(out, "summary.txt")) as fh:
            summary = fh.read()
        expected = "slice_index,lesion_pixels\n" + "".join(
            f"{i},{c}\n" for i, c in enumerate(counts))
        if summary != expected:
            raise CheckFailed("summary.txt does not match the PGM masks")
        paths = [os.path.join(out, n) for n in names + ["summary.txt"]]
        return {"lesion_pixels": counts, "fingerprint": sha256_files(paths)}

    def compare(self, facts, ref):
        tol = PIXEL_SHARE_TOL * self.resize ** 2
        for i, (got, want) in enumerate(zip(facts["lesion_pixels"], ref["lesion_pixels"])):
            if abs(got - want) > tol:
                raise CheckFailed(f"slice {i}: {got} lesion pixels, reference {want}")

    def reference_of(self, facts):
        return {"lesion_pixels": facts["lesion_pixels"]}


def make_workload(name, tiny=False):
    """The workloads; ``tiny`` shrinks every size for the self-test."""
    if name == "train-proposed-64":
        return TrainWorkload(name, "proposed", 32 if tiny else 64, 8, 2 if tiny else 10, 4)
    variants = {"infer-proposed-256": "proposed", "infer-unet-256": "baseline-unet"}
    if name in variants:
        if tiny:
            return InferWorkload(name, variants[name], 32, 64, 2)
        return InferWorkload(name, variants[name], 256, 512, 4)
    raise KeyError(name)


WORKLOADS = ("train-proposed-64", "infer-proposed-256", "infer-unet-256")


class Tally:
    """Outcome of a sequence of commands."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.op_ms = []
        self.slices = 0
        self.command_s = 0.0
        self.facts = None


def run_command(wl, rec, inputs, out, tally, reference=None):
    """One CLI command: time it, check its outputs, and book its ops."""
    from sepseg.cli import main

    shutil.rmtree(out, ignore_errors=True)
    first_iter = len(rec.iter_ms)
    tally.attempted += wl.ops_per_command
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = rec.command(main, wl.argv(inputs, out))
        wall = time.perf_counter() - start
        if rc != 0:
            raise CheckFailed(f"sepseg exited with code {rc}")
        with rec.suspended():
            facts = wl.check(out)
        if reference is not None:
            wl.compare(facts, reference)
        if tally.facts is None:
            tally.facts = facts
        elif facts["fingerprint"] != tally.facts["fingerprint"]:
            raise CheckFailed("outputs differ from the first command with the same inputs")
    except Exception:  # a failed op must not stop the benchmark
        tally.failed += wl.ops_per_command
        print(f"[{wl.name}] failed command:\n{traceback.format_exc()}", file=sys.stderr)
        return
    tally.command_s += wall
    tally.slices += wl.slices_per_op * wl.ops_per_command
    if wl.unit_kind == "iter":
        tally.op_ms.extend(rec.iter_ms[first_iter:])
    else:
        tally.op_ms.append(wall * 1e3)


def measure(wl, rec, inputs, out, seconds):
    """Closed loop: commands back to back until ``seconds`` have passed."""
    tally = Tally()
    rec.install()
    try:
        deadline = time.perf_counter() + seconds
        while True:
            run_command(wl, rec, inputs, out, tally)
            if time.perf_counter() >= deadline:
                return tally
    finally:
        rec.uninstall()


def load_reference(wl, tiny):
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh).get(wl.name + ("/tiny" if tiny else ""))


def blas_facts():
    import ctypes
    import glob

    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    facts = {"blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": None}
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                facts["blas_threads"] = fn()
                break
    return facts


def machine_facts():
    import numpy as np

    nproc = len(os.sched_getaffinity(0))
    facts = {
        "nproc": nproc,
        "mem_total_gb": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30, 2),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }
    facts.update(blas_facts())
    if facts["blas_threads"] is not None and facts["blas_threads"] > nproc:
        raise RuntimeError(f"BLAS uses {facts['blas_threads']} threads on {nproc} cores")
    return facts


def model_statics(wl):
    from sepseg.autograd import Rng
    from sepseg.model import ModelSpec, build_model, count_parameters

    from costmodel import model_counts

    size = wl.size if isinstance(wl, TrainWorkload) else wl.resize
    out = {}
    for variant in ("proposed", "baseline-unet"):
        spec = ModelSpec(variant=variant, base_depth=BASE_DEPTH)
        _, params = count_parameters(build_model(spec, Rng(0, 0)))
        madds, nbytes = model_counts(spec, size)
        out[variant] = {"params": params, "madds": madds, "bytes": nbytes}
    return size, out


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report_tally(label, tally, wl):
    ops = "iterations" if wl.unit_kind == "iter" else "volumes"
    t = tail(tally.op_ms)
    tail_text = f"p{t[0]} {t[1]:.1f} ms" if t else "n/a (< 20 samples)"
    print(f"{label}: op_ms_iqm {iqm(tally.op_ms):.1f} ms, p50 {median(tally.op_ms):.1f} ms "
          f"over {len(tally.op_ms)} {ops}, tail {tail_text}; slices_per_s {tally.slices / max(tally.command_s, 1e-9):.3f}; "
          f"failed_share {tally.failed}/{tally.attempted}")


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy  # noqa: F401
    import sepseg.cli  # noqa: F401

    import tracing

    import_s = time.perf_counter() - t0

    wl = make_workload(args.workload, args.tiny)
    work = os.path.join(ROOT, ".perfbench_work", wl.name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    machine = machine_facts()
    print(f"workload {wl.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}"
          + (" (tiny)" if args.tiny else ""))
    print("machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))

    # set-up, repeated: build the inputs for this seed and for the
    # reference seed, then run one warm-up command on the reference
    # inputs and check it against reference.json
    setup_runs = []
    warm = Tally()
    reference = load_reference(wl, args.tiny) or {}
    rec = tracing.Recorder(traced=False)
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = wl.prepare(os.path.join(work, "inputs"), args.seed)
        ref_inputs = wl.prepare(os.path.join(work, "reference"), REFERENCE_SEED)
        rec.install()
        try:
            run_command(wl, rec, ref_inputs, os.path.join(work, "out"), warm, reference)
        finally:
            rec.uninstall()
        setup_runs.append(time.perf_counter() - start)
    setup_s = import_s + median(setup_runs)
    print(f"setup_s {setup_s:.3f} s = import {import_s:.3f} + median of "
          f"{', '.join(f'{s:.3f}' for s in setup_runs)} (inputs + warm-up command)")
    if warm.facts is not None:
        print("reference check passed: " + json.dumps(wl.reference_of(warm.facts)))

    out = os.path.join(work, "out")
    if args.trace:
        plain = measure(wl, tracing.Recorder(traced=False), inputs, out, args.seconds / 2)
        rec = tracing.Recorder(traced=True)
        root = rec.open("bench.traced")
        traced = measure(wl, rec, inputs, out, args.seconds / 2)
        rec.close(root)
        phases = [plain, traced]
        report_tally("untraced", plain, wl)
        report_tally("traced", traced, wl)
    else:
        plain = measure(wl, tracing.Recorder(traced=False), inputs, out, args.seconds)
        phases = [plain]
        report_tally("untraced", plain, wl)

    attempted = warm.attempted + sum(p.attempted for p in phases)
    failed = warm.failed + sum(p.failed for p in phases)
    facts = plain.facts or {}
    if isinstance(wl, TrainWorkload) and facts:
        print(f"train: final loss {facts['loss']} val dice {facts['val_dice']} "
              f"after {wl.iterations} iterations (seed {args.seed})")
    size, statics = model_statics(wl)
    for variant, c in statics.items():
        print(f"model {variant} at {size}x{size}: params {c['params']}, "
              f"madds/slice {c['madds']}, computed bytes/slice {c['bytes']}")

    if args.trace:
        overhead = (iqm(traced.op_ms) / iqm(plain.op_ms) - 1) * 100 \
            if traced.op_ms and plain.op_ms else 0.0
        ckpt = facts.get("checkpoint_bytes") or os.path.getsize(inputs.get("model.ckpt", ""))
        own = statics[wl.variant]
        metrics = tracing.layer_metrics(
            rec, wl.unit_kind, wl.slices_per_op * wl.ops_per_command,
            {"params": own["params"], "madds": own["madds"], "checkpoint_bytes": ckpt},
            overhead)
        rows, self_sum, wall = tracing.self_time_table(rec, root)
        print(f"self time by span over the traced phase ({wall:.1f} ms):")
        print(f"  {'span':<34} {'calls':>7} {'self ms':>10} {'share':>7}")
        for name, calls, ms, share in rows:
            print(f"  {name:<34} {calls:>7} {ms:>10.1f} {share:>6.1%}")
        print(f"  self times sum to {self_sum:.1f} ms of {wall:.1f} ms traced wall time; "
              f"time outside every program span is bench.traced self time")
        print(f"tracing overhead: {overhead:+.1f}% on op_ms_iqm")
        rec.write_spans(os.path.join(work, "spans.jsonl"))
        units = dict(tracing.PER_LAYER)
        for name, value in metrics.items():
            print(f"  {name} = {fmt(value)} {units[name]}")
        result_metrics = {n: {"value": metrics[n], "unit": u} for n, u in tracing.PER_LAYER}
    else:
        values = {
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "op_ms_iqm": iqm(plain.op_ms),
            "slices_per_s": plain.slices / plain.command_s if plain.command_s else 0.0,
        }
        for name, unit in END_TO_END:
            print(f"  {name} = {fmt(values[name])} {unit}")
        result_metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}

    for name in ("inputs", "reference", "out"):
        shutil.rmtree(os.path.join(work, name), ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }
    with open(os.path.join(work, f"result-trace{args.trace}.json"), "w") as fh:
        json.dump({"args": vars(args), "machine": machine, "op_samples": len(plain.op_ms),
                   "op_ms_tail": tail(plain.op_ms), "result": result}, fh, indent=1)
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
