import tracemalloc
import weakref

import numpy as np
import pytest

import sepseg.model as model_module
from sepseg import layers
from sepseg.autograd import Rng, ShapeError, Tensor, _accum, _make, _released, backward, relu
from sepseg.gradcheck import project
from sepseg.metrics import probs_to_mask
from sepseg.model import (
    ModelSpec,
    ResNetBlockSpec,
    _init_block,
    build_model,
    count_parameters,
    forward,
    predict_masks,
    resnet_block_forward,
)


def small_model(variant="proposed", **kwargs):
    return build_model(ModelSpec(variant=variant, base_depth=8, **kwargs), Rng(0, 0))


class TestModelSpec:
    def test_invalid_variant(self):
        with pytest.raises(ValueError):
            ModelSpec(variant="resnet50")

    def test_depth_cap_enforced(self):
        with pytest.raises(ValueError):
            ModelSpec(base_depth=128)

    def test_upsample_plan(self):
        assert ModelSpec().upsample_plan == ("bilinear", "bilinear", "bilinear", "subpixel")
        assert ModelSpec(variant="baseline-unet").upsample_plan == ("bilinear",) * 4

    def test_shortcut_rule(self):
        # identity when the block keeps its width, else a 1x1 projection
        assert _init_block(ResNetBlockSpec(8, 8, 3, True), Rng(0), np.float32).proj is None
        proj = _init_block(ResNetBlockSpec(8, 16, 3, True), Rng(0), np.float32).proj
        assert proj.weight.shape == (16, 8, 1, 1)


class TestForward:
    def test_output_shape_and_softmax(self):
        model = small_model()
        x = Tensor(np.random.default_rng(0).normal(size=(1, 1, 64, 64)).astype(np.float32))
        probs = forward(model, x, "infer")
        assert probs.shape == (1, 2, 64, 64)
        assert np.abs(probs.data.sum(axis=1) - 1.0).max() <= 1e-5

    def test_encoder_channel_schedule(self, block_outputs):
        model = small_model()
        x = Tensor(np.zeros((1, 1, 64, 64), dtype=np.float32))
        forward(model, x, "infer")
        # enc1..enc4 and the bottleneck run first
        got = [out.shape[1] for out in block_outputs[:5]]
        assert got == [8, 16, 32, 64, 128]

    def test_indivisible_size_rejected(self):
        model = small_model()
        with pytest.raises(ShapeError) as exc:
            forward(model, Tensor(np.zeros((1, 1, 40, 40), dtype=np.float32)), "infer")
        assert "16" in str(exc.value)

    def test_baseline_same_io_shapes(self):
        x = Tensor(np.random.default_rng(1).normal(size=(2, 1, 32, 32)).astype(np.float32))
        a = forward(small_model("proposed"), x, "infer")
        b = forward(small_model("baseline-unet"), x, "infer")
        assert a.shape == b.shape == (2, 2, 32, 32)

    def test_forward_finite(self):
        model = small_model()
        x = Tensor(np.random.default_rng(2).normal(size=(1, 1, 32, 32)).astype(np.float32))
        out = forward(model, x, "train", rng=Rng(0, 1))
        assert np.all(np.isfinite(out.data))


def _infer_memory(model, x):
    """(bytes held after an infer forward, peak bytes during it, output bytes)."""
    forward(model, x, "infer")  # warm-up: first-call allocations are not the forward's
    tracemalloc.start()
    try:
        probs = forward(model, x, "infer")
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return held, peak, probs.data.nbytes


def _batch(n=2, side=64):
    return Tensor(np.random.default_rng(4).normal(size=(n, 1, side, side)).astype(np.float32))


def _train_loss(model, x):
    from sepseg.metrics import weighted_cross_entropy

    n, _, h, w = x.shape
    labels = np.random.default_rng(1).integers(0, 2, (n, h, w))
    return weighted_cross_entropy(forward(model, x, "train", rng=Rng(0, 1)),
                                  labels, np.array([1.0, 3.0]))


def _tensors_in(value):
    """Every Tensor in ``value``, looking into lists, tuples, dicts and the
    closure cells of functions (a closure may wrap another)."""
    if isinstance(value, Tensor):
        yield value
    elif isinstance(value, (list, tuple)):
        for v in value:
            yield from _tensors_in(v)
    elif isinstance(value, dict):
        for v in value.values():
            yield from _tensors_in(v)
    elif callable(value) and getattr(value, "__closure__", None):
        for cell in value.__closure__:
            yield from _tensors_in(cell.cell_contents)


def captured_tensors(root, params):
    """The Tensors other than ``params`` that a backward closure of a node
    under ``root`` holds: each keeps its data alive until the backward."""
    allowed = {id(p) for p in params}
    found, seen, todo = [], {id(root.node)}, [root.node]
    while todo:
        node = todo.pop()
        found += [t for t in _tensors_in(node._backward) if id(t) not in allowed]
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                todo.append(p)
    return found


class TestGraphLifetime:
    def test_infer_output_has_no_graph_and_train_still_records(self):
        model = small_model()
        x = _batch(1, 32)
        probs = forward(model, x, "infer")
        assert not probs.requires_grad and probs._parents == ()
        probs = forward(model, x, "train", rng=Rng(0, 1))
        assert probs.requires_grad and probs._parents

    def test_forward_that_raises_leaves_recording_on(self, monkeypatch):
        def broken(t):
            raise RuntimeError("pooling failed")

        monkeypatch.setattr(model_module, "max_pool_2x2", broken)
        model = small_model()
        with pytest.raises(RuntimeError, match="pooling failed"):
            forward(model, _batch(1, 32), "infer")
        w = model.head.weight
        assert relu(w).requires_grad

    def test_backward_releases_every_interior_node(self):
        from sepseg.metrics import weighted_cross_entropy

        model = small_model()
        x = _batch(2, 32)
        labels = np.random.default_rng(1).integers(0, 2, (2, 32, 32))
        loss = weighted_cross_entropy(forward(model, x, "train", rng=Rng(0, 1)),
                                      labels, np.array([1.0, 1.0]))
        seen, todo, interior = {id(loss)}, [loss], []
        while todo:
            node = todo.pop()
            if node._backward is not None:
                interior.append(node)
            for p in node._parents:
                if id(p) not in seen:
                    seen.add(id(p))
                    todo.append(p)
        backward(loss)
        assert interior
        for node in interior:
            assert node._parents == () and node.grad is None and node._backward is _released
        assert all(p.grad is not None for p in model.named_parameters().values())

    def test_capture_guard_finds_a_leaky_closure(self):
        w = Tensor(np.ones(3), requires_grad=True)
        h = relu(w)

        def leaky_double(x, extra):
            # captures the parent Tensor and a list holding one, not their nodes
            def bwd(g):
                _accum(x.node, 2 * g)
                _accum(extra[0].node, g)

            return _make(2 * x.data, (x, *extra), bwd)

        y = project(leaky_double(h, [relu(w)]), np.ones(3))
        found = captured_tensors(y, [w])
        assert len(found) == 2 and h in found
        assert captured_tensors(project(leaky_double(w, [w]), np.ones(3)), [w]) == []

    @pytest.mark.parametrize("variant", ["proposed", "baseline-unet"])
    def test_closures_capture_no_tensor_but_parameters(self, variant):
        model = small_model(variant)
        loss = _train_loss(model, _batch(2, 32))
        assert captured_tensors(loss, model.named_parameters().values()) == []

    @pytest.mark.parametrize("variant, bound_mib", [("proposed", 16), ("baseline-unet", 13)])
    def test_train_forward_keeps_only_what_backward_reads(self, variant, bound_mib):
        # one train forward and loss at the benchmark's training shape (batch
        # 4, 64x64, base depth 8); a graph that kept every activation held
        # 28.8 MiB for proposed and 28.2 MiB for baseline-unet
        model, x = small_model(variant), _batch(4, 64)
        tracemalloc.start()
        try:
            loss = _train_loss(model, x)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held <= bound_mib * 2**20

    def test_output_no_backward_reads_is_freed(self):
        # relu's backward reads its own output, so the 1x1 conv output under
        # it dies with the caller's reference; the gradients stay the same
        def run(keep):
            x = Tensor(np.random.default_rng(3).normal(size=(2, 3, 4, 4)), requires_grad=True)
            p = layers.init_conv2d(3, 4, 1, Rng(0), np.float64)
            h = layers.conv2d(x, p)
            ref = weakref.ref(h.data)
            y = relu(h)
            if not keep:
                del h
            freed = ref() is None
            backward(project(y, np.random.default_rng(5).normal(size=y.shape)))
            return freed, [x.grad, p.weight.grad, p.bias.grad]

        freed, grads = run(keep=False)
        assert freed
        for got, want in zip(grads, run(keep=True)[1]):
            np.testing.assert_array_equal(got, want)

    def test_infer_forward_holds_only_its_output(self):
        held, _, out_bytes = _infer_memory(small_model(), _batch())
        assert held <= 2 * out_bytes

    def test_proposed_infer_peak_below_baseline(self):
        # the paper's footprint claim at equal depth: proposed peaks lower
        x = _batch()
        _, proposed, _ = _infer_memory(small_model("proposed"), x)
        _, baseline, _ = _infer_memory(small_model("baseline-unet"), x)
        assert proposed < baseline


def _batched_predict(model, images, batch, lesion_class):
    """The batched inference loop that ``predict_masks`` replaced: masks and
    per-image probabilities, ``batch`` images per forward."""
    masks, probs = [], []
    for i in range(0, len(images), batch):
        p = forward(model, Tensor(np.stack(images[i : i + batch])), mode="infer").data
        probs.extend(p)
        masks.extend(probs_to_mask(p, lesion_class))
    return masks, probs


def _trained_statistics(model, rng):
    """Give every batch-norm running statistic a value away from its init."""
    for name, s in model.named_statistics().items():
        if name.endswith("running_var"):
            s[...] = rng.uniform(0.5, 2.0, s.shape)
        else:
            s[...] = rng.normal(0.0, 0.5, s.shape)
    return model


def _images(n, side, seed=5):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(1, side, side)).astype(np.float32) for _ in range(n)]


class TestPredictMasks:
    # every kernel of both variants computes an image's outputs from that
    # image alone, by the same operations in any batch, so one image per
    # forward has the batched loop's bits

    @pytest.mark.parametrize("batch", [8, 3])
    @pytest.mark.parametrize("variant", ["proposed", "baseline-unet"])
    def test_equals_batched_loop(self, variant, batch, monkeypatch):
        model = _trained_statistics(small_model(variant), np.random.default_rng(6))
        images = _images(5, 32)
        want_masks, want_probs = _batched_predict(model, images, batch, 1)

        seen = []

        def recording_forward(*args, **kwargs):
            out = forward(*args, **kwargs)
            seen.append(out.data)
            return out

        monkeypatch.setattr(model_module, "forward", recording_forward)
        masks = predict_masks(model, images, 1)
        assert [p.shape for p in seen] == [(1, 2, 32, 32)] * 5
        assert len(masks) == 5
        assert any(m.any() for m in masks) and not all(m.all() for m in masks)
        for got, mask, want, want_mask in zip(seen, masks, want_probs, want_masks):
            assert mask.dtype == np.uint8
            assert np.array_equal(got[0].view(np.uint32), want.view(np.uint32))
            assert np.array_equal(mask, want_mask)

    @pytest.mark.parametrize("variant", ["proposed", "baseline-unet"])
    def test_peak_memory_does_not_grow_with_slices(self, variant):
        model = small_model(variant)
        images = _images(6, 64)

        def peak(imgs):
            tracemalloc.start()
            try:
                predict_masks(model, imgs, 1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        predict_masks(model, images[:1], 1)  # warm-up: first-call allocations
        assert peak(images) <= 1.25 * peak(images[:1])


def _train_step(model, x, made_nodes):
    """Train forward, loss and backward; the dtypes of the nodes it made."""
    from sepseg.metrics import weighted_cross_entropy

    labels = np.random.default_rng(1).integers(0, 2, (x.shape[0],) + x.shape[2:])
    probs = forward(model, x, "train", rng=Rng(0, 1))
    backward(weighted_cross_entropy(probs, labels, np.array([1.0, 1.0])))
    return probs, {t.dtype for t, _ in made_nodes}


@pytest.mark.parametrize("variant", ["proposed", "baseline-unet"])
class TestDtypeContract:
    """Every layer returns its input's dtype, so a model computes end to end
    in the dtype of its input and parameters. ``_accum`` adopts gradients
    without a cast, so this contract is also what keeps each gradient in
    its node's dtype."""

    def test_float32_train_step_stays_float32(self, variant, made_nodes, handed_dtypes):
        model = small_model(variant)
        probs, dtypes = _train_step(model, _batch(2, 32), made_nodes)
        assert made_nodes and dtypes == {np.dtype(np.float32)}
        assert handed_dtypes == {np.dtype(np.float32)}
        assert probs.dtype == np.float32
        for name, p in model.named_parameters().items():
            assert p.grad.dtype == np.float32, name

    def test_float32_infer_probs(self, variant):
        assert forward(small_model(variant), _batch(2, 32), "infer").dtype == np.float32

    def test_float64_stays_float64(self, variant, made_nodes, handed_dtypes):
        model = build_model(ModelSpec(variant=variant, base_depth=8), Rng(0, 0), np.float64)
        x = Tensor(_batch(2, 32).data.astype(np.float64))
        probs, dtypes = _train_step(model, x, made_nodes)
        assert dtypes == {np.dtype(np.float64)} and probs.dtype == np.float64
        assert handed_dtypes == {np.dtype(np.float64)}
        assert all(p.grad.dtype == np.float64 for p in model.named_parameters().values())
        assert forward(model, x, "infer").dtype == np.float64


@pytest.mark.parametrize("variant", ["proposed", "baseline-unet"])
def test_train_step_writes_no_gradient_it_receives_or_hands_on(variant, readonly_grads):
    model = small_model(variant)
    _train_step(model, _batch(2, 32), [])
    assert all(p.grad is not None for p in model.named_parameters().values())


@pytest.mark.parametrize("variant", ["proposed", "baseline-unet"])
def test_parameter_gradients_share_no_memory(variant):
    # the in-place clip then scales each gradient once
    model = small_model(variant)
    _train_step(model, _batch(2, 32), [])
    grads = [(name, p.grad) for name, p in model.named_parameters().items()]
    for i, (a_name, a) in enumerate(grads):
        for b_name, b in grads[i + 1:]:
            assert not np.shares_memory(a, b), (a_name, b_name)
    # adam_step and clip_gradients rest on every parameter having a gradient
    for name, p in model.named_parameters().items():
        assert isinstance(p.grad, np.ndarray) and p.grad.shape == p.shape, name


def _node_kinds(made_nodes):
    """The op names (``conv2d``, ``concat``, ...) of the linked graph nodes."""
    return {t._backward.__qualname__.split(".<locals>")[0] for t, linked in made_nodes if linked}


def _train_step_kinds(variant, made_nodes):
    """The op kinds of one train forward and loss of ``variant``."""
    from sepseg.metrics import weighted_cross_entropy

    labels = np.random.default_rng(1).integers(0, 2, (2, 32, 32))
    probs = forward(small_model(variant), _batch(2, 32), "train", rng=Rng(0, 1))
    weighted_cross_entropy(probs, labels, np.array([1.0, 1.0]))
    kinds = _node_kinds(made_nodes)
    made_nodes.clear()
    return kinds


def _gradcheck_kinds(made_nodes):
    """The op kinds that the calls of every gradcheck case make."""
    from sepseg.gradcheck import BLOCK_CASES, LAYER_CASES

    for case in {**LAYER_CASES, **BLOCK_CASES}.values():
        call, arrays = case(Rng(0))
        call(*(Tensor(a, requires_grad=True) for a in arrays.values()))
    kinds = _node_kinds(made_nodes)
    made_nodes.clear()
    return kinds


@pytest.mark.parametrize("variant", ["proposed", "baseline-unet"])
def test_gradcheck_covers_every_train_step_node(variant, made_nodes):
    step = _train_step_kinds(variant, made_nodes)
    assert step - _gradcheck_kinds(made_nodes) == set()


def test_every_gradcheck_node_is_made_by_a_train_step(made_nodes):
    # pixel_shuffle and _depthwise_conv2d are made only by proposed,
    # _conv2d_same only by baseline-unet
    steps = _train_step_kinds("proposed", made_nodes) | _train_step_kinds("baseline-unet", made_nodes)
    assert _gradcheck_kinds(made_nodes) - steps == set()


class TestResNetBlock:
    def test_identity_path(self, monkeypatch):
        spec = ResNetBlockSpec(4, 4, 3, True)
        params = _init_block(spec, Rng(0), np.float32)
        for conv in (params.conv1, params.conv2):
            for t in (conv.depthwise_weight, conv.depthwise_bias,
                      conv.pointwise_weight, conv.pointwise_bias):
                t.data = np.zeros_like(t.data)
        monkeypatch.setattr(layers, "BN_EPS", 1e-12)
        x = Tensor(np.abs(np.random.default_rng(0).normal(size=(1, 4, 4, 4))).astype(np.float32))
        out = resnet_block_forward(params, x, "infer", None, 0.0)
        np.testing.assert_allclose(out.data, x.data, atol=1e-4)

    def test_projection_changes_channels(self):
        spec = ResNetBlockSpec(4, 8, 3, True)
        params = _init_block(spec, Rng(1), np.float32)
        assert params.proj is not None
        out = resnet_block_forward(params, Tensor(np.zeros((1, 4, 6, 6), dtype=np.float32)), "infer",
                                   None, 0.0)
        assert out.shape == (1, 8, 6, 6)

    def test_channel_mismatch(self):
        spec = ResNetBlockSpec(4, 8, 3, True)
        params = _init_block(spec, Rng(1), np.float32)
        with pytest.raises(ShapeError):
            resnet_block_forward(params, Tensor(np.zeros((1, 3, 6, 6))), "infer", None, 0.0)


class TestParameterAudit:
    def test_separable_spot_check(self):
        model = build_model(ModelSpec(base_depth=64), Rng(0))
        rows, _ = count_parameters(model)
        by_name = {name: count for name, _, count in rows}
        # enc2 conv1 is the 64 -> 128 separable convolution
        enc2_conv1 = sum(c for n, c in by_name.items() if n.startswith("enc2.res.conv1."))
        # depthwise 64 * (9 + 1) plus pointwise 128 * (64 + 1)
        assert enc2_conv1 == 8960

    def test_totals_and_ratio(self):
        _, proposed = count_parameters(build_model(ModelSpec(base_depth=64), Rng(0)))
        _, baseline = count_parameters(
            build_model(ModelSpec(variant="baseline-unet", base_depth=64), Rng(0))
        )
        assert 28_000_000 <= baseline <= 35_000_000
        assert proposed < baseline / 5

    def test_no_upsampling_parameters(self):
        rows, _ = count_parameters(build_model(ModelSpec(base_depth=8), Rng(0)))
        stages = {"enc1", "enc2", "enc3", "enc4", "bottleneck",
                  "dec1", "dec2", "dec3", "dec4", "head"}
        for name, _, _ in rows:
            assert name.split(".")[0] in stages
            assert "upsample" not in name and "shuffle" not in name

    def test_total_equals_sum_of_rows(self):
        rows, total = count_parameters(small_model())
        assert total == sum(c for _, _, c in rows)

    def test_total_matches_optimizer_scalar_count(self):
        from sepseg.metrics import weighted_cross_entropy
        from sepseg.train import AdamState, adam_step

        model = small_model()
        params = model.named_parameters()
        _, total = count_parameters(model)
        before = {k: p.data.copy() for k, p in params.items()}
        x = Tensor(np.random.default_rng(0).normal(size=(2, 1, 32, 32)).astype(np.float32))
        labels = np.random.default_rng(1).integers(0, 2, (2, 32, 32))
        loss = weighted_cross_entropy(forward(model, x, "train", rng=Rng(0, 1)),
                                      labels, np.array([1.0, 1.0]))
        backward(loss)
        adam_step(params, AdamState(lr=0.001))
        mutated = sum(int(np.count_nonzero(params[k].data != before[k])) for k in params)
        # Adam moves every scalar with a nonzero gradient; allow exact zeros
        assert total * 0.95 <= mutated <= total
        assert sum(p.size for p in params.values()) == total

    def test_names_unique_and_deterministic(self):
        names1 = list(small_model().named_parameters())
        names2 = list(small_model().named_parameters())
        assert names1 == names2
        assert len(names1) == len(set(names1))
