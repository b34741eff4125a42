import numpy as np
import pytest

from reference_ops import add, mul, tensor_sum
from sepseg import autograd
from sepseg.autograd import (
    Rng,
    _accum,
    _col2im_forward,
    ShapeError,
    Tensor,
    add_relu,
    backward,
    grad_check,
    im2col,
    matmul,
    no_grad,
    relu,
)
from sepseg.gradcheck import project


def _add_relu_inputs(dtype):
    rng = np.random.default_rng(6)
    a = rng.normal(size=(2, 5, 7, 6)).astype(dtype)
    b = rng.normal(size=a.shape).astype(dtype)
    b[0, 0] = -a[0, 0]  # exact zero sums, on the ReLU kink
    a[1, 2, 3, 4], b[1, 3, 0, 0] = -0.0, np.nan
    return a, b


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_add_relu_equals_relu_of_add(dtype):
    a_np, b_np = _add_relu_inputs(dtype)
    g = np.random.default_rng(7).normal(size=a_np.shape).astype(dtype)

    def run(fused):
        a, b = Tensor(a_np, requires_grad=True), Tensor(b_np, requires_grad=True)
        out = add_relu(a, b) if fused else relu(add(a, b))
        backward(project(out, g))
        return out.data, a.grad, b.grad

    for got, want in zip(run(True), run(False)):
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, want)


def test_add_relu_is_one_node():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(-np.ones((2, 3)))
    out = add_relu(a, b)
    assert out._parents == (a.node,)
    with pytest.raises(ShapeError):
        add_relu(a, Tensor(np.zeros((2, 4))))


def test_shape_mismatch_names_both_shapes():
    # all but (2, 4) would broadcast onto (2, 3): the residual add takes equal shapes only
    for b_shape in [(2, 4), (1, 3), (2, 1), (3,)]:
        with pytest.raises(ShapeError) as exc:
            add_relu(Tensor(np.zeros((2, 3))), Tensor(np.zeros(b_shape)))
        assert str(b_shape) in str(exc.value) and "(2, 3)" in str(exc.value)


def test_matmul_identity():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    eye = Tensor(np.eye(2))
    np.testing.assert_array_equal(matmul(eye, Tensor(a)).data, a)
    np.testing.assert_array_equal(matmul(Tensor(a), eye).data, a)


def test_matmul_inner_product():
    out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    np.testing.assert_array_equal(out.data, [[11.0]])


def test_matmul_against_triple_loop():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(5, 7))
    b = rng.normal(size=(7, 3))
    expected = np.zeros((5, 3))
    for i in range(5):
        for j in range(3):
            for k in range(7):
                expected[i, j] += a[i, k] * b[k, j]
    got = matmul(Tensor(a), Tensor(b)).data
    assert np.abs(got - expected).max() <= 1e-12


def test_matmul_dimension_mismatch():
    with pytest.raises(ShapeError):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))


def test_im2col_single_receptive_field():
    x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
    cols = im2col(x, 2)
    assert cols.shape == (4, 1)
    np.testing.assert_array_equal(cols.data.ravel(), [1.0, 2.0, 3.0, 4.0])


def test_im2col_k1_is_reshape():
    x_np = np.random.default_rng(0).normal(size=(2, 3, 4, 5)).astype(np.float32)
    cols = im2col(Tensor(x_np), 1).data
    np.testing.assert_array_equal(cols, x_np.transpose(1, 0, 2, 3).reshape(3, -1))


def _sliding_window_oracle(x, k, stride, pad):
    n, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - k) // stride + 1
    wo = (w + 2 * pad - k) // stride + 1
    out = np.zeros((c * k * k, n * ho * wo))
    for n_i in range(n):
        for y in range(ho):
            for xo in range(wo):
                t = (n_i * ho + y) * wo + xo
                field = xp[n_i, :, y * stride : y * stride + k, xo * stride : xo * stride + k]
                out[:, t] = field.ravel()
    return out


def test_im2col_padded_ramp_matches_oracle():
    x_np = np.arange(9.0).reshape(1, 1, 3, 3)
    cols = im2col(Tensor(x_np), 3, 1, 1).data
    assert cols.shape == (9, 9)
    np.testing.assert_array_equal(cols, _sliding_window_oracle(x_np, 3, 1, 1))
    # top-left output position: 4 receptive-field cells fall in the padding
    assert np.count_nonzero(cols[:, 0] == 0.0) >= 4


def test_im2col_kernel_too_large():
    with pytest.raises(ShapeError):
        im2col(Tensor(np.zeros((1, 1, 2, 2))), 4, 1, 0)


def test_im2col_col2im_adjoint():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(2, 3, 5, 5)), requires_grad=True)
    cols = im2col(x, 3, 1, 1)
    y = Tensor(rng.normal(size=cols.shape))
    lhs = float((cols.data * y.data).sum())
    backward(project(cols, y.data))  # im2col's backward applies col2im to y
    rhs = float((x.data * x.grad).sum())
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def _col2im_scatter_oracle(cols, x_shape, k, stride, pad):
    """The seed's col2im: one ``np.add.at`` scatter per kernel offset."""
    n, c, h, w = x_shape
    h_out = (h + 2 * pad - k) // stride + 1
    w_out = (w + 2 * pad - k) // stride + 1
    cols = cols.reshape(c, k, k, n, h_out, w_out)
    xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    for ky in range(k):
        for kx in range(k):
            np.add.at(
                xp,
                (
                    slice(None),
                    slice(None),
                    slice(ky, ky + stride * h_out, stride),
                    slice(kx, kx + stride * w_out, stride),
                ),
                cols[:, ky, kx].transpose(1, 0, 2, 3),
            )
    return xp[:, :, pad : pad + h, pad : pad + w]


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("pad", [0, 1])
def test_col2im_equals_scatter_oracle(k, stride, pad):
    x_shape = (2, 3, 7, 6)
    ho = (7 + 2 * pad - k) // stride + 1
    wo = (6 + 2 * pad - k) // stride + 1
    rng = np.random.default_rng(k * 10 + stride * 2 + pad)
    cols = rng.normal(size=(3 * k * k, 2 * ho * wo)).astype(np.float32)
    got = _col2im_forward(cols, x_shape, k, stride, pad)
    assert got.shape == x_shape and got.dtype == np.float32
    np.testing.assert_array_equal(got, _col2im_scatter_oracle(cols, x_shape, k, stride, pad))


def test_backward_sum_gives_ones():
    x = Tensor(np.random.default_rng(0).normal(size=(4, 4)), requires_grad=True)
    backward(tensor_sum(x))
    np.testing.assert_array_equal(x.grad, np.ones((4, 4)))


def test_backward_square_gives_2x():
    x = Tensor(np.random.default_rng(1).normal(size=(3, 3)), requires_grad=True)
    backward(tensor_sum(mul(x, x)))
    np.testing.assert_allclose(x.grad, 2 * x.data, rtol=1e-6)


def test_backward_fanout_sums_branches():
    x = Tensor([2.0], requires_grad=True)
    y = add(mul(x, 3.0), mul(x, x))  # x used twice: grad = 3 + 2x = 7
    backward(tensor_sum(y))
    np.testing.assert_allclose(x.grad, [7.0])


def test_accum_adopts_the_first_array_and_adds_later_ones_out_of_place():
    node = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True).node
    first = np.array([1.0, 2.0, 3.0], dtype=np.float32)
    _accum(node, first)
    assert node.grad is first
    _accum(node, np.ones(3, dtype=np.float32))
    np.testing.assert_array_equal(first, [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(node.grad, [2.0, 3.0, 4.0])
    assert node.grad.dtype == np.float32


def _op(fn):
    """A one-parent op whose closure is ``fn(g, parent_node)``, made through
    the module's ``_make`` so that fixtures patching it see the node."""
    def op(x):
        return autograd._make(x.data.copy(), (x,), lambda g: fn(g, x.node))

    return op


def test_readonly_grads_catch_a_closure_that_writes_what_it_receives(readonly_grads):
    def doubling(g, xn):
        g *= 2
        autograd._accum(xn, g)

    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError, match="read-only"):
        backward(tensor_sum(_op(doubling)(x)))


def test_readonly_grads_catch_a_closure_that_writes_what_it_handed_on(readonly_grads):
    def late_write(g, xn):
        h = g * 2
        autograd._accum(xn, h)
        h += 1

    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError, match="read-only"):
        backward(tensor_sum(_op(late_write)(relu(x))))


def test_readonly_grads_pass_a_closure_that_keeps_the_rule(readonly_grads):
    x = Tensor(np.ones(3), requires_grad=True)
    backward(tensor_sum(_op(lambda g, xn: autograd._accum(xn, g * 2))(relu(x))))
    np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])
    assert x.grad.flags.writeable


def test_backward_rejects_non_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        backward(relu(x))


def test_no_grad_ops_record_nothing():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        y = tensor_sum(add(mul(x, 2.0), x))
    assert not y.requires_grad and y._parents == () and y._backward is None
    z = tensor_sum(mul(x, 2.0))
    assert z.requires_grad and z._parents


def test_nested_no_grad_restores_the_outer_state():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        with no_grad():
            pass
        assert not mul(x, 2.0).requires_grad
    assert mul(x, 2.0).requires_grad


def test_second_backward_raises_and_a_fresh_graph_works():
    x = Tensor([2.0], requires_grad=True)
    loss = tensor_sum(mul(x, x))
    backward(loss)
    with pytest.raises(RuntimeError, match="already released"):
        backward(loss)
    x.zero_grad()
    backward(tensor_sum(mul(x, x)))
    np.testing.assert_allclose(x.grad, [4.0])


def test_grad_check_linear_is_exact():
    x = Tensor(np.random.default_rng(5).normal(size=(4,)))
    assert grad_check(tensor_sum, x) <= 1e-10


def test_grad_check_composite_ops():
    rng = np.random.default_rng(9)
    x = Tensor(rng.normal(size=(3, 4)))
    w = Tensor(rng.normal(size=(4, 2)))
    proj = rng.normal(size=(3, 2))

    def f(t):
        return project(relu(matmul(t, w)), proj)

    assert grad_check(f, x) <= 1e-4


def test_grad_check_links_only_the_analytic_pass(made_nodes):
    rng = np.random.default_rng(3)
    w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    proj = rng.normal(size=(2, 2))

    def f(t):
        return project(relu(matmul(t, w)), proj)

    x = Tensor(rng.normal(size=(2, 3)))
    grad_check(f, x)
    per_forward = 3  # matmul, relu, projection
    assert len(made_nodes) == per_forward * (1 + 2 * x.size)
    assert [linked for _, linked in made_nodes] == [True] * per_forward + [False] * (
        2 * x.size * per_forward
    )


class TestProjection:
    """gradcheck's projection ``(out * proj).sum()`` is one node with the
    bits of the multiply and sum nodes it replaced."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("upstream", [1.0, 0.3])
    def test_equals_mul_then_sum(self, dtype, upstream):
        rng = np.random.default_rng(12)
        x_np, proj = (rng.normal(size=(2, 3, 4, 5)).astype(dtype) for _ in range(2))
        x_np[0, 0, 0, :2] = proj[0, 0, 1, :2] = [-0.0, 0.0]
        proj[1, 2, 3, 4] = x_np[1, 2, 3, 4] = -0.0
        runs = []
        for reduce in (project, lambda out, p: tensor_sum(mul(out, Tensor(p)))):
            x = Tensor(x_np, requires_grad=True)
            y = reduce(x, proj)
            backward(y if upstream == 1.0 else mul(y, Tensor(np.asarray(upstream, dtype))))
            runs.append((y.data, x.grad))
        assert runs[0][0].dtype == runs[0][1].dtype == dtype
        for got, want in zip(*runs):
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))

    def test_one_graph_node(self, made_nodes):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        y = project(x, np.full((2, 3), 0.5))
        assert [t for t, _ in made_nodes] == [y]
        assert y._parents == (x.node,) and y.shape == () and float(y.data) == 3.0

    def test_scalar_output_is_not_projected(self, monkeypatch):
        from sepseg import gradcheck

        shapes = []
        monkeypatch.setattr(gradcheck, "project",
                            lambda out, proj: shapes.append(out.shape) or project(out, proj))
        arrays = {"input": np.random.default_rng(13).normal(size=(2, 3))}
        gradcheck._check(lambda t: tensor_sum(relu(t)), arrays, Rng(0))
        assert shapes == []
        gradcheck._check(relu, arrays, Rng(0))
        assert shapes and set(shapes) == {(2, 3)}


def test_row_major_flat_index_property():
    rng = np.random.default_rng(11)
    for _ in range(20):
        shape = tuple(rng.integers(1, 5, size=4))
        n, c, h, w = shape
        t = Tensor(rng.normal(size=shape))
        flat = t.data.ravel()
        ni, ci, yi, xi = (int(rng.integers(0, s)) for s in shape)
        idx = ((ni * c + ci) * h + yi) * w + xi
        assert flat[idx] == t.data[ni, ci, yi, xi]


def test_rng_determinism_and_substreams():
    a = Rng(42, 3).uniform(size=8)
    b = Rng(42, 3).uniform(size=8)
    np.testing.assert_array_equal(a, b)
    c = Rng(42, 4).uniform(size=8)
    assert not np.array_equal(a, c)
    d1 = Rng(42).substream(1, 2).normal(size=4)
    d2 = Rng(42).substream(1, 2).normal(size=4)
    np.testing.assert_array_equal(d1, d2)


def test_rng_draws_are_pinned():
    # literal draws of Rng(seed, stream) and of a substream; a change to how
    # the generator is seeded or drawn from changes every seeded run
    r = Rng(3, (1, 2))
    assert r.normal(size=3).tolist() == [0.95520793694578, 0.6178899598437039,
                                         -0.04134560201818933]
    assert r.uniform(-1.0, 2.0, 2).tolist() == [-0.16864827772851254, -0.10015692717632074]
    assert r.integers(0, 2**62, 2).tolist() == [1275134820472494514, 311848094259910765]
    assert r.normal(0.0, 0.5) == -0.8213174648294348
    s = r.substream(4)
    assert (s.seed, s.stream) == (3, (1, 2, 4))
    assert s.normal(size=2).tolist() == [1.347017939717327, 0.34992663409090113]
    assert s.integers(0, 10) == 4
    assert Rng(0, 9).substream(1).uniform(0.15, 0.35) == 0.33671770040836363
    assert Rng(7).uniform(size=2).tolist() == [0.625095466604667, 0.8972138009695755]
