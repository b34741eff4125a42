import numpy as np
import pytest

from reference_ops import add, mul, tensor_sum
from sepseg import autograd
from sepseg.autograd import (
    Rng,
    _accum,
    ShapeError,
    Tensor,
    add_relu,
    backward,
    grad_check,
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
    assert y.node is None and y._parents == () and y._backward is None
    z = tensor_sum(mul(x, 2.0))
    assert z.node is not None and z._parents


def test_nested_no_grad_restores_the_outer_state():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        with no_grad():
            pass
        assert mul(x, 2.0).node is None
    assert mul(x, 2.0).node is not None


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
    w = Tensor(rng.normal(size=(3, 4)))
    proj = rng.normal(size=(3, 4))

    def f(t):
        return project(relu(mul(t, w)), proj)

    assert grad_check(f, x) <= 1e-4


def test_grad_check_links_only_the_analytic_pass(made_nodes):
    rng = np.random.default_rng(3)
    w = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    proj = rng.normal(size=(2, 3))

    def f(t):
        return project(relu(mul(t, w)), proj)

    x = Tensor(rng.normal(size=(2, 3)))
    grad_check(f, x)
    per_forward = 3  # mul, relu, projection
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
