import numpy as np
import pytest

from sepseg.autograd import (
    Rng,
    ShapeError,
    Tensor,
    add,
    backward,
    grad_check,
    im2col,
    matmul,
    mul,
)


def test_add_elementwise():
    out = add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
    np.testing.assert_array_equal(out.data, [4.0, 6.0])


def test_mul_annihilator():
    x = Tensor(np.random.default_rng(0).normal(size=(3, 4)))
    out = mul(x, Tensor(np.zeros_like(x.data)))
    np.testing.assert_array_equal(out.data, np.zeros((3, 4)))


def test_add_backward_identity_jacobian():
    a = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    b = Tensor([4.0, 5.0, 6.0], requires_grad=True)
    backward((a + b).sum())
    np.testing.assert_array_equal(a.grad, np.ones(3))
    np.testing.assert_array_equal(b.grad, np.ones(3))


def test_shape_mismatch_names_both_shapes():
    with pytest.raises(ShapeError) as exc:
        add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))
    assert "(2, 4)" in str(exc.value) and "(2, 3)" in str(exc.value)


def test_broadcast_size_one_axes():
    a = Tensor(np.ones((2, 3, 4)), requires_grad=True)
    b = Tensor(np.arange(3.0).reshape(1, 3, 1), requires_grad=True)
    backward((a * b).sum())
    assert b.grad.shape == (1, 3, 1)
    np.testing.assert_array_equal(b.grad.ravel(), [8.0, 8.0, 8.0])


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
    got = matmul(Tensor(a, dtype=np.float64), Tensor(b, dtype=np.float64)).data
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
    cols = im2col(Tensor(x_np, dtype=np.float64), 3, 1, 1).data
    assert cols.shape == (9, 9)
    np.testing.assert_array_equal(cols, _sliding_window_oracle(x_np, 3, 1, 1))
    # top-left output position: 4 receptive-field cells fall in the padding
    assert np.count_nonzero(cols[:, 0] == 0.0) >= 4


def test_im2col_kernel_too_large():
    with pytest.raises(ShapeError):
        im2col(Tensor(np.zeros((1, 1, 2, 2))), 4, 1, 0)


def test_im2col_col2im_adjoint():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(2, 3, 5, 5)), requires_grad=True, dtype=np.float64)
    cols = im2col(x, 3, 1, 1)
    y = Tensor(rng.normal(size=cols.shape), dtype=np.float64)
    lhs = float((cols.data * y.data).sum())
    backward((cols * y).sum())  # im2col's backward applies col2im to y
    rhs = float((x.data * x.grad).sum())
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_backward_sum_gives_ones():
    x = Tensor(np.random.default_rng(0).normal(size=(4, 4)), requires_grad=True)
    backward(x.sum())
    np.testing.assert_array_equal(x.grad, np.ones((4, 4)))


def test_backward_square_gives_2x():
    x = Tensor(np.random.default_rng(1).normal(size=(3, 3)), requires_grad=True)
    backward((x * x).sum())
    np.testing.assert_allclose(x.grad, 2 * x.data, rtol=1e-6)


def test_backward_fanout_sums_branches():
    x = Tensor([2.0], requires_grad=True)
    y = x * 3.0 + x * x  # x used twice: grad = 3 + 2x = 7
    backward(y.sum())
    np.testing.assert_allclose(x.grad, [7.0])


def test_backward_rejects_non_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        backward(x + x)


def test_grad_check_linear_is_exact():
    x = Tensor(np.random.default_rng(5).normal(size=(4,)), dtype=np.float64)
    assert grad_check(lambda t: t.sum(), x) <= 1e-10


def test_grad_check_composite_ops():
    rng = np.random.default_rng(9)
    x = Tensor(rng.normal(size=(3, 4)), dtype=np.float64)
    w = Tensor(rng.normal(size=(4, 2)), dtype=np.float64)
    proj = Tensor(rng.normal(size=(3, 2)), dtype=np.float64)

    def f(t):
        return ((t @ w).relu() * proj).sum()

    assert grad_check(f, x) <= 1e-4


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
