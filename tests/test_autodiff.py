"""Autodiff core: op oracles, gradient checks, guard rails."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import expit

from neurodecode import checks
from neurodecode.autodiff import core, ops
from neurodecode.autodiff.core import NumericError, Parameter, check_finite, make, no_grad
from neurodecode.autodiff.gradcheck import MAX_TOL
from neurodecode.autodiff.ops import constant
from neurodecode.errors import UsageError


def param(values, name="p"):
    return Parameter(np.asarray(values, dtype=np.float64), name=name)


def backward_from(out, g):
    """Reverse sweep from ``out`` under the upstream gradient ``g``: a scalar
    probe node, seeded with one by ``backward``, hands ``g`` to ``out``."""
    make(np.zeros(()), (out,), lambda _: out.accumulate(np.asarray(g)), "probe").backward()


class TestForwardOracles:
    def test_add_broadcast_values(self):
        a = param([[1.0, 2.0], [3.0, 4.0]])
        b = param([10.0, 20.0])
        out = ops.add(a, b)
        np.testing.assert_array_equal(out.data, [[11.0, 22.0], [13.0, 24.0]])

    def test_add_broadcast_grad_sums(self):
        a = param([[1.0, 2.0], [3.0, 4.0]])
        b = param([10.0, 20.0])
        loss = ops.sum_axis(ops.reshape(ops.add(a, b), (4,)), 0)
        loss.backward()
        np.testing.assert_array_equal(a.grad, np.ones((2, 2)))
        # the broadcast axis collapses back onto b
        np.testing.assert_array_equal(b.grad, [2.0, 2.0])

    def test_mul_grad_is_other_operand(self):
        a = param([2.0, 3.0])
        b = param([5.0, 7.0])
        loss = ops.sum_axis(ops.mul(a, b), 0)
        loss.backward()
        np.testing.assert_array_equal(a.grad, [5.0, 7.0])
        np.testing.assert_array_equal(b.grad, [2.0, 3.0])

    def test_grad_accumulates_across_reuse(self):
        p = param([1.0, 1.0])
        loss = ops.mean_axis(ops.add(p, p), 0)
        loss.backward()
        np.testing.assert_array_equal(p.grad, [1.0, 1.0])

    def test_backward_releases_op_gradients_and_keeps_leaf_gradients(self):
        p = param([1.0, 2.0, 3.0])
        hidden = ops.mul(ops.scale(p, 2.0), p)
        loss = ops.mean_axis(hidden, 0)
        loss.backward()
        assert hidden.grad is None and loss.grad is None
        np.testing.assert_array_equal(p.grad, 4.0 * p.data / 3.0)

    @pytest.mark.parametrize("op", [ops.add, ops.sub, ops.mul])
    def test_constant_operand_keeps_no_gradient(self, op):
        p = param([[1.0, 2.0], [3.0, 4.0]])
        c = constant(np.array([0.5, -1.5]))
        ops.mean_axis(ops.reshape(op(p, c), (4,)), 0).backward()
        assert c.grad is None
        assert p.grad is not None

    def test_second_backward_adds_the_same_leaf_gradient(self):
        p = param([1.0, 2.0, 3.0])
        loss = ops.mean_axis(ops.mul(ops.scale(p, 2.0), p), 0)
        loss.backward()
        once = p.grad.copy()
        loss.backward()
        np.testing.assert_array_equal(p.grad, 2.0 * once)

    def test_first_gradient_is_a_new_c_ordered_array_without_negative_zeros(self):
        # the layout and the sign of zero reach the next GEMM and the saved bytes
        p = param(np.ones((3, 2)))
        g = np.asfortranarray([[-0.0, 1.0], [2.0, -0.0], [3.0, 4.0]])
        p.accumulate(g)
        assert p.grad is not g and p.grad.flags.c_contiguous
        assert not np.signbit(p.grad).any()
        np.testing.assert_array_equal(p.grad, g)

    def test_owned_first_gradient_is_kept_without_negative_zeros(self):
        p = param(np.ones((3, 2)))
        g = np.array([[-0.0, 1.0], [2.0, -0.0], [3.0, 4.0]])
        p.accumulate(g, owned=True)
        assert p.grad is g
        assert not np.signbit(p.grad).any()
        np.testing.assert_array_equal(p.grad, [[0.0, 1.0], [2.0, 0.0], [3.0, 4.0]])

    @pytest.mark.parametrize(
        "g",
        [
            np.asfortranarray([[-0.0, 1.0], [2.0, -0.0], [3.0, 4.0]]),
            np.array([-0.0, 5.0]),
            np.array([[-0.0, 9.0, 1.0, 9.0], [2.0, 9.0, -0.0, 9.0], [3.0, 9.0, 4.0, 9.0]])[:, ::2],
        ],
        ids=["fortran order", "broadcast shape", "strided view"],
    )
    def test_owned_buffer_of_another_layout_is_copied(self, g):
        p = param(np.ones((3, 2)))
        p.accumulate(g, owned=True)
        assert p.grad is not g and p.grad.flags.c_contiguous
        assert not np.signbit(p.grad).any()
        np.testing.assert_array_equal(p.grad, np.broadcast_to(g, (3, 2)))

    def test_dense_matches_matmul_plus_bias(self):
        x = param(np.arange(6.0).reshape(2, 3))
        w = param(np.arange(12.0).reshape(3, 4))
        b = param(np.arange(4.0))
        out = ops.dense(x, w, b)
        np.testing.assert_allclose(out.data, x.data @ w.data + b.data)

    @pytest.mark.parametrize(
        "x_data",
        [
            np.arange(60.0).reshape(3, 5, 4) % 7 - 3,
            np.arange(120.0).reshape(2, 3, 5, 4) % 11 - 5,
            (np.arange(60.0).reshape(5, 3, 4) % 7 - 3).transpose(1, 0, 2),
        ],
        ids=["3-d", "4-d", "transposed"],
    )
    def test_dense_folded_matches_a_loop_of_row_products(self, x_data):
        rng = np.random.default_rng(0)
        x = Parameter(x_data)
        w, b = param(rng.standard_normal((4, 6))), param(rng.standard_normal(6))
        g = rng.standard_normal((*x_data.shape[:-1], 6))
        out = ops.dense(x, w, b)
        backward_from(out, g)
        rows, g_rows = x_data.reshape(-1, 4), g.reshape(-1, 6)
        products = [
            (r[None] @ w.data, gr[None] @ w.data.T, r[:, None] @ gr[None])
            for r, gr in zip(rows, g_rows)
        ]
        fwd, gx, gw = (np.concatenate(p) for p in zip(*products))
        np.testing.assert_allclose(out.data, (fwd + b.data).reshape(g.shape), rtol=1e-12)
        np.testing.assert_allclose(x.grad, gx.reshape(x_data.shape), rtol=1e-12)
        np.testing.assert_allclose(w.grad, gw.reshape(-1, 4, 6).sum(axis=0), rtol=1e-12)
        np.testing.assert_allclose(b.grad, g_rows.sum(axis=0), rtol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_matches_expit(self, dtype):
        x = np.linspace(-30.0, 30.0, 20001).astype(dtype)
        got = ops.sigmoid(constant(x)).data
        assert got.dtype == dtype
        np.testing.assert_allclose(got, expit(x), rtol=4 * np.finfo(dtype).eps, atol=0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_saturates_exactly_without_warnings(self, dtype):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = ops.sigmoid(constant(np.array([-1000.0, 1000.0], dtype=dtype))).data
        np.testing.assert_array_equal(out, [0.0, 1.0])

    def test_softmax_known_values(self):
        logits = constant(np.array([[0.0, np.log(3.0)]]))
        out = ops.softmax(logits)
        np.testing.assert_allclose(out.data, [[0.25, 0.75]], atol=1e-12)

    def test_softmax_shift_invariant(self):
        x = np.array([[1.0, 2.0, 3.0]])
        a = ops.softmax(constant(x)).data
        b = ops.softmax(constant(x + 1000.0)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_cross_entropy_uniform_logits(self):
        logits = constant(np.zeros((4, 2)))
        loss = ops.cross_entropy(logits, np.array([0, 1, 0, 1]))
        np.testing.assert_allclose(float(loss.data), np.log(2.0), atol=1e-12)

    def test_cross_entropy_confident_correct(self):
        logits = constant(np.array([[30.0, 0.0], [0.0, 30.0]]))
        loss = ops.cross_entropy(logits, np.array([0, 1]))
        assert float(loss.data) < 1e-10

    def test_relu_elu_values(self):
        x = constant(np.array([-2.0, 0.0, 3.0]))
        np.testing.assert_array_equal(ops.relu(x).data, [0.0, 0.0, 3.0])
        np.testing.assert_allclose(
            ops.elu(x).data, [np.expm1(-2.0), 0.0, 3.0], atol=1e-12
        )

    def test_sigmoid_tanh_center(self):
        x = constant(np.array([0.0]))
        np.testing.assert_allclose(ops.sigmoid(x).data, [0.5])
        np.testing.assert_allclose(ops.tanh(x).data, [0.0])

    def test_layer_norm_standardizes(self):
        rng = np.random.default_rng(0)
        x = constant(rng.standard_normal((3, 5, 8)) * 4.0 + 2.0)
        g = constant(np.ones(8))
        b = constant(np.zeros(8))
        out = ops.layer_norm(x, g, b).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-3)

    @staticmethod
    def _chebyshev_reference(x, thetas, adj):
        # plain numpy: T0 = x, T1 = L~ x, Tk = 2 L~ T(k-1) - T(k-2), with
        # L~ = -D^{-1/2} A^ D^{-1/2} of the symmetrized, rectified,
        # zero-diagonal adjacency A^
        a_hat = np.maximum((adj + adj.T) / 2, 0.0) * (1.0 - np.eye(len(adj)))
        d = (a_hat.sum(axis=1) + 1e-6) ** -0.5
        lap = -(d[:, None] * a_hat * d[None, :])
        terms = [x, lap @ x]
        while len(terms) < len(thetas):
            terms.append(2.0 * lap @ terms[-1] - terms[-2])
        return sum(t @ th for t, th in zip(terms, thetas))

    def test_chebyshev_matches_numpy_recursion(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 6, 3))
        thetas = [rng.standard_normal((3, 4)) for _ in range(4)]
        adj = rng.standard_normal((6, 6))
        out = ops.chebyshev_graph_conv(constant(x), [constant(t) for t in thetas], constant(adj))
        np.testing.assert_allclose(out.data, self._chebyshev_reference(x, thetas, adj), atol=1e-12)

    def test_chebyshev_without_edges_keeps_the_even_terms(self):
        # with no edges L~ = 0, so T1 = T3 = 0 and T2 = -x
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 6, 3))
        thetas = [rng.standard_normal((3, 4)) for _ in range(4)]
        adj = np.zeros((6, 6))
        out = ops.chebyshev_graph_conv(constant(x), [constant(t) for t in thetas], constant(adj))
        np.testing.assert_allclose(out.data, x @ (thetas[0] - thetas[2]), atol=1e-12)

    def test_unbroadcast_shapes(self):
        g = np.ones((5, 3, 4))
        assert ops._unbroadcast(g, (3, 4)).shape == (3, 4)
        assert ops._unbroadcast(g, (1, 4)).shape == (1, 4)
        np.testing.assert_array_equal(ops._unbroadcast(g, (3, 4)), np.full((3, 4), 5.0))
        np.testing.assert_array_equal(ops._unbroadcast(g, (1, 4)), np.full((1, 4), 15.0))


class TestGuards:
    def test_no_grad_builds_no_graph(self):
        p = param([1.0])
        with no_grad():
            out = ops.add(p, p)
        assert out.parents == ()

    def test_nonfinite_output_raises_with_op_name(self):
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericError, match="powc"):
                ops.powc(constant(np.array([-1.0])), 0.5)

    def test_large_finite_values_pass_without_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            check_finite(np.array([1e308, 1e308]), "x")
            check_finite(np.full(4, np.finfo(np.float32).max, dtype=np.float32), "x")

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, -1])
    def test_nonfinite_entry_raises_at_either_end(self, dtype, bad, where):
        data = np.ones((3, 5), dtype=dtype)
        data.flat[where] = bad
        with pytest.raises(NumericError, match="'scale'"):
            check_finite(data, "scale")

    def test_views_pass_on_the_computing_op_error(self):
        x = constant(np.array([[-1.0, 1.0, 4.0], [9.0, 16.0, 25.0]]))
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericError, match="'powc'"):
                ops.narrow(ops.transpose(ops.reshape(ops.powc(x, 0.5), (3, 2)), (1, 0)), 1, 0, 2)

    def test_views_are_not_checked_but_computing_ops_are(self, monkeypatch):
        checked = []
        real = core.check_finite
        monkeypatch.setattr(core, "check_finite", lambda data, op: (checked.append(op), real(data, op)))
        x = constant(np.array([[np.nan, 1.0], [2.0, 3.0]]))
        viewed = ops.narrow(ops.transpose(ops.reshape(x, (4, 1)), (1, 0)), 1, 0, 3)
        assert checked == []
        with pytest.raises(NumericError, match="'scale'"):
            ops.scale(viewed, 2.0)
        assert checked == ["scale"]

    def test_float32_param_rejected(self):
        p = Parameter(np.ones(2, dtype=np.float64), name="w")
        p32 = Parameter(np.ones(2, dtype=np.float32), name="w32")
        with pytest.raises(NumericError, match="float64"):
            checks.grad_check(lambda: ops.mean_axis(ops.mul(p, p), 0), [("w32", p32)])

    def test_nondeterministic_forward_detected(self):
        p = param([1.0, 2.0])
        rng = np.random.default_rng()

        def noisy_loss():
            jitter = constant(rng.standard_normal(2))
            return ops.mean_axis(ops.mul(p, jitter), 0)

        with pytest.raises(NumericError, match="nondeterministic"):
            checks.grad_check(noisy_loss, [("p", p)])

    def test_unreached_parameter_detected(self):
        used = param([1.0], name="used")
        orphan = param([1.0], name="orphan")
        with pytest.raises(NumericError, match="no gradient"):
            checks.grad_check(
                lambda: ops.mean_axis(ops.mul(used, used), 0),
                [("used", used), ("orphan", orphan)],
            )


class TestOpGradients:
    def test_wrong_backward_fails_the_gate(self):
        p = param([0.3, -0.7, 1.1])

        def square(factor):
            # d(x^2)/dx = 2x; any other factor is a wrong backward
            return lambda: ops.mean_axis(
                make(p.data**2, (p,), lambda g: p.accumulate(factor * p.data * g), "square"), 0
            )

        assert checks.grad_check(square(2.0), [("p", p)]).passed is True
        wrong = checks.grad_check(square(2.5), [("p", p)])
        assert wrong.deterministic
        assert wrong.passed is False

    @staticmethod
    def _relu_like(p, slope):
        # relu whose backward has the given slope above the corner
        def backward(g):
            p.accumulate(slope * (p.data > 0) * g)

        return lambda: ops.mean_axis(make(np.maximum(p.data, 0.0), (p,), backward, "relu_like"), 0)

    def test_right_gradient_at_a_kink_passes(self):
        # the last entry sits 4e-6 above the corner, inside FD_STEP
        p = param([0.3, -0.7, 4e-6])
        rep = checks.grad_check(self._relu_like(p, 1.0), [("p", p)])
        assert rep.kinks == 1
        assert rep.passed is True, rep.summary()

    def test_wrong_gradient_at_a_kink_fails(self):
        p = param([0.3, -0.7, 4e-6])
        rep = checks.grad_check(self._relu_like(p, 1.2), [("p", p)])
        assert rep.kinks == 1
        assert rep.rel_errors[2] > MAX_TOL
        assert rep.passed is False

    def test_sample_below_one_is_usage_error(self):
        p = param([1.0])
        with pytest.raises(UsageError, match="sample must be at least 1"):
            checks.grad_check(lambda: ops.mean_axis(ops.mul(p, p), 0), [("p", p)], sample=0)

    def test_all_op_checks_pass(self):
        reports = checks.check_op_gradients()
        assert len(reports) >= 20
        for name, rep in reports:
            assert rep.passed, f"{name}: {rep.summary()}"
            assert rep.deterministic


class TestModelGradients:
    # transformer seeds 31, 33 and 39 put a ReLU kink inside FD_STEP of a sampled entry
    @pytest.mark.parametrize("arch, seed", [
        ("dgcnn", 0), ("dgcnn", 4), ("transformer", 31), ("transformer", 33), ("transformer", 39),
    ])
    def test_small_cell_check_passes(self, arch, seed):
        rep = checks.check_model_gradients(arch, "small", seed=seed)
        assert rep.passed is True, rep.summary()


def unit_affine(n, dtype=np.float64):
    """Constant unit gamma and zero beta: batch norm's plain normalization."""
    return constant(np.ones(n, dtype=dtype)), constant(np.zeros(n, dtype=dtype))


class TestBatchNormBuffers:
    def test_training_folds_batch_statistics_into_the_buffers(self):
        x = constant(np.random.default_rng(0).standard_normal((4, 3, 2, 5)))
        rm, rv = np.full(3, 0.5), np.full(3, 2.0)
        out = ops.batch_norm(x, *unit_affine(3), rm, rv, training=True)
        np.testing.assert_allclose(rm, 0.9 * 0.5 + 0.1 * x.data.mean(axis=(0, 2, 3)))
        np.testing.assert_allclose(rv, 0.9 * 2.0 + 0.1 * x.data.var(axis=(0, 2, 3)))
        # written, never read: other buffer values give the same output
        again = ops.batch_norm(x, *unit_affine(3), np.zeros(3), np.ones(3), training=True)
        assert np.array_equal(out.data, again.data)

    def test_eval_reads_the_buffers_and_writes_nothing(self):
        rng = np.random.default_rng(1)
        x = constant(rng.standard_normal((4, 3, 2, 5)))
        rm, rv = rng.standard_normal(3), rng.uniform(0.5, 2.0, 3)
        rm0, rv0 = rm.copy(), rv.copy()
        out = ops.batch_norm(x, *unit_affine(3), rm, rv, training=False)
        assert np.array_equal(rm, rm0) and np.array_equal(rv, rv0)
        expected = (x.data - rm0[:, None, None]) / np.sqrt(rv0[:, None, None] + 1e-5)
        np.testing.assert_allclose(out.data, expected, rtol=1e-12)


def batch_norm_reference(x, gamma, beta, running_mean, running_var, training, g):
    """The two-pass batch norm (``x.mean``, ``x.var``, ``(x - mean) * inv``):
    output, input gradient, and the gamma and beta gradients."""
    axes = tuple(i for i in range(x.ndim) if i != 1)
    bshape = tuple(1 if i != 1 else -1 for i in range(x.ndim))
    if training:
        mean = x.mean(axis=axes, keepdims=True)
        var = x.var(axis=axes, keepdims=True)
        running_mean *= 1.0 - ops.BN_MOMENTUM
        running_mean += ops.BN_MOMENTUM * mean.reshape(-1)
        running_var *= 1.0 - ops.BN_MOMENTUM
        running_var += ops.BN_MOMENTUM * var.reshape(-1)
    else:
        mean = running_mean.reshape(bshape).astype(x.dtype)
        var = running_var.reshape(bshape).astype(x.dtype)
    inv = 1.0 / np.sqrt(var + ops.NORM_EPS)
    xhat = (x - mean) * inv
    gb = gamma.reshape(bshape)
    out = gb * xhat + beta.reshape(bshape)
    dxhat = g * gb
    if training:
        m1 = dxhat.mean(axis=axes, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=axes, keepdims=True)
        dx = (dxhat - m1 - xhat * m2) * inv
    else:
        dx = dxhat * inv
    return [out, dx, np.sum(g * xhat, axis=axes), np.sum(g, axis=axes)]


def layer_norm_reference(x, gamma, beta, g):
    """The two-pass layer norm: output and the x, gamma and beta gradients."""
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + ops.NORM_EPS)
    xhat = (x - mean) * inv
    reduce_axes = tuple(range(x.ndim - 1))
    dxhat = g * gamma
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = (dxhat - m1 - xhat * m2) * inv
    return [gamma * xhat + beta, dx, np.sum(g * xhat, axis=reduce_axes), np.sum(g, axis=reduce_axes)]


class TestNormReferences:
    """The one-centring norms against the two-pass formulas, bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("training", [True, False])
    # trained: a parameter pair; else constant unit gamma and zero beta,
    # which keep no gradient
    @pytest.mark.parametrize("trained", [True, False])
    @pytest.mark.parametrize("shape", [(37, 6), (16, 8, 5, 50), (3, 4, 1, 7)])
    def test_batch_norm_matches_two_pass_formula(self, dtype, training, trained, shape):
        rng = np.random.default_rng(sum(shape))
        x = (rng.standard_normal(shape) * 3.0 + 1.5).astype(dtype)
        g = rng.standard_normal(shape).astype(dtype)
        C = shape[1]
        if trained:
            gamma = rng.uniform(0.5, 1.5, C).astype(dtype)
            beta = rng.standard_normal(C).astype(dtype)
            params = [Parameter(gamma), Parameter(beta)]
        else:
            params = unit_affine(C, dtype)
            gamma, beta = (p.data for p in params)
        buffers = rng.standard_normal(C), rng.uniform(0.5, 2.0, C)
        ref_rm, ref_rv = (b.copy() for b in buffers)
        want = batch_norm_reference(x, gamma, beta, ref_rm, ref_rv, training, g)
        rm, rv = (b.copy() for b in buffers)
        xt = Parameter(x)
        out = ops.batch_norm(xt, *params, rm, rv, training=training)
        backward_from(out, g)
        got = [out.data, xt.grad]
        if trained:
            got += [p.grad for p in params]
        else:
            assert all(p.grad is None for p in params)
        for name, w, v in zip(("out", "grad x", "grad gamma", "grad beta"), want, got):
            assert v.dtype == dtype, name
            assert np.array_equal(v, w), name
        assert np.array_equal(rm, ref_rm) and np.array_equal(rv, ref_rv)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(9, 40), (4, 25, 40)])
    def test_layer_norm_matches_two_pass_formula(self, dtype, shape):
        rng = np.random.default_rng(shape[-1])
        x = (rng.standard_normal(shape) * 2.0 - 0.7).astype(dtype)
        g = rng.standard_normal(shape).astype(dtype)
        gamma = rng.uniform(0.5, 1.5, shape[-1]).astype(dtype)
        beta = rng.standard_normal(shape[-1]).astype(dtype)
        want = layer_norm_reference(x, gamma, beta, g)
        params = [Parameter(a) for a in (x, gamma, beta)]
        out = ops.layer_norm(*params)
        backward_from(out, g)
        for name, w, v in zip(("out", "grad x", "grad gamma", "grad beta"),
                              want, [out.data] + [p.grad for p in params]):
            assert v.dtype == dtype, name
            assert np.array_equal(v, w), name


def _pad_time(x, k):
    left = (k - 1) // 2
    return np.pad(x, [(0, 0)] * (x.ndim - 1) + [(left, k - 1 - left)]), left


def conv_temporal_per_tap(x, w, g):
    """Per-tap loop reference for conv_temporal: (out, grad x, grad w)."""
    T, k = x.shape[-1], w.shape[-1]
    xp, left = _pad_time(x, k)
    out = np.zeros((x.shape[0], w.shape[0]) + x.shape[2:], dtype=x.dtype)
    gxp, gw = np.zeros_like(xp), np.zeros_like(w)
    for j in range(k):
        seg = xp[:, :, :, j : j + T]
        out += np.einsum("oc,bcht->boht", w[:, :, j], seg)
        gw[:, :, j] = np.einsum("boht,bcht->oc", g, seg)
        gxp[:, :, :, j : j + T] += np.einsum("oc,boht->bcht", w[:, :, j], g)
    return out, gxp[:, :, :, left : left + T], gw


def depthwise_conv_time_per_tap(x, w, g):
    """Per-tap loop reference for depthwise_conv_time: (out, grad x, grad w)."""
    T, k = x.shape[-1], w.shape[-1]
    xp, left = _pad_time(x, k)
    out = np.zeros_like(x)
    gxp, gw = np.zeros_like(xp), np.zeros_like(w)
    for j in range(k):
        seg = xp[:, :, :, j : j + T]
        out += w[:, j][None, :, None, None] * seg
        gw[:, j] = np.einsum("bcht,bcht->c", g, seg)
        gxp[:, :, :, j : j + T] += w[:, j][None, :, None, None] * g
    return out, gxp[:, :, :, left : left + T], gw


def conv_spatial_depthwise_einsum(x, w, g):
    B, F, H, T = x.shape
    gr = g.reshape(B, F, w.shape[1], T)
    return (
        np.einsum("fdh,bfht->bfdt", w, x).reshape(g.shape),
        np.einsum("fdh,bfdt->bfht", w, gr),
        np.einsum("bfdt,bfht->fdh", gr, x),
    )


def pointwise_conv_einsum(x, w, g):
    return (
        np.einsum("oc,bcht->boht", w, x),
        np.einsum("oc,boht->bcht", w, g),
        np.einsum("boht,bcht->oc", g, x),
    )


def _conv_with_grads(op, x, w, out_shape, rng):
    """The op's output and both gradients under a random upstream gradient."""
    xp, wp = Parameter(x), Parameter(w)
    out = op(xp, wp)
    g = rng.standard_normal(out_shape).astype(x.dtype)
    backward_from(out, g)
    return g, (out.data, xp.grad, wp.grad)


class TestConvReferences:
    """The convolutions against the per-tap loops and einsum specs they replaced."""

    REFERENCES = [
        (ops.conv_temporal, conv_temporal_per_tap, (3, 2, 5, 19), (4, 2, 7), (3, 4, 5, 19)),
        (ops.conv_temporal, conv_temporal_per_tap, (2, 1, 3, 12), (3, 1, 4), (2, 3, 3, 12)),
        (ops.depthwise_conv_time, depthwise_conv_time_per_tap, (3, 4, 1, 13), (4, 6), (3, 4, 1, 13)),
        (ops.depthwise_conv_time, depthwise_conv_time_per_tap, (2, 3, 2, 9), (3, 5), (2, 3, 2, 9)),
        # kernels longer than the time axis: eegnet's separable stage, and an odd k
        (ops.depthwise_conv_time, depthwise_conv_time_per_tap, (3, 16, 1, 12), (16, 16), (3, 16, 1, 12)),
        (ops.conv_temporal, conv_temporal_per_tap, (2, 2, 3, 6), (3, 2, 9), (2, 3, 3, 6)),
        # the feature-mixing convolutions, against the einsum specs they ran as
        (ops.conv_spatial_depthwise, conv_spatial_depthwise_einsum, (3, 4, 6, 11), (4, 2, 6), (3, 8, 1, 11)),
        (ops.pointwise_conv, pointwise_conv_einsum, (3, 4, 2, 11), (5, 4), (3, 5, 2, 11)),
    ]

    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    @pytest.mark.parametrize("op, reference, x_shape, w_shape, out_shape", REFERENCES)
    def test_convs_match_their_references(
        self, op, reference, x_shape, w_shape, out_shape, dtype, tol
    ):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(x_shape).astype(dtype)
        w = rng.standard_normal(w_shape).astype(dtype)
        g, got = _conv_with_grads(op, x, w, out_shape, rng)
        for name, a, b in zip(("out", "grad x", "grad w"), got, reference(x, w, g)):
            assert a.dtype == dtype and a.shape == b.shape
            rel = np.abs(a - b).max() / np.abs(b).max()
            assert rel <= tol, f"{name}: relative error {rel:.3g}"

    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    def test_avg_pool_time_matches_window_means(self, dtype, tol):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 2, 2, 11)).astype(dtype)
        xp = Parameter(x)
        out = ops.avg_pool_time(xp, 4)
        g = rng.standard_normal((3, 2, 2, 2)).astype(dtype)
        backward_from(out, g)
        # the trailing remainder (3 samples) is dropped and gets no gradient
        expected = x[..., :8].reshape(3, 2, 2, 2, 4).mean(axis=-1)
        expected_grad = np.concatenate([np.repeat(g / 4, 4, axis=-1), np.zeros_like(x[..., 8:])], -1)
        for name, a, b in (("out", out.data, expected), ("grad x", xp.grad, expected_grad)):
            assert a.dtype == dtype and a.shape == b.shape
            rel = np.abs(a - b).max() / np.abs(b).max()
            assert rel <= tol, f"{name}: relative error {rel:.3g}"
        assert not xp.grad[..., 8:].any()

    def test_matmul_skips_operands_without_grad(self):
        a = constant(np.ones((4, 3)))
        b = Parameter(np.ones((3, 2)))
        ops.mean_axis(ops.reshape(ops.matmul(a, b), (8,)), 0).backward()
        assert a.grad is None
        np.testing.assert_array_equal(b.grad, np.full((3, 2), 0.5))
        # a weight broadcast over the batch, as the feature-mixing convs use it
        x = constant(np.ones((2, 1, 24)))
        w = Parameter(np.ones((2, 1)))
        ops.mean_axis(ops.reshape(ops.matmul(w, x), (96,)), 0).backward()
        assert x.grad is None
        # each weight sees 2 * 24 ones out of 96 outputs, summed over the batch
        np.testing.assert_array_equal(w.grad, np.full((2, 1), 0.5))

    def test_dense_skips_an_input_without_grad(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 5, 3))
        w, b = rng.standard_normal((3, 4)), rng.standard_normal(4)
        g = rng.standard_normal((2, 5, 4))
        grads = {}
        for kind, xt in (("constant", constant(x)), ("leaf", Parameter(x))):
            wp, bp = Parameter(w), Parameter(b)
            backward_from(ops.dense(xt, wp, bp), g)
            grads[kind] = (xt.grad, wp.grad.tobytes(), bp.grad.tobytes())
        assert grads["constant"][0] is None and grads["leaf"][0] is not None
        assert grads["constant"][1:] == grads["leaf"][1:]


class TestCachedConstants:
    """The constants that depend only on shape and dtype are built once per
    process, read-only, with the bytes of the inline expressions they replaced."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_read_only_and_equal_to_the_inline_expression(self, dtype):
        k, T, n, d = 7, 13, 9, 6
        taps = np.arange(T)[:, None] - np.arange(T) + (k - 1) // 2
        position = np.arange(n, dtype=np.float64)[:, None]
        div = np.exp(np.arange(0, d, 2, dtype=np.float64) * (-np.log(10000.0) / d))
        pe = np.zeros((n, d), dtype=np.float64)
        pe[:, 0::2] = np.sin(position * div)
        pe[:, 1::2] = np.cos(position * div[: (d // 2)])
        dt = np.dtype(dtype)
        cases = [
            (ops._tap_select(k, T, dt), (taps.reshape(1, T * T) == np.arange(k)[:, None]).astype(dtype)),
            (ops._pool_matrix(T, 4, dt), ((np.arange(T)[:, None] // 4 == np.arange(T // 4)) / 4).astype(dtype)),
            (ops.sinusoidal_positions(n, d, dtype=dtype).data, pe.astype(dtype)),
        ]
        for got, want in cases:
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                got[0, 0] = 1.0
        assert ops._tap_select(k, T, dt) is ops._tap_select(k, T, dt)


def lstm_layer_composed(x, w_ih, w_hh, b):
    """The LSTM layer as the primitive-op loop the fused node replaced."""
    B, T, _ = x.data.shape
    hidden = w_hh.data.shape[0]
    xw = ops.dense(x, w_ih, b)
    h = constant(np.zeros((B, hidden), dtype=x.data.dtype))
    c = constant(np.zeros((B, hidden), dtype=x.data.dtype))
    steps = []
    for t in range(T):
        zt = ops.add(ops.reshape(ops.narrow(xw, 1, t, 1), (B, 4 * hidden)), ops.matmul(h, w_hh))
        i_g = ops.sigmoid(ops.narrow(zt, 1, 0, hidden))
        f_g = ops.sigmoid(ops.narrow(zt, 1, hidden, hidden))
        g_g = ops.tanh(ops.narrow(zt, 1, 2 * hidden, hidden))
        o_g = ops.sigmoid(ops.narrow(zt, 1, 3 * hidden, hidden))
        c = ops.add(ops.mul(f_g, c), ops.mul(i_g, g_g))
        h = ops.mul(o_g, ops.tanh(c))
        steps.append(h)
    return ops.stack(steps, axis=1)


def _tape_nodes(out):
    """Op nodes reachable from ``out``: those with a backward closure."""
    seen, todo, ops_seen = set(), [out], 0
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            todo.extend(node.parents)
            ops_seen += node._backward is not None
    return ops_seen


class TestLstmReference:
    """The fused LSTM node against the composed loop it replaced, bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("upstream", ["every step", "last step"])
    @pytest.mark.parametrize("B, T, F, H", [(3, 6, 5, 4), (4, 1, 3, 5), (16, 20, 9, 40)])
    def test_fused_layer_matches_composed_loop(self, dtype, upstream, B, T, F, H):
        rng = np.random.default_rng(T * H)
        arrays_in = [
            rng.standard_normal((B, T, F)),
            rng.uniform(-0.5, 0.5, (F, 4 * H)),
            rng.uniform(-0.5, 0.5, (H, 4 * H)),
            rng.uniform(-0.5, 0.5, 4 * H),
        ]
        g = rng.standard_normal((B, T, H)).astype(dtype)
        if upstream == "last step":
            g[:, :-1] = 0.0
        results = []
        for layer in (lstm_layer_composed, ops.lstm_layer):
            params = [Parameter(a.astype(dtype)) for a in arrays_in]
            out = layer(*params)
            backward_from(out, g)
            results.append([out.data] + [p.grad for p in params])
        names = ("out", "grad x", "grad w_ih", "grad w_hh", "grad b")
        for name, want, got in zip(names, *results):
            assert got.dtype == dtype, name
            assert np.array_equal(got, want), name

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_second_backward_doubles_every_leaf_gradient(self, dtype):
        # the gates overwrite the projection's buffer in the forward; the
        # backward must leave them, c and h as the forward saved them
        rng = np.random.default_rng(3)
        params = [
            Parameter(rng.standard_normal(s).astype(dtype)) for s in ((4, 7, 5), (5, 12), (3, 12), (12,))
        ]
        out = ops.lstm_layer(*params)
        g = rng.standard_normal(out.data.shape).astype(dtype)
        backward_from(out, g)
        once = [p.grad.copy() for p in params]
        backward_from(out, g)
        for want, p in zip(once, params):
            assert np.array_equal(p.grad, 2 * want)

    def test_tape_nodes_do_not_grow_with_time(self):
        rng = np.random.default_rng(0)
        w_ih, w_hh, b = (Parameter(rng.standard_normal(s)) for s in ((3, 8), (2, 8), (8,)))
        counts = {
            T: _tape_nodes(ops.lstm_layer(constant(rng.standard_normal((2, T, 3))), w_ih, w_hh, b))
            for T in (1, 5, 40)
        }
        assert counts[1] == counts[5] == counts[40] == 2  # dense, then the recurrence
        # the composed loop adds 17 nodes a step
        composed = [_tape_nodes(lstm_layer_composed(constant(np.ones((2, T, 3))), w_ih, w_hh, b))
                    for T in (1, 2)]
        assert composed[1] - composed[0] == 17


@settings(max_examples=30, deadline=None)
@given(
    x=arrays(
        np.float64,
        st.tuples(st.integers(1, 4), st.integers(2, 6)),
        elements=st.floats(-30, 30),
    )
)
def test_softmax_rows_are_distributions(x):
    out = ops.softmax(constant(x)).data
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-9)
    assert (out >= 0).all()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_sum_axis_matches_numpy(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((3, 4))
    np.testing.assert_allclose(ops.sum_axis(constant(x), 1).data, x.sum(axis=1))
    np.testing.assert_allclose(ops.mean_axis(constant(x), 0).data, x.mean(axis=0))
