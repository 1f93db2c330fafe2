"""Gradient-check suites over ops and whole models.

Op-level checks difference every entry of small float64 tensors; the
model-level checks difference a seeded sample of entries per parameter
tensor, since full differencing of a million-parameter model would take
hours for no extra information.  Sampling is deterministic, so a
failure reproduces.

A model is checked through its ordinary training-mode loss, built so
that the loss is a deterministic function of the parameters: dropout is
set to 0, and batch norm normalizes with batch statistics and never
reads the running buffers it updates.  dgcnn needs no pin: its Laplacian
bound is the constant lambda_max = 2 (Kipf & Welling, ICLR 2017, section
2.2).  ``grad_check`` re-checks ReLU kinks inside the step.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Parameter, Tensor, constant, grad_check, ops
from .autodiff.gradcheck import GradCheckReport
from .models import ARCHITECTURES, SIZES, build_model  # callers read checks.ARCHITECTURES, SIZES

MODEL_CHECK_SAMPLE = 4
MODEL_CHECK_BATCH = 4


def _p(rng: np.random.Generator, *shape: int) -> Parameter:
    return Parameter(rng.standard_normal(shape))


def _mean_all(t: Tensor) -> Tensor:
    """The mean of every entry, as a scalar loss."""
    return ops.mean_axis(ops.reshape(t, (t.data.size,)), 0)


def op_check_cases() -> list[tuple[str, object, list[tuple[str, Parameter]]]]:
    """(name, loss_fn, params) triples covering every differentiable op."""
    rng = np.random.default_rng(7)
    cases = []

    def case(name, params, fn):
        cases.append((name, fn, [(f"{name}.{i}", p) for i, p in enumerate(params)]))

    def weighted_sq(shape, seed=101):
        # batch norm maps any input to zero mean and unit variance per
        # channel, so a loss built from per-channel statistics of the
        # output (a plain mean, a mean of squares) is *constant* in x
        # and its true gradient is exactly zero; fixed random weights
        # varying within each channel break that invariance; drawn once per case
        w = constant(np.random.default_rng(seed).uniform(0.5, 1.5, shape))
        return lambda t: _mean_all(ops.mul(ops.mul(t, t), w))

    a, b = _p(rng, 3, 4), _p(rng, 4)
    case("add_broadcast", [a, b], lambda: _mean_all(ops.mul(ops.add(a, b), ops.add(a, b))))

    c, d = _p(rng, 2, 5), _p(rng, 2, 5)
    case("sub_mul", [c, d], lambda: _mean_all(ops.mul(ops.sub(c, d), c)))

    e = _p(rng, 3, 3)
    case("scale_pow", [e], lambda: _mean_all(ops.powc(ops.scale(ops.mul(e, e), 0.5), 1.5)))

    f = _p(rng, 4, 6)
    case("relu", [f], lambda: _mean_all(ops.relu(f)))
    g = _p(rng, 4, 6)
    case("elu", [g], lambda: _mean_all(ops.elu(g)))
    h = _p(rng, 5, 3)
    case("sigmoid_tanh", [h], lambda: _mean_all(ops.mul(ops.sigmoid(h), ops.tanh(h))))

    i1 = _p(rng, 2, 3, 4)
    case("shape_ops", [i1], lambda: _mean_all(ops.narrow(ops.transpose(i1, (1, 0, 2)), 2, 1, 2)))

    j1, j2 = _p(rng, 3, 4), _p(rng, 3, 4)
    case("stack", [j1, j2], lambda: _mean_all(ops.stack([j1, j2], axis=1)))

    k1, k2 = _p(rng, 2, 3, 4), _p(rng, 4, 5)
    case("matmul_broadcast", [k1, k2], lambda: _mean_all(ops.matmul(k1, k2)))

    m1, m2, m3 = _p(rng, 3, 6), _p(rng, 6, 4), _p(rng, 4)
    case("dense", [m1, m2, m3], lambda: _mean_all(ops.dense(m1, m2, m3)))

    n1 = _p(rng, 3, 5)
    y_sm = np.array([0, 3, 1])
    case("softmax_ce", [n1], lambda: ops.cross_entropy(ops.scale(ops.softmax(n1), 3.0), y_sm))

    o_x, o_w = _p(rng, 2, 3, 4, 7), _p(rng, 5, 3, 3)
    rng.standard_normal(5)  # an unused draw keeps the inputs of the cases below as they were
    case("conv_temporal", [o_x, o_w], lambda: _mean_all(ops.conv_temporal(o_x, o_w)))

    p_x, p_w = _p(rng, 2, 3, 5, 6), _p(rng, 3, 2, 5)
    case(
        "conv_spatial_depthwise",
        [p_x, p_w],
        lambda: _mean_all(ops.conv_spatial_depthwise(p_x, p_w)),
    )

    q_x, q_wd, q_wp = _p(rng, 2, 4, 1, 6), _p(rng, 4, 3), _p(rng, 5, 4)
    case(
        "separable_conv",
        [q_x, q_wd, q_wp],
        lambda: _mean_all(ops.pointwise_conv(ops.depthwise_conv_time(q_x, q_wd), q_wp)),
    )

    r_x = _p(rng, 2, 3, 2, 7)
    case("avg_pool_floor", [r_x], lambda: _mean_all(ops.avg_pool_time(r_x, 3)))

    s_x, s_g, s_b = _p(rng, 4, 3, 2, 5), Parameter(np.random.default_rng(8).uniform(0.5, 1.5, 3)), _p(rng, 3)
    s_rm, s_rv = np.zeros(3), np.ones(3)
    s_loss = weighted_sq(s_x.data.shape)
    case(
        "batch_norm_train",
        [s_x, s_g, s_b],
        lambda: s_loss(ops.batch_norm(s_x, s_g, s_b, s_rm, s_rv, training=True)),
    )
    t_x, t_g, t_b = _p(rng, 4, 3, 2, 5), _p(rng, 3), _p(rng, 3)
    t_rm = np.random.default_rng(9).standard_normal(3)
    t_rv = np.random.default_rng(10).uniform(0.5, 2.0, 3)
    case(
        "batch_norm_eval",
        [t_x, t_g, t_b],
        lambda: _mean_all(ops.batch_norm(t_x, t_g, t_b, t_rm, t_rv, training=False)),
    )

    u_x, u_g, u_b = _p(rng, 3, 4, 6), _p(rng, 6), _p(rng, 6)
    case("layer_norm", [u_x, u_g, u_b], lambda: _mean_all(ops.layer_norm(u_x, u_g, u_b)))

    v_x = _p(rng, 2, 4, 5)
    v_wih, v_whh, v_b = _p(rng, 5, 12), _p(rng, 3, 12), _p(rng, 12)
    case(
        "lstm_layer",
        [v_x, v_wih, v_whh, v_b],
        lambda: _mean_all(ops.lstm_layer(v_x, v_wih, v_whh, v_b)),
    )

    w_x = _p(rng, 2, 5, 6)
    # moderate projections keep the softmax away from saturation, where
    # near-zero attention weights leave gradient entries below the
    # finite-difference noise floor
    w_mat = lambda: Parameter(rng.standard_normal((6, 6)) * 0.4)
    w_vec = lambda: _p(rng, 6)
    w_params = [w_mat(), w_vec(), w_mat(), w_mat(), w_vec(), w_mat(), w_vec()]
    w_loss = weighted_sq(w_x.data.shape)
    case(
        "multi_head_attention",
        [w_x] + w_params,
        lambda: w_loss(ops.multi_head_attention(w_x, *w_params, n_heads=2)),
    )

    ch_rng = np.random.default_rng(11)
    ch_x = Parameter(ch_rng.standard_normal((2, 5, 4)))
    ch_adj = Parameter(ch_rng.uniform(0.01, 0.05, (5, 5)) * (1.0 - np.eye(5)))
    ch_t = [Parameter(ch_rng.standard_normal((4, 3))) for _ in range(3)]
    ch_b = Parameter(ch_rng.standard_normal(3))
    case(
        "chebyshev_graph_conv",
        [ch_x, ch_adj, *ch_t, ch_b],
        lambda: _mean_all(ops.chebyshev_graph_conv(ch_x, ch_t, ch_adj, ch_b)),
    )

    z_l = _p(rng, 6, 3)
    y_ce = np.array([0, 2, 1, 1, 0, 2])
    case("cross_entropy", [z_l], lambda: ops.cross_entropy(z_l, y_ce))

    x_pe = _p(rng, 2, 7, 4)
    case(
        "positions_add",
        [x_pe],
        lambda: _mean_all(ops.add(x_pe, ops.sinusoidal_positions(7, 4, dtype=np.float64))),
    )
    return cases


def check_op_gradients() -> list[tuple[str, GradCheckReport]]:
    """Full-entry gradient checks for every op case."""
    results = []
    for name, fn, params in op_check_cases():
        results.append((name, grad_check(fn, params)))
    return results


def check_model_gradients(arch: str, size: str, seed: int = 0) -> GradCheckReport:
    """Gradient check of one architecture at one size, ``MODEL_CHECK_SAMPLE``
    entries per parameter tensor."""
    model = build_model(arch, size, seed=seed)
    model.dropout = 0.0
    model.to_float64()
    rng = np.random.default_rng(seed + 17)
    x = rng.standard_normal((MODEL_CHECK_BATCH, model.n_channels, model.n_samples))
    y = rng.integers(0, model.n_classes, size=MODEL_CHECK_BATCH)

    def loss_fn():
        return model.loss(x, y, training=True)

    return grad_check(loss_fn, model.named_params(), sample=MODEL_CHECK_SAMPLE, seed=seed)
