"""Differentiable operations.

Primitive ops construct one graph node with an explicit backward
closure.  Attention and the Chebyshev graph convolution are composed
from primitives, so their gradients need no dedicated derivation.  The
LSTM recurrence no longer is: composed, it cost 17 nodes per time step.
It is one node whose backward repeats the composed loop's arithmetic in
the tape's order, so it keeps the loop's bytes.  The convolutions are
composed from primitives.  A linear map along time (temporal and
depthwise temporal convolution, average pooling) is one ``matmul`` with
a (T, T') matrix: a banded Toeplitz matrix built from the kernel, or a
fixed pooling matrix.  The maps across features (pointwise and spatial
convolution) are one two-operand ``einsum``.  No convolution has a
backward of its own.

Layout conventions: convolutional feature maps are (batch, features,
channels, time); sequence models take (batch, time, channels); graph
convolutions take (batch, nodes, features).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import expit

from ..errors import NumericError
from .core import Parameter, Tensor, constant, make


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to the shape it was broadcast from."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


# ---------------------------------------------------------------- elementwise


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def backward(g):
        a.accumulate(_unbroadcast(g, a.data.shape))
        b.accumulate(_unbroadcast(g, b.data.shape))

    return make(out, (a, b), backward, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data

    def backward(g):
        a.accumulate(_unbroadcast(g, a.data.shape))
        b.accumulate(-_unbroadcast(g, b.data.shape))

    return make(out, (a, b), backward, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def backward(g):
        a.accumulate(_unbroadcast(g * b.data, a.data.shape))
        b.accumulate(_unbroadcast(g * a.data, b.data.shape))

    return make(out, (a, b), backward, "mul")


def scale(x: Tensor, s: float) -> Tensor:
    out = x.data * s

    def backward(g):
        x.accumulate(g * s)

    return make(out, (x,), backward, "scale")


def powc(x: Tensor, exponent: float) -> Tensor:
    """Elementwise power with a constant exponent (positive inputs)."""
    out = x.data**exponent

    def backward(g):
        x.accumulate(g * exponent * x.data ** (exponent - 1.0))

    return make(out, (x,), backward, "powc")


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0)

    def backward(g):
        x.accumulate(g * (x.data > 0))

    return make(out, (x,), backward, "relu")


def elu(x: Tensor, alpha: float = 1.0) -> Tensor:
    neg = alpha * np.expm1(x.data)
    out = np.where(x.data > 0, x.data, neg)

    def backward(g):
        x.accumulate(g * np.where(x.data > 0, 1.0, neg + alpha))

    return make(out, (x,), backward, "elu")


def sigmoid(x: Tensor) -> Tensor:
    out = expit(x.data)

    def backward(g):
        x.accumulate(g * out * (1.0 - out))

    return make(out, (x,), backward, "sigmoid")


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)

    def backward(g):
        x.accumulate(g * (1.0 - out * out))

    return make(out, (x,), backward, "tanh")


# ------------------------------------------------------------------- shaping


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    out = x.data.reshape(shape)

    def backward(g):
        x.accumulate(g.reshape(x.data.shape))

    return make(out, (x,), backward, "reshape")


def transpose(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    out = np.ascontiguousarray(x.data.transpose(axes))

    def backward(g):
        x.accumulate(g.transpose(inverse))

    return make(out, (x,), backward, "transpose")


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """A contiguous slice along one axis."""
    index = [slice(None)] * x.data.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)
    out = x.data[index].copy()

    def backward(g):
        full = np.zeros_like(x.data)
        full[index] = g
        x.accumulate(full)

    return make(out, (x,), backward, "narrow")


def stack(tensors: list[Tensor], axis: int) -> Tensor:
    out = np.stack([t.data for t in tensors], axis=axis)

    def backward(g):
        parts = np.split(g, len(tensors), axis=axis)
        for t, part in zip(tensors, parts):
            t.accumulate(part.reshape(t.data.shape))

    return make(out, tuple(tensors), backward, "stack")


def mean_axis(x: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    out = x.data.mean(axis=axis, keepdims=keepdims)
    n = x.data.shape[axis]

    def backward(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        x.accumulate(np.broadcast_to(g / n, x.data.shape).copy())

    return make(out, (x,), backward, "mean")


def sum_axis(x: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    out = x.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        x.accumulate(np.broadcast_to(g, x.data.shape).copy())

    return make(out, (x,), backward, "sum")


# -------------------------------------------------------------- linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b`` for operands of two or more dimensions, batch axes broadcast."""
    out = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g @ b.data.swapaxes(-1, -2), a.data.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(a.data.swapaxes(-1, -2) @ g, b.data.shape))

    return make(out, (a, b), backward, "matmul")


def dense(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Affine map over the last axis: x @ w (+ b)."""
    out = x.data @ w.data
    if b is not None:
        out = out + b.data

    def backward(g):
        x.accumulate(g @ w.data.T)
        x2 = x.data.reshape(-1, w.data.shape[0])
        g2 = g.reshape(-1, w.data.shape[1])
        w.accumulate(x2.T @ g2)
        if b is not None:
            b.accumulate(g2.sum(axis=0))

    parents = (x, w) if b is None else (x, w, b)
    return make(out, parents, backward, "dense")


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        x.accumulate(out * (g - inner))

    return make(out, (x,), backward, "softmax")


# ---------------------------------------------------------------- convolutions


def einsum(spec: str, a: Tensor, b: Tensor) -> Tensor:
    """Two-operand ``np.einsum`` with explicit output labels.  Each operand's
    gradient, computed only if it requires one, is the einsum of the output
    gradient with the other operand, so no label may belong to one operand alone."""
    labels_a, labels_b, labels_out = spec.replace("->", ",").split(",")
    out = np.einsum(spec, a.data, b.data)

    def backward(g):
        if a.requires_grad:
            a.accumulate(np.einsum(f"{labels_out},{labels_b}->{labels_a}", g, b.data))
        if b.requires_grad:
            b.accumulate(np.einsum(f"{labels_a},{labels_out}->{labels_b}", a.data, g))

    return make(out, (a, b), backward, "einsum")


def _banded(w: Tensor, T: int) -> Tensor:
    """Kernels (..., k) -> same-padded band matrices (..., T, T) with
    M[..., s, t] = w[..., s - t + (k - 1) // 2], so ``x @ M`` convolves x
    along time.  One product with a constant 0/1 tap tensor."""
    *lead, k = w.data.shape
    taps = np.arange(T)[:, None] - np.arange(T) + (k - 1) // 2
    select = constant((taps.reshape(1, T * T) == np.arange(k)[:, None]).astype(w.data.dtype))
    return reshape(matmul(reshape(w, (-1, k)), select), (*lead, T, T))


def conv_temporal(x: Tensor, w: Tensor) -> Tensor:
    """1-d convolution along time, shared over channels: (B, Cin, H, T) x
    (Cout, Cin, k) -> (B, Cout, H, T), same padding, stride 1.  One product per
    (batch, output feature): OpenBLAS threads one (B·H, Cin·T) GEMM for no gain."""
    B, Cin, H, T = x.data.shape
    Cout, Cin_w, _ = w.data.shape
    if Cin_w != Cin:
        raise NumericError(f"conv_temporal: {Cin} input features vs kernel {Cin_w}")
    rows = reshape(transpose(x, (0, 2, 1, 3)), (B, 1, H, Cin * T))
    return matmul(rows, reshape(_banded(w, T), (Cout, Cin * T, T)))


def conv_spatial_depthwise(x: Tensor, w: Tensor) -> Tensor:
    """Depthwise convolution spanning the full channel axis.

    Each of the F input feature maps is projected through D spatial
    filters of length n_channels, collapsing the channel axis:
    (B, F, H, T) x (F, D, H) -> (B, F*D, 1, T).  No bias: a batch-norm
    always follows.
    """
    B, F, H, T = x.data.shape
    Fw, D, Hw = w.data.shape
    if (Fw, Hw) != (F, H):
        raise NumericError(f"depthwise kernel {w.data.shape} does not match input {x.data.shape}")
    return reshape(einsum("fdh,bfht->bfdt", w, x), (B, F * D, 1, T))


def depthwise_conv_time(x: Tensor, w: Tensor) -> Tensor:
    """Per-feature temporal convolution: (B, C, H, T) x (C, k), same padding."""
    Cw = w.data.shape[0]
    if Cw != x.data.shape[1]:
        raise NumericError(f"depthwise kernel for {Cw} features applied to {x.data.shape[1]}")
    return matmul(x, _banded(w, x.data.shape[-1]))


def pointwise_conv(x: Tensor, w: Tensor) -> Tensor:
    """1x1 convolution mixing features: (B, C, H, T) x (O, C) -> (B, O, H, T)."""
    return einsum("oc,bcht->boht", w, x)


def separable_conv(x: Tensor, w_depth: Tensor, w_point: Tensor) -> Tensor:
    """Depthwise temporal convolution followed by a pointwise feature mix."""
    return pointwise_conv(depthwise_conv_time(x, w_depth), w_point)


def avg_pool_time(x: Tensor, k: int) -> Tensor:
    """Non-overlapping average pooling along time; trailing remainder dropped."""
    T = x.data.shape[-1]
    if T // k == 0:
        raise NumericError(f"avg_pool_time: window {k} longer than time axis {T}")
    pool = (np.arange(T)[:, None] // k == np.arange(T // k)) / k
    return matmul(x, constant(pool, x.data.dtype))


# ------------------------------------------------------------- normalization


def batch_norm(
    x: Tensor,
    gamma: Tensor | None,
    beta: Tensor | None,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Batch normalization over all axes except axis 1.

    Training mode normalizes with batch statistics and folds them into
    the running buffers (in place); it never reads the buffers, so
    repeated training-mode forwards of one batch give one output.
    Evaluation mode uses the running buffers as constants and writes
    nothing.

    Pass ``gamma=None, beta=None`` for a norm with no affine stage.  A
    norm whose output reaches another norm through purely linear ops
    must run affine-free: the downstream normalization would undo the
    shift exactly and the scale up to eps, leaving parameters that can
    never train.
    """
    axes = tuple(i for i in range(x.data.ndim) if i != 1)
    bshape = tuple(1 if i != 1 else -1 for i in range(x.data.ndim))
    if (gamma is None) != (beta is None):
        raise NumericError("batch_norm needs both gamma and beta, or neither")
    if training:
        mean = x.data.mean(axis=axes, keepdims=True)
        var = x.data.var(axis=axes, keepdims=True)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean.reshape(-1)
        running_var *= 1.0 - momentum
        running_var += momentum * var.reshape(-1)
    else:
        mean = running_mean.reshape(bshape).astype(x.data.dtype)
        var = running_var.reshape(bshape).astype(x.data.dtype)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean) * inv
    if gamma is None:
        out = xhat
        gb = None
        parents = (x,)
    else:
        gb = gamma.data.reshape(bshape)
        out = gb * xhat + beta.data.reshape(bshape)
        parents = (x, gamma, beta)

    def backward(g):
        if gamma is None:
            dxhat = g
        else:
            gamma.accumulate(np.sum(g * xhat, axis=axes))
            beta.accumulate(np.sum(g, axis=axes))
            dxhat = g * gb
        if training:
            m1 = dxhat.mean(axis=axes, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=axes, keepdims=True)
            x.accumulate((dxhat - m1 - xhat * m2) * inv)
        else:
            x.accumulate(dxhat * inv)

    return make(out, parents, backward, "batch_norm")


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean, unit variance, then affine."""
    mean = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean) * inv
    out = gamma.data * xhat + beta.data
    reduce_axes = tuple(range(x.data.ndim - 1))

    def backward(g):
        gamma.accumulate(np.sum(g * xhat, axis=reduce_axes))
        beta.accumulate(np.sum(g, axis=reduce_axes))
        dxhat = g * gamma.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        x.accumulate((dxhat - m1 - xhat * m2) * inv)

    return make(out, (x, gamma, beta), backward, "layer_norm")


def dropout(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout at rate p; the caller skips it when evaluating."""
    if not 0.0 <= p < 1.0:
        raise NumericError(f"dropout rate must be in [0, 1), got {p}")
    mask = (rng.random(x.data.shape) >= p).astype(x.data.dtype) / (1.0 - p)
    out = x.data * mask

    def backward(g):
        x.accumulate(g * mask)

    return make(out, (x,), backward, "dropout")


# ------------------------------------------------------------------ sequences


def sinusoidal_positions(n_positions: int, d_model: int, dtype=np.float32) -> Tensor:
    """Fixed sine/cosine position table, (n_positions, d_model), no gradient."""
    position = np.arange(n_positions, dtype=np.float64)[:, None]
    div = np.exp(np.arange(0, d_model, 2, dtype=np.float64) * (-np.log(10000.0) / d_model))
    pe = np.zeros((n_positions, d_model), dtype=np.float64)
    pe[:, 0::2] = np.sin(position * div)
    pe[:, 1::2] = np.cos(position * div[: (d_model // 2)])
    return constant(pe.astype(dtype))


def lstm_layer(x: Tensor, w_ih: Tensor, w_hh: Tensor, b: Tensor) -> Tensor:
    """One LSTM layer over (batch, time, features) -> (batch, time, hidden).

    Gate order i, f, g, o in the stacked weight matrices.  The input
    projection for every step is one ``dense`` node (Appleyard et al.
    2016); the recurrence is one node whose backward runs one
    (B, 4H) @ (4H, H) product per step.  It keeps the bytes of the
    primitive-op loop it replaced, which ``tests/test_autodiff.py`` keeps
    as the reference: it evaluates that loop's expressions, a two-term
    sum is the same in either order, and dW_hh adds one step at a time
    from the last step down, as the tape did.  One product over all
    steps would sum in another order.
    """
    B, T, _ = x.data.shape
    H = w_hh.data.shape[0]
    xw = dense(x, w_ih, b)  # (B, T, 4H)
    h = c = np.zeros((B, H), dtype=x.data.dtype)
    hs, cs, gates, tanh_cs = [], [c], [], []
    for t in range(T):
        z = xw.data[:, t] + h @ w_hh.data
        a = np.empty_like(z)
        expit(z[:, : 2 * H], out=a[:, : 2 * H])
        np.tanh(z[:, 2 * H : 3 * H], out=a[:, 2 * H : 3 * H])
        expit(z[:, 3 * H :], out=a[:, 3 * H :])
        i, f, g, o = a[:, :H], a[:, H : 2 * H], a[:, 2 * H : 3 * H], a[:, 3 * H :]
        c = f * c + i * g
        tc = np.tanh(c)
        h = o * tc
        hs.append(h)
        cs.append(c)
        gates.append(a)
        tanh_cs.append(tc)

    def backward(grad):
        dxw = np.empty_like(xw.data)
        dw = np.zeros_like(w_hh.data)
        dh_next = dc_next = None  # what step t + 1 passes back to step t
        for t in range(T - 1, -1, -1):
            a, c_prev, tc = gates[t], cs[t], tanh_cs[t]
            i, f, g, o = a[:, :H], a[:, H : 2 * H], a[:, 2 * H : 3 * H], a[:, 3 * H :]
            dh = grad[:, t] if dh_next is None else grad[:, t] + dh_next
            dc = dh * o * (1.0 - tc * tc)
            if dc_next is not None:
                dc = dc_next + dc
            dz = np.empty_like(a)
            dz[:, :H] = dc * g * i * (1.0 - i)
            dz[:, H : 2 * H] = dc * c_prev * f * (1.0 - f)
            dz[:, 2 * H : 3 * H] = dc * i * (1.0 - g * g)
            dz[:, 3 * H :] = dh * tc * o * (1.0 - o)
            dxw[:, t] = dz
            dc_next = dc * f
            if t > 0:  # h before step 0 is a constant zero
                dh_next = dz @ w_hh.data.swapaxes(-1, -2)
                dw += hs[t - 1].swapaxes(-1, -2) @ dz
        w_hh.accumulate(dw)
        xw.accumulate(dxw)

    return make(np.stack(hs, axis=1), (xw, w_hh), backward, "lstm_layer")


def multi_head_attention(
    x: Tensor,
    w_q: Tensor,
    b_q: Tensor,
    w_k: Tensor,
    w_v: Tensor,
    b_v: Tensor,
    w_o: Tensor,
    b_o: Tensor,
    n_heads: int,
) -> Tensor:
    """Scaled dot-product attention with h heads over (batch, time, d_model).

    The key projection carries no bias: a constant added to every key
    shifts each query's scores uniformly, which the softmax cancels, so
    such a bias would be a dead parameter with identically zero
    gradient.
    """
    B, T, d_model = x.data.shape
    if d_model % n_heads != 0:
        raise NumericError(f"d_model {d_model} not divisible by {n_heads} heads")
    d_k = d_model // n_heads

    def split_heads(t: Tensor) -> Tensor:
        return transpose(reshape(t, (B, T, n_heads, d_k)), (0, 2, 1, 3))

    q = split_heads(dense(x, w_q, b_q))
    k = split_heads(dense(x, w_k, None))
    v = split_heads(dense(x, w_v, b_v))
    scores = scale(matmul(q, transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(d_k))
    attn = softmax(scores, axis=-1)
    ctx = transpose(matmul(attn, v), (0, 2, 1, 3))
    return dense(reshape(ctx, (B, T, d_model)), w_o, b_o)


# ------------------------------------------------------------ graph convolution


def _power_iteration_max_eig(mat: np.ndarray, iters: int = 20) -> float:
    """Largest eigenvalue of a symmetric PSD matrix by power iteration."""
    n = mat.shape[0]
    v = np.full(n, 1.0 / np.sqrt(n), dtype=np.float64)
    m = mat.astype(np.float64)
    for _ in range(iters):
        v = m @ v
        norm = np.linalg.norm(v)
        if norm < 1e-12:
            return 1e-6
        v /= norm
    return float(max(v @ (m @ v), 1e-6))


def laplacian_spectral_radius(adj_data: np.ndarray, iters: int = 20) -> float:
    """lambda_max of the normalized Laplacian the graph conv would build.

    Pure numpy on raw values; used to pin the estimate across repeated
    forwards during gradient checking.
    """
    n = adj_data.shape[0]
    sym = 0.5 * (adj_data + adj_data.T)
    a_hat = np.maximum(sym, 0.0) * (1.0 - np.eye(n))
    deg = a_hat.sum(axis=1) + 1e-6
    d = deg**-0.5
    lap = np.eye(n) - d[:, None] * a_hat * d[None, :]
    return _power_iteration_max_eig(lap, iters=iters)


def chebyshev_graph_conv(
    x: Tensor,
    thetas: list[Tensor],
    adj: Tensor,
    bias: Tensor | None = None,
    lam_max: float | None = None,
) -> Tensor:
    """Chebyshev-polynomial graph convolution with a learned adjacency.

    The adjacency is symmetrized, rectified, and zeroed on the diagonal;
    its normalized Laplacian L = I - D^{-1/2} A D^{-1/2} (degree
    regularized by 1e-6) is rescaled to L~ = 2 L / lambda_max - I with
    lambda_max taken from 20 power iterations on the current values.
    The spectral radius estimate is treated as a constant: no gradient
    flows through it, and it is recomputed on every forward pass unless
    ``lam_max`` pins it (gradient checking needs the pinned form so the
    finite-difference target is the same function the tape
    differentiates).

    x is (batch, nodes, features); each theta maps features to the
    output width; K = len(thetas) polynomial terms.
    """
    n = adj.data.shape[0]
    eye = constant(np.eye(n, dtype=x.data.dtype))
    offdiag = constant((1.0 - np.eye(n)).astype(x.data.dtype))
    sym = scale(add(adj, transpose(adj, (1, 0))), 0.5)
    a_hat = mul(relu(sym), offdiag)
    deg = add(sum_axis(a_hat, axis=1), constant(np.full(n, 1e-6, dtype=x.data.dtype)))
    d_inv_sqrt = powc(deg, -0.5)
    norm = mul(mul(reshape(d_inv_sqrt, (n, 1)), a_hat), reshape(d_inv_sqrt, (1, n)))
    lap = sub(eye, norm)
    if lam_max is None:
        lam_max = _power_iteration_max_eig(lap.data)
    lap_scaled = sub(scale(lap, 2.0 / lam_max), eye)

    terms = [x]
    if len(thetas) > 1:
        terms.append(matmul(lap_scaled, x))
    for _ in range(2, len(thetas)):
        terms.append(sub(scale(matmul(lap_scaled, terms[-1]), 2.0), terms[-2]))
    out = matmul(terms[0], thetas[0])
    for tk, theta in zip(terms[1:], thetas[1:]):
        out = add(out, matmul(tk, theta))
    if bias is not None:
        out = add(out, bias)
    return out


# ----------------------------------------------------------------------- loss


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy from raw logits via a stable log-sum-exp.

    labels is an integer array of shape (batch,).
    """
    z = logits.data
    B = z.shape[0]
    labels = np.asarray(labels)
    if labels.shape != (B,):
        raise NumericError(f"labels shape {labels.shape} does not match batch {B}")
    m = z.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=1))
    picked = z[np.arange(B), labels]
    out = np.asarray(np.mean(lse - picked, dtype=np.float64), dtype=z.dtype)
    probs = np.exp(z - lse[:, None])

    def backward(g):
        gl = probs.copy()
        gl[np.arange(B), labels] -= 1.0
        logits.accumulate(gl * (g / B))

    return make(out, (logits,), backward, "cross_entropy")
