"""Differentiable operations.

Primitive ops construct one graph node with an explicit backward
closure.  Attention, the convolutions and the Chebyshev graph
convolution are composed from primitives, so their gradients need no
dedicated derivation.  The LSTM recurrence is not: composed, it cost 17
nodes per time step.  It is one node whose backward repeats the composed
loop's arithmetic in the tape's order, so it keeps the loop's bytes.

Every linear map along time or across features is one ``matmul``.
Along time (temporal and depthwise temporal convolution, average
pooling) it multiplies by a (T, T') matrix: a banded Toeplitz matrix
built from the kernel, or a fixed pooling matrix.  Across features
(pointwise and spatial convolution) the weight multiplies the feature
axis and broadcasts over the batch.  ``banded`` builds the band matrices
from kernels; the eegnet and conformer front ends in ``models`` call it
directly, to run the temporal band after their spatial mix.  Of the
linear maps only ``dense`` keeps a backward of its own: it folds the
leading axes, so its forward and both gradients are each one 2-d GEMM,
not one per batch row.

Layout conventions: convolutional feature maps are (batch, features,
channels, time); sequence models take (batch, time, channels); graph
convolutions take (batch, nodes, features).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ..errors import NumericError
from .core import Tensor, constant, make

BN_MOMENTUM = 0.1
NORM_EPS = 1e-5


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to the shape it was broadcast from."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


# ------------------------------------------------------------------ constants
# built once per shape and dtype, then shared read-only by every forward


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=32)
def _tap_select(k: int, T: int, dtype: np.dtype) -> np.ndarray:
    """(k, T·T) 0/1 tensor: row j marks the band entries that take tap j."""
    taps = np.arange(T)[:, None] - np.arange(T) + (k - 1) // 2
    return _frozen((taps.reshape(1, T * T) == np.arange(k)[:, None]).astype(dtype))


@functools.lru_cache(maxsize=32)
def _pool_matrix(T: int, k: int, dtype: np.dtype) -> np.ndarray:
    return _frozen(((np.arange(T)[:, None] // k == np.arange(T // k)) / k).astype(dtype))


@functools.lru_cache(maxsize=32)
def _position_table(n_positions: int, d_model: int, dtype: np.dtype) -> np.ndarray:
    position = np.arange(n_positions, dtype=np.float64)[:, None]
    div = np.exp(np.arange(0, d_model, 2, dtype=np.float64) * (-np.log(10000.0) / d_model))
    pe = np.zeros((n_positions, d_model), dtype=np.float64)
    pe[:, 0::2] = np.sin(position * div)
    pe[:, 1::2] = np.cos(position * div[: (d_model // 2)])
    return _frozen(pe.astype(dtype))


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


def elu(x: Tensor) -> Tensor:
    neg = np.expm1(x.data)
    out = np.where(x.data > 0, x.data, neg)

    def backward(g):
        x.accumulate(g * np.where(x.data > 0, 1.0, neg + 1.0))

    return make(out, (x,), backward, "elu")


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-x)) in numpy's vectorized loops, 4x faster than scipy's
    scalar ``expit`` on an LSTM gate block; exp(-x) = inf gives the limit 0.
    ``out`` may be ``x`` itself."""
    out = np.negative(x, out=out)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


def sigmoid(x: Tensor) -> Tensor:
    out = _sigmoid(x.data)

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


def mean_axis(x: Tensor, axis: int) -> Tensor:
    out = x.data.mean(axis=axis)
    n = x.data.shape[axis]

    def backward(g):
        x.accumulate(np.broadcast_to(np.expand_dims(g, axis) / n, x.data.shape))

    return make(out, (x,), backward, "mean")


def sum_axis(x: Tensor, axis: int) -> Tensor:
    out = x.data.sum(axis=axis)

    def backward(g):
        x.accumulate(np.broadcast_to(np.expand_dims(g, axis), x.data.shape))

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
    """Affine map over the last axis: x @ w (+ b), leading axes folded."""
    n_in, n_out = w.data.shape
    x2 = x.data.reshape(-1, n_in)
    out = (x2 @ w.data).reshape(*x.data.shape[:-1], n_out)
    if b is not None:
        out += b.data

    def backward(g):
        g2 = g.reshape(-1, n_out)
        if x.requires_grad:
            x.accumulate((g2 @ w.data.T).reshape(x.data.shape), owned=True)
        w.accumulate(x2.T @ g2)
        if b is not None:
            b.accumulate(g2.sum(axis=0))

    parents = (x, w) if b is None else (x, w, b)
    return make(out, parents, backward, "dense")


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        inner = (g * out).sum(axis=-1, keepdims=True)
        x.accumulate(out * (g - inner))

    return make(out, (x,), backward, "softmax")


# ---------------------------------------------------------------- convolutions


def banded(w: Tensor, T: int) -> Tensor:
    """Kernels (..., k) -> same-padded band matrices (..., T, T) with
    M[..., s, t] = w[..., s - t + (k - 1) // 2], so ``x @ M`` convolves x
    along time.  One product with a constant 0/1 tap tensor."""
    *lead, k = w.data.shape
    select = constant(_tap_select(k, T, w.data.dtype))
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
    return matmul(rows, reshape(banded(w, T), (Cout, Cin * T, T)))


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
    return reshape(matmul(w, x), (B, F * D, 1, T))


def depthwise_conv_time(x: Tensor, w: Tensor) -> Tensor:
    """Per-feature temporal convolution: (B, C, H, T) x (C, k), same padding."""
    Cw = w.data.shape[0]
    if Cw != x.data.shape[1]:
        raise NumericError(f"depthwise kernel for {Cw} features applied to {x.data.shape[1]}")
    return matmul(x, banded(w, x.data.shape[-1]))


def pointwise_conv(x: Tensor, w: Tensor) -> Tensor:
    """1x1 convolution mixing features: (B, C, H, T) x (O, C) -> (B, O, H, T)."""
    B, C, H, T = x.data.shape
    return reshape(matmul(w, reshape(x, (B, C, H * T))), (B, w.data.shape[0], H, T))


def avg_pool_time(x: Tensor, k: int) -> Tensor:
    """Non-overlapping average pooling along time; trailing remainder dropped."""
    T = x.data.shape[-1]
    if T // k == 0:
        raise NumericError(f"avg_pool_time: window {k} longer than time axis {T}")
    return matmul(x, constant(_pool_matrix(T, k, x.data.dtype)))


# ------------------------------------------------------------- normalization


def _mean_square(centered: np.ndarray, axes) -> np.ndarray:
    """The population variance from deviations already taken: the square and
    sum ``np.var`` runs after its own mean and subtraction, then the count
    division (float32 ``np.var`` divides in float64 and rounds back, which
    gives the same bits)."""
    total = np.multiply(centered, centered).sum(axis=axes, keepdims=True)
    total /= centered.size // total.size
    return total


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
) -> Tensor:
    """Batch normalization over all axes except axis 1.

    Training mode normalizes with batch statistics and folds them into
    the running buffers (in place); it never reads the buffers, so
    repeated training-mode forwards of one batch give one output.
    Evaluation mode uses the running buffers as constants and writes
    nothing.
    """
    axes = tuple(i for i in range(x.data.ndim) if i != 1)
    bshape = tuple(1 if i != 1 else -1 for i in range(x.data.ndim))
    if training:
        mean = x.data.mean(axis=axes, keepdims=True)
        centered = x.data - mean
        var = _mean_square(centered, axes)
        running_mean *= 1.0 - BN_MOMENTUM
        running_mean += BN_MOMENTUM * mean.reshape(-1)
        running_var *= 1.0 - BN_MOMENTUM
        running_var += BN_MOMENTUM * var.reshape(-1)
    else:
        centered = x.data - running_mean.reshape(bshape).astype(x.data.dtype)
        var = running_var.reshape(bshape).astype(x.data.dtype)
    inv = 1.0 / np.sqrt(var + NORM_EPS)
    xhat = np.multiply(centered, inv, out=centered)
    gb = gamma.data.reshape(bshape)
    out = gb * xhat + beta.data.reshape(bshape)

    def backward(g):
        gamma.accumulate(np.sum(g * xhat, axis=axes))
        beta.accumulate(np.sum(g, axis=axes))
        dxhat = g * gb
        if training:
            m1 = dxhat.mean(axis=axes, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=axes, keepdims=True)
            x.accumulate((dxhat - m1 - xhat * m2) * inv)
        else:
            x.accumulate(dxhat * inv)

    return make(out, (x, gamma, beta), backward, "batch_norm")


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last axis to zero mean, unit variance, then affine."""
    centered = x.data - x.data.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(_mean_square(centered, -1) + NORM_EPS)
    xhat = np.multiply(centered, inv, out=centered)
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
    return constant(_position_table(n_positions, d_model, np.dtype(dtype)))


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

    Each activation the backward reads is held once, the memory that
    Chen et al. (2016) budget: step t's gates are computed in one reused
    (B, 4H) row block, whose contiguous rows keep numpy's loops as fast
    as before, and then overwrite the step's pre-activations in the
    projection's own buffer, ``xw.data[:, t]``, which nothing else reads.
    Each h is written into the output, and c and tanh(c) into two arrays
    made once.  The backward writes each step's gate gradient into the
    buffer it hands over to ``xw`` and never into what the forward saved,
    so a second ``backward()`` adds the same gradient again.
    """
    B, T, _ = x.data.shape
    H = w_hh.data.shape[0]
    xw = dense(x, w_ih, b)  # (B, T, 4H)
    gates = xw.data
    hs = np.empty((B, T, H), dtype=gates.dtype)
    cs = np.zeros((T + 1, B, H), dtype=gates.dtype)  # cs[t]: c before step t
    tanh_cs = np.empty((T, B, H), dtype=gates.dtype)
    h = np.zeros((B, H), dtype=x.data.dtype)
    a = np.empty_like(gates[:, 0])  # the step's gates, in contiguous rows while computed
    for t in range(T):
        np.add(gates[:, t], h @ w_hh.data, out=a)
        g = np.tanh(a[:, 2 * H : 3 * H])
        _sigmoid(a, out=a)  # one call over all four blocks; g's is then replaced
        a[:, 2 * H : 3 * H] = g
        i, f, g, o = a[:, :H], a[:, H : 2 * H], a[:, 2 * H : 3 * H], a[:, 3 * H :]
        np.add(f * cs[t], i * g, out=cs[t + 1])
        np.tanh(cs[t + 1], out=tanh_cs[t])
        h = np.multiply(o, tanh_cs[t], out=hs[:, t])
        gates[:, t] = a

    def backward(grad):
        dxw = np.empty_like(gates)
        dw = np.zeros_like(w_hh.data)
        dh_next = dc_next = None  # what step t + 1 passes back to step t
        for t in range(T - 1, -1, -1):
            a, c_prev, tc = gates[:, t], cs[t], tanh_cs[t]
            i, f, g, o = a[:, :H], a[:, H : 2 * H], a[:, 2 * H : 3 * H], a[:, 3 * H :]
            dh = grad[:, t] if dh_next is None else grad[:, t] + dh_next
            dc = dh * o * (1.0 - tc * tc)
            if dc_next is not None:
                dc = dc_next + dc
            dz = dxw[:, t]
            dz[:, :H] = dc * g * i * (1.0 - i)
            dz[:, H : 2 * H] = dc * c_prev * f * (1.0 - f)
            dz[:, 2 * H : 3 * H] = dc * i * (1.0 - g * g)
            dz[:, 3 * H :] = dh * tc * o * (1.0 - o)
            dc_next = dc * f
            if t > 0:  # h before step 0 is a constant zero
                dh_next = dz @ w_hh.data.swapaxes(-1, -2)
                dw += hs[:, t - 1].swapaxes(-1, -2) @ dz
        w_hh.accumulate(dw)
        xw.accumulate(dxw, owned=True)

    return make(hs, (xw, w_hh), backward, "lstm_layer")


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
    attn = softmax(scores)
    ctx = transpose(matmul(attn, v), (0, 2, 1, 3))
    return dense(reshape(ctx, (B, T, d_model)), w_o, b_o)


# ------------------------------------------------------------ graph convolution


def chebyshev_graph_conv(
    x: Tensor,
    thetas: list[Tensor],
    adj: Tensor,
    bias: Tensor | None = None,
) -> Tensor:
    """Chebyshev-polynomial graph convolution with a learned adjacency.

    The adjacency is symmetrized, rectified and zeroed on the diagonal,
    giving A^ with degrees D (regularized by 1e-6).  The normalized
    Laplacian L = I - D^{-1/2} A^ D^{-1/2} has its spectrum in [0, 2], so
    lambda_max is fixed at 2 (Kipf & Welling, ICLR 2017, section 2.2) and
    the rescaled operator L~ = 2 L / lambda_max - I = -D^{-1/2} A^ D^{-1/2}
    has its spectrum in [-1, 1], where the Chebyshev recurrence
    T_k = 2 L~ T_{k-1} - T_{k-2} is stable.  Every step is on the tape,
    so the gradient is that of the forward.

    x is (batch, nodes, features); each theta maps features to the
    output width; K = len(thetas) polynomial terms.
    """
    n = adj.data.shape[0]
    dtype = adj.data.dtype
    sym = scale(add(adj, transpose(adj, (1, 0))), 0.5)
    a_hat = mul(relu(sym), constant((1.0 - np.eye(n)).astype(dtype)))
    deg = add(sum_axis(a_hat, axis=1), constant(np.full(n, 1e-6, dtype=dtype)))
    d_inv_sqrt = powc(deg, -0.5)
    norm = mul(mul(reshape(d_inv_sqrt, (n, 1)), a_hat), reshape(d_inv_sqrt, (1, n)))
    lap_scaled = scale(norm, -1.0)

    terms = [x]
    if len(thetas) > 1:
        terms.append(matmul(lap_scaled, x))
    for _ in range(2, len(thetas)):
        terms.append(sub(scale(matmul(lap_scaled, terms[-1]), 2.0), terms[-2]))
    out = dense(terms[0], thetas[0], bias)
    for tk, theta in zip(terms[1:], thetas[1:]):
        out = add(out, dense(tk, theta))
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

    def backward(g):
        gl = np.exp(z - lse[:, None])  # the softmax probabilities
        gl[np.arange(B), labels] -= 1.0
        logits.accumulate(gl * (g / B))

    return make(out, (logits,), backward, "cross_entropy")
