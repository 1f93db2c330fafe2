"""Decoder architectures, size presets, parameter audit, checkpoints.

Five trainable decoders share one small Module convention: parameters
are registered in construction order under stable dotted names, batch
norm running statistics live in named buffers, and ``forward`` takes a
plain float numpy batch.  Each model writes its forward once, as a list
of stages (``Model.stages``): the first maps the input batch to a
Tensor, each later one maps the output of the one before.  ``forward``
runs them in order; the gradient check restarts them at the first stage
that reads a perturbed parameter.  Each architecture comes in three presets
(small / medium / large).  :data:`CELLS` is the one place that holds an
(architecture, size) cell's preset hyperparameters and its target
parameter count; the presets were chosen so every cell lands within the
+/-30% budget around its target, checked by :func:`audit_params`.

Shapes: convolutional models consume (batch, 1, channels, time) maps,
sequence models (batch, time, channels), the graph model treats the
channels as nodes carrying their time course as features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import eegb
from .autodiff import Parameter, Tensor, constant, no_grad, ops
from .data import N_CHANNELS, N_SAMPLES
from .errors import DataError, MetaMismatchError, UsageError, check_fields, check_seed

N_CLASSES = 2
# trials per forward pass when evaluating; the batching also fixes the
# summation order, and so the bytes, of the evaluation loss
EVAL_BATCH = 256

ARCHITECTURES = ("eegnet", "lstm", "dgcnn", "transformer", "conformer")
SIZES = ("small", "medium", "large")

# Every (architecture, size) cell, architecture-major: its preset
# hyperparameters, which the model takes as attributes, and the parameter
# count that the audit holds it to, within PARAM_TOLERANCE.
CELLS: dict[tuple[str, str], tuple[dict, int]] = {
    ("eegnet", "small"): (dict(f1=8, depth=2, f2=16), 1888),
    ("eegnet", "medium"): (dict(f1=16, depth=4, f2=64), 11504),
    ("eegnet", "large"): (dict(f1=32, depth=8, f2=320), 132096),
    ("lstm", "small"): (dict(hidden=13, layers=1), 3902),
    ("lstm", "medium"): (dict(hidden=80, layers=2), 98402),
    ("lstm", "large"): (dict(hidden=224, layers=3), 1161002),
    ("dgcnn", "small"): (dict(k=2, hidden=32, layers=1, node_dense=64), 12527),
    ("dgcnn", "medium"): (dict(k=2, hidden=160, layers=2, node_dense=160), 107563),
    ("dgcnn", "large"): (dict(k=3, hidden=512, layers=2, node_dense=512), 1049763),
    ("transformer", "small"): (dict(d_model=16, heads=2, layers=1, ffn=32), 3090),
    ("transformer", "medium"): (dict(d_model=64, heads=4, layers=3, ffn=128), 141866),
    ("transformer", "large"): (dict(d_model=128, heads=8, layers=5, ffn=512), 1144834),
    ("conformer", "small"): (dict(f=10, layers=1, heads=2, head_hidden=112), 36026),
    ("conformer", "medium"): (dict(f=40, layers=2, heads=4, head_hidden=24), 164906),
    ("conformer", "large"): (dict(f=40, layers=6, heads=4, head_hidden=1024), 1404946),
}

PARAM_TOLERANCE = 0.30

DROPOUT_BY_SIZE = {"small": 0.25, "medium": 0.5, "large": 0.75}


def eval_logits(model, x: np.ndarray) -> np.ndarray:
    """Evaluation-mode logits of every trial, a batch at a time, without building a tape.

    Needs only ``model.forward`` and ``model.n_classes``.
    """
    with no_grad():
        out = [
            model.forward(x[start : start + EVAL_BATCH], training=False).data
            for start in range(0, len(x), EVAL_BATCH)
        ]
    return np.concatenate(out) if out else np.zeros((0, model.n_classes))


class Model:
    """Base: parameter/buffer registry, init rng, dropout rng."""

    arch = ""
    # what a checkpoint records to rebuild the model: its class and constructor
    # fields, each with the JSON kind it holds (see errors.check_fields)
    DESCRIPTOR_FIELDS = {
        "arch": str, "size": str, "seed": int,
        "n_classes": int, "n_channels": int, "n_samples": int,
    }

    def __init__(
        self,
        size: str,
        seed: int = 0,
        n_classes: int = N_CLASSES,
        n_channels: int = N_CHANNELS,
        n_samples: int = N_SAMPLES,
    ):
        if size not in SIZES:
            raise UsageError(f"unknown size {size!r}; choose from {SIZES}")
        check_seed(seed)
        self.size = size
        self.seed = seed
        self.dropout = DROPOUT_BY_SIZE[size]
        vars(self).update(CELLS[(self.arch, size)][0])
        shape = {"n_classes": n_classes, "n_channels": n_channels, "n_samples": n_samples}
        for name, value in shape.items():
            if value < 1:
                raise UsageError(f"{name} must be at least 1, got {value}")
        self.n_classes = n_classes
        self.n_channels = n_channels
        self.n_samples = n_samples
        init_ss, drop_ss = np.random.SeedSequence(seed).spawn(2)
        self._init_rng = np.random.default_rng(init_ss)
        self.dropout_rng = np.random.default_rng(drop_ss)
        self._params: list[tuple[str, Parameter]] = []
        self._buffers: list[tuple[str, np.ndarray]] = []

    # -- registry -------------------------------------------------------

    def _register(self, name: str, array: np.ndarray) -> Parameter:
        if any(n == name for n, _ in self._params):
            raise UsageError(f"duplicate parameter name {name!r}")
        p = Parameter(array.astype(np.float32), name=name)
        self._params.append((name, p))
        return p

    def _uniform(self, name: str, shape: tuple[int, ...], fan_in: int) -> Parameter:
        bound = 1.0 / np.sqrt(fan_in)
        return self._register(name, self._init_rng.uniform(-bound, bound, size=shape))

    def _affine(self, name: str, n_in: int, n_out: int, suffix: str = "") -> tuple[Parameter, ...]:
        """Weight ``{name}.w{suffix}`` (n_in, n_out), then bias ``{name}.b{suffix}``
        (n_out,), both drawn at the weight's fan-in n_in."""
        return (
            self._uniform(f"{name}.w{suffix}", (n_in, n_out), n_in),
            self._uniform(f"{name}.b{suffix}", (n_out,), n_in),
        )

    def _buffer(self, name: str, array: np.ndarray) -> np.ndarray:
        self._buffers.append((name, array))
        return array

    def named_params(self) -> list[tuple[str, Parameter]]:
        return list(self._params)

    def params(self) -> list[Parameter]:
        return [p for _, p in self._params]

    def named_buffers(self) -> list[tuple[str, np.ndarray]]:
        return list(self._buffers)

    @property
    def n_params(self) -> int:
        return sum(p.data.size for _, p in self._params)

    @property
    def dtype(self):
        return self._params[0][1].data.dtype

    def zero_grad(self) -> None:
        for _, p in self._params:
            p.grad = None

    def to_float64(self) -> None:
        """Cast parameters in place; gradient checks require this."""
        for _, p in self._params:
            p.astype(np.float64)

    # -- shared pieces ---------------------------------------------------

    def _drop(self, t: Tensor, training: bool) -> Tensor:
        if not training or self.dropout == 0.0:
            return t
        return ops.dropout(t, self.dropout, self.dropout_rng)

    def _input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.ndim != 3 or x.shape[1] != self.n_channels or x.shape[2] != self.n_samples:
            raise DataError(
                f"{self.arch} expects (batch, {self.n_channels}, {self.n_samples}) input, "
                f"got {x.shape}"
            )
        return x.astype(self.dtype, copy=False)

    def stages(self, training: bool) -> list:
        """The forward as a chain of callables: the first maps the input
        array to a Tensor, each later one the output of the one before."""
        raise NotImplementedError

    def forward(self, x: np.ndarray, training: bool) -> Tensor:
        h = x
        for stage in self.stages(training):
            h = stage(h)
        return h

    def loss(self, x: np.ndarray, y: np.ndarray, training: bool) -> Tensor:
        """Mean cross-entropy of the batch."""
        return ops.cross_entropy(self.forward(x, training), y)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Class predictions in evaluation mode, without building a tape."""
        return np.argmax(eval_logits(self, x), axis=1)

    def descriptor(self) -> dict:
        return {name: getattr(self, name) for name in self.DESCRIPTOR_FIELDS}


class _BatchNorm:
    """Parameter pair plus float64 running buffers, registered on a model."""

    def __init__(self, model: Model, n: int, name: str):
        self.gamma = model._register(f"{name}.gamma", np.ones(n))
        self.beta = model._register(f"{name}.beta", np.zeros(n))
        self.running_mean = model._buffer(f"{name}.running_mean", np.zeros(n, dtype=np.float64))
        self.running_var = model._buffer(f"{name}.running_var", np.ones(n, dtype=np.float64))

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        return ops.batch_norm(
            x, self.gamma, self.beta, self.running_mean, self.running_var, training=training
        )


class _LayerNorm:
    def __init__(self, model: Model, n: int, name: str):
        self.gamma = model._register(f"{name}.gamma", np.ones(n))
        self.beta = model._register(f"{name}.beta", np.zeros(n))

    def __call__(self, x: Tensor) -> Tensor:
        return ops.layer_norm(x, self.gamma, self.beta)


class _EncoderBlock:
    """Post-norm transformer block: attention + position-wise FFN.

    ``ffn_act`` is the feed-forward nonlinearity, so each model keeps its
    own activation convention.  It is passed at construction, not bound as
    a default at import, so a wrapper put on the op later sees the call.
    """

    def __init__(self, model: Model, d_model: int, n_heads: int, ffn: int, name: str, ffn_act):
        self.n_heads = n_heads
        self.ffn_act = ffn_act
        self.q = model._affine(f"{name}.attn", d_model, d_model, "q")
        # no key bias: the softmax cancels it, leaving a dead parameter
        self.w_k = model._uniform(f"{name}.attn.wk", (d_model, d_model), d_model)
        self.v = model._affine(f"{name}.attn", d_model, d_model, "v")
        self.o = model._affine(f"{name}.attn", d_model, d_model, "o")
        self.ln1 = _LayerNorm(model, d_model, f"{name}.ln1")
        self.ffn1 = model._affine(f"{name}.ffn", d_model, ffn, "1")
        self.ffn2 = model._affine(f"{name}.ffn", ffn, d_model, "2")
        self.ln2 = _LayerNorm(model, d_model, f"{name}.ln2")

    def halves(self, model: Model, training: bool) -> list:
        """The attention half, then the feed-forward half, as two stages."""

        def attention(h: Tensor) -> Tensor:
            attn = ops.multi_head_attention(h, *self.q, self.w_k, *self.v, *self.o, self.n_heads)
            return self.ln1(ops.add(h, model._drop(attn, training)))

        def feed_forward(h: Tensor) -> Tensor:
            ff = ops.dense(h, *self.ffn1)
            ff = model._drop(self.ffn_act(ff), training)
            ff = ops.dense(ff, *self.ffn2)
            return self.ln2(ops.add(h, model._drop(ff, training)))

        return [attention, feed_forward]


class EEGNet(Model):
    """Compact convolutional decoder: temporal filters, spatial filters,
    separable temporal refinement, two pooling stages.

    The first two stages run in the other order (see ``_front``): the
    spatial filters mix the input's channels, then the temporal filters
    run on the few mixed maps, so the (B, f1, C, T) map of the temporal
    filters over every channel is never built.

    There is no batch norm between the temporal and the spatial
    convolution (Lawhern et al.'s first one).  Both are linear, and bn2
    normalizes each (f, d) map with its batch statistics, so it cancels
    any per-feature shift and scale applied ahead of the depthwise
    spatial layer: only the epsilon under its square root would differ.
    """

    arch = "eegnet"
    TEMPORAL_KERNEL = 25
    SEPARABLE_KERNEL = 16

    def __init__(self, **kw):
        super().__init__(**kw)
        f1, depth, f2 = self.f1, self.depth, self.f2
        # time steps left after pooling by 4 and then 8; the head reads all of them
        self.n_pooled = self.n_samples // 4 // 8
        if self.n_pooled == 0:
            raise UsageError(f"eegnet needs at least 32 samples, got {self.n_samples}")
        k = self.TEMPORAL_KERNEL
        self.w_temporal = self._uniform("temporal.w", (f1, 1, k), k)
        self.w_spatial = self._uniform("spatial.w", (f1, depth, self.n_channels), self.n_channels)
        self.bn2 = _BatchNorm(self, f1 * depth, "bn2")
        ks = self.SEPARABLE_KERNEL
        self.w_sep_depth = self._uniform("separable.depth", (f1 * depth, ks), ks)
        self.w_sep_point = self._uniform("separable.point", (f2, f1 * depth), f1 * depth)
        self.bn3 = _BatchNorm(self, f2, "bn3")
        self.head = self._affine("head", f2 * self.n_pooled, self.n_classes)

    def _front(self, x: np.ndarray) -> Tensor:
        """Temporal conv -> depthwise spatial conv, (B, C, T) ->
        (B, f1 * depth, 1, T), without the (B, f1, C, T) temporal map.

        Both convolutions are linear, on different axes, so they commute:
        the spatial filters mix the input's channels first, and each
        temporal band M_f then runs on its f's depth mixed maps.  No batch
        norm sits between them: bn2, after this linear depthwise layer,
        cancels any per-feature affine map one could apply here.
        """
        f1, depth, C, T = self.f1, self.depth, self.n_channels, self.n_samples
        B = x.shape[0]
        # one (f1 * depth, C) @ (C, B * T) product; its rows are (f, d), its columns (b, t)
        by_channel = constant(np.ascontiguousarray(x.transpose(1, 0, 2)).reshape(C, B * T))
        mixed = ops.matmul(ops.reshape(self.w_spatial, (f1 * depth, C)), by_channel)
        bands = ops.banded(ops.reshape(self.w_temporal, (f1, self.TEMPORAL_KERNEL)), T)
        h = ops.matmul(ops.reshape(mixed, (f1, depth * B, T)), bands)
        h = ops.transpose(ops.reshape(h, (f1 * depth, B, T)), (1, 0, 2))
        return ops.reshape(h, (B, f1 * depth, 1, T))

    def stages(self, training):
        def front(x):
            h = self.bn2(self._front(self._input(x)), training)
            h = ops.elu(h)
            h = ops.avg_pool_time(h, 4)
            return self._drop(h, training)

        def separable(h):
            h = ops.pointwise_conv(ops.depthwise_conv_time(h, self.w_sep_depth), self.w_sep_point)
            h = self.bn3(h, training)
            h = ops.elu(h)
            h = ops.avg_pool_time(h, 8)
            return self._drop(h, training)

        def head(h):
            h = ops.reshape(h, (h.data.shape[0], self.f2 * self.n_pooled))
            return ops.dense(h, *self.head)

        return [front, separable, head]


class LstmNet(Model):
    """Stacked LSTM over the channel vector sequence; last hidden state
    feeds the classification head."""

    arch = "lstm"

    def __init__(self, **kw):
        super().__init__(**kw)
        self.cells = []
        for layer in range(self.layers):
            in_dim = self.n_channels if layer == 0 else self.hidden
            self.cells.append(
                (
                    self._uniform(f"lstm{layer}.w_ih", (in_dim, 4 * self.hidden), in_dim),
                    self._uniform(f"lstm{layer}.w_hh", (self.hidden, 4 * self.hidden), self.hidden),
                    self._uniform(f"lstm{layer}.b", (4 * self.hidden,), self.hidden),
                )
            )
        self.head = self._affine("head", self.hidden, self.n_classes)

    def stages(self, training):
        def layer(i):
            def run(h):
                if i == 0:
                    h = constant(np.ascontiguousarray(self._input(h).transpose(0, 2, 1)))
                h = ops.lstm_layer(h, *self.cells[i])
                return self._drop(h, training) if i + 1 < self.layers else h

            return run

        def head(h):
            last = ops.reshape(
                ops.narrow(h, 1, self.n_samples - 1, 1), (h.data.shape[0], self.hidden)
            )
            last = self._drop(last, training)
            return ops.dense(last, *self.head)

        return [*map(layer, range(self.layers)), head]


class Dgcnn(Model):
    """Chebyshev graph convolutions over a learned channel graph.

    One adjacency is shared by every layer.  Its normalized Laplacian is
    rescaled by the fixed spectral bound lambda_max = 2 (Kipf & Welling,
    ICLR 2017, section 2.2), so no estimate of it enters the forward.
    """

    arch = "dgcnn"

    def __init__(self, **kw):
        super().__init__(**kw)
        adj = self._init_rng.uniform(0.01, 0.05, size=(self.n_channels, self.n_channels))
        np.fill_diagonal(adj, 0.0)
        self.adj = self._register("adjacency", adj)
        self.cheb: list[tuple[list[Parameter], Parameter]] = []
        for layer in range(self.layers):
            in_dim = self.n_samples if layer == 0 else self.hidden
            thetas = [
                self._uniform(f"cheb{layer}.theta{j}", (in_dim, self.hidden), in_dim)
                for j in range(self.k)
            ]
            bias = self._uniform(f"cheb{layer}.b", (self.hidden,), in_dim)
            self.cheb.append((thetas, bias))
        self.node = self._affine("node", self.hidden, self.node_dense)
        self.head = self._affine("head", self.node_dense, self.n_classes)

    def stages(self, training):
        def layer(i):
            def run(h):
                if i == 0:
                    h = constant(self._input(h))
                thetas, bias = self.cheb[i]
                return ops.relu(ops.chebyshev_graph_conv(h, thetas, self.adj, bias))

            return run

        def head(h):
            h = ops.relu(ops.dense(h, *self.node))
            h = ops.mean_axis(h, axis=1)
            h = self._drop(h, training)
            return ops.dense(h, *self.head)

        return [*map(layer, range(self.layers)), head]


class TransformerNet(Model):
    """Encoder-only transformer over the time axis with mean pooling."""

    arch = "transformer"

    def __init__(self, **kw):
        super().__init__(**kw)
        self.input = self._affine("input", self.n_channels, self.d_model)
        self.blocks = [
            _EncoderBlock(self, self.d_model, self.heads, self.ffn, f"block{i}", ffn_act=ops.relu)
            for i in range(self.layers)
        ]
        self.head = self._affine("head", self.d_model, self.n_classes)

    def stages(self, training):
        def embed(x):
            seq = constant(np.ascontiguousarray(self._input(x).transpose(0, 2, 1)))
            h = ops.dense(seq, *self.input)
            pe = ops.sinusoidal_positions(self.n_samples, self.d_model, dtype=self.dtype)
            h = ops.add(h, pe)
            return self._drop(h, training)

        def head(h):
            pooled = ops.mean_axis(h, axis=1)
            return ops.dense(pooled, *self.head)

        halves = [half for block in self.blocks for half in block.halves(self, training)]
        return [embed, *halves, head]


class Conformer(Model):
    """Convolutional front end feeding an encoder stack and a wide head.

    The temporal/spatial convolutions tokenize the epoch into 25 tokens
    of width F; the flattened encoder output passes through one hidden
    head layer.  The two convolutions run in the other order (see
    ``_front``), so the (B, F, C, T) temporal map is never built.
    """

    arch = "conformer"
    TEMPORAL_KERNEL = 25
    POOL = 2

    def __init__(self, **kw):
        super().__init__(**kw)
        if self.n_samples < self.POOL:
            raise UsageError(f"conformer needs at least {self.POOL} samples, got {self.n_samples}")
        k = self.TEMPORAL_KERNEL
        f = self.f
        # the conv stack feeds batch norm, which subtracts any
        # per-channel constant, so conv biases here would never train
        self.w_temporal = self._uniform("temporal.w", (f, 1, k), k)
        fan = f * self.n_channels
        self.w_spatial = self._uniform("spatial.w", (f, fan), fan)
        self.bn = _BatchNorm(self, f, "bn")
        self.blocks = [
            # elu throughout, matching the conv stack and the head
            _EncoderBlock(self, f, self.heads, 4 * f, f"block{i}", ffn_act=ops.elu)
            for i in range(self.layers)
        ]
        self.n_tokens = self.n_samples // self.POOL
        self.head1 = self._affine("head", self.n_tokens * f, self.head_hidden, "1")
        self.head2 = self._affine("head", self.head_hidden, self.n_classes, "2")

    def _front(self, x: np.ndarray) -> Tensor:
        """Temporal conv -> full spatial conv, (B, C, T) -> (B, f, 1, T),
        without the (B, f, C, T) temporal map.

        Both convolutions are linear, on different axes, so they commute.
        The spatial weight w[o, g * C + c] first mixes the input's
        channels for every (o, g); the temporal band M_g of feature g then
        runs on those maps, and the sum over g is the one product below.
        """
        B, f, T = x.shape[0], self.f, self.n_samples
        mixed = ops.matmul(ops.reshape(self.w_spatial, (f * f, self.n_channels)), constant(x))
        bands = ops.banded(ops.reshape(self.w_temporal, (f, self.TEMPORAL_KERNEL)), T)
        h = ops.matmul(ops.reshape(mixed, (B * f, f * T)), ops.reshape(bands, (f * T, T)))
        return ops.reshape(h, (B, f, 1, T))

    def stages(self, training):
        def front(x):
            x = self._input(x)
            h = self.bn(self._front(x), training)
            h = ops.elu(h)
            h = ops.avg_pool_time(h, self.POOL)
            h = self._drop(h, training)
            tokens = ops.transpose(ops.reshape(h, (x.shape[0], self.f, self.n_tokens)), (0, 2, 1))
            pe = ops.sinusoidal_positions(self.n_tokens, self.f, dtype=self.dtype)
            return ops.add(tokens, pe)

        def head(tokens):
            flat = ops.reshape(tokens, (tokens.data.shape[0], self.n_tokens * self.f))
            h = ops.elu(ops.dense(flat, *self.head1))
            h = self._drop(h, training)
            return ops.dense(h, *self.head2)

        halves = [half for block in self.blocks for half in block.halves(self, training)]
        return [front, *halves, head]


_ARCH_CLASSES = {cls.arch: cls for cls in (EEGNet, LstmNet, Dgcnn, TransformerNet, Conformer)}


def build_model(arch: str, size: str, **kw) -> Model:
    """One decoder; ``kw`` are the other ``Model`` constructor fields."""
    if arch not in _ARCH_CLASSES:
        raise UsageError(f"unknown architecture {arch!r}; choose from {ARCHITECTURES}")
    return _ARCH_CLASSES[arch](size=size, **kw)


@dataclass
class AuditRow:
    arch: str
    size: str
    params: int
    target: int
    deviation: float

    @property
    def within_budget(self) -> bool:
        return abs(self.deviation) <= PARAM_TOLERANCE


def audit_params() -> list[AuditRow]:
    """Instantiate every (architecture, size) cell and compare budgets."""
    rows = []
    for (arch, size), (_, target) in CELLS.items():
        count = build_model(arch, size, seed=0).n_params
        rows.append(AuditRow(arch, size, count, target, (count - target) / target))
    return rows


def format_audit(rows: list[AuditRow]) -> str:
    lines = [f"{'arch':<12} {'size':<7} {'params':>9} {'target':>9} {'dev':>8}  budget"]
    for r in rows:
        flag = "ok" if r.within_budget else "OVER"
        lines.append(
            f"{r.arch:<12} {r.size:<7} {r.params:>9} {r.target:>9} {r.deviation:>+7.1%}  {flag}"
        )
    return "\n".join(lines)


def _state(model: Model) -> dict[str, np.ndarray]:
    """The checkpoint's tensor map: every parameter, then every buffer, by prefixed name."""
    state = {f"param:{name}": p.data for name, p in model.named_params()}
    state.update({f"buffer:{name}": buf for name, buf in model.named_buffers()})
    return state


def save_model(path, model: Model) -> None:
    eegb.save_checkpoint(path, model.descriptor(), _state(model))


def load_model(path) -> Model:
    """Rebuild a model from a checkpoint; shapes and names must round-trip."""
    descriptor, tensors = eegb.load_checkpoint(path)
    check_fields(descriptor, Model.DESCRIPTOR_FIELDS, path, MetaMismatchError)
    fields = {name: descriptor[name] for name in Model.DESCRIPTOR_FIELDS}
    try:
        model = build_model(**fields)
    except UsageError as exc:
        raise MetaMismatchError(f"{path}: checkpoint describes no buildable model: {exc}") from exc
    state = _state(model)
    if state.keys() != tensors.keys():
        missing = sorted(state.keys() - tensors.keys())[:5]
        extra = sorted(tensors.keys() - state.keys())[:5]
        raise MetaMismatchError(
            f"{path}: checkpoint tensors do not match the described model "
            f"(missing {missing}, unexpected {extra})"
        )
    for name, arr in state.items():
        stored = tensors[name]
        if stored.shape != arr.shape:
            raise MetaMismatchError(
                f"{path}: tensor {name!r} has shape {stored.shape}, model expects {arr.shape}"
            )
        arr[...] = stored  # a fresh model: every momentum is still zero
    return model
