"""Decoder architectures: budgets, shapes, checkpoints."""

import hashlib
import inspect
import itertools

import numpy as np
import pytest

from neurodecode import models
from neurodecode.autodiff import Tensor, constant, ops
from neurodecode.errors import MetaMismatchError, NumericError, UsageError
from neurodecode.models import ARCHITECTURES, PARAM_TOLERANCE, SIZES, build_model


def small_batch(n=3, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, 63, 50)).astype(np.float32)


class TestBudgets:
    def test_audit_all_within_tolerance(self):
        rows = models.audit_params()
        assert len(rows) == 15
        for row in rows:
            assert abs(row.deviation) <= PARAM_TOLERANCE, (
                f"{row.arch}-{row.size}: {row.params} vs {row.target}"
            )

    def test_counts_are_stable(self):
        # frozen so an accidental layer-width edit shows up as a diff,
        # not a silent drift inside the 30% band
        expected = {
            ("eegnet", "small"): 1818,
            ("lstm", "small"): 4032,
            ("dgcnn", "small"): 9443,
            ("transformer", "small"): 3266,
            ("conformer", "small"): 36228,
        }
        for (arch, size), n in expected.items():
            assert build_model(arch, size, seed=0).n_params == n

    def test_sizes_ordered(self):
        for arch in ARCHITECTURES:
            counts = [build_model(arch, s, seed=0).n_params for s in SIZES]
            assert counts[0] < counts[1] < counts[2]

    def test_format_audit_is_text(self):
        text = models.format_audit(models.audit_params())
        assert "eegnet" in text and "ok" in text


class TestForward:
    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_logit_shape(self, arch):
        m = build_model(arch, "small", seed=0)
        out = m.forward(small_batch(4), training=False)
        assert out.data.shape == (4, 2)
        assert np.isfinite(out.data).all()

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_eval_forward_deterministic(self, arch):
        m = build_model(arch, "small", seed=0)
        x = small_batch(2)
        a = m.forward(x, training=False).data
        b = m.forward(x, training=False).data
        assert np.array_equal(a, b)

    def test_dropout_active_only_in_training(self):
        # dropout masks make repeated training-mode forwards differ;
        # eval mode must be mask-free
        m = build_model("eegnet", "small", seed=0)
        assert m.dropout == models.DROPOUT_BY_SIZE["small"]
        x = small_batch(8)
        t1 = m.forward(x, training=True).data
        t2 = m.forward(x, training=True).data
        assert not np.array_equal(t1, t2)

    def test_predict_labels(self):
        m = build_model("lstm", "small", seed=1)
        y = m.predict(small_batch(5))
        assert y.shape == (5,)
        assert set(np.unique(y)) <= {0, 1}

    def test_seed_controls_init(self):
        a = build_model("dgcnn", "small", seed=0)
        b = build_model("dgcnn", "small", seed=0)
        c = build_model("dgcnn", "small", seed=1)
        for (na, pa), (_, pb) in zip(a.named_params(), b.named_params()):
            assert np.array_equal(pa.data, pb.data), na
        assert any(
            not np.array_equal(pa.data, pc.data)
            for (_, pa), (_, pc) in zip(a.named_params(), c.named_params())
        )

    def test_four_class_head(self):
        m = build_model("eegnet", "small", seed=0, n_classes=4)
        out = m.forward(small_batch(3), training=False)
        assert out.data.shape == (3, 4)

    def test_unknown_arch_and_size(self):
        with pytest.raises(UsageError, match="arch"):
            build_model("cnn", "small")
        with pytest.raises(UsageError, match="size"):
            build_model("eegnet", "huge")


class TestDtypeContract:
    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_float32_model_computes_in_float32(self, arch, monkeypatch):
        # a float64 constant inside an op would lift everything after it to
        # float64 and leave the tape to cast each gradient back
        m = build_model(arch, "small", seed=0)
        seen = set()
        accumulate = Tensor.accumulate

        def recording(self, g, **kwargs):
            seen.add(g.dtype)
            accumulate(self, g, **kwargs)

        monkeypatch.setattr(Tensor, "accumulate", recording)
        loss = m.loss(small_batch(4), np.array([0, 1, 1, 0]), training=True)
        loss.backward()
        assert loss.data.dtype == np.float32
        assert seen == {np.dtype(np.float32)}
        assert all(p.grad.dtype == np.float32 for p in m.params())


# The front ends as first written: the temporal convolution builds the
# (B, F, C, T) map, which the spatial convolution then collapses.  Kept
# as the float64 oracle for the commuted fronts in models.py.
def eegnet_front_oracle(model, x):
    h = ops.conv_temporal(constant(x[:, None]), model.w_temporal)
    return ops.conv_spatial_depthwise(h, model.w_spatial)


def conformer_front_oracle(model, x):
    h = ops.conv_temporal(constant(x[:, None]), model.w_temporal)
    h = ops.reshape(h, (len(x), model.f * model.n_channels, 1, model.n_samples))
    return ops.pointwise_conv(h, model.w_spatial)


def with_oracle_front(model):
    """The model, its front end replaced by the oracle composition."""
    oracle = eegnet_front_oracle if model.arch == "eegnet" else conformer_front_oracle
    model._front = lambda x: oracle(model, x)
    return model


def with_bn1_front(model):
    """EEGNet as Lawhern et al. draw it: a batch norm without affine pair
    (unit gamma, zero beta, as constants) between the temporal and the
    depthwise spatial convolution."""
    unit = [constant(np.full(model.f1, v, dtype=model.dtype)) for v in (1.0, 0.0)]
    running = [np.zeros(model.f1), np.ones(model.f1)]

    def front(x):
        h = ops.conv_temporal(constant(x[:, None]), model.w_temporal)
        h = ops.batch_norm(h, *unit, *running, training=True)
        return ops.conv_spatial_depthwise(h, model.w_spatial)

    model._front = front
    return model


class TestFrontEquivalence:
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("arch", ["eegnet", "conformer"])
    def test_loss_gradients_and_buffers_match_the_oracle(self, arch, size):
        pair = [build_model(arch, size, seed=1), with_oracle_front(build_model(arch, size, seed=1))]
        for m in pair:
            m.to_float64()
        x = small_batch(3, seed=4).astype(np.float64)
        y = np.array([0, 1, 1])
        # two training passes move the buffers twice; evaluation then reads them
        for training in (True, True, False):
            losses = []
            for m in pair:
                m.zero_grad()
                loss = m.loss(x, y, training=training)
                loss.backward()
                losses.append(loss.data)
            new, old = pair
            np.testing.assert_allclose(losses[0], losses[1], rtol=1e-10)
            for (name, p), (_, q) in zip(new.named_params(), old.named_params()):
                np.testing.assert_allclose(p.grad, q.grad, rtol=1e-10, atol=1e-14, err_msg=name)
            for (name, a), (_, b) in zip(new.named_buffers(), old.named_buffers()):
                np.testing.assert_allclose(a, b, rtol=1e-10, err_msg=name)

    @pytest.mark.parametrize("arch", ["eegnet", "conformer"])
    def test_checkpoint_from_before_a_step_predicts_as_the_oracle(self, tmp_path, arch):
        from neurodecode.training import sgd_step

        m = build_model(arch, "small", seed=2)
        x, y = small_batch(8, seed=5), np.array([0, 1] * 4)
        m.forward(x, training=True)  # moves the buffers off their initial values
        p = tmp_path / "m.ckpt"
        models.save_model(p, m)
        expected = m.forward(x, training=False).data
        m.loss(x, y, training=True).backward()
        sgd_step(m.params(), 0.05)
        back = models.load_model(p)
        oracle = with_oracle_front(models.load_model(p))
        logits = back.forward(x, training=False).data
        np.testing.assert_array_equal(logits, expected)
        np.testing.assert_allclose(logits, oracle.forward(x, training=False).data, rtol=1e-4, atol=1e-5)
        np.testing.assert_array_equal(back.predict(x), oracle.predict(x))

    @pytest.mark.parametrize("size", SIZES)
    def test_eegnet_without_bn1_matches_the_model_with_it_at_zero_epsilon(self, size, monkeypatch):
        # bn2 normalizes every (f, d) map with its batch statistics, so a
        # per-feature affine map ahead of the linear spatial convolution
        # cancels, up to the epsilon under bn's square root
        monkeypatch.setattr(ops, "NORM_EPS", 0.0)
        pair = [build_model("eegnet", size, seed=1), with_bn1_front(build_model("eegnet", size, seed=1))]
        x = small_batch(3, seed=4).astype(np.float64)
        y = np.array([0, 1, 1])
        losses = []
        for m in pair:
            m.to_float64()
            loss = m.loss(x, y, training=True)
            loss.backward()
            losses.append(loss.data)
        np.testing.assert_allclose(losses[0], losses[1], rtol=1e-10)
        new, old = pair
        for (name, p), (_, q) in zip(new.named_params(), old.named_params()):
            np.testing.assert_allclose(p.grad, q.grad, rtol=1e-10, atol=1e-14, err_msg=name)

    def test_non_finite_input_raises_at_the_spatial_matmul_before_a_buffer_moves(self):
        m = build_model("eegnet", "small", seed=0)
        before = [b.copy() for _, b in m.named_buffers()]
        x = small_batch(4)
        x[2, 7, 11] = np.nan
        with pytest.raises(NumericError, match="'matmul'"):
            m.loss(x, np.array([0, 1, 1, 0]), training=True)
        for (name, b), old in zip(m.named_buffers(), before):
            assert np.array_equal(b, old), name


class TestConstantInput:
    # each of these models feeds its input straight into a ``dense``
    @pytest.mark.parametrize("arch", ["lstm", "transformer", "dgcnn"])
    def test_input_gets_no_gradient_and_parameter_gradients_keep_their_bytes(self, arch, monkeypatch):
        x, y = small_batch(4), np.array([0, 1, 1, 0])

        def grads():
            model = build_model(arch, "small", seed=0)
            model.loss(x, y, training=True).backward()
            return [p.grad.tobytes() for _, p in model.named_params()]

        inputs = []

        def recorded_constant(data):
            inputs.append(constant(data))
            return inputs[-1]

        monkeypatch.setattr(models, "constant", recorded_constant)
        as_constant = grads()
        assert len(inputs) == 1 and inputs[0].grad is None
        # the same input as a leaf that takes a gradient
        monkeypatch.setattr(models, "constant", lambda data: Tensor(data, requires_grad=True))
        assert grads() == as_constant


class TestCheckpoints:
    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_round_trip_bitwise(self, tmp_path, arch):
        m = build_model(arch, "small", seed=3)
        # buffers diverge from init once batch norm sees data
        m.forward(small_batch(6), training=False)
        p = tmp_path / f"{arch}.ckpt"
        models.save_model(p, m)
        back = models.load_model(p)
        assert back.descriptor() == m.descriptor()
        for (name, orig), (name2, new) in zip(m.named_params(), back.named_params()):
            assert name == name2
            assert np.array_equal(orig.data.view(np.uint8), new.data.view(np.uint8)), name
        for (name, orig), (_, new) in zip(m.named_buffers(), back.named_buffers()):
            assert np.array_equal(orig.view(np.uint8), new.view(np.uint8)), name

    def test_round_trip_predictions_identical(self, tmp_path):
        m = build_model("transformer", "small", seed=5)
        x = small_batch(4, seed=9)
        before = m.forward(x, training=False).data
        p = tmp_path / "m.ckpt"
        models.save_model(p, m)
        after = models.load_model(p).forward(x, training=False).data
        assert np.array_equal(before, after)

    def test_name_set_mismatch_rejected(self, tmp_path):
        from neurodecode import eegb

        m = build_model("eegnet", "small", seed=0)
        p = tmp_path / "m.ckpt"
        models.save_model(p, m)
        desc, tensors = eegb.load_checkpoint(p)
        key = next(iter(tensors))
        tensors["param:not_a_real_parameter"] = tensors.pop(key)
        eegb.save_checkpoint(p, desc, tensors)
        with pytest.raises(MetaMismatchError, match="not_a_real_parameter"):
            models.load_model(p)

    def test_eegnet_checkpoint_with_bn1_buffers_rejected(self, tmp_path):
        # eegnet once had a batch norm between its temporal and spatial convolutions
        from neurodecode import eegb

        p = tmp_path / "m.ckpt"
        models.save_model(p, build_model("eegnet", "small", seed=0))
        desc, tensors = eegb.load_checkpoint(p)
        tensors["buffer:bn1.running_mean"] = np.zeros(8)
        tensors["buffer:bn1.running_var"] = np.ones(8)
        eegb.save_checkpoint(p, desc, tensors)
        with pytest.raises(MetaMismatchError, match=r"unexpected \['buffer:bn1.running_mean'"):
            models.load_model(p)

    @pytest.mark.parametrize("name", ["param:temporal.w", "buffer:bn2.running_mean"])
    def test_wrongly_shaped_tensor_rejected(self, tmp_path, name):
        from neurodecode import eegb

        p = tmp_path / "m.ckpt"
        models.save_model(p, build_model("eegnet", "small", seed=0))
        desc, tensors = eegb.load_checkpoint(p)
        tensors[name] = np.concatenate([tensors[name].ravel(), tensors[name].ravel()[:1]])
        eegb.save_checkpoint(p, desc, tensors)
        with pytest.raises(MetaMismatchError, match=f"tensor '{name}' has shape"):
            models.load_model(p)

    @pytest.mark.parametrize("field", models.Model.DESCRIPTOR_FIELDS)
    def test_descriptor_missing_field_rejected(self, tmp_path, field):
        from neurodecode import eegb

        p = tmp_path / "m.ckpt"
        models.save_model(p, build_model("eegnet", "small", seed=0))
        desc, tensors = eegb.load_checkpoint(p)
        del desc[field]
        eegb.save_checkpoint(p, desc, tensors)
        with pytest.raises(MetaMismatchError, match=f"missing field '{field}'"):
            models.load_model(p)

    @pytest.mark.parametrize("arch, field, value", [
        ("eegnet", "arch", "cnn"),
        ("eegnet", "size", "huge"),
        ("eegnet", "n_classes", 0),
        ("eegnet", "n_channels", -1),
        ("eegnet", "n_samples", 0),
        ("conformer", "n_samples", 1),
    ])
    def test_descriptor_value_that_builds_no_model_rejected(self, tmp_path, arch, field, value):
        from neurodecode import eegb

        p = tmp_path / "m.ckpt"
        models.save_model(p, build_model(arch, "small", seed=0))
        desc, tensors = eegb.load_checkpoint(p)
        eegb.save_checkpoint(p, {**desc, field: value}, tensors)
        with pytest.raises(MetaMismatchError, match="describes no buildable model"):
            models.load_model(p)

    def test_descriptor_with_a_negative_seed_rejected(self, tmp_path):
        # numpy's seed sequences refuse it; the checkpoint is at fault, not the caller
        from neurodecode import eegb

        p = tmp_path / "m.ckpt"
        models.save_model(p, build_model("eegnet", "small", seed=0))
        desc, tensors = eegb.load_checkpoint(p)
        eegb.save_checkpoint(p, {**desc, "seed": -1}, tensors)
        with pytest.raises(MetaMismatchError, match="no buildable model: seed must be non-negative, got -1"):
            models.load_model(p)

    @pytest.mark.parametrize("dropout", [0.25, 0.1])
    def test_descriptor_with_the_old_dropout_key_loads(self, tmp_path, dropout):
        # checkpoints written before dropout was fixed by size carry the key;
        # it is ignored, and the model keeps its size's dropout
        from neurodecode import eegb

        p = tmp_path / "m.ckpt"
        m = build_model("conformer", "small", seed=3)
        models.save_model(p, m)
        desc, tensors = eegb.load_checkpoint(p)
        eegb.save_checkpoint(p, {**desc, "dropout": dropout}, tensors)
        back = models.load_model(p)
        assert back.dropout == models.DROPOUT_BY_SIZE["small"]
        x = small_batch(4, seed=5)
        logits = [model.forward(x, training=False).data for model in (back, m)]
        np.testing.assert_array_equal(*logits)

    def test_param_order_preserved(self, tmp_path):
        m = build_model("conformer", "small", seed=0)
        p = tmp_path / "m.ckpt"
        models.save_model(p, m)
        back = models.load_model(p)
        assert [n for n, _ in back.named_params()] == [n for n, _ in m.named_params()]


class TestRegistry:
    def test_constructor_and_descriptor_census(self):
        # a model's settings; change these only with Model, and say so in CHANGES.md
        keywords = ["size", "seed", "n_classes", "n_channels", "n_samples"]
        assert list(inspect.signature(models.Model.__init__).parameters)[1:] == keywords
        assert list(models.Model.DESCRIPTOR_FIELDS) == ["arch", *keywords]

    def test_build_model_forwards_every_descriptor_field(self):
        fields = dict(seed=2, n_classes=3, n_channels=8, n_samples=40)
        m = build_model("eegnet", "medium", **fields)
        assert m.descriptor() == dict(arch="eegnet", size="medium", **fields)

    def test_loss_is_the_mean_cross_entropy_tensor(self):
        m = build_model("lstm", "small", seed=0)
        x, y = small_batch(4), np.array([0, 1, 1, 0])
        loss = m.loss(x, y, training=False)
        assert isinstance(loss, Tensor)
        assert loss.data == ops.cross_entropy(m.forward(x, training=False), y).data

    def test_duplicate_parameter_name_rejected(self):
        m = build_model("eegnet", "small", seed=0)
        taken = m.named_params()[0][0]
        with pytest.raises(UsageError, match="duplicate"):
            m._register(taken, np.zeros(3, dtype=np.float32))

    def test_float64_conversion(self):
        m = build_model("lstm", "small", seed=0)
        m.to_float64()
        assert all(p.data.dtype == np.float64 for p in m.params())
        out = m.forward(small_batch(2), training=False)
        assert out.data.dtype == np.float64


def state_digest(model) -> str:
    """sha256 over the checkpoint tensor map: every name in order, its dtype, shape and bytes."""
    h = hashlib.sha256()
    for name, arr in models._state(model).items():
        h.update(f"{name} {arr.dtype.str} {arr.shape}\n".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


class TestCells:
    # every cell's seed-0 initial state; a change to a preset, a parameter
    # name, the registration order or an init bound shows up here
    GOLDEN = {
        ("eegnet", "small"): "eacb907995514c34f605b0b2c5f2f2862832dbf233bc18dc6237cddead92a151",
        ("eegnet", "medium"): "0b5540b920a7e2c9ed8f6942d48ed1e467a8bd9b1b33bc4740304a6760b72a7e",
        ("eegnet", "large"): "56d019ffccc2c5d90fef227c35520edcca48df38224d2a4317ade246633791e7",
        ("lstm", "small"): "858a610c9c8b5c737183176e8f747581ee3ed69fb982faa62cc198fdb6627c5f",
        ("lstm", "medium"): "d14c7a144b29960df15a873fd0275903538acbbffc3691bb08f2d391153b4e2b",
        ("lstm", "large"): "5387bb59d9a799c8dbd5b37cc6caf5a303d3f28c246739eedf77c344676cec38",
        ("dgcnn", "small"): "71d4b7bec2f5468db640c2ad7fd55da3047dcaf505d243cf819abf4a1c232a5f",
        ("dgcnn", "medium"): "4e4b9736480c3fbf3325fa5d7af77616d663e3bb136d2cdbf0c1e6c172475bbd",
        ("dgcnn", "large"): "3b6b83683d9fe91c09b1cc8bbb5739ebc8b2fe0f96e591a95477e4cd80000cc3",
        ("transformer", "small"): "e258176497365373751aa66607ab2f5b9987cc10b33b1491cfd8bc8ef484e152",
        ("transformer", "medium"): "73acb81ebfe5e59b623e99bbfe4928c9bac4252138da5a7e7b45a71e4b547edc",
        ("transformer", "large"): "a56e8d7c193ea5df7dd4f2444fa0ebfde98d4e52e3970abfdbf38d3866d6afcb",
        ("conformer", "small"): "809d9fcd8f9d41d00b3bfe82e4b5bc8a07349b04b0fc563f3db3bdd428a0e09d",
        ("conformer", "medium"): "a53910f900da2e34975cafd83f128e645421c420789d89714ddff9261bbf4c9a",
        ("conformer", "large"): "6b9d91c27b29074d1cda6d3d823ba6db5dff9d7f99b8c0f72b141f0071ab61d0",
    }

    @pytest.mark.parametrize("arch, size", list(GOLDEN))
    def test_initial_state_is_golden(self, arch, size):
        assert state_digest(build_model(arch, size, seed=0)) == self.GOLDEN[(arch, size)]

    def test_cells_are_the_grid_in_arch_major_order(self):
        assert list(models.CELLS) == list(itertools.product(ARCHITECTURES, SIZES))
        assert list(models._ARCH_CLASSES) == list(ARCHITECTURES)
