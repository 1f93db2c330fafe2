"""Decoder architectures: budgets, shapes, checkpoints."""

import numpy as np
import pytest

from neurodecode import models
from neurodecode.autodiff import Tensor, ops
from neurodecode.errors import MetaMismatchError, UsageError
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
        m = build_model("eegnet", "small", seed=0, dropout=0.5)
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

        def recording(self, g):
            seen.add(g.dtype)
            accumulate(self, g)

        monkeypatch.setattr(Tensor, "accumulate", recording)
        loss = m.loss(small_batch(4), np.array([0, 1, 1, 0]), training=True)
        loss.backward()
        assert loss.data.dtype == np.float32
        assert seen == {np.dtype(np.float32)}
        assert all(p.grad.dtype == np.float32 for p in m.params())


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

    def test_param_order_preserved(self, tmp_path):
        m = build_model("conformer", "small", seed=0)
        p = tmp_path / "m.ckpt"
        models.save_model(p, m)
        back = models.load_model(p)
        assert [n for n, _ in back.named_params()] == [n for n, _ in m.named_params()]


class TestRegistry:
    def test_build_model_forwards_every_descriptor_field(self):
        fields = dict(seed=2, dropout=0.1, n_classes=3, n_channels=8, n_samples=40)
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
