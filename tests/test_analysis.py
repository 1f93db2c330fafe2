"""Analysis layer: peak metrics, paired tests, reports."""

import csv
import json
import math
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neurodecode import analysis
from neurodecode.analysis import (
    category_table,
    compare_decoders,
    paired_ttest,
    peak_metric,
    per_object_accuracy,
)
from neurodecode.errors import DataError


def rows_for(accs):
    return [{"epoch": i + 1, "test_acc": a} for i, a in enumerate(accs)]


class TestPeakMetric:
    def test_window_means(self):
        # cycle ends 5 and 10: windows are epochs 1-5 and 6-10, means 0.3 and 0.8
        accs = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
        assert analysis.peak_windows([5, 10]) == [range(1, 6), range(6, 11)]
        np.testing.assert_allclose(peak_metric(rows_for(accs), [5, 10], "max_last5"), 0.8)
        np.testing.assert_allclose(peak_metric(rows_for(accs), [5, 10], "mean_last5"), 0.55)

    def test_mean_vs_max(self):
        accs = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
        mx = peak_metric(rows_for(accs), [5, 10], "max_last5")
        mn = peak_metric(rows_for(accs), [5, 10], "mean_last5")
        assert type(mx) is float and type(mn) is float
        np.testing.assert_allclose(mx, 0.8)
        np.testing.assert_allclose(mn, 0.55)

    def test_partial_first_window(self):
        # a cycle ending at epoch 3 only has 3 epochs to average
        accs = [0.2, 0.4, 0.6]
        assert analysis.peak_windows([3]) == [range(1, 4)]
        np.testing.assert_allclose(peak_metric(rows_for(accs), [3], "max_last5"), 0.4)
        np.testing.assert_allclose(peak_metric(rows_for(accs), [3], "mean_last5"), 0.4)

    def test_truncated_final_cycle(self):
        # a 20-epoch budget cuts the second cycle at 20: windows 11-15 and 16-20
        accs = [0.5] * 15 + [0.7] * 5
        assert analysis.peak_windows([15, 20]) == [range(11, 16), range(16, 21)]
        np.testing.assert_allclose(peak_metric(rows_for(accs), [15, 20], "max_last5"), 0.7)
        np.testing.assert_allclose(peak_metric(rows_for(accs), [15, 20], "mean_last5"), 0.6)

    def test_bad_kind_and_empty(self):
        with pytest.raises(DataError, match="peak metric"):
            peak_metric(rows_for([0.5]), [1], "best")
        with pytest.raises(DataError, match="empty"):
            peak_metric([], [5], "max_last5")


class TestPairedTtest:
    def test_df1_t1(self):
        res = paired_ttest([0.0, 2.0], [0.0, 0.0])
        assert res.df == 1
        np.testing.assert_allclose(res.t, 1.0)
        np.testing.assert_allclose(res.p, 0.5, atol=1e-12)

    def test_df1_t2(self):
        res = paired_ttest([1.0, 3.0], [0.0, 0.0])
        np.testing.assert_allclose(res.t, 2.0)
        np.testing.assert_allclose(res.p, 0.2951672353008664, atol=1e-12)

    def test_df10_frozen(self):
        a = [4.0, 6.0, 3.0, 5.0, 8.0, 2.0, 7.0, 5.0, 4.0, 6.0, 5.0]
        b = [3.0, 6.0, 4.0, 4.0, 6.0, 3.0, 5.0, 5.0, 3.0, 6.0, 4.0]
        res = paired_ttest(a, b)
        assert res.df == 10
        np.testing.assert_allclose(res.t, 1.7466675292187457, rtol=1e-12)
        np.testing.assert_allclose(res.p, 0.11127906485691494, rtol=1e-10)
        assert not res.degenerate

    def test_identical_samples_degenerate(self):
        res = paired_ttest([0.5, 0.6, 0.7], [0.5, 0.6, 0.7])
        assert res.degenerate
        assert res.t == 0.0
        assert res.p == 1.0
        assert res.mean_diff == 0.0

    def test_constant_nonzero_diff_degenerate(self):
        res = paired_ttest([1.0, 1.0], [0.0, 0.0])
        assert res.degenerate
        assert res.t == math.inf
        assert res.p == 0.0
        res2 = paired_ttest([0.0, 0.0], [1.0, 1.0])
        assert res2.t == -math.inf

    def test_shape_validation(self):
        with pytest.raises(DataError):
            paired_ttest([1.0, 2.0], [1.0])
        with pytest.raises(DataError):
            paired_ttest([1.0], [2.0])


class TestPerObject:
    def _records(self):
        recs = []
        for cid, name, cat, lab, hits in [
            (1, "dog 1", "animal", 1, [1, 1, 1, 1]),
            (2, "cat 1", "animal", 1, [1, 0, 1, 0]),
            (3, "saw 1", "tool", 0, [1, 1, 0, 1]),
            (4, "axe 1", "weapon", 0, [0, 0, 0, 0]),
        ]:
            for h in hits:
                recs.append(
                    {
                        "concept_id": cid,
                        "concept_name": name,
                        "category": cat,
                        "label": lab,
                        "pred": lab if h else 1 - lab,
                    }
                )
        return recs

    def test_descending_with_name_tiebreak(self):
        rows = per_object_accuracy(self._records())
        assert [r.concept_name for r in rows] == ["dog 1", "saw 1", "cat 1", "axe 1"]
        np.testing.assert_allclose([r.accuracy for r in rows], [1.0, 0.75, 0.5, 0.0])

    def test_tie_alphabetical(self):
        recs = [
            {"concept_id": 1, "concept_name": "zebra", "category": "animal", "label": 1, "pred": 1},
            {"concept_id": 2, "concept_name": "ant", "category": "animal", "label": 1, "pred": 1},
        ]
        rows = per_object_accuracy(recs)
        assert [r.concept_name for r in rows] == ["ant", "zebra"]

    def test_category_table_order_and_means(self):
        rows = category_table(per_object_accuracy(self._records()))
        # alive block first in canonical order, then nonliving
        assert [r.category for r in rows] == ["animal", "tool", "weapon"]
        animal = rows[0]
        assert animal.label == 1
        assert animal.n_objects == 2
        assert animal.n_trials == 8
        # unweighted object mean: (1.0 + 0.5)/2, trial counts ignored
        np.testing.assert_allclose(animal.mean_accuracy, 0.75)

    def test_unknown_category_goes_last(self):
        recs = self._records() + [
            {"concept_id": 9, "concept_name": "x", "category": "zz-custom", "label": 0, "pred": 0}
        ]
        rows = category_table(per_object_accuracy(recs))
        assert rows[-1].category == "zz-custom"
        assert rows[-1].label is None


class TestCompare:
    def test_ranking_by_mean_then_name(self):
        rep = compare_decoders(
            {
                "eegnet": [0.9, 0.92, 0.91],
                "lstm": [0.80, 0.82, 0.81],
                "dgcnn": [0.9, 0.92, 0.91],
            },
            ["seed 0", "seed 1", "seed 2"],
        )
        assert [r.name for r in rep.ranking] == ["dgcnn", "eegnet", "lstm"]
        assert len(rep.pairwise) == 3
        names = {(a, b) for a, b, _ in rep.pairwise}
        assert ("dgcnn", "eegnet") in names

    def test_unequal_seed_counts_rejected(self):
        with pytest.raises(DataError, match="unequal"):
            compare_decoders({"a": [0.9, 0.8], "b": [0.7]}, ["seed 0", "seed 1"])
        with pytest.raises(DataError, match="unequal"):
            compare_decoders({"a": [0.9, 0.8], "b": [0.7, 0.6]}, ["seed 0"])

    def test_single_decoder_rejected(self):
        with pytest.raises(DataError, match=">= 2"):
            compare_decoders({"a": [0.9, 0.8]}, ["seed 0", "seed 1"])


class TestSvg:
    def test_line_chart_is_valid_xml(self):
        svg = analysis.svg_line_chart(
            {"eegnet": ([1, 2, 3], [0.5, 0.7, 0.9])},
            title="learning curve",
            xlabel="epoch",
            ylabel="test accuracy",
        )
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert "learning curve" in svg

    def test_bar_chart_is_valid_xml(self):
        svg = analysis.svg_bar_chart(
            ["eegnet", "lstm"], [0.93, 0.71], title="peaks", xlabel="decoder"
        )
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")

    def test_labels_escaped(self):
        svg = analysis.svg_bar_chart(
            ["a<b&c"], [0.5], title="t<&>", xlabel="x"
        )
        ET.fromstring(svg)  # would blow up on raw < or &

    @given(st.text(alphabet="&<>;amplgt x", max_size=12))
    def test_escape_matches_saxutils(self, text):
        from xml.sax.saxutils import escape

        assert analysis._escape(text) == escape(text)


class TestEmitReport:
    def test_report_files(self, tmp_path):
        from neurodecode.data import SynthConfig, generate_synthetic, split
        from neurodecode.models import build_model
        from neurodecode.training import TrainConfig, train

        data = split(generate_synthetic(SynthConfig(mode="linear", n_trials=64, seed=0)), 0.25, 0)
        runs = []
        for seed in (0, 1):
            rd = tmp_path / f"run{seed}"
            train(
                build_model("eegnet", "small", seed=seed),
                data,
                TrainConfig(epochs=2, batch_size=16, seed=seed),
                run_dir=rd,
            )
            runs.append(rd)
        out = tmp_path / "report"
        paths = analysis.emit_report(analysis.collect_runs([str(r) for r in runs]), out)
        produced = {f.name for f in out.iterdir()}
        assert {
            "metrics.csv",
            "training_curves.csv",
            "training_curves.svg",
            "object_accuracy.csv",
            "object_comparison.svg",
            "category_table.csv",
        } <= produced
        assert all(p.exists() for p in paths.values())
        for name in ("training_curves.svg", "object_comparison.svg"):
            ET.fromstring((out / name).read_text())
        header = (out / "metrics.csv").read_text().splitlines()[0]
        assert "max_last5" in header or "metric" in header


def write_run(root, arch, seed, accs, size="small", subject=None, cycle_ends=None):
    """A minimal run directory in the layout ``training.train`` writes;
    one restart cycle over ``accs`` unless ``cycle_ends`` says otherwise."""
    rd = root / f"{arch}-{size}-s{seed}"
    rd.mkdir(parents=True)
    manifest = {
        "arch": arch, "size": size, "seed": seed, "subject": subject,
        "cycle_ends": cycle_ends or [len(accs)],
    }
    (rd / "manifest.json").write_text(json.dumps(manifest))
    rows = [
        {"epoch": i + 1, "lr": 0.01, "train_loss": 0.5, "test_loss": 0.5, "test_acc": a}
        for i, a in enumerate(accs)
    ]
    (rd / "history.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
    (rd / "predictions.csv").write_text(
        "trial_id,subject,concept_id,concept_name,category,label,pred\n"
        "0,1,0,animal 000,animal,1,1\n"
    )
    return rd


class TestCollectRuns:
    PEAKS = {
        ("eegnet", 0): 0.6,
        ("eegnet", 1): 0.7,
        ("eegnet", 2): 0.8,
        ("lstm", 0): 0.5,
        ("lstm", 1): 0.9,
        ("lstm", 2): 0.4,
    }

    def test_pairs_in_seed_order_whatever_the_run_order(self, tmp_path):
        dirs = [write_run(tmp_path, arch, seed, [acc]) for (arch, seed), acc in self.PEAKS.items()]
        shuffled = [dirs[i] for i in (4, 2, 0, 5, 1, 3)]
        runs = analysis.collect_runs(shuffled)
        assert [r.name for r in runs] == [str(d) for d in shuffled]
        labels = ["seed 0", "seed 1", "seed 2"]
        metrics = {"eegnet-small": [0.6, 0.7, 0.8], "lstm-small": [0.5, 0.9, 0.4]}
        assert analysis.pair_by_seed(runs) == (labels, metrics)
        text, *_ = analysis.analyze(shuffled, tmp_path / "report")
        assert text == "peak metric: max_last5\n" + compare_decoders(metrics, labels).format()
        assert "eegnet-small   mean 0.7000  [seed 0: 0.6000, seed 1: 0.7000, seed 2: 0.8000]" in text
        assert (tmp_path / "report" / "comparison.txt").read_text() == text + "\n"

    def test_sizes_of_one_architecture_stay_apart(self, tmp_path):
        dirs = [write_run(tmp_path, "eegnet", seed, [acc]) for seed, acc in ((0, 0.6), (1, 0.7))]
        dirs += [
            write_run(tmp_path, "eegnet", seed, [acc], size="medium")
            for seed, acc in ((0, 0.99), (1, 0.98))
        ]
        assert analysis.pair_by_seed(analysis.collect_runs(dirs)) == (
            ["seed 0", "seed 1"],
            {"eegnet-small": [0.6, 0.7], "eegnet-medium": [0.99, 0.98]},
        )

    def test_repeated_cell_and_seed_is_a_data_error(self, tmp_path):
        first = write_run(tmp_path / "a", "eegnet", 0, [0.6])
        second = write_run(tmp_path / "b", "eegnet", 0, [0.7])
        runs = analysis.collect_runs([first, write_run(tmp_path, "lstm", 0, [0.5]), second])
        pattern = f"{re.escape(str(first))} and {re.escape(str(second))} are both eegnet-small seed 0"
        with pytest.raises(DataError, match=pattern):
            analysis.pair_by_seed(runs)

    def test_runs_of_one_seed_pair_by_subject(self, tmp_path):
        peaks = {("eegnet", 1): 0.6, ("eegnet", 2): 0.7, ("lstm", 1): 0.5, ("lstm", 2): 0.9}
        dirs = [
            write_run(tmp_path / f"sub{subject:02d}", arch, 0, [acc], subject=subject)
            for (arch, subject), acc in reversed(peaks.items())
        ]
        assert analysis.pair_by_seed(analysis.collect_runs(dirs)) == (
            ["subject 1 seed 0", "subject 2 seed 0"],
            {"lstm-small": [0.5, 0.9], "eegnet-small": [0.6, 0.7]},
        )
        again = write_run(tmp_path / "again", "lstm", 0, [0.8], subject=2)
        with pytest.raises(DataError, match="are both lstm-small subject 2 seed 0"):
            analysis.pair_by_seed(analysis.collect_runs(dirs + [again]))

    def test_two_subject_comparison_labels_each_value_with_its_subject(self, tmp_path):
        peaks = {("eegnet", 1): 0.6, ("eegnet", 2): 0.7, ("lstm", 1): 0.5, ("lstm", 2): 0.9}
        dirs = [
            write_run(tmp_path / f"sub{subject:02d}", arch, 0, [acc], subject=subject)
            for (arch, subject), acc in peaks.items()
        ]
        text, *_ = analysis.analyze(dirs, tmp_path / "report")
        ranking = text.splitlines()[2:4]
        assert ranking == [
            "  1. lstm-small     mean 0.7000  [subject 1 seed 0: 0.5000, subject 2 seed 0: 0.9000]",
            "  2. eegnet-small   mean 0.6500  [subject 1 seed 0: 0.6000, subject 2 seed 0: 0.7000]",
        ]

    def test_per_subject_runs_are_ranked_by_mean_last5(self, tmp_path):
        # eegnet's two cycles peak at 0.9 and 0.5 (max 0.9, mean 0.7); lstm's at 0.8 twice
        accs = {"eegnet": [0.9] * 5 + [0.5] * 5, "lstm": [0.8] * 10}
        dirs = [
            write_run(tmp_path / f"sub{subject:02d}", arch, 0, accs[arch], subject=subject,
                      cycle_ends=[5, 10])
            for arch in accs
            for subject in (1, 2)
        ]
        runs = analysis.collect_runs(dirs)
        assert [run.headline for run in runs] == ["mean_last5"] * 4
        assert [run.peak("max_last5") for run in runs[:2]] == pytest.approx([0.9, 0.9])
        text, *_ = analysis.analyze(dirs, tmp_path / "report")
        assert text.splitlines()[:3] == [
            "peak metric: mean_last5",
            "ranking (by mean peak metric):",
            "  1. lstm-small     mean 0.8000  [subject 1 seed 0: 0.8000, subject 2 seed 0: 0.8000]",
        ]

    def test_metrics_csv_names_each_runs_subject(self, tmp_path):
        dirs = [
            write_run(tmp_path / "cross", "eegnet", 0, [0.6]),
            write_run(tmp_path / "sub02", "eegnet", 0, [0.7], subject=2),
        ]
        analysis.analyze(dirs, tmp_path / "report")
        with open(tmp_path / "report" / "metrics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(row["run"], row["subject"]) for row in rows] == [(str(dirs[0]), ""), (str(dirs[1]), "2")]

    def test_same_named_run_directories_stay_apart_in_the_report(self, tmp_path):
        dirs = [write_run(tmp_path / side, "eegnet", 0, [0.6], subject=s) for s, side in ((1, "a"), (2, "b"))]
        analysis.analyze(dirs, tmp_path / "report")
        svg = ET.parse(tmp_path / "report" / "training_curves.svg").getroot()
        assert len(svg.findall("{http://www.w3.org/2000/svg}polyline")) == 2
        metrics = (tmp_path / "report" / "metrics.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in metrics] == [str(d) for d in dirs]

    def test_runs_that_do_not_pair_leave_no_report(self, tmp_path):
        dirs = [write_run(tmp_path / side, "eegnet", 0, [0.6]) for side in ("a", "b")]
        with pytest.raises(DataError, match="are both eegnet-small seed 0"):
            analysis.analyze(dirs, tmp_path / "report")
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize("runs", [
        [("eegnet", 0), ("lstm", 0)],  # one seed
        [("eegnet", 0), ("eegnet", 1), ("lstm", 0), ("lstm", 2)],  # seed sets differ
        [("eegnet", 0), ("eegnet", 1)],  # one architecture
    ])
    def test_unpaired_runs_are_not_compared(self, tmp_path, runs):
        dirs = [write_run(tmp_path, arch, seed, [self.PEAKS[arch, seed]]) for arch, seed in runs]
        collected = analysis.collect_runs(dirs)
        assert analysis.pair_by_seed(collected) is None
        lines = analysis.analyze(dirs, tmp_path / "report")
        assert all(re.match(r"\w+: ", line) for line in lines)
        assert not (tmp_path / "report" / "comparison.txt").exists()

    def test_runs_of_mixed_kind_are_not_compared(self, tmp_path):
        # a cross-subject run scores by max_last5, a one-subject run by mean_last5:
        # one ranking cannot average the two
        dirs = [
            write_run(tmp_path / side, arch, 0, [acc], subject=subject)
            for side, subject in (("cross", None), ("sub01", 1))
            for arch, acc in (("eegnet", 0.6), ("lstm", 0.9))
        ]
        assert analysis.pair_by_seed(analysis.collect_runs(dirs)) is None
        lines = analysis.analyze(dirs, tmp_path / "report")
        assert all(re.match(r"\w+: ", line) for line in lines)
        assert not (tmp_path / "report" / "comparison.txt").exists()

    def test_a_manifest_with_extra_fields_still_reads(self, tmp_path):
        # run directories written before predictions.csv came from the final
        # model carry a best epoch and no batch size
        rd = write_run(tmp_path, "eegnet", 0, [0.6])
        manifest = json.loads((rd / "manifest.json").read_text())
        manifest.update(best_epoch=1, best_windowed_test_acc=0.6)
        (rd / "manifest.json").write_text(json.dumps(manifest))
        (run,) = analysis.collect_runs([rd])
        assert run.manifest["best_epoch"] == 1 and "batch_size" not in run.manifest
        assert run.peak(run.headline) == 0.6

    @pytest.mark.parametrize("damage", [
        lambda rd: (rd / "manifest.json").unlink(),
        lambda rd: (rd / "manifest.json").write_text('{"arch": "eeg'),
        lambda rd: (rd / "manifest.json").write_text('{"arch": "eegnet"}'),
        lambda rd: (rd / "history.jsonl").write_text('{"epoch": 1, "test_acc"\n'),
        lambda rd: (rd / "history.jsonl").write_text('{"epoch": 1}\n'),
        lambda rd: (rd / "history.jsonl").write_text("\n"),
        lambda rd: (rd / "predictions.csv").unlink(),
        lambda rd: (rd / "predictions.csv").write_text("trial_id,pred\n0,1\n"),
        lambda rd: (rd / "history.jsonl").write_text(
            '{"epoch": 1, "lr": 0.01, "train_loss": 0.5, "test_loss": 0.5, "test_acc": "high"}\n'
        ),
        lambda rd: (rd / "predictions.csv").write_text(
            "trial_id,subject,concept_id,concept_name,category,label,pred\n"
            "0,1,0,animal 000,animal,x,1\n"
        ),
    ])
    def test_bad_run_files_are_data_errors(self, tmp_path, damage):
        rd = write_run(tmp_path, "eegnet", 0, [0.6])
        damage(rd)
        with pytest.raises(DataError, match=re.escape(str(rd))):
            analysis.collect_runs([rd])

    def test_no_runs(self):
        with pytest.raises(DataError, match="no run directories"):
            analysis.collect_runs([])


@settings(max_examples=40, deadline=None)
@given(
    d=st.lists(st.floats(-5, 5), min_size=2, max_size=12),
    shift=st.floats(-2, 2),
)
def test_ttest_symmetry_property(d, shift):
    a = np.asarray(d)
    b = a + shift
    fwd = paired_ttest(a, b)
    rev = paired_ttest(b, a)
    assert 0.0 <= fwd.p <= 1.0
    assert fwd.p == rev.p
    if not fwd.degenerate:
        np.testing.assert_allclose(fwd.t, -rev.t, rtol=1e-12)
