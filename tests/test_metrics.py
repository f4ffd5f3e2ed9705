"""Tests for confusion tallying, pixel accuracy, and IoU."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ccfmap.errors import DataError
from ccfmap.metrics import (
    ConfusionMatrix,
    confusion,
    evaluate,
    mean_iou,
    pixel_accuracy,
)

UNLABELED = 255


def _cm(counts, abstain=None, skipped=0):
    counts = np.asarray(counts, dtype=np.int64)
    k = counts.shape[0]
    if abstain is None:
        abstain = np.zeros(k, dtype=np.int64)
    return ConfusionMatrix(
        counts=counts, abstain=np.asarray(abstain, dtype=np.int64), skipped=int(skipped)
    )


def _brute_force(pred, truth, k):
    """Per-pixel python tally, the slow way."""
    counts = np.zeros((k, k), dtype=np.int64)
    abstain = np.zeros(k, dtype=np.int64)
    skipped = 0
    for t, p in zip(truth.ravel(), pred.ravel()):
        if t == UNLABELED:
            skipped += 1
        elif p == UNLABELED:
            abstain[t] += 1
        else:
            counts[t, p] += 1
    return counts, abstain, skipped


class TestHandCases:
    def test_perfect(self):
        cm = _cm([[5, 0], [0, 5]])
        assert pixel_accuracy(cm) == 1.0
        per_class, mean = mean_iou(cm)
        assert per_class == (1.0, 1.0)
        assert mean == 1.0

    def test_mixed(self):
        cm = _cm([[3, 1], [2, 4]])
        assert pixel_accuracy(cm) == 0.7
        per_class, mean = mean_iou(cm)
        # class 0: 3 / (3 + 2 + 1), class 1: 4 / (4 + 1 + 2)
        assert per_class[0] == pytest.approx(0.5, abs=1e-15)
        assert per_class[1] == pytest.approx(4.0 / 7.0, abs=1e-15)
        assert mean == pytest.approx(15.0 / 28.0, abs=1e-12)
        assert round(mean, 4) == 0.5357

    def test_all_wrong(self):
        cm = _cm([[0, 4], [4, 0]])
        assert pixel_accuracy(cm) == 0.0
        per_class, mean = mean_iou(cm)
        assert per_class == (0.0, 0.0)
        assert mean == 0.0

    def test_abstain_penalizes(self):
        pred = np.array([[0, UNLABELED, 1]], dtype=np.uint8)
        truth = np.array([[0, 0, 1]], dtype=np.uint8)
        cm = confusion(pred, truth)
        np.testing.assert_array_equal(cm.counts, [[1, 0], [0, 1]])
        np.testing.assert_array_equal(cm.abstain, [1, 0])
        assert cm.total == 3
        assert pixel_accuracy(cm) == pytest.approx(2.0 / 3.0, abs=1e-15)
        per_class, _ = mean_iou(cm)
        assert per_class[0] == 0.5  # abstained pixel counts as a miss
        assert per_class[1] == 1.0

    def test_unlabeled_truth_skipped(self):
        pred = np.array([[1, 1]], dtype=np.uint8)
        truth = np.array([[UNLABELED, 1]], dtype=np.uint8)
        cm = confusion(pred, truth)
        assert cm.skipped == 1
        assert cm.total == 1
        assert pixel_accuracy(cm) == 1.0

    def test_abstain_on_unlabeled_is_just_skipped(self):
        pred = np.full((2, 2), UNLABELED, dtype=np.uint8)
        truth = np.full((2, 2), UNLABELED, dtype=np.uint8)
        cm = confusion(pred, truth)
        assert cm.skipped == 4
        assert cm.abstain.sum() == 0
        assert cm.total == 0


class TestConfusionValidation:
    def test_shape_mismatch(self):
        with pytest.raises(DataError, match="shape"):
            confusion(np.zeros((2, 2), np.uint8), np.zeros((2, 3), np.uint8))

    def test_illegal_pred_label(self):
        pred = np.array([[2]], dtype=np.uint8)
        truth = np.array([[0]], dtype=np.uint8)
        with pytest.raises(DataError, match="^pred contains illegal value 2 at pixel index 0$"):
            confusion(pred, truth, n_classes=2)

    def test_illegal_truth_label(self):
        pred = np.array([[0]], dtype=np.uint8)
        truth = np.array([[254]], dtype=np.uint8)
        with pytest.raises(
            DataError, match="^truth contains illegal value 254 at pixel index 0$"
        ):
            confusion(pred, truth, n_classes=2)

    def test_n_classes_lower_bound(self):
        with pytest.raises(DataError, match="n_classes"):
            confusion(np.zeros((1, 1), np.uint8), np.zeros((1, 1), np.uint8), n_classes=1)

    @pytest.mark.parametrize("k", [255, 256])
    def test_n_classes_upper_bound(self, k):
        # 255 is UNLABELED, so it cannot also be a class index
        with pytest.raises(DataError, match=r"n_classes must be in \[2, 255\)"):
            confusion(np.zeros((1, 1), np.uint8), np.zeros((1, 1), np.uint8), n_classes=k)

    def test_largest_n_classes_accepted(self):
        pred = np.array([[253, UNLABELED, 0]], dtype=np.uint8)
        truth = np.array([[253, 253, UNLABELED]], dtype=np.uint8)
        cm = confusion(pred, truth, n_classes=254)
        assert cm.counts.shape == (254, 254)
        assert cm.counts[253, 253] == 1 and cm.abstain[253] == 1 and cm.skipped == 1

    @pytest.mark.parametrize("counts, abstain, skipped, pattern", [
        (np.zeros((2, 3)), np.zeros(2), 0, r"counts must be square, got shape \(2, 3\)"),
        (np.zeros(4), np.zeros(2), 0, r"counts must be square, got shape \(4,\)"),
        (np.zeros((2, 2)), np.zeros(3), 0, r"abstain must have one entry per class"),
        (np.zeros((2, 2)), np.zeros((2, 1)), 0, r"abstain must have one entry per class"),
        ([[1, -1], [0, 0]], np.zeros(2), 0, "negative tallies"),
        (np.zeros((2, 2)), [0, -2], 0, "negative tallies"),
        (np.zeros((2, 2)), np.zeros(2), -1, "negative tallies"),
    ])
    def test_confusion_matrix_rejects_malformed_tallies(self, counts, abstain, skipped,
                                                        pattern):
        with pytest.raises(DataError, match=pattern):
            ConfusionMatrix(counts, abstain, skipped)

    def test_three_class_values_accepted(self):
        pred = np.array([[2, 0]], dtype=np.uint8)
        truth = np.array([[2, 1]], dtype=np.uint8)
        cm = confusion(pred, truth, n_classes=3)
        assert cm.counts[2, 2] == 1
        assert cm.counts[1, 0] == 1


class TestAgainstBruteForce:
    def test_random_pairs(self):
        rng = np.random.default_rng(99)
        for trial in range(100):
            h = int(rng.integers(1, 33))
            w = int(rng.integers(1, 33))
            k = 2 if trial % 3 else 3
            values = list(range(k)) + [UNLABELED]
            pred = rng.choice(values, size=(h, w)).astype(np.uint8)
            truth = rng.choice(values, size=(h, w)).astype(np.uint8)
            counts, abstain, skipped = _brute_force(pred, truth, k)
            cm = confusion(pred, truth, n_classes=k)
            np.testing.assert_array_equal(cm.counts, counts)
            np.testing.assert_array_equal(cm.abstain, abstain)
            assert cm.skipped == skipped
            total = counts.sum() + abstain.sum()
            if total == 0:
                with pytest.raises(DataError):
                    pixel_accuracy(cm)
            else:
                want = counts.trace() / total
                assert abs(pixel_accuracy(cm) - want) <= 1e-12

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_dtypes_and_class_counts(self, dtype, k):
        rng = np.random.default_rng(k)
        values = np.array(list(range(k)) + [UNLABELED])
        pred = rng.choice(values, size=(17, 23)).astype(dtype)
        truth = rng.choice(values, size=(17, 23)).astype(dtype)
        assert (pred == UNLABELED).any() and (truth == UNLABELED).any()
        counts, abstain, skipped = _brute_force(pred, truth, k)
        cm = confusion(pred, truth, n_classes=k)
        np.testing.assert_array_equal(cm.counts, counts)
        np.testing.assert_array_equal(cm.abstain, abstain)
        assert cm.skipped == skipped

    @pytest.mark.parametrize("pred_dtype,truth_dtype", [(np.float64, np.float64),
                                                       (bool, np.uint8)])
    def test_labels_of_any_dtype_tally_as_uint8(self, pred_dtype, truth_dtype):
        rng = np.random.default_rng(12)
        pred_values = [0, 1] if pred_dtype is bool else [0, 1, UNLABELED]
        pred = rng.choice(np.array(pred_values, np.uint8), size=(14, 9))
        truth = rng.choice(np.array([0, 1, UNLABELED], np.uint8), size=(14, 9))
        want = evaluate(pred, truth)
        p, t = pred.astype(pred_dtype), truth.astype(truth_dtype)
        got = evaluate(p, t)
        for cm in (confusion(p, t), got.confusion):
            np.testing.assert_array_equal(cm.counts, want.confusion.counts)
            np.testing.assert_array_equal(cm.abstain, want.confusion.abstain)
            assert cm.skipped == want.confusion.skipped
        assert (got.pixel_accuracy, got.iou_per_class, got.mean_iou) == (
            want.pixel_accuracy, want.iou_per_class, want.mean_iou)

    def test_row_chunks_are_additive(self):
        rng = np.random.default_rng(5)
        pred = rng.choice([0, 1, UNLABELED], size=(20, 9)).astype(np.uint8)
        truth = rng.choice([0, 1, UNLABELED], size=(20, 9)).astype(np.uint8)
        full = confusion(pred, truth)
        top = confusion(pred[:8], truth[:8])
        bottom = confusion(pred[8:], truth[8:])
        np.testing.assert_array_equal(full.counts, top.counts + bottom.counts)
        np.testing.assert_array_equal(full.abstain, top.abstain + bottom.abstain)
        assert full.skipped == top.skipped + bottom.skipped

    def test_label_permutation_invariance(self):
        rng = np.random.default_rng(6)
        pred = rng.choice([0, 1, UNLABELED], size=(15, 15)).astype(np.uint8)
        truth = rng.choice([0, 1, UNLABELED], size=(15, 15)).astype(np.uint8)
        swap = {0: 1, 1: 0, UNLABELED: UNLABELED}
        pred_s = np.vectorize(swap.get)(pred).astype(np.uint8)
        truth_s = np.vectorize(swap.get)(truth).astype(np.uint8)
        a = evaluate(pred, truth)
        b = evaluate(pred_s, truth_s)
        assert a.pixel_accuracy == b.pixel_accuracy
        assert a.iou_per_class == tuple(reversed(b.iou_per_class))
        assert a.mean_iou == b.mean_iou


class TestIou:
    def test_bounded_by_precision_and_recall(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            counts = rng.integers(0, 50, size=(2, 2)).astype(np.int64)
            counts += np.eye(2, dtype=np.int64)  # keep both unions nonzero
            cm = _cm(counts)
            per_class, _ = mean_iou(cm)
            for c in range(2):
                tp = counts[c, c]
                recall = tp / counts[c].sum()
                precision_d = counts[:, c].sum()
                if precision_d:
                    assert per_class[c] <= tp / precision_d + 1e-15
                assert per_class[c] <= recall + 1e-15

    def test_zero_union_excluded_from_mean(self):
        counts = np.zeros((3, 3), dtype=np.int64)
        counts[0, 0] = 4
        counts[1, 1] = 2
        cm = _cm(counts)
        per_class, mean = mean_iou(cm)
        assert per_class == (1.0, 1.0, None)
        assert mean == 1.0

    def test_abstain_lands_in_union(self):
        cm = _cm([[2, 0], [0, 2]], abstain=[2, 0])
        per_class, _ = mean_iou(cm)
        assert per_class[0] == 0.5  # 2 TP / (2 TP + 2 FN-by-abstain)
        assert per_class[1] == 1.0

    def test_empty_matrix_undefined(self):
        cm = _cm(np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(DataError, match="no evaluated pixels"):
            mean_iou(cm)

    @given(st.integers(1, 5).flatmap(lambda k: st.tuples(
        hnp.arrays(np.int64, (k, k), elements=st.integers(0, 3)),
        hnp.arrays(np.int64, (k,), elements=st.integers(0, 3)),
    )))
    def test_positive_total_has_a_defined_class(self, tallies):
        cm = _cm(*tallies)
        assume(cm.total > 0)
        per_class, mean = mean_iou(cm)
        defined = [v for v in per_class if v is not None]
        # a labeled pixel's truth class always has a union
        truth_rows = cm.counts.sum(axis=1) + cm.abstain
        assert all(per_class[c] is not None for c in np.flatnonzero(truth_rows))
        assert defined and mean == sum(defined) / len(defined)
        assert 0.0 <= mean <= 1.0


class TestPixelAccuracy:
    def test_no_evaluated_pixels(self):
        cm = _cm(np.zeros((2, 2), dtype=np.int64), skipped=10)
        with pytest.raises(DataError, match="no evaluated pixels"):
            pixel_accuracy(cm)


class TestEvaluate:
    def test_report_fields_consistent(self):
        rng = np.random.default_rng(8)
        pred = rng.choice([0, 1, UNLABELED], size=(12, 10)).astype(np.uint8)
        truth = rng.choice([0, 1, UNLABELED], size=(12, 10)).astype(np.uint8)
        report = evaluate(pred, truth)
        cm = report.confusion
        assert report.evaluated_pixels == cm.total
        assert report.skipped_pixels == cm.skipped
        assert report.evaluated_pixels + report.skipped_pixels == 120
        assert report.pixel_accuracy == pixel_accuracy(cm)
        assert report.iou_per_class == mean_iou(cm)[0]
        assert report.mean_iou == mean_iou(cm)[1]

    def test_peak_memory_per_pixel(self):
        # a fully labeled 1024^2 pair: the label check costs 2 B/px, and the
        # tally's codes and their intp cast one slice, not the whole pair
        rng = np.random.default_rng(9)
        pred = rng.choice(np.array([0, 1, UNLABELED], np.uint8), size=(1024, 1024))
        truth = rng.choice(np.array([0, 1], np.uint8), size=(1024, 1024))
        tracemalloc.start()
        try:
            evaluate(pred, truth)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * truth.size

    def test_all_unlabeled_truth_raises(self):
        pred = np.zeros((3, 3), dtype=np.uint8)
        truth = np.full((3, 3), UNLABELED, dtype=np.uint8)
        with pytest.raises(DataError, match="no evaluated pixels"):
            evaluate(pred, truth)
