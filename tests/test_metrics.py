import numpy as np
import pytest

from fcspn import data as D
from fcspn import metrics as ME


def test_confusion_hand_case():
    ref = np.concatenate([np.ones(50, int), np.full(50, 2)])
    pred = ref.copy()
    pred[45:50] = 2
    pred[50:60] = 1
    cm = ME.confusion(pred.reshape(10, 10), ref.reshape(10, 10), classes=2)
    assert np.array_equal(cm.counts, [[45, 5], [10, 40]])


def test_confusion_counts_test_pixels_only():
    ref = D.LabelMap(np.array([[1, 1], [2, 2]]), ["a", "b"])
    pred = np.array([[1, 2], [2, 2]])
    mask = D.SplitMask(np.array([[1, 2], [2, 2]]))
    cm = ME.confusion(pred, ref, mask.test)
    assert cm.counts.sum() == 3
    assert np.array_equal(cm.counts, [[0, 1], [0, 2]])


def test_confusion_diagonal_when_perfect():
    rng = np.random.default_rng(0)
    ref = rng.integers(1, 5, (8, 8))
    cm = ME.confusion(ref, ref, classes=4)
    assert np.array_equal(cm.counts, np.diag(np.diag(cm.counts)))
    assert ME.oa(cm) == ME.aa(cm) == ME.kappa(cm) == 1.0


def test_confusion_empty_selection_errors():
    ref = np.array([[1]])
    with pytest.raises(ValueError, match="no pixels selected"):
        ME.confusion(ref, ref, mask=np.array([[False]]), classes=1)
    with pytest.raises(ValueError, match="no pixels selected"):
        ME.confusion(np.array([[1]]), np.array([[0]]), classes=1)


def test_confusion_pred_out_of_range():
    ref = np.array([[1, 2]])
    with pytest.raises(ValueError):
        ME.confusion(np.array([[1, 3]]), ref, classes=2)
    with pytest.raises(ValueError):
        ME.confusion(np.array([[0, 2]]), ref, classes=2)


def test_confusion_class_count_is_given_not_guessed():
    # the reference's largest id need not be the largest class
    cm = ME.confusion(np.array([[1, 2, 3]]), np.array([[1, 2, 2]]), classes=3)
    assert np.array_equal(cm.counts, [[1, 0, 0], [0, 1, 1], [0, 0, 0]])
    ref = D.LabelMap(np.array([[1, 2, 2]]), ["a", "b", "c"])
    assert np.array_equal(ME.confusion(np.array([[1, 2, 3]]), ref).counts, cm.counts)
    with pytest.raises(ValueError, match="class count"):
        ME.confusion(np.array([[1, 2, 3]]), np.array([[1, 2, 2]]))


def test_confusion_rejects_non_integer_ids():
    # a cast would read 1.9 as 1 and 2.7 as 2 and score a perfect map
    ref = D.LabelMap(np.array([[1, 2]]), ["a", "b"])
    with pytest.raises(ValueError, match="prediction ids must be integers"):
        ME.confusion(np.array([[1.9, 2.7]]), ref)
    with pytest.raises(ValueError, match="reference ids must be integers"):
        ME.confusion(np.array([[1, 2]]), np.array([[1.0, 2.0]]))


def test_unlabeled_reference_ignored():
    ref = np.array([[0, 1], [2, 0]])
    pred = np.array([[2, 1], [2, 1]])  # wrong only where unlabeled
    cm = ME.confusion(pred, ref, classes=2)
    assert cm.counts.sum() == 2
    assert ME.oa(cm) == 1.0


def test_scores_hand_case():
    cm = ME.ConfusionMatrix(np.array([[45, 5], [10, 40]]))
    assert ME.oa(cm) == pytest.approx(0.85, abs=1e-12)
    assert ME.aa(cm) == pytest.approx(0.85, abs=1e-12)
    assert ME.kappa(cm) == pytest.approx(0.70, abs=1e-12)


def test_aa_differs_from_oa_for_skewed_rows():
    cm = ME.ConfusionMatrix(np.array([[90, 10], [5, 5]]))
    assert ME.oa(cm) == pytest.approx(95 / 110, abs=1e-12)
    assert ME.aa(cm) == pytest.approx(0.5 * (0.9 + 0.5), abs=1e-12)


def test_aa_requires_nonzero_rows():
    with pytest.raises(ValueError, match="class 2"):
        ME.aa(ME.ConfusionMatrix(np.array([[3, 1], [0, 0]])))


def test_kappa_degenerate_marginals():
    assert ME.kappa(ME.ConfusionMatrix(np.array([[7, 0], [0, 0]]))) == 1.0
    # all reference mass in one class but predictions split: p_e < 1
    assert ME.kappa(ME.ConfusionMatrix(np.array([[5, 5], [0, 0]]))) == \
        pytest.approx(0.0, abs=1e-12)


def test_kappa_permutation_invariant():
    rng = np.random.default_rng(1)
    counts = rng.integers(0, 30, (5, 5))
    perm = rng.permutation(5)
    shuffled = ME.ConfusionMatrix(counts[np.ix_(perm, perm)])
    counts = ME.ConfusionMatrix(counts)
    assert ME.kappa(shuffled) == pytest.approx(ME.kappa(counts), abs=1e-12)
    assert ME.oa(shuffled) == pytest.approx(ME.oa(counts), abs=1e-12)


def test_kappa_below_oa():
    rng = np.random.default_rng(2)
    for _ in range(20):
        counts = ME.ConfusionMatrix(rng.integers(0, 50, (4, 4))
                                    + np.diag(rng.integers(10, 99, 4)))
        assert ME.kappa(counts) <= ME.oa(counts) + 1e-12


def test_kappa_random_predictions_near_zero():
    rng = np.random.default_rng(3)
    ref = rng.integers(1, 5, 10_000)
    pred = rng.integers(1, 5, 10_000)
    cm = ME.confusion(pred.reshape(100, 100), ref.reshape(100, 100), classes=4)
    assert abs(ME.kappa(cm)) < 0.05


def test_confusion_matrix_validation():
    with pytest.raises(ValueError):
        ME.ConfusionMatrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        ME.ConfusionMatrix(np.array([[1, -1], [0, 2]]))
    with pytest.raises(ValueError):
        ME.ConfusionMatrix(np.array([[0.5, 0], [0, 1]]))
    with pytest.raises(ValueError):
        ME.ConfusionMatrix(np.eye(2))  # integer counts only, integral floats too


def test_report_layout(tmp_path):
    cm = ME.ConfusionMatrix(np.array([[45, 5], [10, 40]]))
    rows = ME.format_report(cm, ["corn", "oats"])
    assert rows[0] == ["class", "accuracy"]
    assert rows[1] == ["corn", "90.00"]
    assert rows[2] == ["oats", "80.00"]
    assert rows[3] == ["OA", "85.00"]
    assert rows[4] == ["AA", "85.00"]
    assert rows[5] == ["kappa_x100", "70.00"]
    path = tmp_path / "report.csv"
    ME.write_report(rows, path)
    assert path.read_text().splitlines() == [",".join(row) for row in rows]


def test_report_perfect_prediction():
    rows = ME.format_report(ME.ConfusionMatrix(np.diag([7, 9, 4])), ["a", "b", "c"])
    assert rows[-3:] == [["OA", "100.00"], ["AA", "100.00"],
                         ["kappa_x100", "100.00"]]
