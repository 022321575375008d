import io
import math

import numpy as np
import pytest

from featagg.sparse import SparseMatrix, SparseVec
from featagg.xcmetrics import (
    Prediction,
    coverage_at_k,
    load_predictions,
    ndcg_at_k,
    percentile_macro_precision,
    precision_at_k,
    propensities,
    psndcg_at_k,
    psp_at_k,
    save_predictions,
)


def label_matrix(label_sets, n_labels):
    rows = []
    for labels in label_sets:
        labels = sorted(labels)
        rows.append(SparseVec(n_labels, labels, np.ones(len(labels))))
    return SparseMatrix.from_rows(rows, n_labels)


def ranked(labels):
    labels = np.asarray(labels, dtype=np.int64)
    return Prediction(labels, np.arange(len(labels), 0, -1, dtype=np.float64))


class TestPrediction:
    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError):
            Prediction(np.array([1, 1]), np.array([2.0, 1.0]))

    def test_rejects_increasing_scores(self):
        with pytest.raises(ValueError):
            Prediction(np.array([0, 1]), np.array([1.0, 2.0]))


class TestPrecisionAtK:
    def test_two_of_three(self):
        preds = [ranked([1, 2, 3])]
        truth = label_matrix([{1, 3}], 5)
        assert precision_at_k(preds, truth, 3) == pytest.approx(2 / 3)

    def test_perfect_ranking(self):
        preds = [ranked([0, 1, 2])]
        truth = label_matrix([{0, 1, 2, 3}], 5)
        assert precision_at_k(preds, truth, 3) == 1.0

    def test_empty_truth_contributes_zero(self):
        preds = [ranked([0]), ranked([1])]
        truth = label_matrix([set(), {1}], 3)
        assert precision_at_k(preds, truth, 1) == 0.5

    def test_short_list_errors(self):
        preds = [ranked([0])]
        truth = label_matrix([{0}], 2)
        with pytest.raises(ValueError):
            precision_at_k(preds, truth, 2)


class TestNdcgAtK:
    def test_perfect_top_k(self):
        preds = [ranked([4, 2, 0])]
        truth = label_matrix([{0, 2, 4}], 5)
        assert ndcg_at_k(preds, truth, 3) == pytest.approx(1.0)

    def test_single_truth_at_rank_two(self):
        preds = [ranked([5, 0, 3])]
        truth = label_matrix([{0}], 6)
        expected = (1 / math.log(3)) / (1 / math.log(2))
        assert ndcg_at_k(preds, truth, 3) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(math.log(2) / math.log(3), rel=1e-12)

    def test_empty_truth_contributes_zero(self):
        preds = [ranked([0, 1]), ranked([0, 1])]
        truth = label_matrix([set(), {0}], 3)
        assert ndcg_at_k(preds, truth, 2) == pytest.approx(0.5)


class TestPropensities:
    def test_tends_to_one_for_popular_labels(self):
        # p approaches 1 from below as the label frequency grows
        values = []
        for n in (100, 10_000, 1_000_000):
            y = SparseMatrix(
                n, 1, np.arange(n + 1), np.zeros(n, dtype=np.int64),
                np.ones(n), validate=False,
            )
            values.append(propensities(y).p[0])
        assert values[0] < values[1] < values[2] <= 1.0
        assert 1.0 - values[2] < 0.05

    def test_monotone_in_frequency(self):
        sets = [{0} for _ in range(1000)] + [{1} for _ in range(10)]
        sets += [set() for _ in range(9000)]
        model = propensities(label_matrix(sets, 3))
        assert model.p[0] > model.p[1] > model.p[2]

    def test_golden_value(self):
        # closed form evaluated independently: n=100, N_l=5, A=0.55, B=1.5
        sets = [{0} for _ in range(5)] + [set() for _ in range(95)]
        model = propensities(label_matrix(sets, 1), A=0.55, B=1.5)
        c = (math.log(100) - 1.0) * (1.5 + 1.0) ** 0.55
        expected = 1.0 / (1.0 + c * math.exp(-0.55 * math.log(5 + 1.5)))
        assert model.p[0] == pytest.approx(expected, rel=1e-12)
        assert model.p[0] == pytest.approx(0.3193, abs=5e-5)

    def test_in_unit_interval(self):
        sets = [{0}] + [set()] * 9
        model = propensities(label_matrix(sets, 2))
        assert np.all(model.p > 0) and np.all(model.p <= 1)

    @pytest.mark.parametrize("A, B, message", [
        (0.55, -1.5, "B must be finite and positive, got -1.5"),
        (0.55, -1.0, "B must be finite and positive, got -1.0"),
        (0.55, 0.0, "B must be finite and positive, got 0.0"),
        (0.55, math.inf, "B must be finite and positive, got inf"),
        (0.55, math.nan, "B must be finite and positive, got nan"),
        (-0.1, 1.5, "A must be finite and nonnegative, got -0.1"),
        (math.inf, 1.5, "A must be finite and nonnegative, got inf"),
        (math.nan, 1.5, "A must be finite and nonnegative, got nan"),
    ])
    def test_rejects_parameters_outside_domain(self, A, B, message):
        with pytest.raises(ValueError, match=message):
            propensities(label_matrix([{0}, {1}, {0}], 2), A=A, B=B)

    def test_rejects_propensities_outside_unit_interval(self):
        # two points make log(n) - 1 negative: an unseen label's formula value
        # is -0.42 at A = 1, B = 0.1
        with pytest.raises(ValueError, match=r"fall outside \(0, 1\]"):
            propensities(label_matrix([{0}, {0}], 2), A=1.0, B=0.1)

    def test_zero_exponent_is_flat(self):
        model = propensities(label_matrix([{0}] * 5 + [set()] * 5, 2), A=0.0)
        assert model.p == pytest.approx(np.full(2, 1.0 / math.log(10)), rel=1e-15)


class TestPropensityScored:
    def test_reduces_to_plain_metrics_at_unit_propensity(self, rng):
        n_labels = 12
        preds, sets = [], []
        for _ in range(30):
            order = rng.permutation(n_labels)[:6]
            preds.append(ranked(order))
            sets.append(set(rng.choice(n_labels, size=int(rng.integers(0, 4)),
                                       replace=False).tolist()))
        truth = label_matrix(sets, n_labels)
        from featagg.xcmetrics import PropensityModel
        unit = PropensityModel(p=np.ones(n_labels), A=0.55, B=1.5)
        for k in (1, 3, 5):
            assert psp_at_k(preds, truth, unit, k) == pytest.approx(
                precision_at_k(preds, truth, k), rel=1e-12
            )
            assert psndcg_at_k(preds, truth, unit, k) == pytest.approx(
                ndcg_at_k(preds, truth, k), rel=1e-12
            )

    def test_rare_label_first_scores_one(self):
        sets = [{0} for _ in range(50)] + [{1}]
        y_train = label_matrix(sets, 2)
        model = propensities(y_train)
        preds = [ranked([1])]
        truth = label_matrix([{1}], 2)
        assert psp_at_k(preds, truth, model, 1) == pytest.approx(1.0)

    def test_bounded_by_one(self, rng):
        n_labels = 10
        model = propensities(
            label_matrix([{int(rng.integers(n_labels))} for _ in range(200)],
                         n_labels)
        )
        for _ in range(20):
            preds = [ranked(rng.permutation(n_labels)[:5])]
            truth = label_matrix(
                [set(rng.choice(n_labels, size=3, replace=False).tolist())],
                n_labels,
            )
            assert 0.0 <= psp_at_k(preds, truth, model, 3) <= 1.0 + 1e-12
            assert 0.0 <= psndcg_at_k(preds, truth, model, 3) <= 1.0 + 1e-12


class TestCoverage:
    def test_all_truth_at_rank_one(self):
        preds = [ranked([0]), ranked([1])]
        truth = label_matrix([{0}, {1}], 3)
        assert coverage_at_k(preds, truth, 1) == 1.0

    def test_constant_predictor(self):
        preds = [ranked([0]) for _ in range(4)]
        truth = label_matrix([{0}, {1}, {2}, {0, 3}], 4)
        # four distinct truth labels; only label 0 ever covered
        assert coverage_at_k(preds, truth, 1) == pytest.approx(1 / 4)

    def test_monotone_in_k(self, rng):
        n_labels = 8
        preds = [ranked(rng.permutation(n_labels)) for _ in range(10)]
        truth = label_matrix(
            [set(rng.choice(n_labels, 2, replace=False).tolist())
             for _ in range(10)],
            n_labels,
        )
        values = [coverage_at_k(preds, truth, k) for k in range(1, n_labels + 1)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


class TestPercentileMacroPrecision:
    def test_single_bucket_is_macro_average(self):
        preds = [ranked([0]), ranked([0]), ranked([1])]
        truth = label_matrix([{0}, {1}, {1}], 2)
        # label 0: predicted twice, correct once -> 0.5; label 1: 1/1 -> 1.0
        y_train = label_matrix([{0}, {0}, {1}], 2)
        out = percentile_macro_precision(preds, truth, y_train, 1, [(0, 100)])
        assert out == [pytest.approx((0.5 + 1.0) / 2)]

    def test_never_predicted_label_counts_zero(self):
        preds = [ranked([0])]
        truth = label_matrix([{1}], 2)
        y_train = label_matrix([{0}, {1}], 2)
        out = percentile_macro_precision(preds, truth, y_train, 1, [(0, 100)])
        assert out == [0.0]

    def test_two_label_buckets_match_brute_force(self):
        # popular label 0 (3 train hits), rare label 1 (1 train hit)
        y_train = label_matrix([{0}, {0}, {0}, {1}], 2)
        preds = [ranked([0]), ranked([1]), ranked([1])]
        truth = label_matrix([{0}, {0}, {1}], 2)
        out = percentile_macro_precision(
            preds, truth, y_train, 1, [(0, 50), (50, 100)]
        )
        # brute force: label 0 predicted once (correct) -> 1.0 in bucket 0;
        # label 1 predicted twice, correct once -> 0.5 in bucket 1
        assert out[0] == pytest.approx(1.0)
        assert out[1] == pytest.approx(0.5)

    @pytest.mark.parametrize("buckets, valid", [
        ([(0, 100)], True),
        ([(0, 50), (50, 100)], True),
        ([(0, 30), (30, 70), (70, 100)], True),
        ([(0, 50)], False),  # stops short of 100
        ([(0, 60), (40, 100)], False),  # labels in 40-60 counted twice
        ([(50, 0)], False),  # lo > hi
        ([(0, 50), (50, 50), (50, 100)], False),  # empty range
        ([(50, 100), (0, 50)], False),  # out of order
        ([], False),
    ])
    def test_buckets_must_partition_in_order(self, rng, buckets, valid):
        n_labels = 10
        preds = [ranked(rng.permutation(n_labels)[:3]) for _ in range(20)]
        truth = label_matrix([set(rng.choice(n_labels, 2, replace=False).tolist())
                              for _ in range(20)], n_labels)
        y_train = label_matrix([{i % n_labels} for i in range(25)], n_labels)
        if valid:
            out = percentile_macro_precision(preds, truth, y_train, 1, buckets)
            assert len(out) == len(buckets)
        else:
            with pytest.raises(ValueError, match="partition"):
                percentile_macro_precision(preds, truth, y_train, 1, buckets)


class TestInputChecks:
    """Mismatched inputs fail loudly instead of truncating or wrapping."""

    def test_every_metric_rejects_length_mismatch(self):
        # one prediction for three points: zip would silently score only it
        preds = [ranked([0])]
        truth = label_matrix([{0}, {1}, {2}], 3)
        y_train = label_matrix([{0}, {1}], 3)
        model = propensities(y_train)
        calls = [
            lambda: precision_at_k(preds, truth, 1),
            lambda: ndcg_at_k(preds, truth, 1),
            lambda: psp_at_k(preds, truth, model, 1),
            lambda: psndcg_at_k(preds, truth, model, 1),
            lambda: coverage_at_k(preds, truth, 1),
            lambda: percentile_macro_precision(preds, truth, y_train, 1, [(0, 100)]),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="one prediction per test point"):
                call()

    def test_too_many_predictions_rejected(self):
        preds = [ranked([0]), ranked([1])]
        truth = label_matrix([{0}], 2)
        with pytest.raises(ValueError):
            coverage_at_k(preds, truth, 1)

    @pytest.mark.parametrize("label", [2, 7, -1])
    def test_percentile_rejects_out_of_range_label(self, label):
        preds = [ranked([0]), ranked([label])]
        truth = label_matrix([{0}, {1}], 2)
        y_train = label_matrix([{0}, {1}], 2)
        with pytest.raises(ValueError, match="outside"):
            percentile_macro_precision(preds, truth, y_train, 1, [(0, 100)])


class TestPredictionIO:
    def test_round_trip(self):
        preds = [
            Prediction(np.array([3, 1]), np.array([0.75, 0.25])),
            Prediction(np.array([], dtype=np.int64), np.array([])),
        ]
        buf = io.BytesIO()
        save_predictions(preds, buf)
        buf.seek(0)
        again = load_predictions(buf)
        assert len(again) == 2
        assert np.array_equal(again[0].labels, preds[0].labels)
        assert np.array_equal(again[0].scores, preds[0].scores)
        assert again[1].labels.shape == (0,)
