"""Metric definitions: hand-checked values and structural invariants."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from protodro.metrics import (
    eval_classification,
    eval_regression,
    worst_tail_count,
)


class TestTailCount:
    def test_eight_classes_use_one(self):
        assert worst_tail_count(8) == 1

    def test_ten_and_eleven(self):
        assert worst_tail_count(10) == 1
        assert worst_tail_count(11) == 2

    def test_minimum_one(self):
        assert worst_tail_count(3) == 1

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            worst_tail_count(0)


class TestClassification:
    def test_perfect_predictor(self):
        y = np.repeat(np.arange(8), 10)
        rep = eval_classification(y, y, 8)
        assert rep.avg_accuracy == 1.0
        assert rep.worst10_accuracy == 1.0
        assert rep.absent_classes == []

    def test_constant_predictor_balanced(self):
        y = np.repeat(np.arange(8), 10)
        pred = np.zeros_like(y)
        rep = eval_classification(pred, y, 8)
        assert rep.avg_accuracy == pytest.approx(0.125)
        assert rep.worst10_accuracy == 0.0

    def test_worst10_is_lowest_class_at_eight(self):
        y = np.repeat(np.arange(8), 4)
        pred = y.copy()
        pred[y == 5] = 0  # class 5 fully wrong
        rep = eval_classification(pred, y, 8)
        assert rep.worst10_accuracy == 0.0
        assert rep.per_class_accuracy[5] == 0.0

    def test_tie_broken_by_class_index(self):
        # two classes at the same lowest accuracy: the tail picks by index,
        # which cannot change the mean; check the reported value is theirs
        y = np.repeat([0, 1, 2], 4)
        pred = y.copy()
        pred[0] = 1  # class 0 at 3/4
        pred[4] = 2  # class 1 at 3/4
        rep = eval_classification(pred, y, 3)
        assert rep.worst10_accuracy == pytest.approx(0.75)

    def test_absent_class_flagged_and_excluded(self):
        y = np.repeat([0, 1, 3], 5)  # class 2 missing
        rep = eval_classification(y, y, 4)
        assert rep.absent_classes == [2]
        assert np.isnan(rep.per_class_accuracy[2])
        assert rep.worst10_accuracy == 1.0

    def test_worst10_at_most_macro_average(self):
        rng = np.random.Generator(np.random.PCG64(0))
        for _ in range(25):
            n_classes = int(rng.integers(2, 15))
            y = rng.integers(0, n_classes, size=200)
            pred = rng.integers(0, n_classes, size=200)
            if len(np.unique(y)) == 0:
                continue
            rep = eval_classification(pred, y, n_classes)
            present = [a for a in rep.per_class_accuracy if not np.isnan(a)]
            assert rep.worst10_accuracy <= np.mean(present) + 1e-12

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            eval_classification([1, 2], [1], 3)
        with pytest.raises(ValueError):
            eval_classification([], [], 3)


class TestRegression:
    def test_zero_error(self):
        z = np.linspace(-1, 1, 20)
        rep = eval_regression(z, z)
        assert rep.mse == 0.0
        assert rep.mae == 0.0
        assert rep.worst10_mse == 0.0

    def test_hand_example(self):
        # nine unit errors plus one error of 10: MSE (9+100)/10, tail is
        # the single largest error squared
        z = np.zeros(10)
        pred = np.array([1.0] * 9 + [10.0])
        rep = eval_regression(pred, z)
        assert rep.mse == pytest.approx(10.9)
        assert rep.worst10_mse == pytest.approx(100.0)
        assert rep.mae == pytest.approx(1.9)

    def test_sign_of_error_irrelevant(self):
        z = np.zeros(10)
        pred = np.array([-1.0] * 9 + [-10.0])
        rep = eval_regression(pred, z)
        assert rep.worst10_mse == pytest.approx(100.0)

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=60))
    def test_worst10_at_least_mse(self, errors):
        z = np.zeros(len(errors))
        rep = eval_regression(np.array(errors), z)
        assert rep.worst10_mse >= rep.mse - 1e-9

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            eval_regression([], [])
