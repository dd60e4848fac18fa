import math

import numpy as np
import pytest

from hiercert import rng
from hiercert.core import (
    ABSTAIN,
    CertifiedPrediction,
    LabelPartition,
    as_probability_matrix,
    as_probability_vector,
    hinge_gap,
)
from hiercert.errors import ValidationError
from hiercert.hierarchy import _label_index


class TestLabelPartition:
    def test_valid_partition(self):
        p = LabelPartition(((0, 1, 2), (3, 4)))
        assert p.n_labels == 5
        assert _label_index(p.classes, p.n_labels)[3] == 1
        assert LabelPartition((tuple(np.arange(3)), (3,))).classes == ((0, 1, 2), (3,))

    def test_rejects_overlap_gap_and_empty(self):
        with pytest.raises(ValidationError):
            LabelPartition(((0, 1), (1, 2)))
        with pytest.raises(ValidationError):
            LabelPartition(((0, 1), (3,)), n_labels=4)
        with pytest.raises(ValidationError):
            LabelPartition(((0, 1), ()), n_labels=2)


class TestCertifiedPrediction:
    def test_abstain_has_no_radius(self):
        c = CertifiedPrediction(label=ABSTAIN, radius=None, p_a_lower=0.4, sigma=0.5)
        assert c.abstained
        with pytest.raises(ValidationError):
            CertifiedPrediction(label=ABSTAIN, radius=1.0, p_a_lower=0.4, sigma=0.5)

    def test_radius_nonnegative(self):
        CertifiedPrediction(label=2, radius=0.0, p_a_lower=0.6, sigma=0.5)
        CertifiedPrediction(label=2, radius=math.inf, p_a_lower=1.0, sigma=0.5)
        with pytest.raises(ValidationError):
            CertifiedPrediction(label=2, radius=-0.1, p_a_lower=0.6, sigma=0.5)


class TestHingeGap:
    def test_direct_evaluation(self):
        assert hinge_gap([0.5, 0.3, 0.2], 0, {0, 1, 2}) == pytest.approx(0.2)

    def test_removing_runner_up_widens_gap(self):
        assert hinge_gap([0.5, 0.3, 0.2], 0, {0, 2}) == pytest.approx(0.3)

    def test_empty_competitor_set_is_infinite(self):
        assert hinge_gap([0.5, 0.3, 0.2], 0, {0}) == math.inf

    def test_input_validation(self):
        with pytest.raises(ValidationError):
            hinge_gap([0.5, 0.5], 2, {0, 1})
        with pytest.raises(ValidationError):
            hinge_gap([0.5, 0.5], 0, {0, 5})
        with pytest.raises(ValidationError):
            hinge_gap([0.5, 0.6], 0, {0, 1})  # not a probability vector

    def test_non_finite_entries_rejected(self):
        # nan compares false with everything, so range checks of the form
        # `p < 0` or `|sum - 1| > tol` let it through
        for bad in ([math.nan, 0.5, 0.5], [0.5, math.nan, 0.5],
                    [math.inf, 0.5, 0.5], [-math.inf, 0.5, 1.5]):
            with pytest.raises(ValidationError):
                hinge_gap(bad, 1, {0, 1, 2})

    def test_anti_monotone_in_competitor_set(self):
        # 10^4 random (alpha, c, L1 subset of L2) triples, exact comparison
        m = 8
        trials = 10_000
        u = rng.uniforms(21, 901, 0, trials * m).reshape(trials, m)
        probs = -np.log(u)
        probs /= probs.sum(axis=1, keepdims=True)
        picks = rng.uniforms(21, 902, 0, trials * (2 * m + 1)).reshape(trials, -1)
        violations = 0
        for t in range(trials):
            c = int(picks[t, 2 * m] * m)
            big = {i for i in range(m) if picks[t, i] < 0.6} | {c}
            small = {i for i in big if picks[t, m + i] < 0.5} | {c}
            gap_small = hinge_gap(probs[t], c, small)
            gap_big = hinge_gap(probs[t], c, big)
            if not gap_big <= gap_small:
                violations += 1
        assert violations == 0


class TestProbabilityVector:
    @pytest.mark.parametrize("m", [3, 32, 33, 100])
    def test_short_and_long_vectors_decide_alike(self, m):
        good = np.zeros(m)
        good[:2] = 0.5
        assert as_probability_vector(good) is not None
        for bad in (math.nan, math.inf, -math.inf, -0.1, 1.5):
            v = good.copy()
            v[m // 2] = bad
            with pytest.raises(ValidationError, match="finite and lie in"):
                as_probability_vector(v)
        for shift, ok in ((0.5e-9, True), (2e-9, False)):
            v = good.copy()
            v[-1] = shift
            if ok:
                as_probability_vector(v)
            else:
                with pytest.raises(ValidationError, match="sum to"):
                    as_probability_vector(v)


class TestProbabilityMatrix:
    def test_valid_rows_pass_through(self):
        P = np.array([[0.25, 0.75], [1.0, 0.0], [0.5, 0.5]])
        assert np.array_equal(as_probability_matrix(P), P)
        assert as_probability_matrix(P.tolist()).dtype == np.float64
        with pytest.raises(ValidationError, match="must be 2-D"):
            as_probability_matrix([0.5, 0.5])
        assert as_probability_matrix(np.empty((0, 3))).shape == (0, 3)

    @pytest.mark.parametrize("row, message", [
        ([0.5, 0.6, -0.1], "row 2: entries must be finite"),
        ([0.5, math.nan, 0.5], "row 2: entries must be finite"),
        ([math.inf, 0.0, 0.0], "row 2: entries must be finite"),
        ([0.5, 0.5, 0.2], "row 2 sums to 1.2"),
        ([0.5, 0.5, 2e-9], "row 2 sums to"),
    ])
    def test_names_the_first_bad_row(self, row, message):
        P = np.full((5, 3), 0.25)
        P[:, 0] = 0.5
        P[2] = P[4] = row
        with pytest.raises(ValidationError, match=message):
            as_probability_matrix(P)

    def test_tolerance_matches_the_vector_check(self):
        P = np.array([[0.5, 0.5 + 0.5e-9], [0.5, 0.5]])
        as_probability_matrix(P)
        as_probability_vector(P[0])
        P[0, 1] = 0.5 + 2e-9
        with pytest.raises(ValidationError):
            as_probability_matrix(P)
        with pytest.raises(ValidationError):
            as_probability_vector(P[0])
