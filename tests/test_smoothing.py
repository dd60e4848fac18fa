import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import hiercert
from hiercert import rng, smoothing
from hiercert.core import ABSTAIN
from hiercert.errors import ValidationError
from hiercert.models import LinearSoftmax, SmallMlp
from hiercert.smoothing import (
    SmoothingConfig,
    certify,
    certify_batch,
    clopper_pearson_lower,
    clopper_pearson_lower_batch,
    exact_smoothed_linear,
    margin_radius,
    sample_under_noise,
    vote_counts,
)

from helpers import certify_oracle, cp_lower_oracle, quantile_oracle, vote_counts_oracle


def binary_linear(w, b=0.0):
    """Two-class model: class 1 wins iff w.x + b > 0."""
    w = np.asarray(w, dtype=np.float64)
    return LinearSoftmax(W=np.vstack([np.zeros_like(w), w]), b=np.array([0.0, b]))


class ConstantClassifier:
    def __init__(self, label, n_labels):
        self.label = label
        self.n_labels = n_labels
        self.input_dim = 2

    def logits(self, X):
        out = np.zeros((X.shape[0], self.n_labels))
        out[:, self.label] = 1.0
        return out


class TiedClassifier(ConstantClassifier):
    """Constant logits tied between two labels: every vote goes to the lower."""

    def logits(self, X):
        out = np.zeros((X.shape[0], self.n_labels))
        out[:, [1, 3]] = 2.0
        return out


MODELS = {
    "linear": lambda: LinearSoftmax.init(5, 3, seed=21, scale=1.5),
    "mlp": lambda: SmallMlp.init(4, 3, 8, seed=22, scale=1.0),
    "tied": lambda: TiedClassifier(0, 4),
}


def batch_inputs(count: int) -> np.ndarray:
    return 0.5 * rng.normals(31, 960, 0, count * 3).reshape(count, 3)


def wrapping_seeds(count: int) -> np.ndarray:
    """Per-input seeds as the CLI derives them, from a base whose + index
    wraps past 2^64, plus the extreme seeds 2^64 - 1 and 0."""
    base = np.uint64(2**64 - 2)
    seeds = rng.mix64(base + np.arange(count, dtype=np.uint64))
    seeds[:2] = [2**64 - 1, 0][:count]
    return seeds


class TestSmoothingConfig:
    def test_validation(self):
        SmoothingConfig(sigma=0.5)
        with pytest.raises(ValidationError):
            SmoothingConfig(sigma=0.0)
        with pytest.raises(ValidationError):
            SmoothingConfig(sigma=0.5, n0=0)
        with pytest.raises(ValidationError):
            SmoothingConfig(sigma=0.5, alpha_conf=1.0)


class TestClopperPearson:
    def test_zero_successes(self):
        assert clopper_pearson_lower(0, 100, 0.001) == 0.0

    def test_all_successes_closed_form(self):
        # alpha**(1/n), frozen against the binomial-tail oracle
        got = clopper_pearson_lower(100, 100, 0.001)
        assert got == pytest.approx(0.001 ** 0.01, abs=1e-12)
        assert got == pytest.approx(0.93325, abs=1e-4)
        assert got == pytest.approx(cp_lower_oracle(100, 100, 0.001), abs=1e-10)

    def test_half_successes_one_sided(self):
        # one-sided bound at alpha; the oracle bisects the exact binomial tail
        got = clopper_pearson_lower(50, 100, 0.05)
        assert got == pytest.approx(cp_lower_oracle(50, 100, 0.05), abs=1e-9)
        assert got == pytest.approx(0.41362, abs=1e-4)
        # the matching two-sided-convention endpoint sits at alpha/2
        got2 = clopper_pearson_lower(50, 100, 0.025)
        assert got2 == pytest.approx(0.39832, abs=1e-4)

    def test_oracle_agreement_grid(self):
        for k, n, a in ((1, 50, 0.01), (17, 40, 0.05), (999, 1000, 0.001),
                        (500, 1000, 0.1), (84134, 100_000, 0.001)):
            assert clopper_pearson_lower(k, n, a) == pytest.approx(
                cp_lower_oracle(k, n, a), abs=1e-8)

    def test_validation(self):
        with pytest.raises(ValidationError):
            clopper_pearson_lower(5, 4, 0.05)
        with pytest.raises(ValidationError):
            clopper_pearson_lower(-1, 4, 0.05)
        with pytest.raises(ValidationError):
            clopper_pearson_lower(1, 0, 0.05)

    @pytest.mark.parametrize("n", [1, 2, 7, 50, 1000])
    @pytest.mark.parametrize("alpha", [1e-4, 0.001, 0.05])
    def test_batch_equals_scalar_and_oracle_at_every_count(self, n, alpha):
        k = np.arange(n + 1) if n <= 50 else np.array([0, 1, 2, 333, 500, 998, 999, 1000])
        got = clopper_pearson_lower_batch(k, n, alpha)
        assert got.dtype == np.float64 and got.shape == k.shape
        assert got.tolist() == [clopper_pearson_lower(int(v), n, alpha) for v in k]
        assert got[0] == 0.0 and got[-1] == alpha ** (1.0 / n)
        inner = (k > 0) & (k < n)
        assert got[inner].tolist() == [float(stats.beta.ppf(alpha, v, n - v + 1))
                                       for v in k[inner]]

    def test_batch_validation(self):
        assert clopper_pearson_lower_batch(np.empty(0, np.int64), 5, 0.05).shape == (0,)
        for k, n, a in (([0, 5], 4, 0.05), ([3, -1], 4, 0.05), ([1], 0, 0.05),
                        ([1], 4, 0.0), ([1], 4, 1.0)):
            with pytest.raises(ValidationError):
                clopper_pearson_lower_batch(np.array(k), n, a)
        with pytest.raises(ValidationError):
            clopper_pearson_lower(1, 4, 1.5)

    def test_equals_scipy_stats_beta_quantile_bit_for_bit(self):
        cases = 0
        for n in (2, 3, 7, 50, 500, 1000, 4321, 100_000):
            for k in sorted({1, 2, n // 3, n // 2, n - 2, n - 1} - {0, n}):
                for a in (1e-6, 1e-4, 0.001, 0.01, 0.025, 0.05, 0.3):
                    assert clopper_pearson_lower(k, n, a) == float(
                        stats.beta.ppf(a, k, n - k + 1)), (k, n, a)
                    cases += 1
        assert cases > 250

    def test_cli_import_leaves_scipy_stats_out(self):
        # scipy.stats takes most of a cold `import hiercert.cli`.
        src = str(Path(hiercert.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        code = "import sys, hiercert.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=60).stdout
        assert out.strip() == "[]"


class TestSampleUnderNoise:
    def test_constant_classifier(self):
        counts = sample_under_noise(ConstantClassifier(2, 4), np.zeros(2), 1.0, 100, seed=1)
        assert counts.counts[2] == 100 and counts.total == 100

    def test_tiny_sigma_concentrates_on_clean_argmax(self):
        model = binary_linear([1.0, 0.0])
        counts = sample_under_noise(model, np.array([1.0, 0.0]), 1e-9, 1000, seed=2)
        assert counts.counts[1] == 1000

    def test_linear_fraction_matches_analytic(self):
        model = binary_linear([1.0, 0.0])
        x = np.array([1.0, 0.0])
        n = 100_000
        counts = sample_under_noise(model, x, 1.0, n, seed=3)
        p_true = exact_smoothed_linear([1.0, 0.0], 0.0, x, 1.0)
        se = math.sqrt(p_true * (1 - p_true) / n)
        assert counts.counts[1] / n == pytest.approx(p_true, abs=3 * se)

    def test_deterministic_and_chunk_invariant(self, monkeypatch):
        model = binary_linear([0.7, -0.2])
        x = np.array([0.3, 0.4])
        a = sample_under_noise(model, x, 0.5, 5000, seed=7)
        b = sample_under_noise(model, x, 0.5, 5000, seed=7)
        assert np.array_equal(a.counts, b.counts)
        monkeypatch.setattr(smoothing, "_CHUNK", 613)
        c = sample_under_noise(model, x, 0.5, 5000, seed=7)
        assert np.array_equal(a.counts, c.counts)

    @pytest.mark.parametrize("chunk", [None, 1, 613])
    def test_perturbed_inputs_are_x_plus_sigma_noise_bit_for_bit(self, monkeypatch, chunk):
        if chunk is not None:
            monkeypatch.setattr(smoothing, "_CHUNK", chunk)
        seen = []

        class Recorder(ConstantClassifier):
            def logits(self, X):
                seen.append(X.copy())
                return super().logits(X)

        x = np.array([0.3, -1.25, 7.0])
        x_before = x.copy()
        n = 1500 if chunk != 1 else 40
        sample_under_noise(Recorder(0, 2), x, 0.37, n, seed=9, stream=rng.STREAM_SELECT)
        noise = rng.normals(9, rng.STREAM_SELECT, 0, n * 3).reshape(n, 3)
        assert np.array_equal(np.concatenate(seen), x[None, :] + 0.37 * noise)
        assert np.array_equal(x, x_before)


class TestVoteCountKernel:
    # (monkeypatched _CHUNK or None for the default, n): n below, equal to and
    # above the chunk
    CASES = [(None, 500), (None, 20_000), (None, 20_001), (613, 100), (613, 613),
             (613, 1500), (1, 1), (1, 3)]

    @pytest.mark.parametrize("chunk, n", CASES)
    @pytest.mark.parametrize("model_name", sorted(MODELS))
    @pytest.mark.parametrize("B", [1, 2, 37])
    def test_rows_equal_per_input_oracle(self, monkeypatch, chunk, n, model_name, B):
        if chunk is not None:
            monkeypatch.setattr(smoothing, "_CHUNK", chunk)
        model = MODELS[model_name]()
        X, seeds = batch_inputs(B), wrapping_seeds(B)
        got = vote_counts(model, X, 0.4, n, seeds, stream=rng.STREAM_SELECT)
        assert got.shape == (B, model.n_labels) and got.dtype == np.int64
        for i in range(B):
            want = vote_counts_oracle(model, X[i], 0.4, n, int(seeds[i]), rng.STREAM_SELECT)
            assert np.array_equal(got[i], want), i
            one = sample_under_noise(model, X[i], 0.4, n, int(seeds[i]), stream=rng.STREAM_SELECT)
            assert np.array_equal(one.counts, want), i

    # 37 inputs: whole inputs share a unit while n < _CHUNK, otherwise a unit
    # is at most _CHUNK samples of one input
    @pytest.mark.parametrize("chunk, n, units", [(None, 300, [37 * 300]),
                                                 (613, 300, [600] * 18 + [300]),
                                                 (1, 2, [1] * 74)])
    def test_one_logits_call_per_unit(self, monkeypatch, chunk, n, units):
        if chunk is not None:
            monkeypatch.setattr(smoothing, "_CHUNK", chunk)
        sizes = []

        class Recorder(ConstantClassifier):
            def logits(self, X):
                sizes.append(X.shape[0])
                return super().logits(X)

        vote_counts(Recorder(0, 3), np.zeros((37, 2)), 0.5, n, np.arange(37))
        assert sizes == units

    def test_empty_batch_and_validation(self):
        model = MODELS["linear"]()
        assert vote_counts(model, np.empty((0, 3)), 0.5, 100, []).shape == (0, 5)
        with pytest.raises(ValidationError):
            vote_counts(model, batch_inputs(3), 0.5, 100, [1, 2])
        with pytest.raises(ValidationError):
            vote_counts(model, batch_inputs(3), 0.5, 0, [1, 2, 3])


class TestCertifyBatch:
    @pytest.mark.parametrize("chunk, n", [(None, 400), (613, 613), (613, 2000)])
    @pytest.mark.parametrize("model_name", sorted(MODELS))
    @pytest.mark.parametrize("B", [1, 2, 37])
    def test_equals_per_input_oracle(self, monkeypatch, chunk, n, model_name, B):
        if chunk is not None:
            monkeypatch.setattr(smoothing, "_CHUNK", chunk)
        model = MODELS[model_name]()
        X, seeds = batch_inputs(B), wrapping_seeds(B)
        cfg = SmoothingConfig(sigma=0.5, n0=50, n=n, alpha_conf=0.01)
        got = certify_batch(model, X, cfg, seeds)
        for i in range(B):
            label, radius, p = certify_oracle(model, X[i], 0.5, 50, n, 0.01, int(seeds[i]))
            assert int(got.labels[i]) == label and got.p_a_lower[i] == p
            assert np.isnan(got.radii[i]) if radius is None else got.radii[i] == radius
            assert certify(model, X[i], cfg, int(seeds[i])) == got.prediction(i)
        assert np.array_equal(got.abstained, got.labels == ABSTAIN)

    def test_abstentions_and_two_sided_runner_up(self):
        # inputs on the linear rule's boundary abstain, the others certify
        # with the two-sided radius against the runner-up 1 - p_a_lower
        model = binary_linear([1.0, 0.0])
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 3.0], [2.0, -1.0]])
        seeds = np.array([5, 6, 7, 8], dtype=np.uint64)
        cfg = SmoothingConfig(sigma=0.5, n0=50, n=2000, alpha_conf=0.001)
        got = certify_batch(model, X, cfg, seeds)
        assert got.abstained.tolist() == [True, False, True, False]
        for i in range(4):
            label, radius, p = certify_oracle(model, X[i], 0.5, 50, 2000, 0.001,
                                              int(seeds[i]))
            pred = got.prediction(i)
            assert (pred.label, pred.radius, pred.p_a_lower) == (label, radius, p)
            if radius is not None:
                assert radius == margin_radius(0.5, p, 1.0 - p)


class TestExactSmoothedLinear:
    def test_decision_boundary(self):
        assert exact_smoothed_linear([1.0, 0.0], 0.0, [0.0, 0.0], 0.7) == pytest.approx(0.5)

    def test_unit_margin(self):
        assert exact_smoothed_linear([1.0, 0.0], 0.0, [1.0, 0.0], 1.0) == pytest.approx(
            0.8413447460685429, abs=1e-5)

    def test_doubled_margin_gives_phi_two(self):
        # x twice as far from the boundary: Phi(2)
        assert exact_smoothed_linear([1.0, 0.0], 0.0, [2.0, 0.0], 1.0) == pytest.approx(
            0.9772498680518208, abs=1e-5)

    def test_scaling_w_and_b_jointly_is_invariant(self):
        # the smoothed probability depends on margin/||w||, so rescaling the
        # rule leaves it unchanged
        a = exact_smoothed_linear([2.0, 0.0], 0.0, [1.0, 0.0], 1.0)
        b = exact_smoothed_linear([1.0, 0.0], 0.0, [1.0, 0.0], 1.0)
        assert a == pytest.approx(b, abs=1e-12)

    def test_zero_weight_rejected(self):
        with pytest.raises(ValidationError):
            exact_smoothed_linear([0.0, 0.0], 0.0, [1.0, 0.0], 1.0)


class TestRadii:
    def test_two_sided_example(self):
        assert margin_radius(0.5, 0.8, 0.2) == pytest.approx(0.4208, abs=1e-3)
        expected = 0.25 * (quantile_oracle(0.8) - quantile_oracle(0.2))
        assert margin_radius(0.5, 0.8, 0.2) == pytest.approx(expected, abs=1e-9)

    def test_one_sided_equals_two_sided_with_complement(self):
        # One-sided: R = sigma * Phi^-1(p_a_lower), the margin against 1 - p_a_lower.
        for p in np.linspace(0.5 + 1e-6, 1 - 1e-9, 5000):
            diff = abs(margin_radius(1.0, p, 1.0 - p) - smoothing.phi_inv(p))
            assert diff <= 1e-12

    def test_linear_in_sigma(self):
        z = margin_radius(1.0, 0.8, 1.0 - 0.8)
        assert margin_radius(0.25, 0.8, 1.0 - 0.8) * 4 == pytest.approx(z, abs=0.0)

    def test_monotone_in_p(self):
        ps = np.linspace(0.5 + 1e-9, 1 - 1e-9, 10_000)
        radii = smoothing.margin_radius(0.5, ps, 1.0 - ps)
        assert np.all(np.diff(radii) >= 0.0)


class TestCertify:
    def test_boundary_abstains(self):
        model = binary_linear([1.0, 0.0])
        cfg = SmoothingConfig(sigma=1.0, n0=50, n=2000, alpha_conf=0.01)
        cert = certify(model, np.zeros(2), cfg, seed=11)
        assert cert.label == ABSTAIN and cert.radius is None

    def test_radius_is_sigma_times_quantile(self):
        model = binary_linear([1.0, 0.0])
        cfg = SmoothingConfig(sigma=0.5, n0=50, n=20_000, alpha_conf=0.001)
        cert = certify(model, np.array([1.0, 0.0]), cfg, seed=12)
        assert not cert.abstained
        assert cert.label == 1
        assert cert.radius == pytest.approx(0.5 * quantile_oracle(cert.p_a_lower), abs=1e-9)

    def test_deterministic(self):
        model = binary_linear([0.3, 0.9])
        cfg = SmoothingConfig(sigma=0.5, n0=20, n=5000, alpha_conf=0.01)
        a = certify(model, np.array([0.5, 0.2]), cfg, seed=13)
        b = certify(model, np.array([0.5, 0.2]), cfg, seed=13)
        assert a == b

    def test_coverage_of_lower_bound(self):
        # frequency of {p_lower > true smoothed probability} stays within
        # alpha + 3*sqrt(alpha/reps)
        model = binary_linear([1.0, 0.0])
        x = np.array([1.0, 0.0])
        p_true = exact_smoothed_linear([1.0, 0.0], 0.0, x, 1.0)
        alpha = 0.05
        reps = 1000
        cfg = SmoothingConfig(sigma=1.0, n0=20, n=2000, alpha_conf=alpha)
        over = 0
        for r in range(reps):
            cert = certify(model, x, cfg, seed=rng.mix64(1700 + r))
            if cert.p_a_lower > p_true:
                over += 1
        assert over / reps <= alpha + 3 * math.sqrt(alpha / reps)
