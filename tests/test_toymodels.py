import math
import os
import warnings

import numpy as np
import pytest

from hiercert import rng, split, toymodels
from hiercert.errors import ValidationError
from hiercert.numerics import normal_cdf
from hiercert.toymodels import (
    GaussModelParams,
    PrfModelParams,
    adversarial_accuracy_bound,
    gauss_experiment,
    keyed_bit,
    linf_flip_attack,
    majority_decode,
    meta_feature,
    meta_feature_accuracy,
    prf_encode,
    prf_experiment,
    tradeoff_experiment,
    tuned_feature_weight,
    weighted_predict,
)

from helpers import (
    GAUSS_STREAMS,
    failing_send,
    forks,  # noqa: F401 (a fixture)
    gauss_sample_oracle,
    killed_after,
    peak_traced_bytes,
)


class TestGaussSampling:
    def test_p_one_means_robust_feature_always_right(self):
        params = GaussModelParams(d=5, p=1.0 - 1e-12, eta=0.5)
        X, y = gauss_sample_oracle(params, 5000, seed=1)
        assert np.array_equal(X[:, 0], y)

    def test_zero_eta_features_carry_no_signal(self):
        params = GaussModelParams(d=3, p=0.9, eta=0.0)
        X, y = gauss_sample_oracle(params, 100_000, seed=2)
        assert abs(float((X[:, 1] * y).mean())) <= 3.0 / math.sqrt(X.shape[0])

    def test_robust_feature_reliability(self):
        params = GaussModelParams(d=2, p=0.95, eta=0.3)
        X, y = gauss_sample_oracle(params, 100_000, seed=3)
        frac = float(np.mean(X[:, 0] == y))
        assert frac == pytest.approx(0.95, abs=0.007)

    def test_params_validation(self):
        with pytest.raises(ValidationError):
            GaussModelParams(d=0, p=0.9, eta=0.1)
        with pytest.raises(ValidationError):
            GaussModelParams(d=5, p=0.5, eta=0.1)


class TestMetaFeature:
    def test_all_positive_gives_plus_one(self):
        x = np.array([[-1.0, 2.0, 2.0, -5.0]])
        assert meta_feature(x, 2).tolist() == [1.0]

    def test_zero_mean_convention_is_plus_one(self):
        x = np.array([[1.0, 1.0, -1.0, 9.9]])
        assert meta_feature(x, 2).tolist() == [1.0]

    def test_k_zero_rejected(self):
        with pytest.raises(ValidationError):
            meta_feature(np.array([[1.0, 2.0]]), 0)

    def test_monte_carlo_matches_analytic(self):
        params = GaussModelParams(d=9, p=0.9, eta=1.0)
        X, y = gauss_sample_oracle(params, 100_000, seed=4)
        acc = float(np.mean(meta_feature(X, 9) == y))
        assert acc == pytest.approx(meta_feature_accuracy(1.0, 9), abs=0.002)


class TestAnalyticAccuracy:
    def test_vanishing_eta_limit(self):
        assert meta_feature_accuracy(1e-12, 1) == pytest.approx(0.5, abs=1e-9)

    def test_reliability_threshold(self):
        val = meta_feature_accuracy(1.0, 9)
        assert val == pytest.approx(0.9986501019683699, abs=1e-9)
        assert val > 0.99

    def test_scaling_relation(self):
        # k = 9 / eta^2 always lands on Phi(3)
        assert meta_feature_accuracy(0.3, 100) == pytest.approx(normal_cdf(3.0), abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValidationError):
            meta_feature_accuracy(0.0, 5)
        with pytest.raises(ValidationError):
            meta_feature_accuracy(0.5, 0)


class TestBound:
    def test_headline_value(self):
        assert adversarial_accuracy_bound(0.95, 0.01) == pytest.approx(0.19, abs=1e-12)

    def test_zero_gamma(self):
        assert adversarial_accuracy_bound(0.95, 0.0) == 0.0

    def test_clamped_to_one(self):
        assert adversarial_accuracy_bound(0.95, 0.1) == 1.0

    def test_domain(self):
        with pytest.raises(ValidationError):
            adversarial_accuracy_bound(0.4, 0.01)
        with pytest.raises(ValidationError):
            adversarial_accuracy_bound(0.95, 1.5)


class TestFlipAttack:
    def test_fully_protected_is_identity(self):
        params = GaussModelParams(d=4, p=0.9, eta=0.7)
        X, y = gauss_sample_oracle(params, 100, seed=5)
        assert np.array_equal(linf_flip_attack(X, y, 0.7, 4), X)

    def test_unprotected_shift(self):
        x = np.array([[1.0, 0.5, -0.2, 0.3]])
        out = linf_flip_attack(x, [1.0], 1.0, 0)
        assert np.allclose(out, [[1.0, -1.5, -2.2, -1.7]])

    def test_exact_norm_and_protected_zeros(self):
        params = GaussModelParams(d=6, p=0.9, eta=0.4)
        X, y = gauss_sample_oracle(params, 500, seed=6)
        out = linf_flip_attack(X, y, 0.4, 2)
        delta = out - X
        assert np.max(np.abs(delta)) == pytest.approx(0.8, abs=1e-12)
        assert np.all(delta[:, :3] == 0.0)
        assert np.all(np.abs(delta[:, 3:]) == pytest.approx(0.8, abs=1e-12))

    def test_flipped_distribution_moments(self):
        params = GaussModelParams(d=2, p=0.9, eta=0.6)
        X, y = gauss_sample_oracle(params, 100_000, seed=7)
        out = linf_flip_attack(X, y, 0.6, 0)
        mean_along_y = float((out[:, 1] * y).mean())
        assert mean_along_y == pytest.approx(-0.6, abs=3.0 / math.sqrt(X.shape[0]))


class TestGaussExperiment:
    def test_grid_shapes_and_monotonicity(self):
        cells = gauss_experiment([0.3, 1.0], [0, 1, 10, 50], d=50, p=0.95,
                                 n_samples=20_000, seed=8)
        assert len(cells) == 8
        for eta in (0.3, 1.0):
            accs = [c.adversarial_acc for c in cells if c.eta == eta]
            n = 20_000
            for a, b in zip(accs, accs[1:]):
                se = math.sqrt(max(a * (1 - a), b * (1 - b), 1e-12) / n)
                assert b >= a - 3 * se

    def test_unprotected_small_eta_collapses(self):
        cells = gauss_experiment([0.05], [0], d=200, p=0.95, n_samples=20_000, seed=9)
        assert cells[0].adversarial_acc < 0.5

    def test_averaging_classifier_respects_bound(self):
        cells = gauss_experiment([0.3], [0], d=200, p=0.95, n_samples=50_000, seed=10)
        cell = cells[0]
        gamma = 1.0 - cell.natural_acc
        bound = adversarial_accuracy_bound(0.95, gamma)
        se = math.sqrt(max(cell.adversarial_acc * (1 - cell.adversarial_acc), 1e-12) / 50_000)
        assert cell.adversarial_acc <= bound + 3 * se

    def test_meta_accuracy_matches_analytic_across_grid(self):
        n = 50_000
        cells = gauss_experiment([0.3, 0.5], [10, 36, 100], d=100, p=0.95,
                                 n_samples=n, seed=11)
        for c in cells:
            expected = meta_feature_accuracy(c.eta, c.k)
            se = math.sqrt(expected * (1 - expected) / n)
            assert c.adversarial_acc == pytest.approx(expected, abs=max(3 * se, 1e-3))

    @pytest.mark.parametrize("n_samples", [0, -3])
    def test_no_samples_rejected_without_a_warning(self, n_samples):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="n_samples"):
                gauss_experiment([0.3], [0, 1], d=4, p=0.9, n_samples=n_samples, seed=1)
            with pytest.raises(ValidationError, match="n_samples"):
                tradeoff_experiment(0.9, 0.05, 0.3, 4, n_samples, seed=1)

    def test_working_memory_does_not_grow_with_n_samples(self):
        # A whole 25k x 201 sample is 40 MB. One block of 327 rows is 0.5 MB;
        # about 2.6 MB is alive at the peak with the piece's temporaries
        # inside `rng.normals`.
        peaks = [peak_traced_bytes(lambda: (
            gauss_experiment([0.1], [0, 5], d=200, p=0.95, n_samples=n, seed=3),
            tradeoff_experiment(0.95, 0.01, 0.3, 200, n, seed=3)))
            for n in (25_000, 50_000)]
        assert peaks[0] < 4 << 20, peaks
        assert peaks[1] <= peaks[0] + (64 << 10), peaks


class TestBlockedSampleAndAttack:
    """Row blocks must give exactly what one whole-array pass gives."""

    def test_oracle_reads_the_sample_streams(self):
        assert GAUSS_STREAMS == (toymodels._STREAM_LABEL, toymodels._STREAM_ROBUST,
                                 toymodels._STREAM_FEAT)

    # pieces of 1, 29 and 65536 draws: blocks of 1 row, 3 rows and the whole sample
    @pytest.mark.parametrize("piece", [1, 29, 1 << 16])
    def test_matches_full_array_path(self, monkeypatch, piece):
        monkeypatch.setattr(rng, "PIECE", piece)
        d, n, p, seed = 9, 301, 0.8, 17
        params = GaussModelParams(d=d, p=p, eta=0.3)
        blocks = list(toymodels._gauss_blocks(params, seed, 0, n))
        X, y = np.vstack([b[0] for b in blocks]), np.concatenate([b[1] for b in blocks])
        X_full, y_full = gauss_sample_oracle(params, n, seed)
        assert np.array_equal(X, X_full) and np.array_equal(y, y_full)

        etas, ks = [0.1, 0.4], [0, 1, 4, 9]
        cells = gauss_experiment(etas, ks, d, p, n, seed)
        want = []
        for ei, eta in enumerate(etas):
            Xe, ye = gauss_sample_oracle(GaussModelParams(d=d, p=p, eta=eta), n,
                                     rng.mix64(seed + ei))
            for k in ks:
                def predict(V):
                    return meta_feature(V, k or d)
                want.append((float(np.mean(predict(Xe) == ye)), float(np.mean(
                    predict(linf_flip_attack(Xe, ye, eta, k)) == ye))))
        assert [(c.natural_acc, c.adversarial_acc) for c in cells] == want

        res = tradeoff_experiment(p, 0.1, 0.3, d, n, seed)
        c = tuned_feature_weight(p, 0.1, 0.3, d)
        assert res.natural_acc == float(np.mean(weighted_predict(X_full, c) == y_full))
        assert res.adversarial_acc == float(np.mean(
            weighted_predict(linf_flip_attack(X_full, y_full, 0.3, 0), c) == y_full))

    def test_cells_in_any_order_see_the_flip_attack(self):
        # `_hits` attacks each block once, in place, in descending k; cells
        # given in another order, with a repeat, see linf_flip_attack's bits.
        d, n, p, seed, eta, ks = 9, 301, 0.8, 17, 0.4, [4, 0, 9, 1, 4]
        cells = gauss_experiment([eta], ks, d, p, n, seed)
        X, y = gauss_sample_oracle(GaussModelParams(d=d, p=p, eta=eta), n, rng.mix64(seed))
        want = [float(np.mean(meta_feature(linf_flip_attack(X, y, eta, k), k or d) == y))
                for k in ks]
        assert [c.adversarial_acc for c in cells] == want

    @pytest.mark.parametrize("k", [-1, 10])
    def test_k_outside_zero_to_d_rejected(self, k):
        with pytest.raises(ValidationError, match=f"k={k} inadmissible for d=9"):
            gauss_experiment([0.4], [0, k], 9, 0.8, 50, seed=1)


@pytest.fixture
def counted(monkeypatch):
    """(start, stop) of each `_hits` call this process makes, so that a
    split that quietly counted everything here shows."""
    real, calls = toymodels._hits, []

    def spy(samples, cells, start, stop):
        calls.append((start, stop))
        return real(samples, cells, start, stop)

    monkeypatch.setattr(toymodels, "_hits", spy)
    return calls


class TestTwoProcessCounts:
    """With the draw threshold at 0, a forked child counts the blocks before
    the middle one and this process the rest: the results must be those of
    one process, also when the child or the fork fails."""

    D, P, SEED, ETAS, KS = 9, 0.8, 17, [0.1, 0.4, 0.0], [0, 1, 4, 9]

    @pytest.fixture(autouse=True)
    def split_every_sample(self, monkeypatch, forks, counted):
        # pieces of 29 draws: blocks of 3 rows, 101 of them for 301 rows
        monkeypatch.setattr(rng, "PIECE", 29)
        monkeypatch.setattr(split, "_usable_cpus", lambda: 2)
        with monkeypatch.context() as m:
            m.setattr(split, "SPLIT_MIN_DRAWS", 1 << 62)
            self.want = self.results(301)
        assert counted == [(0, 301)] * 2 and not forks
        counted.clear()
        monkeypatch.setattr(split, "SPLIT_MIN_DRAWS", 0)

    def results(self, n):
        return (gauss_experiment(self.ETAS, self.KS, self.D, self.P, n, self.SEED),
                tradeoff_experiment(self.P, 0.1, 0.3, self.D, n, self.SEED))

    @pytest.mark.parametrize("piece, n, mid", [(29, 301, 150), (4, 301, 150), (29, 3, None)],
                             ids=["odd-block-count", "d-above-piece", "one-block"])
    def test_split_counts_equal_one_process_counts(self, monkeypatch, forks, counted,
                                                   piece, n, mid):
        monkeypatch.setattr(rng, "PIECE", piece)
        got = self.results(n)
        with monkeypatch.context() as m:
            m.setattr(split, "SPLIT_MIN_DRAWS", 1 << 62)
            assert got == self.results(n)
        if mid is None:  # one block has no middle
            assert not forks and counted == [(0, n)] * 4
        else:  # the child's half was used
            assert len(forks) == 2 and counted == [(mid, n)] * 2 + [(0, n)] * 2

    @pytest.mark.parametrize("how", ["exit-3", "sigkill", "truncated"])
    def test_failed_child_falls_back_to_the_same_counts(self, monkeypatch, forks, counted,
                                                        how):
        monkeypatch.setattr(split, "_send", failing_send(how))
        assert self.results(301) == self.want
        assert len(forks) == 2 and counted == [(150, 301), (0, 150)] * 2

    @pytest.mark.parametrize("broken", ["fork", "pipe"])
    def test_fork_or_pipe_oserror_falls_back_to_the_same_counts(self, monkeypatch, forks,
                                                                counted, broken):
        def fail(*args, **kwargs):
            raise OSError("unavailable")

        monkeypatch.setattr(os, broken, fail)
        assert self.results(301) == self.want
        assert not forks and counted == [(0, 301)] * 2

    def test_one_cpu_or_no_fork_counts_in_one_process(self, monkeypatch, forks, counted):
        monkeypatch.setattr(split, "_usable_cpus", lambda: 1)
        assert self.results(301) == self.want
        monkeypatch.setattr(split, "_usable_cpus", lambda: 2)
        monkeypatch.delattr(os, "fork")
        assert self.results(301) == self.want
        assert not forks and counted == [(0, 301)] * 4

    def test_no_blas_control_counts_in_one_process(self, monkeypatch, forks, counted):
        monkeypatch.setattr(split, "_openblas", lambda: None)
        assert self.results(301) == self.want
        assert not forks and counted == [(0, 301)] * 2

    def test_raise_here_with_a_full_pipe_does_not_hang(self, monkeypatch, forks):
        parent = os.getpid()

        def hits(samples, cells, start, stop):
            if os.getpid() == parent:
                raise RuntimeError("this process's half failed")
            return np.zeros(1 << 20)  # 8 MB, more than a pipe buffers

        monkeypatch.setattr(toymodels, "_hits", hits)
        with killed_after(30, forks), pytest.raises(RuntimeError, match="half failed"):
            gauss_experiment(self.ETAS, self.KS, self.D, self.P, 301, self.SEED)
        assert len(forks) == 1


class TestTunedClassifier:
    def test_weight_hits_target_natural_accuracy(self):
        res = tradeoff_experiment(0.95, 0.01, 0.3, 200, 100_000, seed=12)
        assert res.natural_acc == pytest.approx(0.99, abs=0.003)
        se = math.sqrt(0.19 * 0.81 / 100_000)
        assert res.adversarial_acc <= res.bound + 3 * se
        assert res.bound == pytest.approx(0.19, abs=1e-12)

    def test_weight_requires_headroom(self):
        with pytest.raises(ValidationError):
            tuned_feature_weight(0.95, 0.1, 0.3, 200)  # 1-gamma < p

    def test_sign_zero_convention(self):
        X = np.array([[0.0, 0.0, 0.0]])
        assert weighted_predict(X, 1.0)[0] == 1.0


class TestRepetitionCode:
    def test_identity_at_r_one(self):
        x = np.array([1, 0, 1, 1])
        enc = prf_encode(x, [0], 1)
        assert np.array_equal(majority_decode(enc, 1), np.array([1, 0, 1, 1, 0]))

    def test_single_flip_recovered(self):
        enc = prf_encode(np.array([1, 0]), [1], 3)
        for pos in range(enc.size):
            corrupted = enc.copy()
            corrupted[pos] ^= 1
            assert np.array_equal(majority_decode(corrupted, 3), [1, 0, 1])

    def test_double_flip_breaks_majority(self):
        enc = prf_encode(np.array([1, 0]), [1], 3)
        corrupted = enc.copy()
        corrupted[0] ^= 1
        corrupted[1] ^= 1
        assert majority_decode(corrupted, 3)[0] == 0

    def test_even_repetition_rejected(self):
        with pytest.raises(ValidationError):
            prf_encode(np.array([1]), 0, 2)
        with pytest.raises(ValidationError):
            PrfModelParams(n_bits=4, key=1, repetition=4)


class TestPrfExperiment:
    PARAMS = PrfModelParams(n_bits=16, key=0x1D872B41C2F0AD93, repetition=3)

    def test_clean_data_both_perfect(self):
        res = prf_experiment(self.PARAMS, 0, False, 5000, seed=13)
        assert res.keyed_accuracy == 1.0
        assert res.keyless_accuracy == 1.0

    def test_first_bit_attack_only_hurts_keyless(self):
        res = prf_experiment(self.PARAMS, 1, True, 10_000, seed=14)
        assert res.keyed_accuracy == 1.0
        assert res.keyless_accuracy == pytest.approx(0.5, abs=3.0 / (2 * math.sqrt(10_000)))
        assert res.within_tolerance

    def test_invariant_restores_keyless(self):
        res = prf_experiment(self.PARAMS, 1, False, 10_000, seed=15)
        assert res.keyed_accuracy == 1.0
        assert res.keyless_accuracy == 1.0

    def test_keyed_exact_across_seeds(self):
        for seed in range(5):
            res = prf_experiment(self.PARAMS, 1, True, 2000, seed=seed)
            assert res.keyed_accuracy == 1.0

    def test_stress_mode_beyond_tolerance(self):
        res = prf_experiment(self.PARAMS, 2, True, 2000, seed=16)
        assert not res.within_tolerance
        assert res.keyed_accuracy < 1.0

    def test_keyed_bit_is_balanced(self):
        xs = rng.raw64(17, 1, 0, 50_000)
        bits = keyed_bit(0xABCDEF0123456789, xs)
        assert abs(float(bits.mean()) - 0.5) < 0.01
