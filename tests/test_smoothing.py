import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
from scipy import stats

import hiercert
from hiercert import cli, io, rng, split
from hiercert.core import ABSTAIN
from hiercert.errors import ValidationError
from hiercert.models import LinearSoftmax, SmallMlp
from hiercert.numerics import normal_quantile
from hiercert.smoothing import (
    SmoothingConfig,
    certify,
    certify_batch,
    clopper_pearson_lower_batch,
    margin_radius,
    vote_counts,
)

from helpers import (
    certify_oracle,
    cp_lower_oracle,
    exact_smoothed_linear,
    failing_send,
    forks,  # noqa: F401 (a fixture)
    killed_after,
    margin_radius_oracle,
    peak_traced_bytes,
    quantile_oracle,
    vote_counts_oracle,
)


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


def one_pass(classifier, X, sigma, n, seeds, stream=rng.STREAM_NOISE):
    """The (B, m) counts of one `vote_counts` pass (sigma, n, seeds, stream)."""
    return vote_counts(classifier, X, [(sigma, n, seeds, stream)])[0]


def unit_rows(monkeypatch, rows, d: int) -> None:
    """Make `vote_counts`' units `rows` perturbed rows of width d by setting
    the piece to rows * d draws; None keeps the default piece."""
    if rows is not None:
        monkeypatch.setattr(rng, "PIECE", rows * d)


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


#: A two-label linear model of two features, as a model spec.
_LINEAR = {"type": "linear", "W": [[0.0, 0.0], [1.0, 0.0]], "b": [0.0, 0.0]}


def write_four_points(path) -> None:
    """Two labels of two points each, far apart on the first feature."""
    io.write_features(path, list("abcd"), np.array([0, 0, 1, 1]),
                      np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 0.0], [5.1, 0.0]]))


class TestClopperPearson:
    def test_zero_successes(self):
        assert clopper_pearson_lower_batch([0], 100, 0.001)[0] == 0.0

    def test_all_successes_closed_form(self):
        # alpha**(1/n), frozen against the binomial-tail oracle
        got = clopper_pearson_lower_batch([100], 100, 0.001)[0]
        assert got == pytest.approx(0.001 ** 0.01, abs=1e-12)
        assert got == pytest.approx(0.93325, abs=1e-4)
        assert got == pytest.approx(cp_lower_oracle(100, 100, 0.001), abs=1e-10)

    def test_half_successes_one_sided(self):
        # one-sided bound at alpha; the oracle bisects the exact binomial tail
        got = clopper_pearson_lower_batch([50], 100, 0.05)[0]
        assert got == pytest.approx(cp_lower_oracle(50, 100, 0.05), abs=1e-9)
        assert got == pytest.approx(0.41362, abs=1e-4)
        # the matching two-sided-convention endpoint sits at alpha/2
        got2 = clopper_pearson_lower_batch([50], 100, 0.025)[0]
        assert got2 == pytest.approx(0.39832, abs=1e-4)

    def test_oracle_agreement_grid(self):
        for k, n, a in ((1, 50, 0.01), (17, 40, 0.05), (999, 1000, 0.001),
                        (500, 1000, 0.1), (84134, 100_000, 0.001)):
            assert clopper_pearson_lower_batch([k], n, a)[0] == pytest.approx(
                cp_lower_oracle(k, n, a), abs=1e-8)

    def test_validation(self):
        with pytest.raises(ValidationError):
            clopper_pearson_lower_batch([5], 4, 0.05)[0]
        with pytest.raises(ValidationError):
            clopper_pearson_lower_batch([-1], 4, 0.05)[0]
        with pytest.raises(ValidationError):
            clopper_pearson_lower_batch([1], 0, 0.05)[0]

    @pytest.mark.parametrize("n", [1, 2, 7, 50, 1000])
    @pytest.mark.parametrize("alpha", [1e-4, 0.001, 0.05])
    def test_batch_equals_scalar_and_oracle_at_every_count(self, n, alpha):
        k = np.arange(n + 1) if n <= 50 else np.array([0, 1, 2, 333, 500, 998, 999, 1000])
        got = clopper_pearson_lower_batch(k, n, alpha)
        assert got.dtype == np.float64 and got.shape == k.shape
        assert got.tolist() == [clopper_pearson_lower_batch([int(v)], n, alpha)[0] for v in k]
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
            clopper_pearson_lower_batch([1], 4, 1.5)[0]

    def test_equals_scipy_stats_beta_quantile_bit_for_bit(self):
        cases = 0
        for n in (2, 3, 7, 50, 500, 1000, 4321, 100_000):
            for k in sorted({1, 2, n // 3, n // 2, n - 2, n - 1} - {0, n}):
                for a in (1e-6, 1e-4, 0.001, 0.01, 0.025, 0.05, 0.3):
                    assert clopper_pearson_lower_batch([k], n, a)[0] == float(
                        stats.beta.ppf(a, k, n - k + 1)), (k, n, a)
                    cases += 1
        assert cases > 250

    @staticmethod
    def run_fresh(code: str, *args: str) -> str:
        """The stripped stdout of `code` run with `args` in a fresh interpreter."""
        src = str(Path(hiercert.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        return subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                              capture_output=True, text=True, timeout=60).stdout.strip()

    def modules_after_import(self, condition: str, module: str = "hiercert.cli") -> str:
        """sorted(m for m in sys.modules if condition) after a cold `import module`."""
        return self.run_fresh(
            f"import sys, {module}; print(sorted(m for m in sys.modules if {condition}))")

    def test_cli_import_leaves_scipy_stats_out(self):
        # scipy.stats takes most of a cold `import hiercert.cli`.
        assert self.modules_after_import("m.startswith('scipy.stats')") == "[]"

    @pytest.mark.parametrize("module", ["hiercert", "hiercert.cli"])
    def test_import_leaves_scipy_special_out(self, module):
        # scipy.special takes about 0.2 s and 19 MB; `numerics.special` loads
        # it on the first call that needs it.
        assert self.modules_after_import("m == 'scipy.special'", module) == "[]"

    def test_cli_import_leaves_scipy_out(self):
        # The top-level package is loaded only through `numerics.special`.
        assert self.modules_after_import("m == 'scipy'") == "[]"

    def test_meta_records_the_scipy_version_only_where_the_run_loaded_it(self, tmp_path):
        write_four_points(tmp_path / "e.csv")
        io.write_json(tmp_path / "toy-prf.json", {"n_trials": 10})
        io.write_json(tmp_path / "certify.json", {"sigma": 0.5, "n0": 10, "n": 50,
                                                  "model": _LINEAR,
                                                  "dataset": {"features": "e.csv"}})
        # toy-prf draws no noise and runs first, before anything loads scipy.
        code = ("import sys\nfrom hiercert import cli\nd = sys.argv[1]\n"
                "print([cli.main([c, '--config', f'{d}/{c}.json', '--out', f'{d}/{c}'])"
                " for c in ('toy-prf', 'certify')])")
        assert self.run_fresh(code, str(tmp_path)).splitlines()[-1] == "[0, 0]"
        prf = io.read_json(tmp_path / "toy-prf" / "prf_scenarios.meta.json")
        summary = io.read_json(tmp_path / "certify" / "certified_accuracy.meta.json")
        assert prf["versions"]["scipy"] is None
        assert summary["versions"]["scipy"] == scipy.__version__

    def test_commands_that_draw_no_noise_never_load_scipy_special(self, tmp_path):
        write_four_points(tmp_path / "e.csv")
        (tmp_path / "cm.csv").write_text("9,3,0,1\n3,9,1,0\n0,1,9,3\n1,0,3,9\n")
        io.write_json(tmp_path / "h.json", {"n_labels": 2, "root": {
            "kind": "intermediate", "classifier": _LINEAR, "children": [
                {"kind": "leaf", "labels": [0]}, {"kind": "leaf", "labels": [1]}]}})
        configs = [("discover", {"k": 2, "embeddings": "e.csv"}),
                   ("discover", {"k": 2, "confusion": "cm.csv"}),
                   ("attack", {"hierarchy": "h.json", "dataset": {"features": "e.csv"},
                               "attack": {"iters": 2}}),
                   ("toy-prf", {"n_trials": 10})]
        args = []
        for i, (command, config) in enumerate(configs):
            io.write_json(tmp_path / f"c{i}.json", config)
            args += [command, str(tmp_path / f"c{i}.json"), str(tmp_path / f"out{i}")]
        code = ("import sys\nfrom hiercert import cli\nargs = sys.argv[1:]\n"
                "codes = [cli.main([args[i], '--config', args[i + 1], '--out', args[i + 2]])"
                " for i in range(0, len(args), 3)]\n"
                "print(codes, 'scipy.special' in sys.modules)")
        assert self.run_fresh(code, *args).splitlines()[-1] == "[0, 0, 0, 0] False"

    @pytest.mark.skipif(not hasattr(os, "fork") or split._openblas() is None,
                        reason="the split needs os.fork and numpy's OpenBLAS")
    @pytest.mark.parametrize("command, config", [
        ("certify", {"sigma": 0.5, "n0": 10, "n": 50, "dataset": {"features": "e.csv"},
                     "model": _LINEAR}),
        ("toy-gauss", {"d": 10, "eta_list": [0.3], "k_list": [0, 1], "n_samples": 100})])
    def test_every_fork_inherits_scipy_special(self, tmp_path, command, config):
        # A child that imported scipy.special by itself would pay the import
        # twice over; the command starts without it and loads it before its
        # first split.
        write_four_points(tmp_path / "e.csv")
        io.write_json(tmp_path / "c.json", config)
        code = ("import os, sys\nfrom hiercert import cli, rng, split\n"
                "before = 'scipy.special' in sys.modules\n"
                "split._usable_cpus = lambda: 2\nsplit.SPLIT_MIN_DRAWS = 0\n"
                "rng.PIECE = 64  # many units and blocks, so every pass splits\n"
                "real, seen = os.fork, []\n"
                "def fork():\n    seen.append('scipy.special' in sys.modules)\n"
                "    return real()\n"
                "os.fork = fork\ncode = cli.main(sys.argv[1:])\nprint(before, code, seen)")
        out = self.run_fresh(code, command, "--config", str(tmp_path / "c.json"),
                             "--out", str(tmp_path / "out")).splitlines()[-1]
        before, exit_code, seen = out.split(" ", 2)
        assert (before, exit_code) == ("False", "0")
        assert seen.startswith("[True") and "False" not in seen, seen

    def test_cli_import_leaves_process_pools_out(self):
        # The two-process CSV read forks directly; a pool module on the import
        # path would cost every command's start-up.
        assert self.modules_after_import(
            "m in ('multiprocessing', 'concurrent.futures.process')") == "[]"


class TestOneRowVoteCounts:
    def test_constant_classifier(self):
        counts = one_pass(ConstantClassifier(2, 4), np.zeros((1, 2)), 1.0, 100, [1])[0]
        assert counts[2] == 100 and counts.sum() == 100

    def test_tiny_sigma_concentrates_on_clean_argmax(self):
        model = binary_linear([1.0, 0.0])
        counts = one_pass(model, np.array([[1.0, 0.0]]), 1e-9, 1000, [2])[0]
        assert counts[1] == 1000

    def test_linear_fraction_matches_analytic(self):
        model = binary_linear([1.0, 0.0])
        x = np.array([1.0, 0.0])
        n = 100_000
        counts = one_pass(model, x[None, :], 1.0, n, [3])[0]
        p_true = exact_smoothed_linear([1.0, 0.0], 0.0, x, 1.0)
        se = math.sqrt(p_true * (1 - p_true) / n)
        assert counts[1] / n == pytest.approx(p_true, abs=3 * se)

    def test_deterministic_and_chunk_invariant(self, monkeypatch):
        model = binary_linear([0.7, -0.2])
        X = np.array([[0.3, 0.4]])
        a = one_pass(model, X, 0.5, 5000, [7])
        b = one_pass(model, X, 0.5, 5000, [7])
        assert np.array_equal(a, b)
        unit_rows(monkeypatch, 613, 2)
        c = one_pass(model, X, 0.5, 5000, [7])
        assert np.array_equal(a, c)

    @pytest.mark.parametrize("rows", [None, 1, 613])
    def test_perturbed_inputs_are_x_plus_sigma_noise_bit_for_bit(self, monkeypatch, rows):
        unit_rows(monkeypatch, rows, 3)
        seen = []

        class Recorder(ConstantClassifier):
            def logits(self, X):
                seen.append(X.copy())
                return super().logits(X)

        x = np.array([0.3, -1.25, 7.0])
        x_before = x.copy()
        n = 1500 if rows != 1 else 40
        one_pass(Recorder(0, 2), x[None, :], 0.37, n, [9], stream=rng.STREAM_SELECT)
        noise = rng.normals(9, rng.STREAM_SELECT, 0, n * 3).reshape(n, 3)
        assert np.array_equal(np.concatenate(seen), x[None, :] + 0.37 * noise)
        assert np.array_equal(x, x_before)


class TestVoteCountKernel:
    # (rows per unit, set through the piece, or None for the default piece's
    # 65536 // 3 = 21845 rows, n): n below, equal to and above units of 613
    # and 1 rows, and below the default unit
    CASES = [(None, 500), (None, 20_000), (None, 20_001), (613, 100), (613, 613),
             (613, 1500), (1, 1), (1, 3)]

    @pytest.mark.parametrize("rows, n", CASES)
    @pytest.mark.parametrize("model_name", sorted(MODELS))
    @pytest.mark.parametrize("B", [1, 2, 37])
    def test_rows_equal_per_input_oracle(self, monkeypatch, rows, n, model_name, B):
        unit_rows(monkeypatch, rows, 3)
        model = MODELS[model_name]()
        X, seeds = batch_inputs(B), wrapping_seeds(B)
        got = one_pass(model, X, 0.4, n, seeds, stream=rng.STREAM_SELECT)
        assert got.shape == (B, model.n_labels) and got.dtype == np.int64
        for i in range(B):
            want = vote_counts_oracle(model, X[i], 0.4, n, int(seeds[i]), rng.STREAM_SELECT)
            assert np.array_equal(got[i], want), i

    @staticmethod
    def unit_sizes(B: int, d: int, n: int) -> list[int]:
        """Rows of each `logits` call that vote_counts makes for B inputs of width d."""
        sizes = []

        class Recorder(ConstantClassifier):
            def logits(self, X):
                assert X.shape[1] == d
                sizes.append(X.shape[0])
                return super().logits(X)

        counts = one_pass(Recorder(0, 3), np.zeros((B, d)), 0.5, n, np.arange(B))
        assert counts[:, 0].tolist() == [n] * B
        return sizes

    # 37 inputs of width 2 under a piece of P draws, so a unit is P // 2 rows:
    # whole inputs share a unit while n fits in one, otherwise a unit is at
    # most P // 2 samples of one input
    @pytest.mark.parametrize("piece, n, units", [(None, 300, [37 * 300]),
                                                 (613, 300, [300] * 37),
                                                 (1, 2, [1] * 74),
                                                 (1226, 300, [600] * 18 + [300]),
                                                 (1000, 700, [500, 200] * 37)])
    def test_one_logits_call_per_unit(self, monkeypatch, piece, n, units):
        if piece is not None:
            monkeypatch.setattr(rng, "PIECE", piece)
        assert self.unit_sizes(37, 2, n) == units

    # 3 inputs: d = 0 draws nothing and takes PIECE rows per unit; from
    # d = PIECE on a unit is one row
    @pytest.mark.parametrize("d, n, units", [(0, 300, [900]),
                                             (0, 70_000, [65_536, 4464] * 3),
                                             (65_536, 2, [1] * 6),
                                             (65_537, 2, [1] * 6)])
    def test_unit_rows_at_extreme_widths(self, d, n, units):
        assert self.unit_sizes(3, d, n) == units

    def test_working_memory_does_not_grow_with_n(self):
        # 2 inputs of width 64: a unit of 20k rows would hold 10 MB of noise.
        # A unit of one piece holds 0.5 MB, and about 2.1 MB is alive at the
        # peak with the piece's temporaries inside `rng.normals`.
        model = LinearSoftmax.init(10, 64, seed=23, scale=1.0)
        X = np.ones((2, 64))
        peaks = [peak_traced_bytes(lambda: one_pass(model, X, 0.5, n, [1, 2]))
                 for n in (100_000, 200_000)]
        assert peaks[0] < 4 << 20, peaks
        assert peaks[1] <= peaks[0] + (64 << 10), peaks

    def test_empty_batch_and_validation(self):
        model = MODELS["linear"]()
        assert one_pass(model, np.empty((0, 3)), 0.5, 100, []).shape == (0, 5)
        with pytest.raises(ValidationError):
            one_pass(model, batch_inputs(3), 0.5, 100, [1, 2])
        with pytest.raises(ValidationError):
            one_pass(model, batch_inputs(3), 0.5, 0, [1, 2, 3])


class UnitRecorder:
    """A model that records the rows of each `logits` call this process
    makes: the units a forked child counts leave no record here."""

    def __init__(self, model):
        self.model, self.n_labels, self.rows = model, model.n_labels, []

    def logits(self, X):
        self.rows.append(X.shape[0])
        return self.model.logits(X)


class ThreadVoter(ConstantClassifier):
    """Every sample votes the OpenBLAS thread count that `get()` reads in
    the process counting it."""

    def __init__(self, get):
        super().__init__(0, 4)
        self.get = get

    def logits(self, X):
        out = np.zeros((X.shape[0], self.n_labels))
        out[:, self.get()] = 1.0
        return out


@pytest.fixture(params=["stand-in", "numpy's"])
def blas_threads(request, monkeypatch):
    """A reader of the OpenBLAS thread count that `split` sets, 2 when the
    test starts: a stand-in held in a list, whose copy a forked child
    changes on its own, or numpy's OpenBLAS, put back after the test."""
    if request.param == "stand-in":
        threads = [2]

        def put(k):
            threads[0] = k

        monkeypatch.setattr(split, "_openblas", lambda: (lambda: threads[0], put))
        yield lambda: threads[0]
        return
    blas = split._openblas()
    if blas is None:
        pytest.skip("no OpenBLAS thread control found next to numpy")
    get, put = blas
    before = get()
    put(2)
    yield get
    put(before)


class TestTwoProcessVoteCounts:
    """With the draw threshold at 0, a forked child counts the first half of
    a call's units and this process the rest: the counts must be those of one
    process, also when the child or the fork fails."""

    # (model, B, d, piece, n): units of 613, 50 or 1 rows, or of 100 rows of
    # width 0, and one unit of the default piece
    CASES = {"odd-unit-count": ("mlp", 1, 3, 613 * 3, 1500),
             "one-input-many-units": ("linear", 1, 3, 50 * 3, 2001),
             "many-inputs-per-unit": ("mlp", 37, 3, 613 * 3, 100),
             "d-above-piece": ("mlp", 2, 3, 2, 5),
             "d-zero": ("tied", 3, 0, 100, 250),
             "one-unit": ("mlp", 2, 3, None, 100)}

    @pytest.fixture(autouse=True)
    def split_every_call(self, monkeypatch, forks):
        monkeypatch.setattr(split, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(split, "SPLIT_MIN_DRAWS", 0)

    def counts(self, monkeypatch, case="many-inputs-per-unit"):
        """(counts, rows counted here) of the split call and of one process."""
        model_name, B, d, piece, n = self.CASES[case]
        if piece is not None:
            monkeypatch.setattr(rng, "PIECE", piece)
        X = batch_inputs(B) if d else np.zeros((B, 0))
        seeds = wrapping_seeds(B)
        model = UnitRecorder(MODELS[model_name]())
        got = one_pass(model, X, 0.4, n, seeds), model.rows
        model = UnitRecorder(MODELS[model_name]())
        with monkeypatch.context() as m:
            m.setattr(split, "SPLIT_MIN_DRAWS", 1 << 62)
            want = one_pass(model, X, 0.4, n, seeds), model.rows
        return got, want

    @pytest.mark.parametrize("case, n_units", [("odd-unit-count", 3),
                                               ("one-input-many-units", 41),
                                               ("many-inputs-per-unit", 7),
                                               ("d-above-piece", 10),
                                               ("d-zero", 9),
                                               ("one-unit", 1)])
    def test_split_counts_equal_one_process_counts(self, monkeypatch, forks, case, n_units):
        (got, rows), (want, units) = self.counts(monkeypatch, case)
        assert np.array_equal(got, want) and got.dtype == np.int64
        assert len(units) == n_units
        if n_units == 1:  # one unit has no half
            assert not forks and rows == units
        else:  # the child's half was used
            assert len(forks) == 1 and rows == units[n_units // 2:]

    @pytest.mark.parametrize("how", ["exit-3", "sigkill", "truncated"])
    def test_failed_child_falls_back_to_the_same_counts(self, monkeypatch, forks, how):
        monkeypatch.setattr(split, "_send", failing_send(how))
        (got, rows), (want, units) = self.counts(monkeypatch)
        assert np.array_equal(got, want)
        assert len(forks) == 1 and rows == units[3:] + units[:3]

    @pytest.mark.parametrize("broken", ["fork", "pipe"])
    def test_fork_or_pipe_oserror_falls_back_to_the_same_counts(self, monkeypatch, forks,
                                                                broken):
        def fail(*args, **kwargs):
            raise OSError("unavailable")

        monkeypatch.setattr(os, broken, fail)
        (got, rows), (want, units) = self.counts(monkeypatch)
        assert np.array_equal(got, want) and not forks and rows == units

    @pytest.mark.parametrize("host", ["one-cpu", "no-fork", "no-blas-control"])
    def test_counts_in_one_process_where_it_cannot_split(self, monkeypatch, forks, host):
        if host == "one-cpu":
            monkeypatch.setattr(split, "_usable_cpus", lambda: 1)
        elif host == "no-fork":
            monkeypatch.delattr(os, "fork")
        else:
            monkeypatch.setattr(split, "_openblas", lambda: None)
        (got, rows), (want, units) = self.counts(monkeypatch)
        assert np.array_equal(got, want) and not forks and rows == units

    def test_both_processes_count_with_one_blas_thread(self, forks, blas_threads):
        counts = one_pass(ThreadVoter(blas_threads), np.zeros((2, 3)), 0.4, 70_000, [1, 2])
        assert len(forks) == 1 and counts[:, 1].tolist() == [70_000] * 2
        assert blas_threads() == 2

    def test_blas_threads_put_back_when_this_half_raises(self, forks, blas_threads):
        parent = os.getpid()

        class FailsHere(ConstantClassifier):
            def logits(self, X):
                if os.getpid() == parent:
                    raise RuntimeError("this process's half failed")
                return super().logits(X)

        with killed_after(30, forks), pytest.raises(RuntimeError, match="half failed"):
            one_pass(FailsHere(0, 3), np.zeros((2, 3)), 0.4, 70_000, [1, 2])
        assert len(forks) == 1 and blas_threads() == 2


def test_vote_counts_forks_only_where_two_cpus_are_usable(monkeypatch, forks):
    # The host's own CPU affinity decides; one CPU (taskset -c 0) never forks.
    monkeypatch.setattr(split, "SPLIT_MIN_DRAWS", 0)
    unit_rows(monkeypatch, 613, 3)
    model, X, seeds = MODELS["mlp"](), batch_inputs(37), wrapping_seeds(37)
    got = one_pass(model, X, 0.4, 100, seeds)
    assert len(forks) == int(split._can_split())
    monkeypatch.setattr(split, "SPLIT_MIN_DRAWS", 1 << 62)
    assert np.array_equal(got, one_pass(model, X, 0.4, 100, seeds))


class TestSelectionAndEstimationPasses:
    """`vote_counts` over a selection and an estimation pass counts, in
    one process or split, what two one-process one-pass calls count."""

    # (model, B, rows per unit, n0, n): units of several inputs in both
    # passes, units of one input's sample range in both, one pass of each
    # kind, and no inputs
    CASES = {"inputs-per-unit": ("mlp", 37, 613, 20, 100),
             "sample-ranges": ("linear", 2, 50, 120, 2001),
             "inputs-then-sample-ranges": ("tied", 5, 613, 100, 1500),
             "no-inputs": ("mlp", 0, 613, 20, 100)}

    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("processes", ["one", "split"])
    def test_equals_two_vote_counts_calls(self, monkeypatch, forks, case, processes):
        model_name, B, rows, n0, n = self.CASES[case]
        unit_rows(monkeypatch, rows, 3)
        model, X = MODELS[model_name](), batch_inputs(B)
        select, estimate = wrapping_seeds(B), wrapping_seeds(B)[::-1]
        if processes == "split":
            monkeypatch.setattr(split, "_usable_cpus", lambda: 2)
            monkeypatch.setattr(split, "SPLIT_MIN_DRAWS", 0)
        got = vote_counts(model, X, [(0.4, n0, select, rng.STREAM_SELECT),
                                     (0.7, n, estimate, rng.STREAM_NOISE)])
        assert len(forks) == (processes == "split" and B > 0 and split._can_split())
        monkeypatch.setattr(split, "SPLIT_MIN_DRAWS", 1 << 62)
        want = [one_pass(model, X, 0.4, n0, select, stream=rng.STREAM_SELECT),
                one_pass(model, X, 0.7, n, estimate)]
        assert got.shape == (2, B, model.n_labels) and got.dtype == np.int64
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_each_pass_checks_its_sample_count_and_seeds(self):
        model, X = MODELS["linear"](), batch_inputs(3)
        good = (0.5, 100, [1, 2, 3], rng.STREAM_SELECT)
        with pytest.raises(ValidationError, match="n must be"):
            vote_counts(model, X, [good, (0.5, 0, [1, 2, 3], rng.STREAM_NOISE)])
        with pytest.raises(ValidationError, match="one seed per input"):
            vote_counts(model, X, [good, (0.5, 100, [1, 2], rng.STREAM_NOISE)])


@pytest.mark.skipif(not hasattr(os, "fork") or split._openblas() is None,
                    reason="the split needs os.fork and numpy's OpenBLAS")
def test_certify_forks_once_for_all_its_sigmas(monkeypatch, forks, tmp_path):
    # Units of 32 rows: every pass of each sigma spans two units or more, and
    # counting each pass on its own would fork four times.
    write_four_points(tmp_path / "e.csv")
    io.write_json(tmp_path / "c.json", {"sigma": [0.5, 1.0], "n0": 10, "n": 50,
                                        "dataset": {"features": "e.csv"}, "model": _LINEAR})
    monkeypatch.setattr(rng, "PIECE", 64)
    monkeypatch.setattr(split, "_usable_cpus", lambda: 2)
    outputs = []
    for cut_off in (0, 1 << 62):
        monkeypatch.setattr(split, "SPLIT_MIN_DRAWS", cut_off)
        out = tmp_path / f"out{cut_off}"
        assert cli.main(["certify", "--config", str(tmp_path / "c.json"), "--out", str(out)]) == 0
        outputs.append({f.name: f.read_bytes() for f in sorted(out.glob("*.csv"))})
    assert len(forks) == 1
    assert sorted(outputs[0]) == ["certificates_sigma0p5.csv", "certificates_sigma1.csv",
                                  "certified_accuracy.csv"]
    assert outputs[0] == outputs[1]


def test_finds_numpys_openblas_where_numpy_is_built_on_scipy_openblas():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if blas["name"] == "scipy-openblas" and blas["found"]:
        get, put = split._openblas()
        before = get()
        put(1)
        try:
            assert get() == 1
        finally:
            put(before)
        assert get() == before


class TestCertifyBatch:
    @pytest.mark.parametrize("rows, n", [(None, 400), (613, 613), (613, 2000)])
    @pytest.mark.parametrize("model_name", sorted(MODELS))
    @pytest.mark.parametrize("B", [1, 2, 37])
    def test_equals_per_input_oracle(self, monkeypatch, rows, n, model_name, B):
        unit_rows(monkeypatch, rows, 3)
        model = MODELS[model_name]()
        X, seeds = batch_inputs(B), wrapping_seeds(B)
        cfg = SmoothingConfig(sigma=0.5, n0=50, n=n, alpha_conf=0.01)
        got, = certify_batch(model, X, [cfg], [seeds])
        for i in range(B):
            label, radius, p = certify_oracle(model, X[i], 0.5, 50, n, 0.01, int(seeds[i]))
            assert int(got.labels[i]) == label and got.p_a_lower[i] == p
            assert np.isnan(got.radii[i]) if radius is None else got.radii[i] == radius
            assert certify(model, X[i], cfg, int(seeds[i])) == got.prediction(i)
        assert np.array_equal(got.abstained, got.labels == ABSTAIN)

    def test_two_configs_equal_each_config_alone_and_the_oracle(self, monkeypatch):
        unit_rows(monkeypatch, 613, 3)
        model, B = MODELS["mlp"](), 37
        X = batch_inputs(B)
        configs = [SmoothingConfig(sigma=0.5, n0=50, n=700, alpha_conf=0.01),
                   SmoothingConfig(sigma=0.25, n0=30, n=400, alpha_conf=0.001)]
        seeds = [wrapping_seeds(B), rng.mix64(np.arange(B, dtype=np.uint64))]
        both = certify_batch(model, X, configs, seeds)
        assert len(both) == 2
        for cfg, s, got in zip(configs, seeds, both):
            alone, = certify_batch(model, X, [cfg], [s])
            assert (got.sigma, got.n_samples) == (alone.sigma, alone.n_samples) == (cfg.sigma,
                                                                                    cfg.n)
            for name in ("labels", "radii", "p_a_lower"):
                assert np.array_equal(getattr(got, name), getattr(alone, name), equal_nan=True)
            for i in range(B):
                label, radius, p = certify_oracle(model, X[i], cfg.sigma, cfg.n0, cfg.n,
                                                  cfg.alpha_conf, int(s[i]))
                pred = got.prediction(i)
                assert (pred.label, pred.radius, pred.p_a_lower) == (label, radius, p)

    def test_one_seed_array_per_config(self):
        model, X = MODELS["linear"](), batch_inputs(2)
        assert certify_batch(model, X, [], []) == []
        with pytest.raises(ValidationError, match="one seed array per config"):
            certify_batch(model, X, [SmoothingConfig(sigma=0.5)] * 2, [[1, 2]])

    def test_abstentions_and_two_sided_runner_up(self):
        # inputs on the linear rule's boundary abstain, the others certify
        # with the two-sided radius against the runner-up 1 - p_a_lower
        model = binary_linear([1.0, 0.0])
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 3.0], [2.0, -1.0]])
        seeds = np.array([5, 6, 7, 8], dtype=np.uint64)
        cfg = SmoothingConfig(sigma=0.5, n0=50, n=2000, alpha_conf=0.001)
        got, = certify_batch(model, X, [cfg], [seeds])
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
            diff = abs(margin_radius(1.0, p, 1.0 - p) - normal_quantile(p))
            assert diff <= 1e-12

    def test_linear_in_sigma(self):
        z = margin_radius(1.0, 0.8, 1.0 - 0.8)
        assert margin_radius(0.25, 0.8, 1.0 - 0.8) * 4 == pytest.approx(z, abs=0.0)

    def test_monotone_in_p(self):
        ps = np.linspace(0.5 + 1e-9, 1 - 1e-9, 10_000)
        radii = np.array([margin_radius(0.5, p, 1.0 - p) for p in ps])
        assert np.all(np.diff(radii) >= 0.0)

    @staticmethod
    def outcome(fn, *args):
        """What a call gives: its exception's type and message, or its shape and bits."""
        try:
            got = fn(*args)
        except (ValidationError, ValueError) as exc:
            return type(exc), str(exc)
        got = np.atleast_1d(np.asarray(got, dtype=np.float64))
        return got.shape, got.tobytes()

    GRID = [0.0, -0.0, 1.0, math.nan, -0.25, 1.25, 5e-324, 1e-300, 0.3, 0.5, 0.7, 1.0 - 2**-53]

    def test_scalar_pinned_to_oracle_on_every_pair(self):
        # every pair of GRID, those that raise included: NaN and out-of-range
        # probabilities fail the range check, a non-degenerate 0 or 1 the
        # quantile's domain check, and p_top == 1 or p_runner == 0 give +inf
        outcomes = {}
        for a in self.GRID:
            for b in self.GRID:
                scalar = self.outcome(margin_radius, 0.5, a, b)
                assert scalar == self.outcome(margin_radius_oracle, 0.5, [a], [b]), (a, b)
                outcomes[a, b] = scalar
        inf = ((1,), np.array([math.inf]).tobytes())
        assert outcomes[math.nan, 0.0] == outcomes[-0.25, 0.3] == (
            ValidationError, "probabilities must lie in [0, 1]")
        assert outcomes[0.0, 0.3] == outcomes[0.7, 1.0] == (
            ValidationError, "normal_quantile requires 0 < q < 1")
        assert outcomes[1.0, 0.3] == outcomes[0.0, 0.0] == outcomes[0.7, -0.0] == inf
        assert outcomes[0.3, 0.7] == ((1,), np.zeros(1).tobytes())


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
