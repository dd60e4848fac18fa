import numpy as np
import pytest

from hiercert import rng
from hiercert.errors import CapabilityError, TrainingDivergenceError, ValidationError
from hiercert.hierarchy import Hierarchy, Leaf
from hiercert.models import (
    LinearSoftmax,
    MaskedModel,
    PgdParams,
    SmallMlp,
    _dlogits,
    _row_reduce,
    _signed_step,
    cross_entropy,
    pgd_attack,
    softmax,
    train,
)

from helpers import (
    cross_entropy_oracle,
    gradient_check,
    gradient_check_random,
    linearly_separable,
    make_blobs,
    per_class_passes,
    pgd_attack_oracle,
    softmax_oracle,
    train_oracle,
)

XOR_X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
XOR_Y = np.array([0, 1, 1, 0])


class TestPredictProba:
    def test_uniform_on_zero_logits(self):
        model = LinearSoftmax(W=np.zeros((4, 3)), b=np.zeros(4))
        assert np.allclose(softmax(model.logits(np.ones((1, 3)))), 0.25)

    def test_shift_invariance(self):
        logits = np.array([[1.3, -0.2, 0.7]])
        shifted = softmax(logits + 123.456)
        assert np.max(np.abs(shifted - softmax(logits))) < 1e-12

    def test_large_logits_do_not_overflow(self):
        out = softmax(np.array([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out))
        assert out[0, 0] == pytest.approx(1.0)
        assert out[0, 1] == pytest.approx(0.0, abs=1e-300)


class TestGradientCheck:
    def test_linear_random_init(self):
        model = LinearSoftmax.init(3, 5, seed=4)
        x = rng.normals(8, 300, 0, 5)
        assert gradient_check(model, x, 1) < 1e-5

    def test_mlp_random_init_off_kink(self):
        assert gradient_check_random(
            lambda s: SmallMlp.init(4, 3, 6, s), n_configs=20, seed=5) < 1e-4

    def test_constant_zero_model(self):
        # input gradient is identically zero (and finite differences agree);
        # parameter gradients of the uniform softmax are nonzero but match
        model = LinearSoftmax(W=np.zeros((3, 2)), b=np.zeros(3))
        X = np.array([[0.3, -0.1]])
        logits = model.logits(X)
        G = softmax(logits)
        G[0, 0] -= 1.0
        assert np.array_equal(model.input_grad_from_dlogits(X, G), np.zeros((1, 2)))
        assert gradient_check(model, X[0], 0) < 1e-9


class TestTrain:
    def test_separable_blobs_reach_full_accuracy(self):
        X, y = make_blobs(2, 60, [(-2.0, 0.0), (2.0, 0.0)])
        assert linearly_separable(X, y)
        model = train(LinearSoftmax.init(2, 2, seed=0), X, y,
                      epochs=500, learning_rate=0.5)
        assert np.mean(np.argmax(model.logits(X), 1) == y) == 1.0

    def test_zero_learning_rate_is_identity(self):
        X, y = make_blobs(3, 10, [(-1.0, 0.0), (1.0, 0.0)])
        init = LinearSoftmax.init(2, 2, seed=6)
        out = train(init, X, y, epochs=50, learning_rate=0.0)
        assert np.array_equal(out.W, init.W) and np.array_equal(out.b, init.b)

    def test_xor_capacity_split(self):
        lin = train(LinearSoftmax.init(2, 2, seed=1), XOR_X, XOR_Y,
                    epochs=2000, learning_rate=0.5)
        assert np.mean(np.argmax(lin.logits(XOR_X), 1) == XOR_Y) <= 0.75
        mlp = train(SmallMlp.init(2, 2, 4, seed=1), XOR_X, XOR_Y,
                    epochs=2000, learning_rate=0.5)
        assert np.mean(np.argmax(mlp.logits(XOR_X), 1) == XOR_Y) == 1.0

    def test_loss_nonincreasing_on_convex_problem(self):
        X, y = make_blobs(4, 40, [(-1.5, 0.5), (1.5, -0.5)])
        model = LinearSoftmax.init(2, 2, seed=7)
        losses = []
        for _ in range(40):
            losses.append(cross_entropy(model.logits(X), y))
            model = train(model, X, y, epochs=1, learning_rate=0.05)
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_divergence_raises(self):
        # the hidden layer compounds the blow-up until the logits overflow;
        # the stabilized linear loss merely oscillates, so only the mlp
        # can genuinely diverge to non-finite values
        X, y = make_blobs(5, 30, [(-1.0, 0.0), (1.0, 0.0)])
        with pytest.raises(TrainingDivergenceError):
            train(SmallMlp.init(2, 2, 4, seed=8), X, y,
                  epochs=200, learning_rate=1e12)

    def test_noise_sigma_changes_training_deterministically(self):
        X, y = make_blobs(6, 30, [(-1.0, 0.0), (1.0, 0.0)])
        a = train(LinearSoftmax.init(2, 2, seed=9), X, y, 50, 0.1,
                  noise_sigma=0.5, seed=42)
        b = train(LinearSoftmax.init(2, 2, seed=9), X, y, 50, 0.1,
                  noise_sigma=0.5, seed=42)
        c = train(LinearSoftmax.init(2, 2, seed=9), X, y, 50, 0.1)
        assert np.array_equal(a.W, b.W)
        assert not np.array_equal(a.W, c.W)

    @pytest.mark.parametrize("noise_sigma", [None, 0.5])
    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_equals_two_pass_oracle_bit_for_bit(self, kind, noise_sigma):
        X, y = make_blobs(11, 25, [(-1.0, 0.0), (1.0, 0.5), (0.0, -1.0)])
        init = (LinearSoftmax.init(3, 2, seed=12) if kind == "linear"
                else SmallMlp.init(3, 2, 6, seed=12))
        got = train(init, X, y, 30, 0.2, noise_sigma=noise_sigma, seed=13)
        want = train_oracle(init, X, y, 30, 0.2, noise_sigma=noise_sigma, seed=13)
        assert type(got) is type(want)
        for a, b in zip(got.params(), want.params()):
            assert same_bits(a, b)

    def test_one_first_layer_evaluation_per_epoch(self):
        evaluations = []

        class CountingMlp(SmallMlp):
            def _pre_activation(self, X):
                evaluations.append(len(X))
                return super()._pre_activation(X)

        # the base's with_params keeps the subclass, so every epoch is counted
        X, y = make_blobs(14, 20, [(-1.0, 0.0), (1.0, 0.0)])
        epochs = 10
        train(CountingMlp(*SmallMlp.init(2, 2, 4, seed=15).params()), X, y, epochs, 0.1)
        assert evaluations == [40] * epochs


def binary_linear(w, b=0.0):
    w = np.asarray(w, dtype=np.float64)
    return LinearSoftmax(W=np.vstack([np.zeros_like(w), w]), b=np.array([0.0, b]))


class LogitsOnly:
    """A model that gives logits but no gradients."""

    def __init__(self, n_labels: int):
        self.n_labels = n_labels

    def logits(self, X):
        return np.zeros((np.shape(X)[0], self.n_labels))


class TestPgd:
    def test_zero_epsilon_is_identity(self):
        model = binary_linear([1.0, -0.5])
        x = np.array([0.4, 0.2])
        adv = pgd_attack(model, x[None], [1], PgdParams(epsilon=0.0, step=0.1, iters=5), seed=1)
        assert np.array_equal(adv, x[None])

    def test_matches_closed_form_on_binary_linear(self):
        # the optimal l-inf attack on a linear rule lands on the corner
        # x - eps * s * sign(w), s = +1 for the positive class
        w = np.array([1.5, -2.0])
        model = binary_linear(w, 0.1)
        X = rng.normals(3, 301, 0, 20).reshape(10, 2)
        y = np.argmax(model.logits(X), axis=1)
        eps = 0.2
        adv = pgd_attack(model, X, y, PgdParams(epsilon=eps, step=0.05, iters=20), seed=2)
        sgn = np.where(y == 1, -1.0, 1.0)
        opt = X + eps * sgn[:, None] * np.sign(w)[None, :]
        for i in range(10):
            la = cross_entropy(model.logits(adv[i:i + 1]), y[i:i + 1])
            lo = cross_entropy(model.logits(opt[i:i + 1]), y[i:i + 1])
            assert la == pytest.approx(lo, abs=1e-6)

    def test_projection_invariant(self):
        for t in range(20):
            model = SmallMlp.init(3, 4, 5, seed=100 + t)
            X = rng.normals(7, 302, t * 8, 8).reshape(2, 4)
            y = np.array([t % 3, (t + 1) % 3])
            eps = 0.05 + 0.01 * t
            adv = pgd_attack(model, X, y, PgdParams(epsilon=eps, step=eps / 3,
                                                    iters=7, restarts=3), seed=t)
            assert np.abs(adv - X).max() <= eps + 1e-15

    def test_loss_never_below_clean_start(self):
        model = SmallMlp.init(3, 4, 5, seed=200)
        X = rng.normals(9, 303, 0, 12).reshape(3, 4)
        y = np.array([0, 1, 2])
        adv = pgd_attack(model, X, y, PgdParams(epsilon=0.1, step=0.03, iters=10), seed=3)
        for i in range(3):
            clean = cross_entropy(model.logits(X[i:i + 1]), y[i:i + 1])
            attacked = cross_entropy(model.logits(adv[i:i + 1]), y[i:i + 1])
            assert attacked >= clean - 1e-12

    def test_lookup_rejected(self):
        model = LogitsOnly(2)
        with pytest.raises(CapabilityError):
            pgd_attack(model, np.zeros(2), 0, PgdParams(epsilon=0.1, step=0.05), seed=0)

    def test_params_validation(self):
        with pytest.raises(ValidationError):
            PgdParams(epsilon=-0.1, step=0.1)
        with pytest.raises(ValidationError):
            PgdParams(epsilon=0.1, step=0.0)
        with pytest.raises(ValidationError):
            PgdParams(epsilon=0.1, step=0.1, iters=0)


class TestModelParameters:
    @pytest.mark.parametrize("W", [[["a", 0.0], [1.0, 0.0]], [[0.0, 0.0], [1.0]]])
    def test_unconvertible_parameters_rejected(self, W):
        with pytest.raises(ValidationError, match="model parameters must be numeric arrays"):
            LinearSoftmax(W=W, b=[0.0, 0.0])

    def test_unconvertible_parameter_wins_over_an_earlier_shape_error(self):
        with pytest.raises(ValidationError, match="model parameters must be numeric arrays"):
            SmallMlp(W1=np.ones((3, 2)), b1=[0.5], W2=[["a", 0.0, 0.0]], b2=[0.0])

    @pytest.mark.parametrize("make", [lambda: LinearSoftmax(W=np.ones((0, 2)), b=np.ones(0)),
                                      lambda: SmallMlp(np.ones((0, 2)), np.ones(0),
                                                       np.ones((2, 0)), np.ones(2))])
    def test_zero_row_weights_rejected(self, make):
        with pytest.raises(ValidationError, match=r"W1? must be a matrix of at least one row"):
            make()

    @pytest.mark.parametrize("make", [lambda: LinearSoftmax.init(3, 2, seed=4),
                                      lambda: SmallMlp.init(3, 2, 5, seed=4)])
    def test_equality_and_hash_go_by_identity(self, make):
        model, twin = make(), make()
        assert model == model and model != twin
        masked = MaskedModel(model, (0, 1, 2))
        leaf = Leaf((0, 1, 2), masked)
        tree = Hierarchy(leaf, n_labels=3)
        assert len({model, twin, masked, leaf, tree}) == 5
        assert hash(tree) == hash(Hierarchy(Leaf((0, 1, 2), masked), n_labels=3))


class TestMaskedModel:
    @pytest.mark.parametrize("subset", [(), (0, 5), (-1, 2)])
    def test_subset_must_be_nonempty_labels_of_the_base(self, subset):
        with pytest.raises(ValidationError, match="mask subset"):
            MaskedModel(LinearSoftmax.init(5, 3, seed=11), subset)

    def test_logits_are_selected_columns(self):
        base = LinearSoftmax.init(5, 3, seed=11)
        masked = MaskedModel(base, (1, 3, 4))
        X = rng.normals(2, 304, 0, 6).reshape(2, 3)
        assert np.array_equal(masked.logits(X), base.logits(X)[:, [1, 3, 4]])

    def test_gradients_chain_through(self):
        base = LinearSoftmax.init(5, 3, seed=12)
        masked = MaskedModel(base, (0, 2))
        X = rng.normals(4, 305, 0, 3).reshape(1, 3)
        y = np.array([1])
        logits = masked.logits(X)
        G = softmax(logits)
        G[0, 1] -= 1.0
        analytic = masked.input_grad_from_dlogits(X, G)[0]
        # finite differences on the masked cross-entropy
        def loss(x):
            return cross_entropy(masked.logits(x[None, :]), y)
        step = 1e-6
        for j in range(3):
            xp, xm = X[0].copy(), X[0].copy()
            xp[j] += step
            xm[j] -= step
            num = (loss(xp) - loss(xm)) / (2 * step)
            assert analytic[j] == pytest.approx(num, abs=1e-6)

    def test_a_mask_of_a_mask_is_composed_when_built(self):
        base = SmallMlp.init(5, 3, 4, seed=13)
        inner = MaskedModel(base, (4, 2, 0, 1))
        nested = MaskedModel(inner, (1, 3))
        assert nested.base is base and nested.subset == (2, 1)
        X = rng.normals(5, 306, 0, 6).reshape(2, 3)
        G = rng.normals(5, 307, 0, 4).reshape(2, 2)
        # the chain of both masks, one column selection and one scatter each
        chained = base.logits(X)[:, [4, 2, 0, 1]][:, [1, 3]]
        assert same_bits(nested.logits(X), chained)
        local = np.zeros((2, 4))
        local[:, [1, 3]] = G
        full = np.zeros((2, 5))
        full[:, [4, 2, 0, 1]] = local
        assert same_bits(nested.input_grad_from_dlogits(X, G),
                         base.input_grad_from_dlogits(X, full))

    def test_a_mask_of_a_mask_is_checked_against_the_inner_labels(self):
        inner = MaskedModel(LinearSoftmax.init(5, 3, seed=13), (3, 4))
        with pytest.raises(ValidationError, match=r"\(2,\) is not a nonempty subset of 0..1"):
            MaskedModel(inner, (2,))


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


LOGIT_CASES = {
    "random": rng.normals(3, 310, 0, 4000 * 8).reshape(4000, 8) * 5.0,
    "wide": rng.normals(3, 311, 0, 3 * 1000).reshape(3, 1000),
    "ties": [[1.0, 1.0, 0.5], [2.0, -1.0, 2.0], [0.25, 0.5, 0.5]],
    "all_equal": np.full((3, 4), 7.25),
    "signed_zero": [[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0]],
    "large": [[1e300, -1e300, 0.0], [709.0, 710.0, -745.0], [-1e308, -1e308, -1e308]],
    "infinite": [[-np.inf, 0.0, 1.0], [-np.inf, -np.inf, -np.inf], [np.inf, 0.0, 1.0]],
    "nan": [[np.nan, 0.0, 1.0], [0.0, 1.0, 2.0], [3.0, np.nan, np.nan]],
}


class TestSoftmaxBits:
    """softmax and cross_entropy equal numpy's row-max formulas bit for bit."""

    @pytest.mark.parametrize("case", LOGIT_CASES)
    def test_softmax(self, case):
        z = np.asarray(LOGIT_CASES[case], dtype=np.float64)
        before = z.copy()
        with np.errstate(invalid="ignore", over="ignore"):
            assert same_bits(softmax(z), softmax_oracle(z))
            for row in z:
                assert same_bits(softmax(row), softmax_oracle(row))
        assert same_bits(z, before)

    @pytest.mark.parametrize("case", LOGIT_CASES)
    def test_cross_entropy(self, case):
        z = np.asarray(LOGIT_CASES[case], dtype=np.float64)
        for label in (0, z.shape[1] - 1):
            y = np.full(z.shape[0], label)
            with np.errstate(invalid="ignore", over="ignore"):
                assert same_bits(cross_entropy(z, y), cross_entropy_oracle(z, y))
                for i in range(min(z.shape[0], 5)):
                    assert same_bits(cross_entropy(z[i:i + 1], y[:1]),
                                     cross_entropy_oracle(z[i:i + 1], y[:1]))

    def test_nan_propagates_to_its_row_only(self):
        out = softmax(np.asarray(LOGIT_CASES["nan"]))
        assert np.isnan(out[[0, 2]]).all() and np.isfinite(out[1]).all()

    @pytest.mark.parametrize("shape", [(8,), (1, 8), (5, 1), (0, 3), (2, 3, 4), (7, 2)])
    def test_row_max_equals_numpy_max(self, shape):
        z = rng.normals(5, 312, 0, int(np.prod(shape))).reshape(shape)
        assert same_bits(_row_reduce(np.maximum, z), z.max(axis=-1))

    @pytest.mark.parametrize("rows", [1, 3, 500])
    def test_row_reduce_equals_numpy_at_every_width(self, rows):
        # Random magnitudes, with signed zeros, infinities, NaN and subnormals
        # in about a third of the cells.
        specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324])
        for w in range(1, 131):
            size = rows * w
            z = rng.normals(6, 313, 0, size) * 10.0 ** rng.integers(6, 314, 0, size, 17)
            pick = rng.integers(6, 315, 0, size, 3 * len(specials))
            z = np.where(pick < len(specials), specials[pick % len(specials)], z)
            for shaped in (z.reshape(rows, w), z.reshape(rows, w)[:, ::-1], z[:w]):
                with np.errstate(invalid="ignore"):
                    assert same_bits(_row_reduce(np.maximum, shaped), shaped.max(axis=-1)), w
                    assert same_bits(_row_reduce(np.add, shaped), shaped.sum(axis=-1)), w


def _layouts(L: np.ndarray, width: int) -> dict:
    """Views of logits L with `width` columns: the F-ordered copy that
    selecting columns makes, and a view strided along both axes."""
    return {"selected": L[:, list(range(1, 2 * width, 2))],
            "strided": L[::2, 1:2 * width:2]}


class TestNonContiguousLogits:
    """softmax, the logit gradient and the fused step equal their oracles bit
    for bit on logits that are not C-contiguous."""

    @pytest.mark.parametrize("width", [2, 3, 7, 8, 12])
    def test_softmax_and_logit_gradient(self, width):
        L = rng.normals(7, 316, 0, 301 * 30).reshape(301, 30) * 4.0
        for name, z in _layouts(L, width).items():
            assert not z.flags.c_contiguous, name
            n = z.shape[0]
            y = rng.integers(7, 317, 0, n, width)
            assert same_bits(softmax(z), softmax_oracle(z)), name
            G = softmax_oracle(z)
            G[np.arange(n), y] -= 1.0
            assert same_bits(_dlogits(z, y), G / n), name

    @pytest.mark.parametrize("name", ["linear", "mlp", "masked_two", "masked_all",
                                      "masked_nested"])
    def test_fused_step(self, name):
        model = ATTACK_MODELS[name]
        X, y = _attack_batch(model, 333, seed=5)
        logits, cache = model._forward(X)
        grad = model._backward(cache, _dlogits(logits, y))
        assert same_bits(logits, model.logits(X))
        G = softmax_oracle(model.logits(X))
        G[np.arange(333), y] -= 1.0
        assert same_bits(grad, model.input_grad_from_dlogits(X, G / 333))


class TestSignedStep:
    """The branch-free sign step equals np.sign(g) * step bit for bit."""

    @pytest.mark.parametrize("case", ["random", "zeros", "specials", "nan"])
    @pytest.mark.parametrize("step", [0.02, 1.0, 5e-324, np.inf])
    def test_equals_sign_times_step(self, case, step):
        g = rng.normals(8, 318, 0, 900 * 7).reshape(900, 7)
        g *= 10.0 ** rng.integers(8, 319, 0, g.size, 40).reshape(g.shape) / 1e20
        specials = {"random": [], "zeros": [0.0, -0.0],
                    "specials": [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2e-308],
                    "nan": [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, np.nan]}[case]
        for k, v in enumerate(specials):
            g.reshape(-1)[k::97] = v
        buffers = (np.empty(g.shape, dtype=bool), np.empty(g.shape, dtype=bool),
                   np.empty(g.shape, dtype=np.int8))
        with np.errstate(invalid="ignore"):
            want = np.sign(g) * step
            got = _signed_step(g, step, *buffers)
        assert got is g
        assert same_bits(got, want)


def _attack_models():
    linear = LinearSoftmax.init(5, 6, seed=30)
    mlp = SmallMlp.init(5, 6, 9, seed=31)
    return {
        "linear": linear,
        "mlp": mlp,
        "masked_linear": MaskedModel(linear, (0, 3)),
        "masked_one": MaskedModel(mlp, (3,)),
        "masked_two": MaskedModel(mlp, (1, 4)),
        "masked_all": MaskedModel(mlp, (0, 1, 2, 3, 4)),
        "masked_nested": MaskedModel(MaskedModel(mlp, (0, 2, 3, 4)), (3, 1, 2)),
    }


ATTACK_MODELS = _attack_models()


def _attack_batch(model, n: int, seed: int):
    d = model.input_dim
    X = rng.normals(seed, 320, 0, n * d).reshape(n, d)
    y = rng.integers(seed, 321, 0, n, model.n_labels)
    return X, y


class TestFusedPgd:
    """pgd_attack's one-pass step equals the two-pass loop bit for bit."""

    @pytest.mark.parametrize("restarts", [1, 4])
    @pytest.mark.parametrize("n", [1, 1200])
    @pytest.mark.parametrize("name", ATTACK_MODELS)
    def test_matches_two_pass_oracle(self, name, n, restarts):
        model = ATTACK_MODELS[name]
        X, y = _attack_batch(model, n, seed=n + restarts)
        params = PgdParams(epsilon=0.5, step=0.15, iters=6, restarts=restarts)
        got = pgd_attack(model, X, y, params, seed=17)
        assert same_bits(got, pgd_attack_oracle(model, X, y, params, seed=17))
        assert not same_bits(got, X) or name == "masked_one"

    @pytest.mark.parametrize("name", ATTACK_MODELS)
    def test_zero_epsilon_matches_oracle(self, name):
        model = ATTACK_MODELS[name]
        X, y = _attack_batch(model, 40, seed=3)
        params = PgdParams(epsilon=0.0, step=0.1, iters=3, restarts=2)
        got = pgd_attack(model, X, y, params, seed=4)
        assert same_bits(got, pgd_attack_oracle(model, X, y, params, seed=4))
        assert same_bits(got, X)

    def test_single_input_matches_oracle(self):
        model = ATTACK_MODELS["masked_two"]
        X, y = _attack_batch(model, 1, seed=8)
        params = PgdParams(epsilon=0.3, step=0.1, iters=5, restarts=3)
        got = pgd_attack(model, X[:1], y[:1], params, seed=2)
        assert got.shape == X[:1].shape
        assert same_bits(got, pgd_attack_oracle(model, X[:1], y[:1], params, seed=2))

    def test_one_first_layer_evaluation_per_step(self):
        evaluations = []

        class CountingMlp(SmallMlp):
            def _pre_activation(self, X):
                evaluations.append(len(X))
                return super()._pre_activation(X)

        model = CountingMlp(*SmallMlp.init(4, 3, 5, seed=40).params())
        params = PgdParams(epsilon=0.2, step=0.05, iters=7, restarts=3)
        for attacked in (model, MaskedModel(model, (0, 2))):
            X, y = _attack_batch(attacked, 50, seed=9)
            evaluations.clear()
            pgd_attack(attacked, X, y, params, seed=1)
            # one per step, plus one for each restart's final loss
            assert evaluations == [50] * (params.restarts * (params.iters + 1))
            evaluations.clear()
            pgd_attack_oracle(attacked, X, y, params, seed=1)
            assert len(evaluations) == params.restarts * (2 * params.iters + 1)

    @pytest.mark.parametrize("nan", [False, True])
    @pytest.mark.parametrize("restarts", [1, 3])
    @pytest.mark.parametrize("name", ["linear", "mlp", "masked_two"])
    def test_row_ranges_concatenate_to_the_whole_call(self, name, restarts, nan):
        # Cuts at 0, 1, an odd middle and n, with empty ranges at either end.
        # A NaN input gives its row a NaN gradient, so a range holding it
        # takes np.sign's path and the others the branch-free one.
        model = ATTACK_MODELS[name]
        X, y = _attack_batch(model, 41, seed=restarts)
        if nan:
            X[23, 2] = np.nan
        params = PgdParams(epsilon=0.4, step=0.1, iters=5, restarts=restarts)
        with np.errstate(invalid="ignore"):
            whole = pgd_attack(model, X, y, params, seed=6)
            for cuts in [(0, 41), (0, 0, 41), (0, 1, 41), (0, 19, 41), (0, 1, 19, 19, 41),
                         (0, 41, 41)]:
                parts = [pgd_attack(model, X[a:b], y[a:b], params, 6, a, 41)
                         for a, b in zip(cuts, cuts[1:])]
                assert same_bits(np.concatenate(parts), whole), cuts
        assert np.isnan(whole[23, 2]) == nan
        assert not same_bits(whole, X)

    def test_row_ranges_divide_the_gradient_by_the_whole_batch(self):
        # Row 7's runner-up probability is about 1e-323, a subnormal that the
        # mean over 41 rows rounds to 0, so the row has a zero gradient and
        # does not move; a mean over its range of one row would move it.
        model = LinearSoftmax(W=np.array([[0.0, 0.0], [1.0, 0.0]]), b=np.zeros(2))
        X, _ = _attack_batch(model, 41, seed=5)
        y = (X[:, 0] > 0).astype(np.int64)
        X[7] = (-743.5, 0.0)
        y[7] = 0
        params = PgdParams(epsilon=0.4, step=0.1, iters=5)
        whole = pgd_attack(model, X, y, params, seed=6)
        assert same_bits(whole[7], X[7]) and not same_bits(whole, X)
        parts = [pgd_attack(model, X[a:b], y[a:b], params, 6, a, 41)
                 for a, b in [(0, 7), (7, 8), (8, 41)]]
        assert same_bits(np.concatenate(parts), whole)

    @pytest.mark.parametrize("label", [-1, 2])
    def test_labels_outside_the_model_are_rejected(self, label):
        # The logit gradient indexes one flat array, so a label outside
        # 0..m-1 would land in another row; pgd_attack and train check first.
        X, y = _attack_batch(ATTACK_MODELS["masked_two"], 10, seed=6)
        y[3] = label
        with pytest.raises(ValidationError, match=r"labels must lie in 0\.\.1"):
            pgd_attack(ATTACK_MODELS["masked_two"], X, y, PgdParams(epsilon=0.1, step=0.05))
        with pytest.raises(ValidationError, match=r"labels must lie in 0\.\.1"):
            train(LinearSoftmax.init(2, X.shape[1], seed=3), X, y, epochs=1, learning_rate=0.1)

    def test_masked_lookup_rejected(self):
        with pytest.raises(CapabilityError, match="LogitsOnly cannot be attacked"):
            pgd_attack(MaskedModel(LogitsOnly(3), (0, 1)), np.zeros((1, 2)), [0],
                       PgdParams(epsilon=0.1, step=0.05), seed=0)


def _pass_batch(kind: str, rows: int):
    """A model of 5 labels on 6 inputs, rows inputs and logit gradients G."""
    init = (LinearSoftmax.init(5, 6, seed=50) if kind == "linear"
            else SmallMlp.init(5, 6, 9, seed=50))
    # nonzero biases, so that every `+= b` shows
    model = init.with_params([p + 0.1 for p in init.params()])
    X = rng.normals(51, 330, 0, rows * 6).reshape(rows, 6)
    G = rng.normals(51, 331, 0, rows * 5).reshape(rows, 5)
    return model, X, G


class TestDensePasses:
    """The one pass of `_DenseLayers` equals each class's own passes bit for
    bit, at one row (numpy's matrix-vector path), at 7 and at 500."""

    @pytest.mark.parametrize("rows", [1, 7, 500])
    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_passes_equal_the_per_class_oracle(self, kind, rows):
        model, X, G = _pass_batch(kind, rows)
        oracle = per_class_passes(model)
        logits, hidden = model._forward(X)
        want, cache = oracle._forward(X)
        assert same_bits(logits, want)
        want_hidden = [] if cache is None else [cache]
        assert len(hidden) == len(want_hidden)
        assert all(same_bits(a, b) for a, b in zip(hidden, want_hidden))
        assert same_bits(model._backward(hidden, G), oracle._backward(cache, G))
        grads = model._param_grads(X, hidden, G)
        want_grads = oracle._param_grads(X, cache, G)
        assert len(grads) == len(want_grads) == len(model.params())
        assert all(same_bits(a, b) for a, b in zip(grads, want_grads))
        assert same_bits(model.logits(X), oracle.logits(X))
        assert same_bits(model.input_grad_from_dlogits(X, G),
                         oracle.input_grad_from_dlogits(X, G))

    @pytest.mark.parametrize("cols", [None, (0, 2, 3)])
    @pytest.mark.parametrize("rows", [1, 7, 500])
    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_fused_step_equals_the_per_class_oracle(self, kind, rows, cols):
        model, X, _ = _pass_batch(kind, rows)
        m = model.n_labels if cols is None else len(cols)
        y = rng.integers(51, 332, 0, rows, m)

        def step(base):
            attacked = base if cols is None else MaskedModel(base, cols)
            logits, cache = attacked._forward(X)
            return logits, attacked._backward(cache, _dlogits(logits, y, rows + 3))

        got, want = step(model), step(per_class_passes(model))
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
