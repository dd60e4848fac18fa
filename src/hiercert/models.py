"""Built-in classifiers and attacks.

Everything here is desk scale and dependency free: a linear softmax model,
a one-hidden-layer ReLU network with manual backpropagation, full-batch
gradient-descent training (optionally under Gaussian input noise), and an
l-inf PGD attack.

Models are immutable and compare and hash by identity (their fields are
arrays); training returns a new instance. All randomness (parameter init,
training noise, attack restarts) flows through the counter-mode streams in
`rng`, so results are pure functions of the seed.

Both built-in models derive from `_DenseLayers`, which shape-checks their
frozen dense layers, gives `params()` (in model-file field order),
`with_params`, `n_labels` and `input_dim`, and runs one forward, backward
and parameter-gradient pass for both. Each keeps a one-line `logits` and
`input_grad_from_dlogits`, which the benchmark's tracer wraps per class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from . import rng
from .core import checked_labels
from .errors import CapabilityError, TrainingDivergenceError, ValidationError


# Rows narrower than this are reduced down the columns of a transposed copy.
_SHORT_ROW = 8


def _row_reduce(ufunc: np.ufunc, z: np.ndarray) -> np.ndarray:
    """`ufunc.reduce(z, axis=-1)` for np.maximum or np.add, bit for bit.

    numpy reduces one contiguous row at a time, at a fixed cost per row that
    dominates short rows. Reducing a transposed copy down its first axis is
    one elementwise pass per column over all rows instead (the max of
    4000 x 4 took 17 us this way and 239 us by rows; numpy 2.4, 2-vCPU
    Xeon). The two give the same bits only below 8 columns: there numpy sums
    a row left to right from +0.0, as the column passes do; from 8 columns
    on it sums in pairs, and from 9 on its max of a row of mixed signed
    zeros can keep the other zero. Wider rows, and empty ones, keep numpy's
    reduce. The column max alone stays faster up to about 50 columns
    (6000 x 32: 542 us against 587 us by rows; 6000 x 100: 1018 us against
    602 us), but one width rule keeps both reductions exact.
    """
    w = z.shape[-1]
    if not 0 < w < _SHORT_ROW:
        return ufunc.reduce(z, axis=-1)
    columns = np.ascontiguousarray(z.reshape(-1, w).T)
    return ufunc.reduce(columns, axis=0).reshape(z.shape[:-1])


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stabilized by max subtraction."""
    z = np.asarray(logits, dtype=np.float64)
    e = z - _row_reduce(np.maximum, z)[..., None]
    np.exp(e, out=e)
    e /= _row_reduce(np.add, e)[..., None]
    return e


def _row_losses(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Cross-entropy of each row of logits z at its integer label y."""
    zmax = _row_reduce(np.maximum, z)
    e = z - zmax[:, None]
    np.exp(e, out=e)
    lse = zmax + np.log(_row_reduce(np.add, e))
    lse -= z[np.arange(z.shape[0]), y]
    return lse


def cross_entropy(logits: np.ndarray, y: np.ndarray) -> float:
    """Mean cross-entropy of integer labels y under the given logits."""
    z = np.asarray(logits, dtype=np.float64)
    return float(np.mean(_row_losses(z, np.asarray(y, dtype=np.int64))))


def _dlogits(logits: np.ndarray, y: np.ndarray, total: Optional[int] = None) -> np.ndarray:
    """Gradient of mean cross-entropy with respect to the logits.

    The mean is over `total` rows, of which these are some (default: these
    rows alone), so that a row's gradient does not depend on how a batch is
    cut into calls. The one-hot is subtracted through one flat index into a
    C-contiguous copy of the softmax: the softmax of F-ordered logits (the
    columns a MaskedModel selects) is F-ordered, and its flat view would be
    a copy.
    Labels must lie in 0..m-1; a flat index does not check them per row.
    """
    g = np.ascontiguousarray(softmax(logits))
    n, m = g.shape
    g.reshape(-1)[np.arange(0, n * m, m) + np.asarray(y, dtype=np.int64)] -= 1.0
    g /= n if total is None else total
    return g


def _freeze(arr: np.ndarray) -> np.ndarray:
    try:
        out = np.array(arr, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"model parameters must be numeric arrays ({exc})") from None
    if not np.all(np.isfinite(out)):
        raise ValidationError("model parameters must be finite")
    out.setflags(write=False)
    return out


class _DenseLayers:
    """Base of the built-in models, whose dataclass fields are dense layers in
    order: a weight matrix W (rows >= 1, cols), then its bias b (rows,), each
    W's cols being the rows of the W before it. All are frozen before any
    shape is checked, so an unconvertible parameter is reported first. The
    passes put a ReLU after every layer but the last. Every read goes through
    one parameter tuple built here: `dataclasses.fields` costs microseconds."""

    def __post_init__(self):
        names = [f.name for f in fields(self)]
        params = tuple(_freeze(getattr(self, name)) for name in names)
        vars(self).update(zip(names, params), _params=params)  # frozen: setattr raises
        cols = None
        for w, b, W, bias in zip(names[::2], names[1::2], params[::2], params[1::2]):
            if W.ndim != 2 or W.shape[0] < 1 or cols not in (None, W.shape[1]):
                raise ValidationError(f"{w} must be a matrix of at least one row and "
                                      f"{cols or 'any number of'} columns, not of shape {W.shape}")
            if bias.shape != W.shape[:1]:
                raise ValidationError(f"{b} must have shape ({W.shape[0]},) to match {w}, "
                                      f"not {bias.shape}")
            cols = W.shape[0]

    @property
    def n_labels(self) -> int:
        return self._params[-1].shape[0]

    @property
    def input_dim(self) -> int:
        return self._params[0].shape[1]

    def params(self) -> tuple[np.ndarray, ...]:
        return self._params

    def with_params(self, params: Sequence[np.ndarray]):
        return type(self)(*params)

    def _pre_activation(self, X: np.ndarray) -> np.ndarray:
        """The first layer's affine output."""
        Z = np.asarray(X, dtype=np.float64) @ self._params[0].T
        Z += self._params[1]
        return Z

    def _forward(self, X: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Logits, and the hidden activations (none for a linear model) that
        `_backward` and `_param_grads` take. Each ReLU runs in place on its
        pre-activation, so a batch holds one array per hidden layer, not two."""
        p = self._params
        out = self._pre_activation(X)
        hidden = []
        for k in range(2, len(p), 2):
            np.maximum(out, 0.0, out=out)
            hidden.append(out)
            out = out @ p[k].T
            out += p[k + 1]
        return out, hidden

    def _backward(self, hidden, G: np.ndarray) -> np.ndarray:
        """Input gradient from the logit gradients G at the hidden activations.
        H > 0 exactly where the pre-activation is > 0 (NaN included), so a
        pre-activation may be passed as H: the ReLU mask is the same."""
        p = self._params
        for k in range(len(hidden), 0, -1):
            G = G @ p[2 * k]
            G *= hidden[k - 1] > 0.0
        return G @ p[0]

    def _param_grads(self, X: np.ndarray, hidden, G: np.ndarray) -> tuple[np.ndarray, ...]:
        """Gradients in `params()` order from the logit gradients G at inputs
        X and the hidden activations (the cache of `_forward`)."""
        p = self._params
        inputs = (np.asarray(X, dtype=np.float64), *hidden)
        grads = [None] * len(p)
        for k in range(len(hidden), -1, -1):
            grads[2 * k] = G.T @ inputs[k]
            grads[2 * k + 1] = G.sum(axis=0)
            if k:
                G = G @ p[2 * k]
                G *= inputs[k] > 0.0
        return tuple(grads)


@dataclass(frozen=True, eq=False)
class LinearSoftmax(_DenseLayers):
    """Affine logits: W x + b."""

    W: np.ndarray  # (m, d)
    b: np.ndarray  # (m,)

    @staticmethod
    def init(n_labels: int, dim: int, seed: int, scale: float = 0.1) -> "LinearSoftmax":
        w = rng.normals(seed, rng.STREAM_INIT, 0, n_labels * dim) * scale
        return LinearSoftmax(W=w.reshape(n_labels, dim), b=np.zeros(n_labels))

    def logits(self, X: np.ndarray) -> np.ndarray:
        return self._forward(X)[0]

    def input_grad_from_dlogits(self, X: np.ndarray, G: np.ndarray) -> np.ndarray:
        return self._backward((), G)


@dataclass(frozen=True, eq=False)
class SmallMlp(_DenseLayers):
    """One ReLU hidden layer: W2 relu(W1 x + b1) + b2."""

    W1: np.ndarray  # (h, d)
    b1: np.ndarray  # (h,)
    W2: np.ndarray  # (m, h)
    b2: np.ndarray  # (m,)

    @staticmethod
    def init(n_labels: int, dim: int, hidden: int, seed: int, scale: float = 0.5) -> "SmallMlp":
        w = rng.normals(seed, rng.STREAM_INIT, 0, hidden * dim + n_labels * hidden)
        w1 = w[: hidden * dim].reshape(hidden, dim) * scale
        w2 = w[hidden * dim:].reshape(n_labels, hidden) * scale
        return SmallMlp(W1=w1, b1=np.zeros(hidden), W2=w2, b2=np.zeros(n_labels))

    def logits(self, X: np.ndarray) -> np.ndarray:
        return self._forward(X)[0]

    def input_grad_from_dlogits(self, X: np.ndarray, G: np.ndarray) -> np.ndarray:
        return self._backward((self._pre_activation(X),), G)


@dataclass(frozen=True, eq=False)
class MaskedModel:
    """A model restricted to a label subset; logits are selected columns.

    Local label i is label subset[i] of `base`. A mask of a mask is composed
    when built, so `base` is never a MaskedModel. Gradients pass through to
    the base model, so the restriction stays attackable.
    """

    base: object
    subset: tuple[int, ...]

    def __post_init__(self):
        subset = tuple(int(i) for i in self.subset)
        if not subset or min(subset) < 0 or max(subset) >= self.base.n_labels:
            raise ValidationError(f"mask subset {subset} is not a nonempty subset of "
                                  f"0..{self.base.n_labels - 1}")
        if isinstance(self.base, MaskedModel):
            subset = tuple(self.base.subset[i] for i in subset)
            object.__setattr__(self, "base", self.base.base)
        object.__setattr__(self, "subset", subset)

    @property
    def n_labels(self) -> int:
        return len(self.subset)

    @property
    def input_dim(self) -> int:
        return self.base.input_dim

    def logits(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(self.base.logits(X))[:, list(self.subset)]

    def input_grad_from_dlogits(self, X: np.ndarray, G: np.ndarray) -> np.ndarray:
        full = np.zeros((G.shape[0], self.base.n_labels))
        full[:, list(self.subset)] = G
        return self.base.input_grad_from_dlogits(X, full)


def _unmask(model) -> tuple[object, Optional[np.ndarray]]:
    """The model under a MaskedModel and the logit columns it selects (None if unmasked)."""
    if isinstance(model, MaskedModel):
        return model.base, np.asarray(model.subset, dtype=np.int64)
    return model, None


def _fused_step(base, cols: Optional[np.ndarray], X: np.ndarray, y: np.ndarray,
                pad: Optional[np.ndarray], total: Optional[int] = None
                ) -> tuple[np.ndarray, np.ndarray]:
    """Logits over `cols` of a built-in model and the input gradient of their
    mean cross-entropy at labels y (over `total` rows, as in `_dlogits`),
    from one forward and one backward pass.

    The forward pass stays full width and the columns are selected after it;
    the logit gradient is written into `pad`, a zeroed (rows x base labels)
    buffer whose other columns stay zero, before the backward pass. Both
    keep the matmuls of the unmasked model, so the bits match the two-pass
    `logits` then `input_grad_from_dlogits` of a MaskedModel.
    """
    logits, cache = base._forward(X)
    if cols is None:
        return logits, base._backward(cache, _dlogits(logits, y, total))
    logits = logits[:, cols]
    pad[:, cols] = _dlogits(logits, y, total)
    return logits, base._backward(cache, pad)


@dataclass(frozen=True)
class PgdParams:
    """l-inf PGD attack budget and schedule."""

    epsilon: float
    step: float
    iters: int = 20
    restarts: int = 1

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValidationError("epsilon must be >= 0")
        if not self.step > 0:
            raise ValidationError("step must be positive")
        if self.iters < 1 or self.restarts < 1:
            raise ValidationError("iters and restarts must be >= 1")


def train(model, X: np.ndarray, y: np.ndarray, epochs: int, learning_rate: float,
          noise_sigma: float | None = None, seed: int = 0):
    """Full-batch gradient descent on cross-entropy; returns the trained model.

    With noise_sigma set, every epoch sees a fresh Gaussian perturbation of
    the inputs (the standard way to fit a base classifier that will be
    smoothed at the same noise level). Each epoch makes one forward pass,
    whose cache also serves the parameter gradients.
    """
    X = np.asarray(X, dtype=np.float64)
    y = checked_labels(y, model.n_labels)
    if X.ndim != 2 or X.shape[0] == 0 or X.shape[0] != y.shape[0]:
        raise ValidationError("dataset must be a nonempty (n, d) matrix with n labels")
    n, d = X.shape
    current = model
    # overflow is how divergence manifests; it is caught via the loss check
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs):
            if noise_sigma:
                eta = rng.normals(seed, rng.STREAM_TRAIN, epoch * n * d, n * d)
                inputs = X + noise_sigma * eta.reshape(n, d)
            else:
                inputs = X
            logits, cache = current._forward(inputs)
            loss = cross_entropy(logits, y)
            if not math.isfinite(loss):
                raise TrainingDivergenceError(epoch, loss)
            grads = current._param_grads(inputs, cache, _dlogits(logits, y))
            if not all(np.all(np.isfinite(g)) for g in grads):
                raise TrainingDivergenceError(epoch, loss)
            current = current.with_params(
                [p - learning_rate * g for p, g in zip(current.params(), grads)]
            )
    return current


def pgd_attack(model, x, y, params: PgdParams, seed: int = 0, start: int = 0,
               total: Optional[int] = None) -> np.ndarray:
    """Untargeted l-inf PGD: ascend cross-entropy, project after every step.

    Takes rows x of shape (n, d) and returns (n, d) rows that never leave
    the epsilon ball around x. Restarts beyond the first begin at a
    deterministic random offset inside the ball; the restart with the
    highest final loss wins per sample.

    Each step takes its logits and input gradient from one forward and one
    backward pass of the model under its MaskedModel, if any (`_fused_step`),
    takes the gradient's sign without numpy's branching sign loop
    (`_signed_step`), and updates the iterate in place; the result equals the
    two-pass form (`logits`, then `input_grad_from_dlogits`, then
    `np.sign(grad) * step`, then `np.clip`) bit for bit.

    Every row is attacked on its own, so a batch may be cut into row ranges:
    x given as rows start..start+n of a batch of `total` rows (default: x is
    the whole batch) gives those rows of the whole call bit for bit. Row i's
    restart offsets are drawn at counter (r-1)*total*d + (start+i)*d, where
    the whole call draws them, and its logit gradient is divided by `total`,
    as the whole call's mean is.
    """
    X = np.asarray(x, dtype=np.float64)
    total = X.shape[0] if total is None else total
    y = checked_labels(y, model.n_labels)
    base, cols = _unmask(model)
    if not hasattr(base, "_backward"):
        raise CapabilityError(f"{type(base).__name__} cannot be attacked: no gradients")
    n, d = X.shape
    lo, hi = X - params.epsilon, X + params.epsilon
    pad = None if cols is None else np.zeros((n, base.n_labels))
    signs = (np.empty((n, d), dtype=bool), np.empty((n, d), dtype=bool),
             np.empty((n, d), dtype=np.int8))

    best = X.copy()
    best_loss = np.full(n, -math.inf)
    for r in range(params.restarts):
        if r == 0:
            cur = X.copy()
        else:
            cur = rng.uniforms(seed, rng.STREAM_PGD, ((r - 1) * total + start) * d,
                               n * d).reshape(n, d)
            cur *= 2.0
            cur -= 1.0
            cur *= params.epsilon
            cur += X
            _project(cur, lo, hi)
        for _ in range(params.iters):
            grad = _fused_step(base, cols, cur, y, pad, total)[1]
            cur += _signed_step(grad, params.step, *signs)
            _project(cur, lo, hi)
        losses = _row_losses(model.logits(cur), y)
        better = losses > best_loss
        best[better] = cur[better]
        best_loss[better] = losses[better]
    return best


def _signed_step(g: np.ndarray, step: float, pos: np.ndarray, neg: np.ndarray,
                 sign: np.ndarray) -> np.ndarray:
    """Overwrite g with `np.sign(g) * step`, bit for bit, and return it.

    numpy's float sign loop branches on each element, and the random signs
    of a fresh gradient defeat the branch predictor: np.sign and the multiply
    took 570 us on a fresh 4000 x 16 matmul output, this form 120 us (numpy
    2.4, 2-vCPU Xeon). Here two comparisons fill the bool buffers
    pos and neg, their difference as int8 fills `sign`, and one multiply
    writes g. Zeros of either sign give +0.0, as np.sign's do. A NaN
    compares false both ways, so a gradient holding one goes through
    np.sign instead, which keeps it. The buffers have g's shape.
    """
    np.greater(g, 0.0, out=pos)
    np.less(g, 0.0, out=neg)
    np.subtract(pos.view(np.int8), neg.view(np.int8), out=sign)
    if np.count_nonzero(sign) < sign.size and np.isnan(g).any():
        np.sign(g, out=g)
        g *= step
    else:
        np.multiply(sign, step, out=g)
    return g


def _project(cur: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
    """Clip cur into [lo, hi] in place; equals np.clip whenever lo <= hi."""
    np.minimum(cur, hi, out=cur)
    np.maximum(cur, lo, out=cur)

