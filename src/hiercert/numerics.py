"""Standard-normal CDF and quantile, and the one import of scipy.special.

`special()` imports scipy.special on its first call and returns the same
module after that; every other module reaches Cephes through it. The import
takes about 0.2 s and 19 MB (scipy's array-API layer loads numpy.f2py,
numpy.testing and numpy.ma), so commands that draw no noise and compute no
radius (`discover`, `attack`, `toy-prf`, and any config rejected before
compute) never pay it. `smoothing.vote_counts` and `toymodels._count_hits`
call `special()` before `split.parts`, so that a forked child inherits the
module and never imports it by itself.

`normal_cdf` takes a scalar and needs no scipy: it goes through
`math.erfc`, the complementary error function, which is free of the
cancellation that makes 0.5*(1 + erf(x/sqrt(2))) useless in the lower tail.
`normal_quantile` is a thin wrapper over scipy.special's `ndtri` (Cephes),
accurate to a few ulp across (0, 1): it evaluates the upper tail through
1 - q, so normal_quantile(1 - q) and -normal_quantile(q) agree to the
precision with which 1 - q represents the complement. `normal_quantile`
adds the (0, 1) domain check; the noise path, whose uniforms lie strictly
inside (0, 1) by construction, calls ndtri directly.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ValidationError

_SQRT2 = math.sqrt(2.0)


@functools.cache
def special():
    """The scipy.special module, imported on the first call."""
    from scipy import special
    return special


def normal_cdf(x: float) -> float:
    """Phi(x) of a scalar, via the complementary error function."""
    return 0.5 * math.erfc(-float(x) / _SQRT2)


def normal_quantile(q):
    """Inverse standard-normal CDF for scalars or ndarrays in (0, 1).

    The scalar fork stays: through the array path, acceptance test 2 took
    8.6 s in place of 5.9 s on a 2-vCPU Xeon, against its 10 s gate."""
    if np.isscalar(q):
        qf = float(q)
        if not 0.0 < qf < 1.0:
            raise ValidationError("normal_quantile requires 0 < q < 1")
        return float(special().ndtri(qf))

    qa = np.asarray(q, dtype=np.float64)
    if qa.size and not (qa.min() > 0.0 and qa.max() < 1.0):
        raise ValidationError("normal_quantile requires 0 < q < 1")
    return special().ndtri(qa)
