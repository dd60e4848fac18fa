"""Standard-normal CDF and quantile.

Both are thin wrappers over scipy.special. The CDF goes through the
complementary error function, which is free of the cancellation that makes
0.5*(1 + erf(x/sqrt(2))) useless in the lower tail. The quantile is
`scipy.special.ndtri` (Cephes), accurate to a few ulp across (0, 1): it
evaluates the upper tail through 1 - q, so normal_quantile(1 - q) and
-normal_quantile(q) agree to the precision with which 1 - q represents the
complement. `normal_quantile` adds the (0, 1) domain check; the noise path,
whose uniforms lie strictly inside (0, 1) by construction, calls ndtri
directly.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .errors import ValidationError

_SQRT2 = math.sqrt(2.0)


def normal_cdf(x):
    """Phi(x) for a scalar or ndarray, via the complementary error function."""
    if np.isscalar(x):
        return 0.5 * math.erfc(-float(x) / _SQRT2)
    z = np.asarray(x, dtype=np.float64)
    return 0.5 * special.erfc(-z / _SQRT2)


def normal_quantile(q):
    """Inverse standard-normal CDF for scalars or ndarrays in (0, 1).

    The scalar fork stays: through the array path, acceptance test 2 took
    8.6 s in place of 5.9 s on a 2-vCPU Xeon, against its 10 s gate."""
    if np.isscalar(q):
        qf = float(q)
        if not 0.0 < qf < 1.0:
            raise ValidationError("normal_quantile requires 0 < q < 1")
        return float(special.ndtri(qf))

    qa = np.asarray(q, dtype=np.float64)
    if qa.size and not (qa.min() > 0.0 and qa.max() < 1.0):
        raise ValidationError("normal_quantile requires 0 < q < 1")
    return special.ndtri(qa)
