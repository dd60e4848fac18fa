"""Certification and evaluation toolkit for hierarchical classifiers.

The package certifies randomized-smoothing classifiers, composes the
certificates across a routing hierarchy built from label equivalence
classes, discovers label partitions from embeddings or confusion
structure, and reproduces two analytic robustness-accuracy constructions
at desk scale.
"""

from .core import (
    ABSTAIN,
    CertifiedPrediction,
    LabelPartition,
    LabelSpace,
    hinge_gap,
)
from .smoothing import SmoothingConfig, certify, phi_inv

__version__ = "0.1.0"

__all__ = [
    "ABSTAIN",
    "CertifiedPrediction",
    "LabelPartition",
    "LabelSpace",
    "SmoothingConfig",
    "certify",
    "hinge_gap",
    "phi_inv",
    "__version__",
]
