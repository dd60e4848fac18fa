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
    hinge_gap,
)
from .smoothing import SmoothingConfig, certify

__version__ = "0.1.0"

__all__ = [
    "ABSTAIN",
    "CertifiedPrediction",
    "LabelPartition",
    "SmoothingConfig",
    "certify",
    "hinge_gap",
    "__version__",
]
