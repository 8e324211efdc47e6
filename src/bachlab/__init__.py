"""bachlab: numerical verification engine for Bach-tensor geometry.

Computes 4th-order curvature tensors (through the dimension-4 Bach
tensor) exactly at points of user-declared metrics via truncated Taylor
(jet) arithmetic, evaluates soliton residuals, cross-checks closed-form
product Bach formulas, verifies pointwise and integral curvature
identities by quadrature on closed manifolds, and explores the
rotationally-symmetric profile ODE by shooting.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .jets import Jet, variables  # noqa: F401
