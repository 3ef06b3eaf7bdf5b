"""The three learning laws and their dense gain and iteration matrices.

Each law turns the model's lifted matrix into a gain L applied as
u_{j+1} = u_j + L e_j. All three make I - P L symmetric when P is the model
itself, diagonal in the left singular vectors of P, which is what allows the
iteration engine to fast-forward the model phase from one factorization of
P. The engine applies every law through that factorization, or directly in
a short model phase; the dense gain built here is only the independent
reference for it.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InvalidParameterError

__all__ = [
    "LAW_KINDS",
    "LearningLaw",
    "GainMatrix",
    "build_gain",
    "iteration_matrix",
]

LAW_KINDS = ("p_transpose", "partial_isometry", "norm_optimal")


@dataclass(frozen=True)
class LearningLaw:
    """A law kind plus its scalar learning gain phi, 0 < phi < inf."""

    kind: str
    gain: float = 1.0

    def __post_init__(self):
        if self.kind not in LAW_KINDS:
            raise InvalidParameterError(
                f"unknown law kind {self.kind!r}; expected one of {LAW_KINDS}"
            )
        # bool, int and numpy scalars are Real; a string, None, complex or
        # sequence would fail the comparison below with a TypeError
        if not isinstance(self.gain, numbers.Real):
            raise InvalidParameterError(
                f"gain must be a real number, got {self.gain!r}")
        if not 0 < self.gain < math.inf:
            raise InvalidParameterError(
                f"gain must be positive and finite, got {self.gain}")


@dataclass(eq=False)
class GainMatrix:
    """Realized learning gain L, shaped N x (N - d).

    With deleted rows the gain is rectangular: it maps the shortened error
    history back onto the full-length input.
    """

    l_matrix: np.ndarray


def build_gain(law, model):
    """Construct the gain matrix of a law from the (possibly deleted) model.

    p_transpose:      L = phi P^T
    partial_isometry: L = phi V U^T with P = U S V^T
    norm_optimal:     L = (phi I + P^T P)^{-1} P^T

    The norm-optimal inverse always exists for phi > 0 since P^T P is
    positive semidefinite.
    """
    p = model.p_matrix
    phi = law.gain
    if law.kind == "p_transpose":
        l_matrix = phi * p.T
    elif law.kind == "partial_isometry":
        u_mat, _, vt_mat = np.linalg.svd(p, full_matrices=False)
        l_matrix = phi * (vt_mat.T @ u_mat.T)
    else:
        gram = p.T @ p
        gram[np.diag_indices_from(gram)] += phi
        l_matrix = np.linalg.solve(gram, p.T)
    return GainMatrix(l_matrix)


def iteration_matrix(plant, gain):
    """Error propagation matrix I - P L.

    `plant` may be the model the gain was built from (symmetric result) or a
    different plant standing in for the world (generally asymmetric).
    """
    p = plant.p_matrix
    l_matrix = gain.l_matrix
    if p.shape[1] != l_matrix.shape[0] or p.shape[0] != l_matrix.shape[1]:
        raise DimensionError(
            f"plant {p.shape} and gain {l_matrix.shape} are not conformable"
        )
    w = -(p @ l_matrix)
    w[np.diag_indices_from(w)] += 1.0
    return w
