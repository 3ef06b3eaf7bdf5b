"""Finite-horizon lifted form of a sampled plant.

Stacking N steps of the discrete recursion gives one matrix equation
y = P u + Abar x0 where P is lower-triangular Toeplitz in the Markov
parameters and Abar maps the initial state into the free response. Deleting
leading rows of that equation turns the unbounded exact inverse of a plant
with sampled zeros outside the unit circle into a well-conditioned
minimum-norm problem, u = P_D^+ (y*_D - Abar_D x0).

That problem is solved from a QR factorization of P_D^T (an LQ factorization
of P_D), P_D^T = Q R, so P_D P_D^T = R^T R and u = P_D^T R^-1 R^-T rhs,
followed by one correction step on the residual. The product
||R||_F ||R^-1||_F bounds cond(P_D) from above; when it stays a factor 100
below 1 / PINV_RTOL, full row rank is certified and the answer stands.
Otherwise a thin singular value decomposition decides the numerical rank and
serves the matrices that pass it.

A LiftedSystem is only its two read-only matrices P and Abar; their shape
gives the horizon N and the deleted row count d. A signal (Trajectory) is only
its samples; the LiftedSystem fixes their steps.

P of a system made by build_lifted is Toeplitz: P u is the convolution of u
with the Markov parameters h. From N = _FFT_HORIZON (512) build_lifted
attaches a _Convolution, the transforms of h, computed once from the h it
built P from; delete_rows gives the shorter system the same transforms with
its own row offset. The engine applies P and P^T to one vector through it:
O(N log N) per apply instead of O(N^2), and normwise within a few eps of the
dense product (at most 6.1e-16 relative, measured on both presets at N = 512
to 2000). Row blocks, shorter horizons and a LiftedSystem built from a raw
matrix keep the dense product.
"""

import copy
from dataclasses import dataclass, field

import numpy as np
# numpy imports its fft module on first use. Imported here, with the package,
# its long-lived objects do not land in the middle of a run, where they kept
# freed N = 1000 matrices resident: run-n1000's peak_rss_mb moved between
# 123.6 and 138.9 MB with the directory the benchmark ran from
from numpy.fft import irfft, rfft

from .errors import (
    DegenerateDeletionError,
    DimensionError,
    EmptyHorizonError,
    InvalidParameterError,
    RankDeficiencyError,
    _integer,
)
from .lti import _output_powers

__all__ = ["Trajectory", "LiftedSystem", "build_lifted", "delete_rows",
           "pseudo_inverse_input"]

# relative cutoff on singular values when forming the pseudoinverse
PINV_RTOL = 1e-10

# the QR path certifies full row rank while its upper bound on cond(P_D)
# stays below this. The SVD rule's rounding error, about n eps sigma_max, is
# far smaller than the factor 100 left to 1 / PINV_RTOL, so it would count
# every singular value too.
_CERTIFIED_CONDITION = 1e-2 / PINV_RTOL

# triangular blocks up to this size are inverted by LAPACK directly
_INVERSE_BLOCK = 64

# horizon from which a Toeplitz system applies P and P^T to a vector as an FFT
# convolution. One apply against the dense product, best of 7 on a 2-vCPU
# Xeon with OpenBLAS and 2 MiB of L2 per core: 11.9 against 1.9 us at
# N = 100, 17.9 against 23.2 at N = 400 (a tie in other runs), and from
# N = 512, where P no longer fits in L2, 19.2 against 47.0, 31.4 against
# 150.9 at N = 1000 and 61.7 against 624.0 at N = 2000
_FFT_HORIZON = 512


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A sampled signal: its samples as a 1-D float vector.

    It carries no time stamps; see LiftedSystem for the steps it covers.
    Two trajectories are equal when their samples are; a trajectory is not
    hashable, since its samples are an array. An ndarray operand defers to
    it, so a trajectory and an array compare unequal instead of raising.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            raise DimensionError(f"trajectory values must be 1-D, got {v.ndim}-D")
        object.__setattr__(self, "values", v)

    def __len__(self):
        return self.values.size

    def __eq__(self, other):
        if type(other) is not Trajectory:
            return NotImplemented
        return np.array_equal(self.values, other.values)

    __hash__ = None
    __array_ufunc__ = None


@dataclass(frozen=True, eq=False)
class LiftedSystem:
    """Lifted input-output model over a fixed horizon: y = P u + Abar x0.

    Both matrices are copied as float arrays and marked read-only, so the
    factorizations the engine caches on first use stay those of P: an array
    the caller still holds could be made writable again. The shape of P is
    the whole layout: an input Trajectory covers steps 0..N-1 and an output
    steps 1 + d..N.

    Attributes
    ----------
    p_matrix : (N - d, N) ndarray
        Row r holds the convolution weights producing y(r + 1 + d).
    abar_matrix : (N - d, n) ndarray
        Row r equals C Ad^(r + 1 + d), the free response map.

    Raises
    ------
    EmptyHorizonError
        If P has no columns.
    DegenerateDeletionError
        If P has no rows.
    DimensionError
        If P or Abar is not 2-D, P has more rows than columns, or Abar's row
        count differs from P's.
    InvalidParameterError
        If P or Abar holds NaN or inf.
    """

    p_matrix: np.ndarray
    abar_matrix: np.ndarray
    # the engine's factorization of p_matrix, filled on first use; a copy
    # made by dataclasses.replace or delete_rows starts without one
    _factorization: object = field(default=None, init=False, repr=False)
    # the _Convolution that build_lifted attaches at N >= _FFT_HORIZON and
    # delete_rows keeps, or False where P is applied densely; a copy made by
    # dataclasses.replace has none
    _convolution: object = field(default=False, init=False, repr=False)

    def __post_init__(self):
        p = np.array(self.p_matrix, dtype=float)
        abar = np.array(self.abar_matrix, dtype=float)
        if p.ndim != 2 or abar.ndim != 2:
            raise DimensionError(
                f"p_matrix and abar_matrix must be 2-D, got {p.ndim}-D and "
                f"{abar.ndim}-D"
            )
        rows, cols = p.shape
        if cols == 0:
            raise EmptyHorizonError("p_matrix has no columns: the horizon is 0")
        if rows == 0:
            raise DegenerateDeletionError("p_matrix has no rows")
        if rows > cols or abar.shape[0] != rows:
            raise DimensionError(
                f"p_matrix is {rows}x{cols} and abar_matrix has "
                f"{abar.shape[0]} rows; need rows <= columns and equal row counts"
            )
        for name, array in (("p_matrix", p), ("abar_matrix", abar)):
            if not np.isfinite(array).all():
                raise InvalidParameterError(f"{name} holds NaN or inf")
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @property
    def horizon(self):
        """Number of input steps N, the column count of P."""
        return self.p_matrix.shape[1]

    @property
    def row_count(self):
        """Number of output rows N - d."""
        return self.p_matrix.shape[0]

    @property
    def deleted_rows(self):
        """Leading output rows removed, d."""
        return self.horizon - self.row_count


def build_lifted(dss, horizon):
    """Assemble the full (undeleted) lifted system over `horizon` steps.

    Parameters
    ----------
    dss : DiscreteStateSpace
    horizon : int
        Number of time steps N, at least 1.

    Returns
    -------
    LiftedSystem

    Raises
    ------
    InvalidParameterError
        If the powers of an unstable Ad overflow over the horizon.
    """
    n = _integer("horizon", horizon, 1, EmptyHorizonError)
    # C Ad^k for k = 0..n: Markov parameter k is row k times Bd, row k + 1
    # of Abar is row k + 1 itself. Powers that overflow are left to the
    # constructor's finiteness check, which names them
    with np.errstate(over="ignore", invalid="ignore"):
        powers = _output_powers(dss, n + 1)
        mk = powers[:n] @ dss.bd_vector[:, 0]
    # row i of P is mk[i], ..., mk[0] followed by zeros: the window from
    # n - 1 - i of mk reversed followed by n - 1 zeros
    padded = np.concatenate((mk[::-1], np.zeros(n - 1)))
    # the constructor's copy is the one copy of both, read forward row by row
    p = np.lib.stride_tricks.sliding_window_view(padded, n)[::-1]
    lifted = LiftedSystem(p, powers[1:])
    if n >= _FFT_HORIZON:
        object.__setattr__(lifted, "_convolution", _Convolution(mk))
    return lifted


def delete_rows(ls, d):
    """Drop the d leading rows of the lifted equation.

    The input dimension is unchanged; only outputs from step 1 + d onward
    are retained. The original system is not modified.
    """
    if ls.deleted_rows != 0:
        raise InvalidParameterError(
            "rows have already been deleted from this system"
        )
    d = _integer("deleted row count", d, 0)
    if d >= ls.horizon:
        raise DegenerateDeletionError(
            f"cannot delete {d} rows from a {ls.horizon}-step system"
        )
    # Bypasses __init__: both matrices are read-only and already checked, so
    # the shorter system shares their rows. The constructor's copy of P would
    # cost 2.1 ms and 930 page faults at N = 1000.
    shorter = object.__new__(LiftedSystem)
    object.__setattr__(shorter, "p_matrix", ls.p_matrix[d:])
    object.__setattr__(shorter, "abar_matrix", ls.abar_matrix[d:])
    convolution = ls._convolution
    object.__setattr__(shorter, "_convolution",
                       convolution and convolution.delete_rows(d))
    return shorter


def _fft_size(n):
    """The smallest 2^a 3^b 5^c >= n, a length numpy's FFT transforms fast."""
    size = n
    while True:
        rest = size
        for factor in (2, 3, 5):
            while rest % factor == 0:
                rest //= factor
        if rest == 1:
            return size
        size += 1


class _Convolution:
    """P u and P^T e of one vector, for a Toeplitz P, as FFT convolutions.

    Row r of P holds h[r + d], ..., h[0] (from column r + d back to column
    0), so P u is the full convolution h * u at steps d..N-1, and P^T e is
    the convolution of e with h reversed at steps N - d - 1 .. 2 N - d - 2.
    A transform length of at least 2 N - 1 keeps both free of wrap-around.
    It holds the two transforms of h and no reference to the system, so a
    factorization that keeps it keeps no system alive.
    """

    def __init__(self, h):
        self.horizon = h.size
        self.deleted = 0
        self.size = _fft_size(2 * self.horizon - 1)
        self.forward = rfft(h, self.size)
        self.adjoint = rfft(h[::-1], self.size)

    def delete_rows(self, d):
        """The convolution of P with its d leading rows deleted: same transforms."""
        shorter = copy.copy(self)
        shorter.deleted = d
        return shorter

    def apply(self, u):
        """P u of one input vector."""
        return self._convolve(self.forward, u)[self.deleted : self.horizon]

    def apply_transpose(self, e):
        """P^T e of one error vector."""
        start = self.horizon - self.deleted - 1
        return self._convolve(self.adjoint, e)[start : start + self.horizon]

    def _convolve(self, transform, v):
        # the product overwrites v's spectrum: a third array of the transform
        # length per apply left the heap of an N = 1000 run fragmented, and
        # run-n1000's peak_rss_mb read 123.6 or 138.9 MB with the name of the
        # directory the benchmark ran from
        spectrum = rfft(v, self.size)
        np.multiply(transform, spectrum, out=spectrum)
        return irfft(spectrum, self.size)


def _free_response(ls, initial_state):
    """Abar x0 over the rows of `ls`, or None when x0 is absent or zero.

    Raises DimensionError when x0 does not match the system order and
    InvalidParameterError when it holds NaN or inf.
    """
    if initial_state is None:
        return None
    x0 = np.asarray(initial_state, dtype=float).ravel()
    if x0.size != ls.abar_matrix.shape[1]:
        raise DimensionError(
            f"initial_state has {x0.size} entries, system order is "
            f"{ls.abar_matrix.shape[1]}"
        )
    if not np.all(np.isfinite(x0)):
        raise InvalidParameterError("initial_state holds NaN or inf")
    if not np.any(x0):
        return None
    return ls.abar_matrix @ x0


def _invert_upper_triangular(r):
    """Overwrite the upper-triangular r with its inverse, block by block.

    [[A, B], [0, C]]^-1 = [[A^-1, -A^-1 B C^-1], [0, C^-1]]: two matrix
    products per level, about a third of the arithmetic of np.linalg.inv,
    which factorizes the matrix as if it were full (numpy has no triangular
    solver), and no second n x n array. It inverts the R of the stable
    inverse's QR here and the transposed Cholesky factor of norm_optimal's
    direct law in `engine`. Raises LinAlgError when a diagonal block is
    exactly singular, leaving r partly overwritten.
    """
    n = r.shape[0]
    if n <= _INVERSE_BLOCK:
        r[...] = np.linalg.inv(r)
        return
    h = n // 2
    _invert_upper_triangular(r[:h, :h])
    _invert_upper_triangular(r[h:, h:])
    r[:h, h:] = -(r[:h, :h] @ r[:h, h:]) @ r[h:, h:]


def _certified_minimum_norm(p, rhs):
    """Minimum-norm solution of p u = rhs, or None without a rank certificate.

    With p^T = Q R, p p^T = R^T R, so u = p^T R^-1 R^-T rhs lies in the row
    space of p and solves the equation; one more such step on the residual
    removes the error of forming it without Q. ||R||_F ||R^-1||_F is at
    least sigma_max / sigma_min of p; below _CERTIFIED_CONDITION it
    certifies full row rank. A singular R or an overflowing bound gives None.
    """
    r_inv = np.linalg.qr(p.T, mode="r")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        r_norm = np.linalg.norm(r_inv)
        try:
            _invert_upper_triangular(r_inv)
        except np.linalg.LinAlgError:
            return None
        bound = r_norm * np.linalg.norm(r_inv)
    # written so that a NaN bound fails the test too
    if not bound < _CERTIFIED_CONDITION:
        return None
    u = p.T @ (r_inv @ (r_inv.T @ rhs))
    residual = rhs - p @ u
    return u + p.T @ (r_inv @ (r_inv.T @ residual))


def pseudo_inverse_input(ls_deleted, desired, initial_state=None):
    """Minimum-norm input reproducing the desired (deleted) output.

    Solves u = P_D^+ (y*_D - Abar_D x0). P_D must have full row rank at the
    relative tolerance PINV_RTOL; with enough rows deleted to cover every
    zero outside the unit circle this is the bounded stable-inverse input.

    The solve runs on a QR factorization of P_D^T. When the bound
    ||R||_F ||R^-1||_F on cond(P_D) falls short of 1e-2 / PINV_RTOL, full
    row rank is certified and that answer is returned. Otherwise (R
    singular, the bound non-finite or too large) the thin singular value
    decomposition of P_D counts the singular values above PINV_RTOL times
    the largest and, at full rank, gives the answer.

    Returns
    -------
    Trajectory
        Input over steps 0..N-1.

    Raises
    ------
    DimensionError
        If the desired output or initial_state has the wrong length.
    InvalidParameterError
        If the desired output or initial_state holds NaN or inf; raised
        before any factorization.
    RankDeficiencyError
        If the numerical row rank of P_D falls short.
    """
    if len(desired) != ls_deleted.row_count:
        raise DimensionError(
            f"desired output has {len(desired)} entries, deleted system "
            f"has {ls_deleted.row_count} rows"
        )
    rhs = desired.values
    if not np.all(np.isfinite(rhs)):
        raise InvalidParameterError("desired output holds NaN or inf")
    free = _free_response(ls_deleted, initial_state)
    if free is not None:
        rhs = rhs - free
    u = _certified_minimum_norm(ls_deleted.p_matrix, rhs)
    if u is None:
        u_mat, sigma, vt_mat = np.linalg.svd(
            ls_deleted.p_matrix, full_matrices=False
        )
        rank = int(np.count_nonzero(sigma > PINV_RTOL * sigma[0]))
        if rank < ls_deleted.row_count:
            raise RankDeficiencyError(
                f"lifted matrix has numerical row rank {rank} of "
                f"{ls_deleted.row_count}; delete more rows or shorten the "
                "horizon",
                numerical_rank=rank,
            )
        u = vt_mat.T @ ((u_mat.T @ rhs) / sigma)
    return Trajectory(u)
