"""Iteration engine: explicit learning runs and the closed-form fast-forward.

For every law the model iteration matrix is diagonal in the left singular
vectors U of the model's lifted matrix P = U diag(sigma) V^T:
I - P L = U diag(lambda) U^T, with

    p_transpose:      lambda = 1 - phi sigma^2,        L U = phi P^T U
    partial_isometry: lambda = 1 - phi sigma,          L U = phi V
    norm_optimal:     lambda = phi / (phi + sigma^2),  L U = V diag(sigma / (phi + sigma^2))

so the input and error after n model iterations are

    u_n = u_0 + (L U) S_n U^T e_0,   S_n = diag(sum of lambda^m, m = 0..n-1)
    e_n = U diag(lambda^n) U^T e_0

which costs two matrix-vector products instead of n full iterations, and a
whole model-phase history one matrix product.

The factorization is computed once per LiftedSystem, on first use:
eigh(P P^T), which gives U and sigma^2, serves all three laws.
partial_isometry and norm_optimal also need V, which they take as
P^T U diag(1 / sigma) when one matrix product certifies that those columns
are orthonormal; only when that certificate fails, or sigma has a zero, do
they fall back to the thin SVD of P. norm_optimal needs the certificate for
its accuracy: eigh perturbs sigma^2 by about eps sigma_max^2, and
lambda^n = (phi / (phi + sigma^2))^n magnifies that about n / phi times, so
a model too ill-conditioned to certify takes its sigma from the SVD.
p_transpose stays on eigh alone. The model object holds the factorization,
together with the products derived from it for each law, so every
fast-forward, run and switch evaluation on one model shares it, and it is
freed with the model.

A model phase has two algorithms: the explicit loop of `run_iterations`
and the closed form, which is used only where it pays. A model phase of at
most N // 4 iterations with p_transpose, or N // 8 with norm_optimal
(a model run's count, a hybrid's model_count, the advisor's largest
candidate), builds no spectrum: it is the explicit loop, bit for bit in
all three, with its updates applied directly, u + phi P^T e or
u + P^T (M e) with norm_optimal's M = (phi I + P P^T)^-1 formed once per
model and law from one Cholesky factor, and a Cholesky certificate stands
in for the rho < 1 pre-flight. Where that certificate fails, the call
takes the spectral path. partial_isometry, `fast_forward` and longer model
phases always take the closed form.

Since U is square, (N - d) x (N - d), and orthogonal, the model error's
RMS after n model iterations needs no row at all:

    RMS_n = ||e_n|| / sqrt(N - d) = sqrt(sum lambda^(2n) (U^T e_0)^2 / (N - d))

A command computes its model phase once, as one model pass (`_ModelPass`)
on one world. The pass checks its inputs once (`_targets`) and keeps one
target per plant, y* - Abar x0, so its four readers take counts only:
`model_run` (a run's model phase, a figure's model curve), `hybrid` (a
hybrid's model and world phases), `world_run` (a world-only run from u0)
and `probe` (the switch advisor's four RMS values per candidate). The pass
keeps one source per operator, which readers whose lengths pick that
operator share: a `_Run`, one explicit model run extended to the largest n
read that keeps its inputs, or a `_Curve`, the closed form's RMS curve over
aligned blocks of _BLOCK counts, which forms only the states a reader hands
on (a hybrid's switch input, the probe's inputs) in one `_model_phase`
product. A bundled figure's pass also holds its world-only run from u0, a
`_Run` of RMS values and one state, and outlives the command (see
`experiments.reproduce_figure`).
`run_iterations` and `fast_forward` stay outside the pass: they are the
explicit loop and the closed form that the self-checks compare and time.

The engine has one explicit loop, `_Run`, the counterpart of the
fast-forward: it starts from (u0, e0) and, on each read, learns, applies
each input to its plant, measures each error and checks its RMS, from its
last state on. `run_iterations` in either phase, a hybrid's world phase
from the switch input, a world-only run and the dense model source are
each one `_Run`. The engine has one plant apply, `_measure`
(e = target - P u, the target y* - Abar x0 resolved once per plant and
call), and one learning step, `_learn` (L e), each taking one vector or a
block with one row per input or error: a `_Run` passes vectors, the probe
its candidates as rows. `_learn` goes through the operator the call chose,
the cached factorization (two matrix-vector products) or the direct law.
A world phase on its own needs no pre-flight, so p_transpose applies
phi P^T e there without any factorization, and norm_optimal takes its
direct law wherever the certificate holds. On one vector of a system
that `lifted.build_lifted` made at N >= 512 (kept by `delete_rows`),
`_measure`'s P u and the direct laws' P^T e are FFT convolutions
through the system's `_convolution`, attached when it was lifted:
O(N log N) and normwise within a few eps of the dense product. Blocks of
rows, shorter horizons and systems built from matrices take the dense
product, as do the factorizations, `fast_forward` and `_model_phase`. The
dense gain built in `laws` is only the independent reference. A run is its
RMS curve: the records of `run_iterations` and `run_hybrid` carry the
iteration, phase and RMS, and only the records that hand a state on keep
their input and error, a run's last record and a hybrid's switch record,
where the phase turns to "world".
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import (
    DimensionError,
    DivergenceError,
    InvalidParameterError,
    UndefinedDbError,
    _integer,
)
from .lifted import Trajectory, _free_response, _invert_upper_triangular

__all__ = [
    "IterationRecord",
    "to_db",
    "run_iterations",
    "run_hybrid",
    "fast_forward",
]

PHASES = ("model", "world")


@dataclass(frozen=True)
class IterationRecord:
    """State of the learning process at one iteration.

    input and error are kept only by the records that hand a state on: a
    run's last record and a hybrid run's switch record; elsewhere None.
    """

    iteration: int
    phase: str
    rms: float
    rms_db: Optional[float]
    input: Optional[Trajectory] = None
    error: Optional[Trajectory] = None


def _rms(v):
    """sqrt(v'v / len) of a non-empty 1-D array: the one RMS definition."""
    return math.sqrt(float(np.dot(v, v)) / v.size)


def to_db(rms_value):
    """20 log10 of an RMS value; only defined for positive values."""
    if not rms_value > 0:
        raise UndefinedDbError(
            f"dB conversion undefined for non-positive value {rms_value}"
        )
    return 20.0 * math.log10(rms_value)


def _diverged(phase, r, iteration):
    return DivergenceError(
        f"{phase} phase diverged: error RMS is {r} at iteration {iteration}"
    )


def _checked_rms(e, phase, iteration):
    """_rms of one error row; raises DivergenceError where it is not finite."""
    r = _rms(e)
    if not math.isfinite(r):
        raise _diverged(phase, r, iteration)
    return r


def _records(first, phase, rms_values, kept):
    """IterationRecords of a run's RMS values, numbered from `first`.

    kept maps a position in the run to the (input, error) its record keeps.
    """
    records = [IterationRecord(first + j, phase, r, to_db(r) if r > 0 else None)
               for j, r in enumerate(rms_values)]
    for j, (u, e) in kept.items():
        records[j] = replace(records[j], input=Trajectory(u), error=Trajectory(e))
    return records


# Largest max|V^T V - I| for which V = P^T U diag(1 / sigma) from eigh(P P^T)
# is kept. eigh returns U^T P P^T U = diag(sigma^2) + E with |E| about
# eps |P|^2, so V^T V - I = diag(1 / sigma) E diag(1 / sigma) has entries up
# to about eps cond(P)^2, and sigma and V U^T miss the exact ones by a
# relative error of the same order. Over 17k random draws (3000 models,
# three gains, two n), fast-forwards drifted from the dense SVD gain's loop
# by up to 0.7e-9 (relative) where certificates up to 1e-9 were kept, and by
# up to 0.16e-9 at 3e-10. 3e-10 accepts both presets (1.6e-11 and 1.1e-10 at
# N = 1000) and keeps the fast-forward well inside the 1e-9 it is tested to.
_ISOMETRY_TOLERANCE = 3e-10

_EPS = np.finfo(float).eps

# A call whose largest model-iteration count is at most N // divisor applies
# the law directly instead of building the spectrum. Cold run_hybrid model
# phases on both presets at N = 400 and 1000 (best of 5, 2-vCPU Xeon) put
# the crossover with eigh(P P^T) plus the closed form at 0.4 N to above
# 0.5 N for p_transpose, which needs no set-up, and at 0.2 N to 0.25 N for
# norm_optimal, which first pays its certificate and gain: about 100 ms at
# N = 1000 when this was measured, with the gain an LU solve, and 74-84 ms
# (best of 7, both presets) built from one Cholesky factor. Each divisor
# sits about a factor 2 below its law's crossover; partial_isometry always
# takes the spectrum.
_DENSE_DIVISOR = {"p_transpose": 4, "norm_optimal": 8}

# counts in one closed-form product of a model pass, and candidates the switch
# advisor takes together: fixed blocks keep a row's bits independent of the
# row count, and the advisor's temporaries O(_BLOCK N)
_BLOCK = 64

# The dense path's rho < 1 pre-flight, without the spectrum: a Cholesky
# factorization of P P^T - shift I that succeeds shows that sigma_min^2
# exceeds shift, less the rounding of forming and factorizing P P^T, which
# is about N eps ||P||_1 ||P||_inf (at least N eps sigma_max^2). The eigh
# that the spectral pre-flight reads is off by the same order. So with
#
#     shift = N^2 eps ||P||_1 ||P||_inf + floor
#
# every sigma^2 that eigh would return exceeds the floor, and the floor keeps
# lambda below 1 after rounding: 1 - phi sigma^2 when phi sigma^2 >= 1e3 eps
# (p_transpose, floor 1e3 eps / phi), phi / (phi + sigma^2) when
# sigma^2 >= 1e3 eps phi (norm_optimal, floor 1e3 eps phi). A shift scaled
# by ||P|| alone is not sound: a 6 x 4 P with sigma^2 down to 4e-17 and
# phi = 0.325 passed it while its p_transpose eigenvalue rounded to exactly
# 1. p_transpose also needs lambda > -1: sigma_max^2 <= ||P||_1 ||P||_inf,
# so phi (||P||_1 ||P||_inf + shift) < 2 keeps phi sigma^2 below 2, eigh's
# error included. Where a test fails, the spectrum decides.
_DENSE_FLOOR = 1e3 * _EPS


class _Factorization:
    """Factorizations of one model's lifted matrix P, each computed on first use.

    gram is (U, sigma^2) from eigh(P P^T) and serves p_transpose. isometry is
    (U, sigma, V) for partial_isometry and norm_optimal: built from gram,
    under the certificate max|V^T V - I| <= _ISOMETRY_TOLERANCE, and from the
    thin SVD of P only when that certificate fails or sigma has a zero.
    `laws` holds a _LawOperator and `dense` a _DenseLaw (or None where its
    certificate failed), each keyed by (law kind, gain) and kept for the most
    recent gain of each law kind only: a bundled model lives for the whole
    process, and a gain sweep must not keep one operator per gain.
    """

    def __init__(self, p_matrix):
        self.p_matrix = p_matrix
        self.laws = {}
        self.dense = {}

    @cached_property
    def gram(self):
        sigma2, u = np.linalg.eigh(self.p_matrix @ self.p_matrix.T)
        # rounding can leave the smallest sigma^2 a hair below zero
        return u, np.maximum(sigma2, 0.0)

    @cached_property
    def isometry(self):
        u, sigma2 = self.gram
        # eigh sorts ascending. Where sigma_min^2 <= eps sigma_max^2
        # (cond(P)^2 eps >= 1), V^T V - I has entries of order 1 or more and
        # the certificate cannot pass: take the SVD without forming V
        if sigma2.size and sigma2[0] > _EPS * sigma2[-1]:
            sigma = np.sqrt(sigma2)
            # a tiny sigma can overflow V; the certificate then rejects it
            with np.errstate(over="ignore", invalid="ignore"):
                v = self.p_matrix.T @ u
                v /= sigma
                defect = v.T @ v
                defect[np.diag_indices_from(defect)] -= 1.0
                if np.max(np.abs(defect, out=defect)) <= _ISOMETRY_TOLERANCE:
                    return u, sigma, v
        u, sigma, vt = np.linalg.svd(self.p_matrix, full_matrices=False)
        return u, sigma, vt.T


@dataclass(eq=False)
class _LawOperator:
    """One law's products on one model's factorization.

    With G = 1/(1 - lambda) elementwise and R = (lambda^n - 1) * U^T e_0,
    the input and error after n model iterations are

        [u_n - u_0; e_n - e_0] = [-L U diag(G); U] R

    so one fast-forward costs two matrix-vector products. lambda^n - 1 is
    formed as expm1(n log|lambda|), with the sign restored for odd n from the
    precomputed sign and 1 - sign, so it keeps full accuracy where lambda^n is
    near 1. One learning update is L e = -L U diag(G) ((lambda - 1) * U^T e).
    """

    lam: np.ndarray
    spectral_radius: float
    ut: np.ndarray             # U^T, contiguous: faster than a transposed view
    out_map: np.ndarray        # [-L U diag(G); U], N + (N - d) rows
    lu_neg: np.ndarray         # -L U diag(G), the top rows of out_map
    lam_minus_one: np.ndarray  # lambda - 1, with 1 where lambda is exactly 1
    log_abs_lam: np.ndarray
    sign_lam: np.ndarray       # -1 for negative lambda, else +1
    odd_offset: np.ndarray     # 1 - sign_lam
    has_negative: bool
    # 1 / (2 N) in each of N entries: its product with a finite input is at
    # most half the input's largest magnitude, so it cannot overflow
    input_witness: np.ndarray


def _cached(model, table, law, build):
    """The (law kind, gain) entry of _Factorization.<table>, built on first use."""
    entry = model._factorization
    if entry is None:
        entry = _Factorization(model.p_matrix)
        object.__setattr__(model, "_factorization", entry)
    cache = getattr(entry, table)
    # keyed by value: hashing the tuple is cheaper than the dataclass hash
    law_key = (law.kind, law.gain)
    if law_key not in cache:
        for key in [key for key in cache if key[0] == law.kind]:
            del cache[key]
        cache[law_key] = build(entry, law)
    return cache[law_key]


def _operator(model, law):
    """The cached _LawOperator of (model, law), built on first use."""
    return _cached(model, "laws", law, _build_operator)


def _convergent_operator(model, law):
    """The cached _LawOperator of (model, law); raises if the law diverges."""
    op = _operator(model, law)
    if op.spectral_radius >= 1.0:
        raise DivergenceError(
            f"model iteration matrix has eigenvalue magnitude "
            f"{op.spectral_radius:.12g}, outside (-1, 1); iterations diverge"
        )
    return op


def _build_operator(entry, law):
    phi = law.gain
    if law.kind == "p_transpose":
        u, sigma2 = entry.gram
        lam = 1.0 - phi * sigma2
        lu = entry.p_matrix.T @ u
        lu *= phi
    else:
        u, sigma, v = entry.isometry
        if law.kind == "partial_isometry":
            lam = 1.0 - phi * sigma
            lu = phi * v
        else:
            denominator = phi + sigma**2
            lam = phi / denominator
            lu = v * (sigma / denominator)
    abs_lam = np.abs(lam)
    sign = np.where(lam < 0.0, -1.0, 1.0)
    # an eigenvalue that rounds to exactly 1 (a singular value below rounding)
    # keeps its column of L U undivided, so the learning update stays exact;
    # the closed form refuses such a law as divergent before using out_map
    lam_minus_one = np.where(lam == 1.0, 1.0, lam - 1.0)
    lu /= lam_minus_one
    with np.errstate(divide="ignore"):
        log_abs = np.log(abs_lam)
    out_map = np.vstack([lu, u])
    return _LawOperator(
        lam=lam,
        spectral_radius=float(np.max(abs_lam)) if lam.size else 0.0,
        ut=np.ascontiguousarray(u.T),
        out_map=out_map,
        lu_neg=out_map[: lu.shape[0]],
        lam_minus_one=lam_minus_one,
        log_abs_lam=log_abs,
        sign_lam=sign,
        odd_offset=1.0 - sign,
        has_negative=bool(np.any(lam < 0.0)),
        input_witness=np.full(lu.shape[0], 0.5 / lu.shape[0]),
    )


@dataclass(eq=False)
class _DenseLaw:
    """p_transpose or norm_optimal applied directly: L e = scale * P^T (M e).

    p_transpose is M = I (inverse None) with scale phi. norm_optimal's gain
    (phi I + P^T P)^-1 P^T equals P^T (phi I + P P^T)^-1, so it is
    M = (phi I + P P^T)^-1, kept as the symmetric R R^T from one Cholesky
    factor, with scale 1. On a system with a convolution
    (LiftedSystem._convolution) both laws form P^T of one error through it.
    """

    p: np.ndarray
    scale: float
    convolution: object = False
    inverse: Optional[np.ndarray] = None


def _build_dense_law(p, law, convolution=False):
    """The _DenseLaw of p_transpose or norm_optimal on P, or None.

    norm_optimal's inverse is R R^T, where phi I + P P^T = C C^T and
    R = C^-T is the transposed Cholesky factor inverted in place. None when
    the rho < 1 certificate described at _DENSE_FLOOR fails, or when that
    Cholesky factorization fails despite it. convolution is the system's
    _convolution.
    """
    phi = law.gain
    transpose = law.kind == "p_transpose"
    # a huge P overflows the norms; the certificate then fails
    with np.errstate(over="ignore", invalid="ignore"):
        magnitude = np.abs(p)
        norm_product = magnitude.sum(axis=0).max() * magnitude.sum(axis=1).max()
        del magnitude  # an N x N temporary, freed before P P^T is formed
        shift = (p.shape[1] ** 2 * _EPS * norm_product
                 + _DENSE_FLOOR * (1.0 / phi if transpose else phi))
        # written so that a NaN or inf fails the tests too
        if not shift < np.inf:
            return None
        if transpose and not phi * (norm_product + shift) < 2.0:
            return None
        gram = p @ p.T
    diagonal = gram.diagonal().copy()
    on_diagonal = np.diag_indices_from(gram)
    gram[on_diagonal] = diagonal - shift
    # the certificate, then norm_optimal's factor: where either fails, the
    # spectrum decides
    try:
        np.linalg.cholesky(gram)
        if transpose:
            return _DenseLaw(p, phi, convolution)
        gram[on_diagonal] = diagonal + phi
        r = np.linalg.cholesky(gram).T
        del gram
        _invert_upper_triangular(r)
    except np.linalg.LinAlgError:
        return None
    return _DenseLaw(p, 1.0, convolution, r @ r.T)


def _dense_law(model, law):
    """The cached _DenseLaw of (model, law), or None where its certificate failed."""
    return _cached(model, "dense", law, lambda entry, law: _build_dense_law(
        entry.p_matrix, law, model._convolution))


def _model_operator(model, law, largest):
    """The law's operator for a model phase of at most `largest` iterations.

    Runs the rho < 1 pre-flight: a _DenseLaw where the law is applied
    directly and its certificate holds, else the cached _LawOperator, whose
    spectrum refuses a divergent law with DivergenceError.
    """
    divisor = _DENSE_DIVISOR.get(law.kind)
    dense = divisor and largest <= model.horizon // divisor and _dense_law(model, law)
    return dense or _convergent_operator(model, law)


def _world_operator(model, law):
    """The law's operator for a world phase, which needs no pre-flight.

    p_transpose applies phi P^T e with no factorization, and norm_optimal
    takes its cached direct law where the certificate holds; otherwise the
    law takes the cached _LawOperator without its convergence check.
    """
    if law.kind == "p_transpose":
        return _DenseLaw(model.p_matrix, law.gain, model._convolution)
    dense = law.kind == "norm_optimal" and _dense_law(model, law)
    return dense or _operator(model, law)


def _check_lengths(model, u0v, e0v, e0_name="e0"):
    """Raise DimensionError if u0, or e0 (named e0_name), does not fit the model."""
    row_count, horizon = model.p_matrix.shape
    if u0v.size != horizon:
        raise DimensionError(
            f"u0 length {u0v.size} does not match horizon {horizon}"
        )
    if e0v.size != row_count:
        raise DimensionError(
            f"{e0_name} length {e0v.size} does not match row count {row_count}"
        )


# fast_forward wraps its two float 1-D results without Trajectory's
# validating constructor, which costs about as much as one of its
# matrix-vector products
_new_object = object.__new__
_set_attribute = object.__setattr__


def fast_forward(model, law, u0, e0, n):
    """Input and error after n model iterations, without iterating.

    The result is defined to equal exactly what n explicit learning updates
    against the model produce, to floating-point accuracy.

    Parameters
    ----------
    model : LiftedSystem
    law : LearningLaw
    u0 : Trajectory
        Initial input, length N.
    e0 : Trajectory
        Model error of the initial run, length N - d.
    n : int
        Number of iterations to skip ahead, >= 0.

    Returns
    -------
    (Trajectory, Trajectory)
        (u_n, e_n).

    Raises
    ------
    InvalidParameterError
        If n is not a nonnegative integer, or u0 or e0 holds a non-finite
        value.
    DivergenceError
        If any eigenvalue of the model iteration matrix lies outside (-1, 1).
    """
    # check 10 times this path, so the common case is inline: an int n, a
    # cached convergent operator, and the two result wraps
    if type(n) is not int or n < 0:
        n = _integer("n", n, 0)
    entry = model._factorization
    op = entry.laws.get((law.kind, law.gain)) if entry is not None else None
    if op is None or op.spectral_radius >= 1.0:
        op = _convergent_operator(model, law)
    u0v = u0.values
    e0v = e0.values
    # the two products check the lengths: a mismatch raises ValueError. The
    # methods skip np.dot's dispatch and compute the same products
    try:
        ep0 = op.ut.dot(e0v)
        u0_witness = op.input_witness.dot(u0v)
    except ValueError:
        _check_lengths(model, u0v, e0v)
        raise
    # cheap witnesses: a positive weighting of u0, which cannot overflow, and
    # one entry of U^T e0, which mixes all of e0; only a non-finite witness
    # costs a scan
    if not math.isfinite(u0_witness) and not np.isfinite(u0v).all():
        raise InvalidParameterError("u0 holds non-finite values")
    if not math.isfinite(ep0[0]) and not np.isfinite(e0v).all():
        raise InvalidParameterError("e0 holds non-finite values")
    horizon = u0v.size
    if n == 0:
        u_vals, e_vals = u0v.copy(), e0v.copy()
    else:
        r = np.multiply(op.log_abs_lam, float(n))
        np.expm1(r, r)                          # |lambda|^n - 1
        if n % 2 and op.has_negative:
            r *= op.sign_lam
            r -= op.odd_offset                  # lambda^n - 1
        r *= ep0
        out = op.out_map.dot(r)
        u_vals = out[:horizon]
        u_vals += u0v
        e_vals = out[horizon:]
        e_vals += e0v
    u_n = _new_object(Trajectory)
    _set_attribute(u_n, "values", u_vals)
    e_n = _new_object(Trajectory)
    _set_attribute(e_n, "values", e_vals)
    return u_n, e_n


def _model_phase(op, u0v, e0v, counts):
    """Inputs after each n >= 1 in `counts` model iterations, one row per n.

    The batched form of fast_forward's input: with R[n] = (lambda^n - 1) *
    U^T e_0 as rows, R (-L U diag(G))^T holds every u_n - u_0 from one matrix
    product instead of one fast-forward per n. As in fast_forward, each n
    enters as float(n) with its parity taken from the integer, so a count
    beyond the int64 range is fine.
    """
    n = np.array([float(c) for c in counts]).reshape(-1, 1)
    odd = np.array([c % 2 == 1 for c in counts]).reshape(-1, 1)
    r = np.expm1(n * op.log_abs_lam)  # |lambda|^n - 1
    steps = np.where(odd, r * op.sign_lam - op.odd_offset, r)
    steps *= op.ut.dot(e0v)
    inputs = steps @ op.lu_neg.T
    inputs += u0v
    return inputs


def _learn(op, errors):
    """The learning step L e of one error, or of each row of a block of them.

    The operator is a _DenseLaw or a cached _LawOperator; a world phase
    fetches the latter without the convergence check, so it runs whatever
    the model spectrum and fails only when its error overflows.
    """
    if isinstance(op, _DenseLaw):
        if op.inverse is not None:
            errors = errors @ op.inverse  # M e of each row: M is symmetric
        if op.convolution and errors.ndim == 1:
            return op.scale * op.convolution.apply_transpose(errors)
        return op.scale * (errors @ op.p)
    return ((errors @ op.ut.T) * op.lam_minus_one) @ op.lu_neg.T


def _targets(model, plants, u0, x0, desired):
    """The target y* - Abar x0 over each plant's rows, its inputs checked once.

    Every plant must share the model's shape, u0 and desired must fit the
    model and be finite, and x0 must fit each plant (_free_response): a
    DimensionError or InvalidParameterError is raised before any numerical
    work. Where x0 is None or zero a target is the desired samples
    themselves, so a run from the origin measures y* - P u bit for bit.
    """
    for plant in plants:
        if plant.p_matrix.shape != model.p_matrix.shape:
            raise DimensionError(
                "applied plant and model must share horizon and deleted rows: "
                f"({plant.horizon}, {plant.deleted_rows}) vs "
                f"({model.horizon}, {model.deleted_rows})"
            )
    _check_lengths(model, u0.values, desired.values, "desired")
    # a non-finite input or target is invalid, not a divergence
    for name, trajectory in (("u0", u0), ("desired", desired)):
        if not np.all(np.isfinite(trajectory.values)):
            raise InvalidParameterError(f"{name} holds non-finite values")
    frees = [_free_response(plant, x0) for plant in plants]
    return [desired.values if free is None else desired.values - free
            for free in frees]


def _measure(applied, inputs, target):
    """The error target - P u of one input, or of each row of a block.

    Applies each input to the plant `applied` over the full horizon; target
    is that plant's y* - Abar x0 (_targets), which checked the lengths. One
    input on a plant with a convolution (LiftedSystem._convolution) is
    applied through it, a block always as one matrix product.
    """
    if inputs.ndim == 1 and applied._convolution:
        return target - applied._convolution.apply(inputs)
    return target - inputs @ applied.p_matrix.T


def run_iterations(world, model, law, u0, x0, count, phase, desired):
    """Explicit learning run: apply, measure, update, `count` times.

    The run is one `_Run`, the engine's one explicit loop, read to count.
    Every update is the model's law: applied directly in a model phase of
    at most N // 4 iterations with p_transpose or N // 8 with norm_optimal,
    else through the model's cached factorization. In the model phase every
    input is applied to the model itself; in the world phase each update is
    applied to the world plant and the true error is measured. Record 0 is
    the initial run with u0, so the history holds count + 1 records.

    Parameters
    ----------
    world, model : LiftedSystem
    law : LearningLaw
    u0 : Trajectory
    x0 : array_like or None
        Initial plant state, None meaning the origin.
    count : int
    phase : str
        "model" or "world".
    desired : Trajectory
        Target output, aligned with the (deleted) output rows.

    Returns
    -------
    list of IterationRecord

    Raises
    ------
    DivergenceError
        In the model phase, before iterating, if the model iteration matrix
        has an eigenvalue outside (-1, 1); in either phase, if an error RMS
        becomes non-finite.
    DimensionError
        If u0, desired or x0 does not fit the plants; raised before any
        numerical work.
    InvalidParameterError
        If count is not a whole number >= 0, or u0, desired or x0 is not
        finite; raised before any numerical work.
    """
    if phase not in PHASES:
        raise InvalidParameterError(f"phase must be one of {PHASES}, got {phase!r}")
    count = _integer("count", count, 0)
    applied = model if phase == "model" else world
    [target] = _targets(model, (applied,), u0, x0, desired)
    op = (_model_operator(model, law, count) if phase == "model"
          else _world_operator(model, law))
    run = _Run(applied, op, phase, target, u0.values)
    return _records(0, phase, run.read(count), {count: run.last})


class _Run:
    """An explicit run under one operator: the engine's one learning loop.

    It starts from (u0, e0), measuring e0 itself where the caller does not
    pass it, and checks that RMS at construction, naming iteration `first`.
    It keeps its RMS values and its last (input, error); a list passed as
    `kept` takes every input as well, which `inputs` reads. A read runs the
    loop on from the last state, so every read has the bits of one fresh
    run, and DivergenceError names the iteration of the first non-finite
    RMS, counted from `first`.
    """

    def __init__(self, applied, op, phase, target, u0, e0=None, kept=None, first=0):
        self.applied, self.op, self.phase = applied, op, phase
        self.target, self.kept, self.first = target, kept, first
        # a huge u0 can overflow e0 (invalid) or its RMS (a divergence)
        with np.errstate(over="ignore", invalid="ignore"):
            if e0 is None:
                e0 = _measure(applied, u0, target)
            self.rms_values = [_checked_rms(e0, phase, first)]
        self.last = u0, e0
        if kept is not None:
            kept.append(u0)

    def _extend(self, n):
        """Run on to RMS_n: learn, measure, check the RMS, keep the state."""
        applied, op, phase, target = self.applied, self.op, self.phase, self.target
        rms_values, kept, first = self.rms_values, self.kept, self.first
        u, e = self.last
        # a diverging run overflows; _checked_rms reports it as a DivergenceError
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(len(rms_values), n + 1):
                u = u + _learn(op, e)
                e = _measure(applied, u, target)
                rms_values.append(_checked_rms(e, phase, first + j))
                self.last = u, e
                if kept is not None:
                    kept.append(u)

    def read(self, count):
        """RMS_0 .. RMS_count."""
        self._extend(count)
        return self.rms_values[: count + 1]

    def value(self, n):
        """RMS_n."""
        self._extend(n)
        return self.rms_values[n]

    def inputs(self, counts):
        """The inputs u_n, one row per n in counts, from a run that keeps them."""
        self._extend(max(counts))
        return np.array([self.kept[n] for n in counts])


class _Curve:
    """The closed form of a model phase under a _LawOperator, from u0 and e0.

    Its RMS curve is computed over aligned blocks of _BLOCK counts with no
    state formed (see the module docstring); a block is computed whole, so a
    count's value does not depend on how far the curve is read. Inputs are
    formed only where a reader asks, in one _model_phase product.
    """

    def __init__(self, op, u0, e0):
        self.op, self.u0, self.e0 = op, u0, e0
        # a huge e0 overflows the weights; a read raises on the RMS that shows it
        with np.errstate(over="ignore", invalid="ignore"):
            self.weights = np.square(op.ut.dot(e0)) / e0.size
        self.blocks = {}

    def _rms_block(self, block):
        """The RMS values of the counts of one aligned block."""
        if block not in self.blocks:
            # RMS_n for n >= 1 as in the module docstring, with lambda^(2n) as
            # exp(2 n log|lambda|), and e0's own RMS for n = 0
            start = block * _BLOCK
            n = np.array([float(c) for c in range(max(start, 1), start + _BLOCK)])
            with np.errstate(over="ignore", invalid="ignore"):
                powers = np.exp(np.multiply.outer(n, 2.0 * self.op.log_abs_lam))
                self.blocks[block] = ([_rms(self.e0)] if start == 0 else []) + (
                    np.sqrt(powers @ self.weights).tolist())
        return self.blocks[block]

    def read(self, count):
        """RMS_0 .. RMS_count; raises DivergenceError where one is not finite."""
        values = []
        for block in range(count // _BLOCK + 1):
            values += self._rms_block(block)
        del values[count + 1:]
        if not all(map(math.isfinite, values)):
            n = next(n for n, r in enumerate(values) if not math.isfinite(r))
            raise _diverged("model", values[n], n)
        return values

    def value(self, n):
        """RMS_n, finite or not."""
        return self._rms_block(n // _BLOCK)[n % _BLOCK]

    def inputs(self, counts):
        """The inputs u_n, one row per n >= 1 in counts."""
        # a huge u0 can overflow u_n
        with np.errstate(over="ignore", invalid="ignore"):
            return _model_phase(self.op, self.u0, self.e0, counts)


class _ModelPass:
    """The model phase of one command on one world, each part computed once.

    Its constructor checks the inputs (_targets) and keeps one target per
    plant, y* - Abar x0, so no reader takes a plant, x0 or desired; each
    takes counts only:

    - model_run(count): run_iterations' model phase;
    - hybrid(model_count, world_count): run_hybrid's model and world phases;
    - world_run(count): run_iterations' world-only run from u0;
    - probe(counts): the switch advisor's four RMS values per count.

    Each model-phase reader takes the operator its own model-phase length
    picks (_model_operator) and reads that operator's source: under a
    _DenseLaw a _Run, the explicit model run from u0 and the measured e0
    with its inputs kept, one array per iteration; under a _LawOperator a
    _Curve, the closed form. Both serve read(count), value(n) and
    inputs(counts), so no reader asks which one it holds. A dense source
    stops at n = N // 4 + 1 (a model phase of N // 4 and the probe's next
    count), so it keeps at most N // 4 + 2 inputs. world_run reads a _Run
    that keeps no inputs, and hybrid's world phase is a _Run from the switch
    input: every explicit phase of a pass is the engine's one loop. No
    source refers back to its pass, so reference counting alone frees a
    pass. Readers get RMS values, not records (run_hybrid wraps them).
    """

    def __init__(self, world, model, law, u0, x0, desired):
        self.model_target, self.world_target = _targets(
            model, (model, world), u0, x0, desired)
        self.world, self.model, self.law, self.u0 = world, model, law, u0
        # one source per operator type, of the operator last read: a kept pass
        # may see its law's operator rebuilt after a gain eviction
        self._sources = {}
        self._world_run = None

    @cached_property
    def e0(self):
        """The model error of u0, measured on first use."""
        # a huge u0 can overflow e0 (invalid) or its RMS (a divergence)
        with np.errstate(over="ignore", invalid="ignore"):
            return _measure(self.model, self.u0.values, self.model_target)

    def source(self, op):
        """The source of the model phase under op, made on first use."""
        source = self._sources.get(type(op))
        if source is None or source.op is not op:
            if isinstance(op, _DenseLaw):
                source = _Run(self.model, op, "model", self.model_target,
                              self.u0.values, self.e0, [])
            else:
                source = _Curve(op, self.u0.values, self.e0)
            self._sources[type(op)] = source
        return source

    def model_run(self, count):
        """RMS_0 .. RMS_count of run_iterations' model phase, or the closed form's."""
        return self.source(_model_operator(self.model, self.law, count)).read(count)

    def hybrid(self, model_count, world_count):
        """run_hybrid's RMS values and the two states it keeps.

        Returns RMS_0 .. RMS_(model_count - 1) of the model phase, the world
        phase's world_count + 1 RMS values, and the (input, error) of its first
        iteration (the switch) and of its last. The switch input is the
        source's, formed after RMS_model_count has checked e0.
        """
        source = self.source(_model_operator(self.model, self.law, model_count))
        model_rms = source.read(model_count)
        # u_0 is u0 itself; the closed form's product takes counts n >= 1
        u = source.inputs([model_count])[0] if model_count else self.u0.values
        run = _Run(self.world, source.op, "world", self.world_target, u,
                   first=model_count)
        switch = run.last
        return model_rms[:-1], run.read(world_count), switch, run.last

    def world_run(self, count):
        """The count + 1 RMS values of run_iterations' world-only run from u0.

        A _Run under the operator run_iterations takes for a world phase, so
        every read has the bits of a fresh run_iterations.
        """
        if self._world_run is None:
            self._world_run = _Run(self.world, _world_operator(self.model, self.law),
                                   "world", self.world_target, self.u0.values)
        return self._world_run.read(count)

    def probe(self, counts):
        """The switch advisor's (RMS_n, RMS_n+1, world RMS_n, world RMS_n+1) per n.

        For each count n >= 1, in the order given: the model RMS at n and
        n + 1 from the source of the operator that the largest count picks,
        then the world error of u_n and of one world learning update after
        it, in blocks of _BLOCK rows: two world applications per count. A
        value may be non-finite; the caller names the divergence. Raises
        InvalidParameterError when e0 is not finite.
        """
        if not counts:
            return []
        op = _model_operator(self.model, self.law, max(counts))
        if not np.isfinite(self.e0).all():
            raise InvalidParameterError("e0 holds non-finite values")
        source = self.source(op)
        rows = []
        for start in range(0, len(counts), _BLOCK):
            block = counts[start : start + _BLOCK]
            u_n = source.inputs(block)
            with np.errstate(over="ignore", invalid="ignore"):
                e_n = _measure(self.world, u_n, self.world_target)
                e_n1 = _measure(self.world, u_n + _learn(op, e_n), self.world_target)
                rows += [(source.value(n), source.value(n + 1), _rms(e_n[j]),
                          _rms(e_n1[j])) for j, n in enumerate(block)]
        return rows


def run_hybrid(world, model, law, u0, x0, model_count, world_count, desired):
    """Model iterations, then a switch to world iterations.

    Produces model_count model-phase records (indices 0..model_count-1),
    then applies the model-phase input u_{M,model_count} to the world as the
    first world record, then runs world_count learning iterations against
    the world: the switch is record model_count, where the phase turns to
    "world". A short model phase (see the module docstring) is the loop of
    run_iterations and switches with that loop's input model_count; else it
    is the closed form's RMS curve and input after model_count. The switch
    record and the last record keep their input and error.

    Returns
    -------
    list of IterationRecord

    Raises
    ------
    DimensionError
        If u0, desired or x0 does not fit the plants; raised before any
        numerical work.
    DivergenceError
        If the model iteration matrix has an eigenvalue outside (-1, 1), or
        an error RMS of either phase becomes non-finite.
    InvalidParameterError
        If a count is not a whole number >= 0, or u0, desired or x0 is not
        finite; raised before any numerical work.
    """
    model_count = _integer("model_count", model_count, 0)
    world_count = _integer("world_count", world_count, 0)
    model_pass = _ModelPass(world, model, law, u0, x0, desired)
    model_rms, world_rms, switch, last = model_pass.hybrid(model_count, world_count)
    return (_records(0, "model", model_rms, {})
            + _records(model_count, "world", world_rms,
                       {0: switch, world_count: last}))
