"""Continuous-time SISO plants, zero-order-hold discretization, and sampled zeros.

The two plant factories build the example systems used throughout the package
in controllable canonical form, so the output matrix is read directly off the
transfer-function numerator. Discretization uses the augmented-matrix
exponential, which produces Ad and Bd in a single evaluation of a numpy
scaling-and-squaring Pade exponential. Sampled zeros are the roots of the
sampled transfer-function numerator. The first-order feedback loop has a
closed-form solution as a convolution integral, evaluated by composite
Gauss-Legendre quadrature, and serves as an independent oracle for the
discretization path.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    DimensionError,
    InvalidParameterError,
    SingularSystemError,
)

__all__ = [
    "ContinuousStateSpace",
    "DiscreteStateSpace",
    "FirstOrderFeedbackSpec",
    "make_second_order",
    "make_third_order",
    "first_order_closed_loop",
    "discretize_zoh",
    "simulate",
    "analytic_first_order_response",
    "sampled_zeros",
]


def _store_matrices(plant, a, b, c):
    """Set plant's first three fields to (A, B, C) as float arrays.

    The shapes are (n, n), (n, 1) and (1, n); any mismatch raises
    DimensionError.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float).reshape(-1, 1)
    c = np.asarray(c, dtype=float).reshape(1, -1)
    n = a.shape[0]
    if a.shape != (n, n) or b.shape[0] != n or c.shape[1] != n:
        raise DimensionError(
            f"inconsistent shapes: A {a.shape}, B {b.shape}, C {c.shape}"
        )
    for field, value in zip(fields(plant), (a, b, c)):
        object.__setattr__(plant, field.name, value)


@dataclass(frozen=True, eq=False)
class ContinuousStateSpace:
    """Strictly proper SISO plant dx/dt = A x + B u, y = C x.

    Attributes
    ----------
    a_matrix : (n, n) ndarray
    b_vector : (n, 1) ndarray
    c_vector : (1, n) ndarray
    """

    a_matrix: np.ndarray
    b_vector: np.ndarray
    c_vector: np.ndarray

    def __post_init__(self):
        _store_matrices(self, self.a_matrix, self.b_vector, self.c_vector)

    @property
    def order(self):
        return self.a_matrix.shape[0]


@dataclass(frozen=True, eq=False)
class DiscreteStateSpace:
    """Sampled SISO plant x(k+1) = Ad x(k) + Bd u(k), y(k) = C x(k)."""

    ad_matrix: np.ndarray
    bd_vector: np.ndarray
    c_vector: np.ndarray
    sample_period: float

    def __post_init__(self):
        _store_matrices(self, self.ad_matrix, self.bd_vector, self.c_vector)
        if not self.sample_period > 0:
            raise InvalidParameterError(
                f"sample_period must be positive, got {self.sample_period}"
            )
        object.__setattr__(self, "sample_period", float(self.sample_period))

    @property
    def order(self):
        return self.ad_matrix.shape[0]


@dataclass(frozen=True)
class FirstOrderFeedbackSpec:
    """First-order plant dy/dt + a y = u under proportional feedback u = k (y* - y).

    The closed loop is dy/dt = -(a + k) y + k y*, a one-state system whose
    response is available in closed form and is used as a quadrature oracle.
    """

    plant_pole: float
    proportional_gain: float
    initial_output: float = 0.0

    def __post_init__(self):
        if not self.plant_pole + self.proportional_gain > 0:
            raise InvalidParameterError(
                "closed loop must be stable: plant_pole + proportional_gain "
                f"= {self.plant_pole + self.proportional_gain} is not positive"
            )


def make_second_order(damping_ratio, natural_frequency):
    """Plant wn^2 / (s^2 + 2 zeta wn s + wn^2) in controllable canonical form.

    Parameters
    ----------
    damping_ratio : float
        Dimensionless damping ratio, must be positive.
    natural_frequency : float
        Undamped natural frequency in rad/s, must be positive.

    Returns
    -------
    ContinuousStateSpace
        Order-2 unit-DC-gain plant.
    """
    if not damping_ratio > 0 or not natural_frequency > 0:
        raise InvalidParameterError(
            "damping_ratio and natural_frequency must be positive, got "
            f"{damping_ratio}, {natural_frequency}"
        )
    wn = float(natural_frequency)
    zeta = float(damping_ratio)
    a = np.array([[0.0, 1.0], [-wn * wn, -2.0 * zeta * wn]])
    b = np.array([[0.0], [1.0]])
    c = np.array([[wn * wn, 0.0]])
    return ContinuousStateSpace(a, b, c)


def make_third_order(real_pole, damping_ratio, natural_frequency):
    """Plant (a/(s+a)) * wn^2/(s^2 + 2 zeta wn s + wn^2), canonical form.

    A first-order lag in series with the underdamped pair. Relative degree 3,
    unit DC gain.
    """
    if not (real_pole > 0 and damping_ratio > 0 and natural_frequency > 0):
        raise InvalidParameterError(
            "all third-order plant parameters must be positive, got "
            f"{real_pole}, {damping_ratio}, {natural_frequency}"
        )
    p = float(real_pole)
    wn = float(natural_frequency)
    zeta = float(damping_ratio)
    # (s + p)(s^2 + 2 zeta wn s + wn^2) expanded
    c2 = p + 2.0 * zeta * wn
    c1 = wn * wn + 2.0 * zeta * wn * p
    c0 = p * wn * wn
    a = np.array(
        [
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [-c0, -c1, -c2],
        ]
    )
    b = np.array([[0.0], [0.0], [1.0]])
    c = np.array([[p * wn * wn, 0.0, 0.0]])
    return ContinuousStateSpace(a, b, c)


def first_order_closed_loop(spec):
    """State-space form of the closed loop dy/dt = -(a+k) y + k y*."""
    return ContinuousStateSpace(
        np.array([[-(spec.plant_pole + spec.proportional_gain)]]),
        np.array([[spec.proportional_gain]]),
        np.array([[1.0]]),
    )


def discretize_zoh(css, sample_period):
    """Zero-order-hold discretization of a continuous plant.

    Ad = expm(A T) and Bd = (integral of expm(A tau) over one period) B are
    both read off the exponential of the augmented matrix [[A, B], [0, 0]] T.

    Parameters
    ----------
    css : ContinuousStateSpace
    sample_period : float
        Hold period T in seconds.

    Returns
    -------
    DiscreteStateSpace

    Raises
    ------
    InvalidParameterError
        If sample_period is not positive, Ad, Bd or C is not finite, or the
        plant is too stiff for sample_period to sample without rounding loss.
    """
    if not sample_period > 0:
        raise InvalidParameterError(
            f"sample_period must be positive, got {sample_period}"
        )
    n = css.order
    aug = np.zeros((n + 1, n + 1))
    aug[:n, :n] = css.a_matrix
    aug[:n, n:] = css.b_vector
    try:
        with np.errstate(all="ignore"):
            phi = _expm(aug * sample_period)
        finite = np.isfinite(phi).all() and np.isfinite(css.c_vector).all()
    except OverflowError:  # the norms of the powers of A T overflowed
        finite = False
    if not finite:
        raise InvalidParameterError(
            "zero-order-hold discretization is not finite: the plant's "
            f"numbers are too extreme for sample_period {sample_period}"
        )
    ad, bd = phi[:n, :n], phi[:n, n:]
    # the hold integral M gives Bd = M B and Ad - I = A M, so A Bd = (Ad - I) B
    # exactly; a plant too stiff for T loses that to rounding (the presets, and
    # natural frequencies up to 1e10 rad/s at T = 0.01, stay below 5e-7)
    with np.errstate(all="ignore"):
        step = (ad - np.eye(n)) @ css.b_vector
        scale = np.abs(step).max()
        gap = np.abs(css.a_matrix @ bd - step).max()
        relative_gap = gap / scale
    if not gap <= 1e-6 * scale:
        raise InvalidParameterError(
            "zero-order-hold discretization lost the plant to rounding: A Bd "
            f"and (Ad - I) B differ by {relative_gap:.3g} relative; the plant "
            f"is too stiff for sample_period {sample_period}"
        )
    return DiscreteStateSpace(ad, bd, css.c_vector, sample_period)


# Pade [13/13] coefficients b_0..b_13 (Higham 2005, table 10.4). Each row of
# _PADE13_SUMS weighs the stacked powers (A^6, A^4, A^2, I) into one of the
# sums of U = A (A^6 U6 + U0) and V = A^6 V6 + V0, so one product forms all four
_B = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
    16380.0, 182.0, 1.0,
)
_PADE13_SUMS = np.array([
    [_B[13], _B[11], _B[9], 0.0],   # U6
    [_B[7], _B[5], _B[3], _B[1]],   # U0
    [_B[12], _B[10], _B[8], 0.0],   # V6
    [_B[6], _B[4], _B[2], _B[0]],   # V0
])
# Al-Mohy & Higham 2009: the backward error of the [13/13] approximant stays
# below unit roundoff while ||A^k||^(1/k) <= THETA13 for the powers checked;
# c_27 is the leading coefficient of that backward error's power series
_THETA13 = 4.25
_C27_RECIPROCAL = 113250775606021113483283660800000000.0


def _norm1(a):
    return float(np.abs(a).sum(axis=0).max())


def _expm(a):
    """Matrix exponential by scaling and squaring with the [13/13] Pade form.

    The algorithm of Higham 2005 with the choice of scaling of Al-Mohy and
    Higham 2009: A is scaled by 2^-s with s taken from ||A^k||^(1/k) for
    k = 6, 8, 10 rather than from ||A||, which for the non-normal companion
    forms of the plants here is far smaller and saves squarings that would
    each add rounding error. The norms of the powers are computed, not
    estimated: the matrices are small. r(A) = (V - U)^-1 (V + U) is then
    squared s times.
    """
    n = a.shape[0]
    powers = np.empty((4, n, n))
    a6, a4, a2, ident = powers
    np.matmul(a, a, out=a2)
    np.matmul(a2, a2, out=a4)
    np.matmul(a2, a4, out=a6)
    ident[...] = np.eye(n)
    # one batched product gives A^10, A^8 and A^6 for their 1-norms
    norms = np.abs(a4 @ powers[:3]).sum(axis=1).max(axis=1)
    d10, d8, d6 = norms ** (1 / 10, 1 / 8, 1 / 6)
    eta = min(max(d6, d8), max(d8, d10))
    s = max(0, math.ceil(math.log2(eta / _THETA13))) if eta > 0 else 0
    s += _extra_squarings(a / 2.0**s)
    # scaling by powers of two is exact, so the scaled powers need no products
    scale = np.array([2.0 ** (-6 * s), 2.0 ** (-4 * s), 2.0 ** (-2 * s), 1.0])
    u6, u0, v6, v0 = ((_PADE13_SUMS * scale) @ powers.reshape(4, n * n)).reshape(4, n, n)
    a6 = a6 * scale[0]
    u = (a * 2.0**-s) @ (a6 @ u6 + u0)
    v = a6 @ v6 + v0
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def _extra_squarings(a):
    """Further halvings needed so the Pade truncation term stays below roundoff.

    This is ell(A, 13) of Al-Mohy and Higham 2009, with the 1-norm of
    |A|^27 computed exactly.
    """
    norm = _norm1(a)
    if norm == 0.0:
        return 0
    p = np.abs(a)
    p3 = p @ p @ p
    p9 = p3 @ p3 @ p3
    alpha = _norm1(p9 @ p9 @ p9) / (norm * _C27_RECIPROCAL)
    # |A|^27 vanishes for a nilpotent A, such as that of an integrator chain
    if not 0.0 < alpha < math.inf:
        return 0
    return max(0, math.ceil(math.log2(alpha / 2.0**-53) / 26))


def simulate(dss, input_history, initial_state=None):
    """Propagate the discrete recursion and return the outputs y(1..N).

    The input u(k) acts over step k, for k = 0..N-1; the returned array holds
    the output at steps 1..N, matching the lifted-matrix convention.

    Parameters
    ----------
    dss : DiscreteStateSpace
    input_history : array_like, shape (N,)
    initial_state : array_like, shape (n,), optional
        Defaults to the origin.

    Returns
    -------
    ndarray, shape (N,)
    """
    u = np.asarray(input_history, dtype=float).ravel()
    if u.size < 1:
        raise DimensionError("input_history must contain at least one sample")
    n = dss.order
    if initial_state is None:
        x = np.zeros(n)
    else:
        x = np.asarray(initial_state, dtype=float).ravel()
        if x.size != n:
            raise DimensionError(
                f"initial_state has {x.size} entries, system order is {n}"
            )
    ad = dss.ad_matrix
    bd = dss.bd_vector[:, 0]
    c = dss.c_vector[0]
    y = np.empty(u.size)
    for k in range(u.size):
        x = ad @ x + bd * u[k]
        y[k] = c @ x
    return y


def analytic_first_order_response(spec, command_fn, t, breakpoints=None):
    """Closed-form output of the first-order feedback loop at time t.

    Evaluates y(t) = exp(-(a+k) t) y(0) + integral over [0, t] of
    exp(-(a+k) tau) k y*(t - tau) d tau by composite Gauss-Legendre
    quadrature: 10 nodes on each panel, panels no wider than the time
    constant 1/(a+k), and a panel edge at every command jump. The decaying
    exponential weights recent commands most heavily, which is what makes
    this loop a useful reference for what feedback alone can track.

    Parameters
    ----------
    spec : FirstOrderFeedbackSpec
    command_fn : callable
        y*(time), integrable on [0, t] and smooth between breakpoints.
    t : float
        Evaluation time, must be finite and nonnegative.
    breakpoints : sequence of float, optional
        Times in (0, t) where the command jumps; panels end there so
        piecewise-constant commands integrate to full accuracy.

    Returns
    -------
    float
    """
    if not (math.isfinite(t) and t >= 0):
        raise InvalidParameterError(f"t must be finite and nonnegative, got {t}")
    rate = spec.plant_pole + spec.proportional_gain
    homogeneous = np.exp(-rate * t) * spec.initial_output
    if t == 0:
        return homogeneous
    # the change of variable tau = t - time maps command jumps into the
    # integration variable
    inside = [] if breakpoints is None else [b for b in breakpoints if 0.0 < b < t]
    jumps = sorted({0.0, t, *(t - b for b in inside)})
    edges = [0.0]
    for lo, hi in zip(jumps, jumps[1:]):
        edges.extend(np.linspace(lo, hi, math.ceil((hi - lo) * rate) + 1)[1:])
    edges = np.array(edges)
    nodes, weights = np.polynomial.legendre.leggauss(10)
    half = np.diff(edges)[:, None] / 2.0
    tau = edges[:-1, None] + half * (1.0 + nodes)
    command = np.array([command_fn(t - s) for s in tau.ravel()], dtype=float)
    integrand = np.exp(-rate * tau) * command.reshape(tau.shape)
    particular = spec.proportional_gain * float(np.sum(half * weights * integrand))
    return homogeneous + particular


def sampled_zeros(dss):
    """Finite transmission zeros of the sampled plant.

    Computed as the roots of the transfer-function numerator C adj(zI - Ad) Bd,
    whose coefficients are the leading n terms of det(zI - Ad) convolved with
    the Markov parameters; they are the finite generalized eigenvalues of the
    pencil ([Ad, Bd; C, 0], blkdiag(I, 0)). Leading coefficients below 1e-9
    of the largest stand for zeros at infinity and are dropped. For a plant
    of order n with one step of input-output delay this yields n - 1 zeros;
    any zero with modulus above one makes the exact lifted inverse unbounded.

    Returns
    -------
    list of complex
        Sorted by real part, then imaginary part.
    """
    n = dss.order
    mk = _markov_parameters(dss, n + 1)
    if np.max(np.abs(mk)) == 0.0:
        raise SingularSystemError(
            "all Markov parameters are zero; the plant has no "
            "input-output coupling and no zero structure"
        )
    numerator = np.convolve(np.poly(dss.ad_matrix), mk[:n])[:n]
    significant = np.abs(numerator) > 1e-9 * np.max(np.abs(numerator))
    numerator = numerator[np.argmax(significant):]
    zeros = np.roots(numerator).astype(complex)
    return sorted(zeros, key=lambda z: (z.real, z.imag))


def _output_powers(dss, count):
    """Rows C Ad^k, k = 0..count-1, built by doubling.

    From the rows for k < m and Ad^m, the rows for m <= k < 2m are one
    product: log2(count) matrix products instead of count vector products.
    """
    rows = dss.c_vector
    power = dss.ad_matrix
    while rows.shape[0] < count:
        rows = np.vstack((rows, rows @ power))
        if rows.shape[0] < count:
            power = power @ power
    return rows[:count]


def _markov_parameters(dss, count):
    """First `count` impulse-response samples C Ad^k Bd, k = 0..count-1."""
    return _output_powers(dss, count) @ dss.bd_vector[:, 0]
