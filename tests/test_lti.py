import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, strategies as st

from liftedilc import (
    ContinuousStateSpace,
    DiscreteStateSpace,
    DimensionError,
    FirstOrderFeedbackSpec,
    InvalidParameterError,
    SingularSystemError,
    analytic_first_order_response,
    continuous_plant,
    discretize_zoh,
    first_order_closed_loop,
    load_preset,
    make_second_order,
    make_third_order,
    sampled_zeros,
    simulate,
)

T = 0.01
PERIODS = (0.001, 0.01, 0.05)


def dc_gain(css):
    return float((css.c_vector @ np.linalg.solve(-css.a_matrix, css.b_vector))[0, 0])


def test_second_order_poles_and_unit_dc_gain():
    zeta, wn = 0.5, 37.0
    css = make_second_order(zeta, wn)
    poles = np.sort_complex(np.linalg.eigvals(css.a_matrix))
    damped = wn * math.sqrt(1.0 - zeta**2)
    expected = np.sort_complex([complex(-zeta * wn, -damped),
                                complex(-zeta * wn, damped)])
    assert np.allclose(poles, expected, atol=1e-12)
    assert dc_gain(css) == pytest.approx(1.0, abs=1e-12)


def test_third_order_poles_include_the_real_pole():
    css = make_third_order(8.8, 0.5, 37.0)
    poles = np.linalg.eigvals(css.a_matrix)
    assert min(abs(p - (-8.8)) for p in poles) < 1e-9
    assert dc_gain(css) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "factory, args",
    [
        (make_second_order, (0.0, 37.0)),
        (make_second_order, (0.5, -1.0)),
        (make_third_order, (-8.8, 0.5, 37.0)),
        (make_third_order, (8.8, 0.5, 0.0)),
    ],
)
def test_factories_reject_nonpositive_parameters(factory, args):
    with pytest.raises(InvalidParameterError):
        factory(*args)


def test_zoh_step_response_matches_continuous_closed_form():
    # underdamped unit-step response, sampled exactly at the hold instants
    zeta, wn = 0.5, 37.0
    dss = discretize_zoh(make_second_order(zeta, wn), T)
    y = simulate(dss, np.ones(100))
    damped = wn * math.sqrt(1.0 - zeta**2)
    t = np.arange(1, 101) * T
    exact = 1.0 - np.exp(-zeta * wn * t) * (
        np.cos(damped * t) + zeta / math.sqrt(1.0 - zeta**2) * np.sin(damped * t)
    )
    assert np.max(np.abs(y - exact)) < 1e-12


def test_simulate_free_response_is_matrix_power():
    dss = discretize_zoh(make_third_order(8.8, 0.5, 37.0), T)
    x0 = np.array([0.3, -1.2, 2.0])
    y = simulate(dss, np.zeros(8), initial_state=x0)
    x = x0.copy()
    for k in range(8):
        x = dss.ad_matrix @ x
        assert y[k] == pytest.approx(float(dss.c_vector[0] @ x), abs=1e-14)


def test_simulate_rejects_wrong_state_size():
    dss = discretize_zoh(make_second_order(0.5, 37.0), T)
    with pytest.raises(DimensionError):
        simulate(dss, np.ones(5), initial_state=[1.0, 2.0, 3.0])


def test_simulate_rejects_an_empty_input_history():
    dss = discretize_zoh(make_second_order(0.5, 37.0), T)
    with pytest.raises(DimensionError, match="at least one sample"):
        simulate(dss, [])


@pytest.mark.parametrize("period", [0.0, -T, math.nan])
def test_zoh_rejects_a_sample_period_that_is_not_positive(period):
    with pytest.raises(InvalidParameterError, match="sample_period must be positive"):
        discretize_zoh(make_second_order(0.5, 37.0), period)


def test_first_order_response_at_zero_is_initial_output():
    spec = FirstOrderFeedbackSpec(3.0, 40.0, initial_output=0.7)
    assert analytic_first_order_response(spec, lambda t: 1.0, 0.0) == 0.7


def test_first_order_constant_command_closed_form():
    a, k, y0, c = 2.0, 30.0, 0.4, 1.3
    spec = FirstOrderFeedbackSpec(a, k, initial_output=y0)
    for t in (0.01, 0.2, 1.5):
        expected = math.exp(-(a + k) * t) * y0 + c * k / (a + k) * (
            1.0 - math.exp(-(a + k) * t)
        )
        got = analytic_first_order_response(spec, lambda _: c, t)
        assert got == pytest.approx(expected, abs=1e-10)


def test_first_order_quadrature_matches_a_piecewise_constant_closed_form():
    # between jumps the loop relaxes exactly toward k c / (a + k), so the
    # response to a staircase command is a chain of exponential steps
    a, k, y0 = 3.0, 40.0, 0.25
    rate = a + k
    spec = FirstOrderFeedbackSpec(a, k, initial_output=y0)
    jumps = [0.05, 0.13, 0.4, 0.41]
    levels = [1.0, -2.0, 0.5, 3.0, -0.75]

    def command(time):
        return levels[sum(time >= b for b in jumps)]

    def closed_form(t):
        y, start = y0, 0.0
        for end, level in zip(jumps + [math.inf], levels):
            stop = min(end, t)
            decay = math.exp(-rate * (stop - start))
            y = decay * y + level * k / rate * (1.0 - decay)
            if stop == t:
                return y
            start = stop

    for t in (0.02, 0.05, 0.1, 0.13, 0.405, 0.41, 0.9, 2.5):
        expected = closed_form(t)
        got = analytic_first_order_response(spec, command, t, breakpoints=jumps)
        assert abs(got - expected) <= 1e-13 * max(abs(expected), 1.0), t


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, -0.1])
def test_first_order_response_rejects_a_non_finite_or_negative_time(t):
    spec = FirstOrderFeedbackSpec(3.0, 40.0)
    with pytest.raises(InvalidParameterError, match="finite and nonnegative"):
        analytic_first_order_response(spec, lambda _: 1.0, t)


def test_first_order_spec_requires_stable_loop():
    with pytest.raises(InvalidParameterError):
        FirstOrderFeedbackSpec(-5.0, 2.0)


def test_sampled_zero_locations_are_stable_facts():
    z2 = sampled_zeros(discretize_zoh(make_second_order(0.5, 37.0), T))
    assert len(z2) == 1
    assert z2[0].real == pytest.approx(-0.88358083, abs=1e-6)
    assert abs(z2[0].imag) < 1e-9

    z3 = sampled_zeros(discretize_zoh(make_third_order(8.8, 0.5, 37.0), T))
    assert len(z3) == 2
    assert z3[0].real == pytest.approx(-3.31042889, abs=1e-6)
    assert z3[1].real == pytest.approx(-0.24019026, abs=1e-6)
    assert sum(1 for z in z3 if abs(z) > 1.0) == 1


def test_sampled_zeros_need_input_output_coupling():
    dss = DiscreteStateSpace(np.eye(2) * 0.5, np.zeros((2, 1)),
                             np.array([[1.0, 0.0]]), T)
    with pytest.raises(SingularSystemError):
        sampled_zeros(dss)


def test_state_space_shape_validation():
    with pytest.raises(DimensionError):
        ContinuousStateSpace(np.eye(2), np.ones((3, 1)), np.ones((1, 2)))
    with pytest.raises(InvalidParameterError):
        DiscreteStateSpace(np.eye(2), np.ones((2, 1)), np.ones((1, 2)), 0.0)


def test_first_order_closed_loop_matrices():
    spec = FirstOrderFeedbackSpec(3.0, 40.0)
    css = first_order_closed_loop(spec)
    assert css.a_matrix[0, 0] == -43.0
    assert css.b_vector[0, 0] == 40.0
    assert css.c_vector[0, 0] == 1.0


# scipy is the independent reference of the numpy exponential and zeros


def preset_plants():
    """Model and world plants of both packaged presets."""
    plants = []
    for kind in ("second_order", "third_order"):
        config = load_preset(kind)
        plants += [continuous_plant(kind, config.model_params),
                   continuous_plant(kind, config.world_params)]
    return plants


def assert_zoh_matches_scipy_expm(css, period):
    n = css.order
    aug = np.zeros((n + 1, n + 1))
    aug[:n, :n] = css.a_matrix
    aug[:n, n:] = css.b_vector
    reference = scipy.linalg.expm(aug * period)[:n]
    dss = discretize_zoh(css, period)
    got = np.hstack([dss.ad_matrix, dss.bd_vector])
    assert np.max(np.abs(got - reference)) <= 1e-12 * np.max(np.abs(reference))


def canonical_plant(poles):
    """Unit-DC-gain all-pole plant in the factories' controllable canonical form."""
    coefficients = np.real(np.poly(poles))
    n = len(poles)
    a = np.zeros((n, n))
    a[:-1, 1:] = np.eye(n - 1)
    a[-1] = -coefficients[:0:-1]
    b = np.zeros((n, 1))
    b[-1] = 1.0
    c = np.zeros((1, n))
    c[0, 0] = coefficients[-1]
    return ContinuousStateSpace(a, b, c)


@st.composite
def stable_poles(draw):
    """One to four stable poles: complex pairs, real poles, maybe a repeated one."""
    pairs = draw(st.integers(0, 2))
    reals = draw(st.lists(st.floats(0.5, 60.0), min_size=0 if pairs else 1,
                          max_size=4 - 2 * pairs))
    if len(reals) >= 2 and draw(st.booleans()):
        reals[1] = reals[0]  # a repeated pole makes A defective
    poles = [-p for p in reals]
    for _ in range(pairs):
        zeta = draw(st.floats(0.05, 0.99))
        wn = draw(st.floats(1.0, 60.0))
        pole = complex(-zeta * wn, wn * math.sqrt(1.0 - zeta**2))
        poles += [pole, pole.conjugate()]
    return poles


@pytest.mark.parametrize("period", PERIODS)
def test_zoh_matches_scipy_expm_on_the_presets(period):
    spec = FirstOrderFeedbackSpec(3.0, 40.0)
    for css in preset_plants() + [first_order_closed_loop(spec)]:
        assert_zoh_matches_scipy_expm(css, period)


def test_zoh_of_a_double_integrator_is_exact():
    # the augmented matrix is nilpotent, so the exponential is a polynomial
    css = ContinuousStateSpace(np.array([[0.0, 1.0], [0.0, 0.0]]),
                               np.array([[0.0], [1.0]]), np.array([[1.0, 0.0]]))
    dss = discretize_zoh(css, 0.05)
    assert np.allclose(dss.ad_matrix, [[1.0, 0.05], [0.0, 1.0]], rtol=1e-15, atol=1e-17)
    assert np.allclose(dss.bd_vector[:, 0], [0.05**2 / 2, 0.05], rtol=1e-15, atol=0)
    assert_zoh_matches_scipy_expm(css, 0.05)


@pytest.mark.parametrize("natural_frequency, period", [
    (1e40, T),    # ||A^k|| overflows: the scaling exponent is infinite
    (1e75, T),
    (1e150, T),   # A itself is finite, its powers are not
    (1e200, T),   # wn^2 is already infinite
    (37.0, 1e100),
])
def test_zoh_of_extreme_plant_numbers_raises_and_warns_nothing(
    natural_frequency, period
):
    css = make_second_order(0.5, natural_frequency)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameterError, match="not finite"):
            discretize_zoh(css, period)


def test_zoh_of_a_plant_too_stiff_for_the_period_raises_and_warns_nothing():
    # from 1e12 the sampled plant is finite but wrong: at 1e20 and 1e30 Bd is
    # exactly zero. At 1e10 rounding costs under 5e-7 and the plant samples.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dss = discretize_zoh(make_second_order(0.5, 1e10), T)
        for natural_frequency in (1e12, 1e15, 1e20, 1e30):
            css = make_second_order(0.5, natural_frequency)
            with pytest.raises(InvalidParameterError, match="too stiff"):
                discretize_zoh(css, T)
    dc_gain = dss.c_vector @ np.linalg.solve(np.eye(2) - dss.ad_matrix, dss.bd_vector)
    assert dc_gain[0, 0] == pytest.approx(1.0, rel=1e-6)


@given(stable_poles(), st.sampled_from(PERIODS))
@example([-20.0, -20.0], 0.05)
@example([-10.0, -10.0, -10.0, -10.0], 0.01)
def test_zoh_matches_scipy_expm_on_stable_plants(poles, period):
    assert_zoh_matches_scipy_expm(canonical_plant(poles), period)


def assert_zeros_match_scipy_pencil(dss):
    n = dss.order
    pencil_a = np.zeros((n + 1, n + 1))
    pencil_a[:n, :n] = dss.ad_matrix
    pencil_a[:n, n] = dss.bd_vector[:, 0]
    pencil_a[n, :n] = dss.c_vector[0]
    pencil_b = np.zeros((n + 1, n + 1))
    pencil_b[:n, :n] = np.eye(n)
    alpha, beta = scipy.linalg.eig(
        pencil_a, pencil_b, right=False, homogeneous_eigvals=True
    )
    finite = np.abs(beta) > 1e-9 * np.max(np.abs(beta))
    reference = alpha[finite] / beta[finite]
    got = np.array(sampled_zeros(dss))
    assert got.size == reference.size
    assert np.sum(np.abs(got) > 1.0) == np.sum(np.abs(reference) > 1.0)
    if got.size:
        # conjugate pairs may sort either way round, so match by distance
        distance = np.abs(got[:, None] - reference[None, :])
        assert np.max(np.min(distance, axis=1)) <= 1e-9
        assert np.max(np.min(distance, axis=0)) <= 1e-9
    return got


@pytest.mark.parametrize("period", PERIODS)
def test_sampled_zeros_match_scipy_pencil_on_the_presets(period):
    for css in preset_plants():
        zeros = assert_zeros_match_scipy_pencil(discretize_zoh(css, period))
        assert len(zeros) == css.order - 1
    loop = first_order_closed_loop(FirstOrderFeedbackSpec(3.0, 40.0))
    assert assert_zeros_match_scipy_pencil(discretize_zoh(loop, period)).size == 0


@given(st.floats(0.05, 1.5), st.floats(1.0, 60.0), st.floats(0.5, 60.0),
       st.booleans(), st.sampled_from(PERIODS))
def test_sampled_zeros_match_scipy_pencil_on_factory_plants(
    zeta, wn, real_pole, third, period
):
    css = make_third_order(real_pole, zeta, wn) if third else make_second_order(zeta, wn)
    assert_zeros_match_scipy_pencil(discretize_zoh(css, period))


def test_sampled_zeros_with_two_steps_of_delay():
    # C Bd = 0 and C Ad Bd = 0.2: the numerator loses its leading coefficient
    dss = DiscreteStateSpace(
        np.array([[0.5, 1.0, 0.2], [0.0, 0.3, 1.0], [0.0, 0.0, 0.4]]),
        np.array([[0.0], [0.0], [1.0]]),
        np.array([[1.0, 0.0, 0.0]]),
        T,
    )
    zeros = assert_zeros_match_scipy_pencil(dss)
    # 0.2 z + (1 - 0.2 * 0.3) = 0.2 (z + 4.7)
    assert len(zeros) == 1
    assert zeros[0] == pytest.approx(-4.7, abs=1e-12)
