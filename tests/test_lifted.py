import dataclasses
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, strategies as st

from liftedilc import (
    DegenerateDeletionError,
    DiscreteStateSpace,
    LiftedSystem,
    DimensionError,
    EmptyHorizonError,
    InvalidParameterError,
    LearningLaw,
    RankDeficiencyError,
    Trajectory,
    build_desired_trajectory,
    build_gain,
    build_lifted,
    build_lifted_pair,
    delete_rows,
    discretize_zoh,
    evaluate_switch,
    fast_forward,
    load_preset,
    make_second_order,
    make_third_order,
    pseudo_inverse_input,
    run_hybrid,
    run_iterations,
    simulate,
)

from liftedilc.config import _sampled_plant
from liftedilc.engine import _measure, _targets
from liftedilc.lifted import PINV_RTOL
from liftedilc.lti import _markov_parameters

from conftest import SAMPLE_PERIOD, explicit_iterates, random_stable_lifted


def markov(dss, count):
    out = []
    v = dss.bd_vector[:, 0]
    for _ in range(count):
        out.append(float(dss.c_vector[0] @ v))
        v = dss.ad_matrix @ v
    return out


def test_p_matrix_is_lower_triangular_toeplitz():
    dss = discretize_zoh(make_second_order(0.5, 37.0), SAMPLE_PERIOD)
    ls = build_lifted(dss, 6)
    mk = markov(dss, 6)
    for i in range(6):
        for j in range(6):
            expected = mk[i - j] if i >= j else 0.0
            assert ls.p_matrix[i, j] == pytest.approx(expected, abs=1e-15)


def _split_scales(dss, count):
    """max over j = 0..k of |C Ad^j| |Ad^(k-j) Bd|, for k = 0..count-1."""
    rows, cols = [], []
    r, v = dss.c_vector[0], dss.bd_vector[:, 0]
    for _ in range(count):
        rows.append(np.abs(r))
        cols.append(np.abs(v))
        r, v = r @ dss.ad_matrix, dss.ad_matrix @ v
    splits = np.array(rows) @ np.array(cols).T  # [j, i]: split j + i
    return np.array([splits[np.arange(k + 1), k - np.arange(k + 1)].max()
                     for k in range(count)])


def _assert_toeplitz_of_markov_parameters(dss, horizon, c, rtol=None):
    # P is bit for bit the Toeplitz matrix of the package's Markov
    # parameters. The powers by doubling put each of those within
    # c n (k + 1) eps of its own scale: the loop and the doubling both form
    # C Ad^k Bd as a product of k + 2 factors, in different orders, so each
    # misses it by about n (k + 1) eps times the magnitude of its partial
    # products, for which the largest split |C Ad^j| |Ad^(k-j) Bd| stands in.
    # That scale decays with the entry, so a late entry cannot hide its error
    # behind the largest one. Normwise, that gives c n N eps times the largest
    # scale; a measured rtol of the loop's largest entry is checked as well
    # where one is given.
    ls = build_lifted(dss, horizon)
    mk = _markov_parameters(dss, horizon)
    loop = np.array(markov(dss, horizon))
    error = np.abs(mk - loop)
    k = np.arange(horizon)
    scale = _split_scales(dss, horizon)
    eps = np.finfo(float).eps
    assert np.all(error <= c * dss.order * (k + 1) * eps * scale)
    assert np.max(error) <= c * dss.order * horizon * eps * np.max(scale)
    if rtol is not None:
        assert np.max(error) <= rtol * np.max(np.abs(loop))
    first_row = np.zeros(horizon)
    first_row[0] = mk[0]
    assert np.array_equal(ls.p_matrix, scipy.linalg.toeplitz(mk, first_row))


def _preset_plant(kind, side):
    """The memoized sampled plant of one side ("world" or "model") of a preset."""
    config = load_preset(kind)
    params = getattr(config, f"{side}_params")
    return _sampled_plant(config.system_kind, params, config.sample_period).dss


@pytest.mark.parametrize("horizon", [1, 2, 100, 1000])
@pytest.mark.parametrize("kind", ["second_order", "third_order"])
def test_p_matrix_is_bit_identical_to_scipy_toeplitz(kind, horizon):
    for side in ("world", "model"):
        # measured: 0.16 of the per-entry bound at c = 1
        _assert_toeplitz_of_markov_parameters(
            _preset_plant(kind, side), horizon, 1.0, rtol=1e-15
        )


@given(st.integers(0, 10_000))
# its doubling misses the loop by 1.42 x 1e-14 of the loop's largest entry,
# the worst normwise gap of all seeds; per entry it is at 0.36 of c = 1
@example(6557)
def test_p_matrix_of_random_plants_is_bit_identical_to_scipy_toeplitz(seed):
    ls, dss = random_stable_lifted(np.random.default_rng(seed))
    # non-normal Ad: up to 2.6 of the per-entry bound at c = 1 over every
    # seed this test can draw
    _assert_toeplitz_of_markov_parameters(dss, ls.horizon, 4.0)


def test_abar_rows_are_output_row_times_state_powers():
    dss = discretize_zoh(make_third_order(8.8, 0.5, 37.0), SAMPLE_PERIOD)
    ls = build_lifted(dss, 5)
    power = np.eye(3)
    for r in range(5):
        power = power @ dss.ad_matrix
        assert np.allclose(ls.abar_matrix[r], dss.c_vector[0] @ power, atol=1e-15)


@given(st.integers(0, 10_000))
def test_measured_output_equals_step_by_step_simulation(seed):
    # the engine's plant apply P u + Abar x0, measured against the simulated
    # output as its target, leaves only rounding
    rng = np.random.default_rng(seed)
    ls, dss = random_stable_lifted(rng)
    u = rng.standard_normal(ls.horizon)
    x0 = rng.standard_normal(dss.order)
    y_sim = simulate(dss, u, x0)
    [target] = _targets(ls, (ls,), Trajectory(u), x0, Trajectory(y_sim))
    error = _measure(ls, u, target)
    assert np.max(np.abs(error)) < 1e-9 * max(1.0, float(np.max(np.abs(y_sim))))


def test_deleted_output_is_a_suffix_of_the_full_output(third_order_pair):
    _, model, u0, _ = third_order_pair
    full = build_lifted(_preset_plant("third_order", "model"), model.horizon)
    y_full = full.p_matrix @ u0.values
    y_del = model.p_matrix @ u0.values
    # same rows, but BLAS may round a 99-row product differently from a slice
    assert np.max(np.abs(y_del - y_full[1:])) < 1e-12


def test_delete_rows_validation():
    full = build_lifted(_preset_plant("second_order", "model"), 10)
    with pytest.raises(InvalidParameterError):
        delete_rows(full, -1)
    with pytest.raises(DegenerateDeletionError):
        delete_rows(full, 10)
    once = delete_rows(full, 2)
    with pytest.raises(InvalidParameterError):
        delete_rows(once, 1)


def test_public_entries_reject_wrong_input_length(second_order_pair):
    world, model, _, desired = second_order_pair
    law = LearningLaw("p_transpose", 1.0)
    short = Trajectory(np.ones(7))
    e0 = Trajectory(np.zeros(model.row_count))
    calls = [
        lambda: run_iterations(world, model, law, short, None, 1, "model", desired),
        lambda: run_iterations(world, model, law, short, None, 1, "world", desired),
        lambda: run_hybrid(world, model, law, short, None, 1, 1, desired),
        lambda: evaluate_switch(world, model, law, short, None, [1], 1.0, desired),
        lambda: fast_forward(model, law, short, e0, 1),
    ]
    for call in calls:
        with pytest.raises(DimensionError, match="u0 length 7"):
            call()


@pytest.mark.parametrize("p_shape, abar_shape, error", [
    ((0, 0), (0, 1), EmptyHorizonError),         # no columns
    ((0, 5), (0, 1), DegenerateDeletionError),   # no rows
    ((5,), (5, 1), DimensionError),              # P not 2-D
    ((5, 5), (5,), DimensionError),              # Abar not 2-D
    ((6, 5), (6, 1), DimensionError),            # more rows than columns
    ((4, 5), (5, 1), DimensionError),            # Abar rows differ from P's
])
def test_lifted_system_rejects_a_bad_shape(p_shape, abar_shape, error):
    with pytest.raises(error):
        LiftedSystem(np.ones(p_shape), np.ones(abar_shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["p_matrix", "abar_matrix"])
def test_lifted_system_rejects_non_finite_matrices(name, bad):
    # refused where the system is made, not later as a LinAlgError of the
    # factorization or a rank-0 RankDeficiencyError of the inverse
    matrices = {"p_matrix": np.tril(np.ones((4, 5))), "abar_matrix": np.ones((4, 2))}
    matrices[name][2, 1] = bad
    with pytest.raises(InvalidParameterError, match=f"{name} holds NaN or inf"):
        LiftedSystem(**matrices)


def test_an_overflowing_lift_is_refused_without_a_warning():
    # |Ad| = 1e3: Ad^k overflows long before k = 200. The powers overflow
    # silently and the constructor names the result
    dss = DiscreteStateSpace([[1e3]], [[1.0]], [[1.0]], 0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameterError, match="holds NaN or inf"):
            build_lifted(dss, 200)


def test_a_lifted_system_is_its_two_read_only_matrices(third_order_pair):
    init = [f.name for f in dataclasses.fields(LiftedSystem) if f.init]
    assert init == ["p_matrix", "abar_matrix"]
    _, model, u0, desired = third_order_pair
    # the stored shape that could disagree with P is gone
    with pytest.raises(TypeError):
        LiftedSystem(model.p_matrix, model.abar_matrix, 100, 0, None)

    full = build_lifted(_preset_plant("third_order", "model"), 100)
    for ls, d in ((full, 0), (delete_rows(full, 5), 5)):
        assert ls.p_matrix.shape == (ls.row_count, ls.horizon) == (100 - d, 100)
        assert ls.abar_matrix.shape[0] == ls.row_count
        assert ls.deleted_rows == d

    model = dataclasses.replace(model)  # a fresh factorization cache
    law = LearningLaw("norm_optimal", 1.0)
    e0 = Trajectory(desired.values - model.p_matrix @ u0.values)
    fast_forward(model, law, u0, e0, 10)
    p_before = model.p_matrix.copy()
    with pytest.raises(ValueError):
        model.p_matrix *= 0.5
    with pytest.raises(ValueError):
        model.abar_matrix[0, 0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.p_matrix = p_before * 0.5
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.abar_matrix = np.zeros_like(model.abar_matrix)
    assert np.array_equal(model.p_matrix, p_before)
    # the cached factorization is still that of P: the closed form agrees
    # with the dense loop on the unchanged matrix
    u_n, e_n = fast_forward(model, law, u0, e0, 10)
    l_matrix = build_gain(law, model).l_matrix
    u_ref, e_ref = explicit_iterates(model, l_matrix, u0.values, desired.values, 10)[10]
    scale = max(1.0, float(np.max(np.abs(u_ref))), float(np.max(np.abs(e_ref))))
    assert np.max(np.abs(u_n.values - u_ref)) < 1e-9 * scale
    assert np.max(np.abs(e_n.values - e_ref)) < 1e-9 * scale


def test_a_view_of_a_writable_array_is_copied():
    base = np.eye(4)
    ls = LiftedSystem(base[1:], np.zeros((3, 1)))
    base[2, 1] = 5.0
    assert ls.p_matrix[1, 1] == 0.0
    assert not ls.p_matrix.flags.writeable
    # two views deep, and the free-response map too
    free = np.ones((5, 2))
    ls = LiftedSystem(np.eye(4)[1:], free[1:][:3])
    free[2, 0] = 7.0
    assert np.all(ls.abar_matrix == 1.0)

    # build_lifted's matrices own their data, and delete_rows shares them
    full = build_lifted(_preset_plant("third_order", "model"), 20)
    assert full.p_matrix.base is None and full.abar_matrix.base is None
    shorter = delete_rows(full, 5)
    assert np.shares_memory(shorter.p_matrix, full.p_matrix)
    assert np.shares_memory(shorter.abar_matrix, full.abar_matrix)


def test_an_array_the_caller_owns_is_copied():
    # the caller could make its own array writable again and change P under
    # the cached factorizations
    a = np.eye(3)
    ls = LiftedSystem(a, np.zeros((3, 1)))
    a.flags.writeable = True
    a[0, 0] = 5.0
    assert ls.p_matrix[0, 0] == 1.0
    assert not ls.p_matrix.flags.writeable
    # a read-only array too, and a view of one
    frozen = np.eye(4)
    frozen.flags.writeable = False
    for p in (frozen, frozen[1:]):
        ls = LiftedSystem(p, np.zeros((p.shape[0], 1)))
        assert not np.shares_memory(ls.p_matrix, frozen)


def test_trajectory_validation_and_length():
    with pytest.raises(DimensionError):
        Trajectory(np.ones((2, 2)))
    # the samples are the whole signal: no start step or sample period
    with pytest.raises(TypeError):
        Trajectory(np.ones(3), 0, SAMPLE_PERIOD)
    tr = Trajectory([1.0, 2.0, 3.0])
    assert len(tr) == 3


def test_a_trajectory_and_an_array_compare_unequal():
    # numpy defers to the trajectory, so neither side broadcasts over it
    tr = Trajectory([1.0, 2.0, 3.0])
    for array in (tr.values, tr.values.copy(), np.ones(2)):
        assert (tr == array, array == tr) == (False, False)
        assert (tr != array, array != tr) == (True, True)
    assert tr == Trajectory(tr.values.copy())


def test_pseudo_inverse_reproduces_minimum_phase_target(second_order_pair):
    _, model, _, desired = second_order_pair
    u = pseudo_inverse_input(model, desired)
    y = model.p_matrix @ u.values
    assert np.max(np.abs(y - desired.values)) < 1e-8


def test_pseudo_inverse_refuses_effectively_singular_rows():
    # the third-order preset with its unstable zero left in place
    config = dataclasses.replace(load_preset("third_order"), deleted_rows=0)
    _, full = build_lifted_pair(config)
    with pytest.raises(RankDeficiencyError) as info:
        pseudo_inverse_input(full, build_desired_trajectory(config))
    assert 0 < info.value.numerical_rank < 100


def test_pseudo_inverse_tracks_deleted_target_exactly(third_order_pair):
    _, model, _, desired = third_order_pair
    u = pseudo_inverse_input(model, desired)
    y = model.p_matrix @ u.values
    scale = float(np.max(np.abs(desired.values)))
    assert np.max(np.abs(y - desired.values)) < 1e-7 * scale
    # the bounded stable-inverse input stays at a modest scale
    assert np.max(np.abs(u.values)) < 1e3


def test_pseudo_inverse_subtracts_initial_state_response(third_order_pair):
    _, model, _, desired = third_order_pair
    x0 = np.array([0.1, -0.2, 0.05])
    u = pseudo_inverse_input(model, desired, x0)
    y = model.p_matrix @ u.values + model.abar_matrix @ x0
    scale = float(np.max(np.abs(desired.values)))
    assert np.max(np.abs(y - desired.values)) < 1e-7 * scale


def _svd_rule(p, rhs):
    """The SVD minimum-norm solve with the PINV_RTOL rank rule.

    Returns (rank, u, sigma); u is None when the rank falls short of the row
    count.
    """
    u_mat, sigma, vt_mat = np.linalg.svd(p, full_matrices=False)
    rank = int(np.count_nonzero(sigma > PINV_RTOL * sigma[0]))
    if rank < p.shape[0]:
        return rank, None, sigma
    return rank, vt_mat.T @ ((u_mat.T @ rhs) / sigma), sigma


def _system(p):
    return LiftedSystem(p, np.zeros((p.shape[0], 1)))


def _preset_problem(kind, **changes):
    config = dataclasses.replace(load_preset(kind), **changes)
    _, model = build_lifted_pair(config)
    return model, build_desired_trajectory(config)


def _preset_matrix(kind, **changes):
    model, desired = _preset_problem(kind, **changes)
    return model.p_matrix, desired.values


@st.composite
def wide_problems(draw):
    """(P, rhs): rows <= cols, singular values spread over 10^-log_cond..1.

    log_cond reaches across the PINV_RTOL band and beyond; some draws set
    trailing singular values to exactly zero.
    """
    rows = draw(st.integers(1, 60))
    cols = draw(st.integers(rows, 80))
    log_cond = draw(st.one_of(st.floats(0.0, 16.0), st.floats(7.5, 11.0)))
    zeros = draw(st.integers(0, rows)) if draw(st.booleans()) else 0
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    left, _ = np.linalg.qr(rng.standard_normal((rows, rows)))
    right, _ = np.linalg.qr(rng.standard_normal((cols, rows)))
    exponents = np.sort(rng.uniform(0.0, log_cond, rows))
    exponents[0], exponents[-1] = 0.0, log_cond
    sigma = scale * 10.0 ** -exponents
    sigma[rows - zeros:] = 0.0
    return (left * sigma) @ right.T, rng.standard_normal(rows)


@example(_preset_matrix("second_order"))
@example(_preset_matrix("third_order"))
@example(_preset_matrix("third_order", deleted_rows=0))
@given(wide_problems())
def test_pseudo_inverse_agrees_with_the_svd_rule(problem):
    p, rhs = problem
    rank, expected, sigma = _svd_rule(p, rhs)
    ls = _system(p)
    desired = Trajectory(rhs)
    if expected is None:
        with pytest.raises(RankDeficiencyError) as info:
            pseudo_inverse_input(ls, desired)
        assert info.value.numerical_rank == rank
        return
    kappa = sigma[0] / sigma[-1]
    u = pseudo_inverse_input(ls, desired).values
    assert np.linalg.norm(u - expected) <= 1e-10 * kappa * np.linalg.norm(expected)


@pytest.mark.parametrize("horizon", [100, 400, 1000])
@pytest.mark.parametrize("kind", ["second_order", "third_order"])
def test_pseudo_inverse_matches_the_svd_input_on_the_presets(kind, horizon):
    model, desired = _preset_problem(kind, horizon=horizon)
    _, expected, _ = _svd_rule(model.p_matrix, desired.values)
    u = pseudo_inverse_input(model, desired).values
    assert np.linalg.norm(u - expected) <= 1e-12 * np.linalg.norm(expected)
    residual = model.p_matrix @ u - desired.values
    assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(desired.values)


@pytest.mark.parametrize("horizon", [100, 400])
@pytest.mark.parametrize("kind", ["second_order", "third_order"])
def test_pseudo_inverse_of_the_presets_needs_no_svd(
    kind, horizon, factorization_calls
):
    model, desired = _preset_problem(kind, horizon=horizon)
    factorization_calls.clear()
    pseudo_inverse_input(model, desired)
    assert factorization_calls == []


def test_undeleted_third_order_preset_falls_back_to_the_svd(factorization_calls):
    model, desired = _preset_problem("third_order", deleted_rows=0)
    factorization_calls.clear()
    with pytest.raises(RankDeficiencyError):
        pseudo_inverse_input(model, desired)
    assert factorization_calls == ["svd"]


def test_pseudo_inverse_rejects_a_target_of_the_wrong_length(third_order_pair):
    # the full horizon's target, one sample longer than the deleted rows
    _, model, _, desired = third_order_pair
    target = Trajectory(np.append(desired.values, 0.0))
    with pytest.raises(DimensionError, match="desired output has 100 entries"):
        pseudo_inverse_input(model, target)


def test_pseudo_inverse_rejects_non_finite_target(third_order_pair):
    _, model, _, desired = third_order_pair
    values = desired.values.copy()
    values[5] = np.nan
    target = Trajectory(values)
    with pytest.raises(InvalidParameterError):
        pseudo_inverse_input(model, target)


@pytest.mark.parametrize("x0", [[np.inf, 0.0, 0.0], [0.0, np.nan, 0.0]])
def test_non_finite_initial_state_is_rejected(third_order_pair, x0):
    _, model, u0, desired = third_order_pair
    with pytest.raises(InvalidParameterError):
        pseudo_inverse_input(model, desired, x0)
    law = LearningLaw("p_transpose", 1.0)
    with pytest.raises(InvalidParameterError, match="initial_state"):
        run_iterations(model, model, law, u0, x0, 0, "model", desired)


def test_a_target_adds_the_free_response_only_for_a_nonzero_state(
    third_order_pair,
):
    # against a zero desired output the measured error is exactly
    # -(P u + Abar x0); without a free response the target is y* itself
    _, model, u0, _ = third_order_pair
    zero = Trajectory(np.zeros(model.row_count))
    forced = model.p_matrix @ u0.values

    def measured(x0):
        [target] = _targets(model, (model,), u0, x0, zero)
        if x0 is None or not np.any(x0):
            assert target is zero.values
        return _measure(model, u0.values, target)

    assert np.array_equal(-measured(None), forced)
    assert np.array_equal(-measured(np.zeros(3)), forced)
    x0 = np.array([0.1, -0.2, 0.05])
    assert np.array_equal(-measured(x0), forced + model.abar_matrix @ x0)
    with pytest.raises(DimensionError):
        measured(np.zeros(2))
