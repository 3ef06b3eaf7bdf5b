import dataclasses
import functools
import gc
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import liftedilc.engine as engine
import liftedilc.experiments as experiments
import liftedilc.laws as laws
import liftedilc.lifted as lifted
from liftedilc import (
    DimensionError,
    DivergenceError,
    InvalidParameterError,
    LAW_KINDS,
    LearningLaw,
    LiftedSystem,
    PlantParams,
    Trajectory,
    build_desired_trajectory,
    build_experiment,
    build_gain,
    build_initial_input,
    build_lifted,
    build_lifted_pair,
    bundled_experiment,
    continuous_plant,
    delete_rows,
    discretize_zoh,
    evaluate_switch,
    fast_forward,
    iteration_matrix,
    load_preset,
    run_experiment,
    run_hybrid,
    run_iterations,
)

from liftedilc.config import _sampled_plant

from conftest import SAMPLE_PERIOD, explicit_iterates, poisoned, random_stable_lifted


# ---------------------------------------------------------------- factorization


def _predicted_spectrum(kind, phi, sigma):
    return {
        "p_transpose": 1.0 - phi * sigma**2,
        "partial_isometry": 1.0 - phi * sigma,
        "norm_optimal": phi / (phi + sigma**2),
    }[kind]


def test_factorization_reconstructs_the_iteration_matrix(
    second_order_pair, third_order_pair
):
    """U diag(lambda) U^T is I - P L and (L U) U^T is L, for every law."""
    for _, model, _, _ in (second_order_pair, third_order_pair):
        rows = model.row_count
        for kind in LAW_KINDS:
            law = LearningLaw(kind, 1.0)
            op = engine._convergent_operator(model, law)
            gain = build_gain(law, model)
            w = iteration_matrix(model, gain)
            u = op.ut.T
            assert np.max(np.abs(op.ut @ u - np.eye(rows))) < 1e-10
            assert np.max(np.abs(u @ np.diag(op.lam) @ op.ut - w)) < 1e-9
            l_rebuilt = (op.lu_neg * (op.lam - 1.0)) @ op.ut
            scale = np.max(np.abs(gain.l_matrix))
            assert np.max(np.abs(l_rebuilt - gain.l_matrix)) < 1e-9 * scale


@given(st.integers(0, 10_000), st.sampled_from(LAW_KINDS), st.floats(0.1, 1.9))
def test_factorization_spectra_follow_the_singular_values(seed, kind, phi):
    rng = np.random.default_rng(seed)
    model, _ = random_stable_lifted(rng)
    sigma = np.linalg.svd(model.p_matrix, compute_uv=False)
    op = engine._build_operator(
        engine._Factorization(model.p_matrix), LearningLaw(kind, phi)
    )
    want = np.sort(_predicted_spectrum(kind, phi, sigma))
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(np.sort(op.lam) - want)) < 1e-8 * scale


def _fresh(model):
    """A new LiftedSystem object over the same matrices, with an empty cache."""
    return dataclasses.replace(model)


@pytest.fixture
def loop_rows(monkeypatch):
    """Every (input, error) the engine's explicit loop computes, in order.

    A run's records keep only the states they hand on; the loop's own rows
    are its arrays, kept here for the test to read: every _Run sets its
    last (input, error) once per state, and this one copies each out.
    """
    rows = []

    class KeepingRun(engine._Run):
        @property
        def last(self):
            return self._last

        @last.setter
        def last(self, state):
            self._last = state
            rows.append(state)

    monkeypatch.setattr(engine, "_Run", KeepingRun)
    return rows


def _rms_of(e):
    return float(np.sqrt(np.mean(e**2)))


def test_run_hybrid_and_switch_advice_never_build_the_dense_gain(
    second_order_pair, third_order_pair, monkeypatch
):
    def refuse(law, model):
        raise AssertionError("build_gain called")

    monkeypatch.setattr(laws, "build_gain", refuse)
    for world, model, u0, desired in (second_order_pair, third_order_pair):
        model = _fresh(model)
        for kind in LAW_KINDS:
            law = LearningLaw(kind, 1.0)
            run_iterations(world, model, law, u0, None, 5, "model", desired)
            run_iterations(world, model, law, u0, None, 5, "world", desired)
            run_hybrid(world, model, law, u0, None, 20, 5, desired)
            evaluate_switch(world, model, law, u0, None, [10], 1.0, desired)


@pytest.mark.parametrize("kind", LAW_KINDS)
def test_one_factorization_serves_a_run_and_twenty_switch_evaluations(
    second_order_pair, factorization_calls, kind
):
    world, model, u0, desired = second_order_pair
    model = _fresh(model)
    law = LearningLaw(kind, 1.0)
    # every count above N // 4 = 25, so every call takes the closed form
    run_hybrid(world, model, law, u0, None, 50, 10, desired)
    evaluate_switch(world, model, law, u0, None, range(26, 46), 1.0, desired)
    assert factorization_calls == ["eigh"]


def test_one_factorization_serves_all_three_laws(
    second_order_pair, factorization_calls
):
    world, model, u0, desired = second_order_pair
    model = _fresh(model)
    for kind in LAW_KINDS:
        law = LearningLaw(kind, 1.0)
        run_hybrid(world, model, law, u0, None, 50, 10, desired)
        evaluate_switch(world, model, law, u0, None, [30], 1.0, desired)
    assert factorization_calls == ["eigh"]


@pytest.mark.parametrize("kind", LAW_KINDS)
def test_measure_and_learn_take_a_vector_or_a_block_of_rows(third_order_pair, kind):
    # one plant apply and one learning step serve the explicit loop's vectors
    # and the advisor's blocks: each row of a block is that row's vector result
    world, model, _, desired = third_order_pair
    law = LearningLaw(kind, 1.0)
    target = desired.values - world.abar_matrix @ np.array([0.1, -0.2, 0.05])
    rng = np.random.default_rng(11)
    inputs = rng.standard_normal((3, model.horizon))
    errors = engine._measure(world, inputs, target)
    assert errors.shape == (3, model.row_count)
    operators = [engine._operator(model, law)]
    if kind != "partial_isometry":
        operators.append(engine._build_dense_law(model.p_matrix, law))
    for op in operators:
        steps = engine._learn(op, errors)
        assert steps.shape == inputs.shape
        for u, e, step in zip(inputs, errors, steps):
            e_single = engine._measure(world, u, target)
            step_single = engine._learn(op, e_single)
            for row, single in ((e, e_single), (step, step_single)):
                scale = np.max(np.abs(single))
                assert np.max(np.abs(row - single)) <= 1e-12 * scale


@pytest.mark.parametrize("horizon", [100, 400])
@pytest.mark.parametrize("preset", ["second_order", "third_order"])
def test_eigh_built_isometry_update_matches_the_dense_svd_gain(
    preset, horizon, factorization_calls
):
    config = dataclasses.replace(load_preset(preset), horizon=horizon)
    _, model, u0, desired = build_experiment(config)
    # at horizon 100 the pair is the bundled one, which may be factorized
    model = _fresh(model)
    law = LearningLaw("partial_isometry", 0.7)
    l_matrix = build_gain(law, model).l_matrix
    factorization_calls.clear()
    rng = np.random.default_rng(3)
    for values in (desired.values - model.p_matrix @ u0.values,
                   rng.standard_normal(model.row_count)):
        step = engine._learn(engine._operator(model, law), values)
        expected = l_matrix @ values
        assert np.linalg.norm(step - expected) <= 1e-9 * np.linalg.norm(expected)
    assert factorization_calls == ["eigh"]


# horizon 100 leaves the smallest sigma^2 at zero; at 400 it is positive but
# cond(P) is about 8e8, and the certificate reads 1
@pytest.mark.parametrize("horizon", [100, 400])
def test_an_uncertified_isometry_falls_back_to_the_thin_svd(
    horizon, factorization_calls, loop_rows
):
    config = dataclasses.replace(
        load_preset("third_order"), horizon=horizon, deleted_rows=0
    )
    world, model, u0, desired = build_experiment(config)
    law = LearningLaw("partial_isometry", 1.0)
    factorization_calls.clear()
    history = run_iterations(world, model, law, u0, None, 50, "world", desired)
    assert factorization_calls == ["eigh", "svd"]
    l_matrix = build_gain(law, model).l_matrix
    u = u0.values
    for record, (u_got, e_got) in zip(history, loop_rows, strict=True):
        e = desired.values - world.p_matrix @ u
        scale = max(1.0, float(np.max(np.abs(u))), float(np.max(np.abs(e))))
        assert np.max(np.abs(u_got - u)) <= 1e-9 * scale
        assert np.max(np.abs(e_got - e)) <= 1e-9 * scale
        assert record.rms == engine._rms(e_got)
        u = u + l_matrix @ e
    assert np.array_equal(history[-1].input.values, loop_rows[-1][0])


def test_factorization_is_freed_with_its_model(second_order_pair):
    _, model, u0, desired = second_order_pair
    model = _fresh(model)
    e0 = Trajectory(desired.values - model.p_matrix @ u0.values)
    fast_forward(model, LearningLaw("p_transpose", 1.0), u0, e0, 10)
    entry_ref = weakref.ref(model._factorization)
    model_ref = weakref.ref(model)
    del model
    gc.collect()
    assert model_ref() is None
    assert entry_ref() is None


# -------------------------------------------------------------- the dense path


def _random_wide_matrix(rng):
    """A P of at most 12 x 16 with controlled singular values: largest from
    1e-9 to 1e4, condition number up to 1e12."""
    rows = int(rng.integers(1, 13))
    cols = rows + int(rng.integers(0, 5))
    left, _ = np.linalg.qr(rng.standard_normal((rows, rows)))
    right, _ = np.linalg.qr(rng.standard_normal((cols, rows)))
    log_cond = rng.uniform(0.0, 12.0)
    exponents = rng.uniform(-9.0, 4.0) - np.sort(rng.uniform(0.0, log_cond, rows))
    return (left * 10.0**exponents) @ right.T


def _spectral_preflight_passes(p, law):
    op = engine._build_operator(engine._Factorization(p), law)
    return op.spectral_radius < 1.0


def test_the_dense_certificate_implies_the_spectral_preflight():
    # the 1e3 eps floor matters: these draws hold thousands of models that a
    # shift scaled by ||P|| alone passes while their eigenvalue rounds to 1
    rng = np.random.default_rng(17)
    certified = 0
    for _ in range(1500):
        p = _random_wide_matrix(rng)
        sigma_max2 = np.linalg.norm(p, 2) ** 2
        for law in (
            LearningLaw("p_transpose", rng.uniform(0.05, 2.5) / sigma_max2),
            LearningLaw("norm_optimal", 10.0 ** rng.uniform(-20.0, 5.0)),
        ):
            if engine._build_dense_law(p, law) is not None:
                certified += 1
                assert _spectral_preflight_passes(p, law), (p, law)
    assert certified > 1000


def test_the_dense_certificate_refuses_an_eigenvalue_that_rounds_to_one():
    # sigma^2 from 4.4e-7 down to 3.7e-17: 1 - phi sigma_min^2 is exactly 1
    rng = np.random.default_rng(2)
    left, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    right, _ = np.linalg.qr(rng.standard_normal((6, 4)))
    sigma = np.sqrt([4.4e-7, 1e-9, 1e-13, 3.7e-17])
    p = (left * sigma) @ right.T
    law = LearningLaw("p_transpose", 0.325)
    assert not _spectral_preflight_passes(p, law)
    assert engine._build_dense_law(p, law) is None


@pytest.mark.parametrize("horizon", [100, 400, 1000])
@pytest.mark.parametrize("preset", ["second_order", "third_order"])
def test_the_dense_certificate_accepts_both_presets(preset, horizon):
    config = dataclasses.replace(load_preset(preset), horizon=horizon)
    world, model = build_lifted_pair(config)
    for kind in ("p_transpose", "norm_optimal"):
        assert engine._build_dense_law(model.p_matrix, LearningLaw(kind, 1.0))


@pytest.mark.parametrize("kind", ["p_transpose", "norm_optimal"])
def test_a_refused_certificate_raises_the_spectral_divergence_text(
    kind, factorization_calls
):
    # without its deleted row the third-order model has an eigenvalue that
    # rounds to 1: the certificate fails and the spectrum refuses the law
    config = dataclasses.replace(
        load_preset("third_order"), horizon=400, deleted_rows=0
    )
    world, model, u0, desired = build_experiment(config)
    law = LearningLaw(kind, 1.0)
    factorization_calls.clear()
    with pytest.raises(DivergenceError) as dense_side:
        evaluate_switch(world, model, law, u0, None, [5], 1.0, desired)
    assert factorization_calls[:2] == ["cholesky", "eigh"]
    with pytest.raises(DivergenceError) as spectral_side:
        evaluate_switch(world, _fresh(model), law, u0, None, [200], 1.0, desired)
    assert str(dense_side.value) == str(spectral_side.value)
    assert "outside (-1, 1)" in str(dense_side.value)


@pytest.mark.parametrize("kind", LAW_KINDS)
def test_short_calls_build_no_spectrum(second_order_pair, factorization_calls, kind):
    # every count at most N // 8 = 12: p_transpose and norm_optimal run on
    # one certificate (and norm_optimal's one Cholesky factor of
    # phi I + P P^T), partial_isometry on the spectrum
    world, model, u0, desired = second_order_pair
    model = _fresh(model)
    law = LearningLaw(kind, 1.0)
    run_iterations(world, model, law, u0, None, 12, "model", desired)
    run_hybrid(world, model, law, u0, None, 12, 10, desired)
    evaluate_switch(world, model, law, u0, None, range(1, 13), 1.0, desired)
    assert factorization_calls == {
        "p_transpose": ["cholesky"],
        "partial_isometry": ["eigh"],
        "norm_optimal": ["cholesky", "cholesky"],
    }[kind]


def test_check_10_loop_and_a_preset_run_take_the_closed_form(
    tmp_path, factorization_calls
):
    # each count runs on a pair of its own: a preset's pair is the bundled
    # one, shared with every command that ran before in the process
    config = load_preset("second_order")
    world, model, u0, desired = build_experiment(config)
    model = _fresh(model)
    law = LearningLaw("p_transpose", 1.0)
    factorization_calls.clear()
    run_iterations(world, model, law, u0, None, 100, "model", desired)
    assert factorization_calls == ["eigh"]
    assert model._factorization.dense == {}
    for preset in ("second_order", "third_order"):
        bundled_experiment.cache_clear()
        factorization_calls.clear()
        run_experiment(dataclasses.replace(
            load_preset(preset), csv_path=str(tmp_path / f"{preset}.csv"),
            plot_path=None,
        ))
        assert factorization_calls == ["eigh"]


@pytest.mark.parametrize(
    "kind, bound", [("p_transpose", 25), ("norm_optimal", 12)]
)
def test_each_law_takes_the_dense_path_up_to_its_own_bound(
    second_order_pair, factorization_calls, kind, bound
):
    # N = 100: N // 4 for p_transpose, N // 8 for norm_optimal
    world, model, u0, desired = second_order_pair
    law = LearningLaw(kind, 1.0)
    for count, dense in ((bound, True), (bound + 1, False)):
        fresh = _fresh(model)
        factorization_calls.clear()
        run_iterations(world, fresh, law, u0, None, count, "model", desired)
        assert ("eigh" not in factorization_calls) == dense
        assert ("cholesky" in factorization_calls) == dense


def _dense_and_spectral(monkeypatch, call):
    """call() with every count on the dense side, then on the closed form."""
    results = []
    for divisor in (1, 10**9):  # N // 1 = N; N // 10^9 = 0
        monkeypatch.setattr(engine, "_DENSE_DIVISOR", dict.fromkeys(
            ("p_transpose", "norm_optimal"), divisor))
        results.append(call())
    return results


def _assert_close(got, want, rtol):
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


@pytest.mark.parametrize("horizon", [100, 400])
@pytest.mark.parametrize("kind", ["p_transpose", "norm_optimal"])
@pytest.mark.parametrize("preset", ["second_order", "third_order"])
def test_dense_and_closed_form_paths_agree(
    preset, kind, horizon, monkeypatch, loop_rows
):
    config = dataclasses.replace(load_preset(preset), horizon=horizon)
    world, model, u0, desired = build_experiment(config)
    law = LearningLaw(kind, 1.0)
    candidates = (1, 2, 7, 20, 25)

    def call():
        fresh = _fresh(model)
        loop_rows.clear()
        run = run_iterations(world, fresh, law, u0, None, 25, "model", desired)
        return (
            run,
            run_hybrid(world, fresh, law, u0, None, 25, 10, desired),
            evaluate_switch(world, fresh, law, u0, None, candidates, 1.0, desired),
            fresh._factorization,
            loop_rows[:26],  # the model run's rows
        )

    dense, spectral = _dense_and_spectral(monkeypatch, call)
    assert dense[3].laws == {} and spectral[3].dense == {}
    for (u_got, e_got), (u_want, e_want) in zip(dense[4], spectral[4], strict=True):
        _assert_close(u_got, u_want, 1e-12)
        _assert_close(e_got, e_want, 1e-12)
    for got_run, want_run in zip(dense[:2], spectral[:2]):
        assert [(r.iteration, r.phase) for r in got_run] == [
            (r.iteration, r.phase) for r in want_run
        ]
        for got, want in zip(got_run, want_run):
            # the same records keep their states: the switch and the last
            assert (got.input is None) == (want.input is None)
            if got.input is not None:
                _assert_close(got.input.values, want.input.values, 1e-12)
                _assert_close(got.error.values, want.error.values, 1e-12)
            assert got.rms == pytest.approx(want.rms, rel=1e-12)
    for got, want in zip(dense[2], spectral[2]):
        assert got.candidate_n == want.candidate_n
        assert got.recommend_switch == want.recommend_switch
        for name in ("r_model_n", "r_model_n1", "r_world_n", "r_world_n1"):
            assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-12)

    # and the dense path against the dense gain's own loop
    gain = build_gain(law, model).l_matrix
    model_ref = explicit_iterates(model, gain, u0.values, desired.values, 25)
    world_ref = explicit_iterates(world, gain, model_ref[25][0], desired.values, 10)
    _assert_records_match(dense[1], model_ref[:25] + world_ref)


@pytest.mark.parametrize("kind", ["p_transpose", "norm_optimal"])
def test_a_call_does_not_depend_on_what_ran_before_on_the_model(
    second_order_pair, kind
):
    world, model, u0, desired = second_order_pair
    law = LearningLaw(kind, 1.0)

    def short_calls(m):
        return (
            run_hybrid(world, m, law, u0, None, 12, 10, desired),
            evaluate_switch(world, m, law, u0, None, range(1, 13), 1.0, desired),
        )

    def long_calls(m):
        return (
            run_hybrid(world, m, law, u0, None, 60, 10, desired),
            evaluate_switch(world, m, law, u0, None, [30, 60], 1.0, desired),
        )

    first, second = _fresh(model), _fresh(model)
    short_first, long_after = short_calls(first), long_calls(first)
    long_first, short_after = long_calls(second), short_calls(second)
    for a, b in ((short_first, short_after), (long_first, long_after)):
        for got, want in zip(a[0], b[0], strict=True):
            assert (got.iteration, got.phase, got.rms) == (
                want.iteration, want.phase, want.rms)
            for name in ("input", "error"):
                kept, other = getattr(got, name), getattr(want, name)
                assert (kept is None and other is None) or np.array_equal(
                    kept.values, other.values)
        assert a[1] == b[1]


def test_the_isometry_skip_never_fires_where_the_certificate_would_pass():
    # where eigh's sigma_min^2 <= eps sigma_max^2 the isometry goes to the
    # SVD without the certificate; every draw the certificate accepts keeps
    # eigh's U, and some that it refuses are skipped
    rng = np.random.default_rng(11)
    accepted = skipped = 0
    for _ in range(600):
        rows = int(rng.integers(2, 13))
        left, _ = np.linalg.qr(rng.standard_normal((rows, rows)))
        right, _ = np.linalg.qr(rng.standard_normal((rows + 2, rows)))
        sigma = 10.0 ** -np.sort(rng.uniform(0.0, rng.uniform(2.0, 12.0), rows))
        entry = engine._Factorization((left * sigma) @ right.T)
        u, sigma2 = entry.gram
        with np.errstate(all="ignore"):  # a zero sigma: V is not finite
            v = entry.p_matrix.T @ u / np.sqrt(sigma2)
            defect = np.max(np.abs(v.T @ v - np.eye(rows)))
        if defect <= engine._ISOMETRY_TOLERANCE:
            accepted += 1
            assert entry.isometry[0] is u
        elif sigma2[0] <= engine._EPS * sigma2[-1]:
            skipped += 1
    assert accepted > 100 and skipped > 50


# ----------------------------------------------------------------- fast_forward


@given(
    st.integers(0, 10_000),
    st.integers(0, 120),
    st.sampled_from(LAW_KINDS),
    st.floats(0.1, 1.9),
)
# cond(P) = 2e8: an eigenvalue 5e-9 below 1, where forming 1 - lambda^n
# directly loses eight digits
@example(seed=5, n=2, kind="partial_isometry", phi_raw=1.0)
# ill-conditioned draws where eigh's sigma^2, off by about eps sigma_max^2,
# put norm_optimal's lambda^n 1e-9 and 1.4e-8 (relative) off the dense loop
@example(seed=1920, n=57, kind="norm_optimal", phi_raw=1.0)
@example(seed=4374, n=120, kind="norm_optimal", phi_raw=1.0)
def test_fast_forward_equals_explicit_updates(seed, n, kind, phi_raw):
    """The closed form is defined by the explicit loop it replaces."""
    rng = np.random.default_rng(seed)
    model, _ = random_stable_lifted(rng)
    sigma = np.linalg.svd(model.p_matrix, compute_uv=False)
    phi = phi_raw / max(sigma[0] ** 2, sigma[0], 1.0)
    law = LearningLaw(kind, phi)
    spectra = {
        "p_transpose": 1.0 - phi * sigma**2,
        "partial_isometry": 1.0 - phi * sigma,
        "norm_optimal": phi / (phi + sigma**2),
    }
    # a nearly rank-deficient draw can push an eigenvalue to 1.0 in float,
    # where the closed form rightly refuses to apply
    assume(float(np.max(np.abs(spectra[kind]))) < 1.0 - 1e-12)
    u0 = Trajectory(rng.standard_normal(model.horizon))
    desired = Trajectory(rng.standard_normal(model.row_count))
    e0 = Trajectory(desired.values - model.p_matrix @ u0.values)
    u_n, e_n = fast_forward(model, law, u0, e0, n)
    gain = build_gain(law, model)
    ref = explicit_iterates(model, gain.l_matrix, u0.values, desired.values, n)
    u_ref, e_ref = ref[n]
    scale = max(1.0, float(np.max(np.abs(u_ref))), float(np.max(np.abs(e_ref))))
    assert np.max(np.abs(u_n.values - u_ref)) < 1e-9 * scale
    assert np.max(np.abs(e_n.values - e_ref)) < 1e-9 * scale


def test_fast_forward_zero_returns_independent_copies(second_order_pair):
    _, model, u0, desired = second_order_pair
    e0 = Trajectory(desired.values - model.p_matrix @ u0.values)
    law = LearningLaw("p_transpose", 1.0)
    u_out, e_out = fast_forward(model, law, u0, e0, 0)
    u_out.values[0] = 123.0
    e_out.values[0] = 123.0
    assert u0.values[0] != 123.0
    assert e0.values[0] != 123.0


def test_fast_forward_raises_on_divergent_law(second_order_pair):
    _, model, u0, desired = second_order_pair
    e0 = Trajectory(desired.values - model.p_matrix @ u0.values)
    with pytest.raises(DivergenceError):
        fast_forward(model, LearningLaw("p_transpose", 2.5), u0, e0, 10)


def test_fast_forward_validates_arguments(second_order_pair):
    _, model, u0, desired = second_order_pair
    e0 = Trajectory(desired.values - model.p_matrix @ u0.values)
    law = LearningLaw("p_transpose", 1.0)
    with pytest.raises(InvalidParameterError):
        fast_forward(model, law, u0, e0, -1)
    with pytest.raises(InvalidParameterError):
        fast_forward(model, law, u0, e0, 1.5)
    short = Trajectory(np.zeros(7))
    with pytest.raises(DimensionError):
        fast_forward(model, law, short, e0, 3)
    with pytest.raises(DimensionError):
        fast_forward(model, law, u0, short, 3)


@pytest.mark.parametrize("n", [0, 5])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("target", ["u0", "e0"])
def test_fast_forward_rejects_a_non_finite_input_or_error(
    second_order_pair, target, value, n
):
    _, model, u0, desired = second_order_pair
    e0 = Trajectory(desired.values - model.p_matrix @ u0.values)
    if target == "u0":
        u0 = poisoned(u0, value)
    else:
        e0 = poisoned(e0, value)
    for kind in LAW_KINDS:
        with pytest.raises(InvalidParameterError,
                           match=f"{target} holds non-finite values"):
            fast_forward(model, LearningLaw(kind, 1.0), u0, e0, n)


def test_fast_forward_takes_a_huge_finite_input_without_a_warning(second_order_pair):
    # the u0 witness weights each sample by 1 / (2 N), so it stays finite for
    # every finite u0, where u0 . u0 overflowed; a non-finite sample still
    # makes it non-finite
    _, model, u0, desired = second_order_pair
    e0 = Trajectory(desired.values - model.p_matrix @ u0.values)
    huge = Trajectory(np.full(model.horizon, 1e306))
    for kind in LAW_KINDS:
        law = LearningLaw(kind, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u_n, e_n = fast_forward(model, law, huge, e0, 5)
        assert np.all(np.isfinite(u_n.values))
        # e_n depends on e0 alone
        assert np.array_equal(e_n.values, fast_forward(model, law, u0, e0, 5)[1].values)
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(InvalidParameterError, match="u0 holds non-finite"):
                fast_forward(model, law, poisoned(huge, value), e0, 5)


# ------------------------------------------------------------------- run loops


def test_run_iterations_record_layout(second_order_pair, loop_rows):
    _, model, u0, desired = second_order_pair
    law = LearningLaw("p_transpose", 1.0)
    history = run_iterations(model, model, law, u0, None, 7, "model", desired)
    assert len(history) == 8
    assert [r.iteration for r in history] == list(range(8))
    assert all(r.phase == "model" for r in history)
    assert np.array_equal(loop_rows[0][0], u0.values)
    # only the last record keeps its state: the loop's last row
    assert [r.input is None and r.error is None for r in history] == [True] * 7 + [False]
    assert np.array_equal(history[-1].input.values, loop_rows[-1][0])
    assert np.array_equal(history[-1].error.values, loop_rows[-1][1])


@pytest.mark.parametrize("phase", engine.PHASES)
@pytest.mark.parametrize("horizon", [100, 1000])
def test_any_sequence_of_reads_has_the_bits_of_one_fresh_run(horizon, phase):
    # the one loop, on dense vectors at N = 100 and FFT convolutions at
    # N = 1000: however a run is read, it holds the RMS values and last
    # state of one fresh run_iterations of the longest count read
    config = dataclasses.replace(load_preset("second_order"), horizon=horizon)
    world, model, u0, desired = build_experiment(config)
    law = LearningLaw("p_transpose", 1.0)
    longest = 20
    fresh = run_iterations(world, model, law, u0, None, longest, phase, desired)
    want = [r.rms for r in fresh]
    applied = model if phase == "model" else world
    assert bool(applied._convolution) == (horizon >= 512)
    op = (engine._model_operator(model, law, longest) if phase == "model"
          else engine._world_operator(model, law))
    [target] = engine._targets(model, (applied,), u0, None, desired)
    makers = [lambda: engine._Run(applied, op, phase, target, u0.values)]
    if phase == "model":
        # the pass's dense model source, started from the e0 it measured
        makers.append(lambda: engine._ModelPass(
            world, model, law, u0, None, desired).source(op))
    for make in makers:
        for reads in ([("read", 7), ("read", longest)],
                      [("read", longest), ("read", 7), ("read", longest)],
                      [("value", 3), ("value", longest), ("read", 12)],
                      [("value", 0), ("read", 0), ("value", longest)]):
            run = make()
            for how, n in reads:
                if how == "read":
                    assert run.read(n) == want[: n + 1]
                else:
                    assert run.value(n) == want[n]
            assert run.rms_values == want
            assert np.array_equal(run.last[0], fresh[-1].input.values)
            assert np.array_equal(run.last[1], fresh[-1].error.values)


def test_run_iterations_model_phase_decreases_monotonically(second_order_pair):
    _, model, u0, desired = second_order_pair
    law = LearningLaw("p_transpose", 1.0)
    history = run_iterations(model, model, law, u0, None, 20, "model", desired)
    rms = [r.rms for r in history]
    assert all(b < a for a, b in zip(rms, rms[1:]))


def test_run_iterations_world_phase_measures_the_world(second_order_pair, loop_rows):
    world, model, u0, desired = second_order_pair
    law = LearningLaw("p_transpose", 1.0)
    history = run_iterations(world, model, law, u0, None, 1, "world", desired)
    e0 = desired.values - world.p_matrix @ u0.values
    assert np.allclose(loop_rows[0][1], e0)
    assert history[0].rms == pytest.approx(_rms_of(e0))
    assert history[0].phase == "world"


def test_run_iterations_validates_phase_and_count(second_order_pair):
    world, model, u0, desired = second_order_pair
    law = LearningLaw("p_transpose", 1.0)
    with pytest.raises(InvalidParameterError):
        run_iterations(world, model, law, u0, None, 3, "both", desired)
    with pytest.raises(InvalidParameterError):
        run_iterations(world, model, law, u0, None, -1, "model", desired)


@pytest.mark.parametrize("kind", LAW_KINDS)
def test_world_phase_matches_the_dense_loop_with_an_eigenvalue_at_one(kind, loop_rows):
    # without row deletion the third-order model has a singular value below
    # rounding: one eigenvalue of every law rounds to exactly 1.0, so the world
    # update must not divide by lambda - 1
    config = dataclasses.replace(load_preset("third_order"), deleted_rows=0)
    world, model = build_lifted_pair(config)
    u0 = build_initial_input(config)
    desired = build_desired_trajectory(config)
    law = LearningLaw(kind, config.gain)
    assert np.any(engine._operator(model, law).lam == 1.0)
    count = config.world_count
    history = run_iterations(world, model, law, u0, None, count, "world", desired)
    gain = build_gain(law, model)
    ref = explicit_iterates(world, gain.l_matrix, u0.values, desired.values, count)
    for record, (u, e), (u_ref, e_ref) in zip(history, loop_rows, ref, strict=True):
        scale = max(1.0, float(np.max(np.abs(u_ref))), float(np.max(np.abs(e_ref))))
        assert np.max(np.abs(u - u_ref)) < 1e-9 * scale
        assert np.max(np.abs(e - e_ref)) < 1e-9 * scale
        assert record.rms == engine._rms(e)


def test_run_rejects_mismatched_world_and_model(second_order_pair, third_order_pair):
    _, model2, u0, desired = second_order_pair
    world3, _, _, _ = third_order_pair
    law = LearningLaw("p_transpose", 1.0)
    with pytest.raises(DimensionError):
        run_iterations(world3, model2, law, u0, None, 2, "world", desired)


def test_run_hybrid_record_layout(second_order_pair):
    world, model, u0, desired = second_order_pair
    law = LearningLaw("p_transpose", 1.0)
    # 30 > N // 4 = 25 model iterations: the closed form
    history = run_hybrid(world, model, law, u0, None, 30, 3, desired)
    assert len(history) == 34
    assert [r.phase for r in history] == ["model"] * 30 + ["world"] * 4
    assert [r.iteration for r in history] == list(range(34))

    # the first world input is the fast-forwarded model result at n = 30
    e0 = Trajectory(desired.values - model.p_matrix @ u0.values)
    u30, _ = fast_forward(model, law, u0, e0, 30)
    assert np.array_equal(history[30].input.values, u30.values)

    # and the world error there really comes from the world plant
    y30 = world.p_matrix @ history[30].input.values
    assert np.allclose(history[30].error.values, desired.values - y30)


@pytest.mark.parametrize("model_count", [3, 30])
def test_records_that_keep_a_state_compare_by_value(second_order_pair, model_count):
    # 3 <= N // 4 model iterations run the explicit loop, 30 the closed form
    world, model, u0, desired = second_order_pair
    law = LearningLaw("p_transpose", 1.0)
    first = run_iterations(world, model, law, u0, None, model_count, "model", desired)
    second = run_iterations(world, model, law, u0, None, model_count, "model", desired)
    assert first[-1].input is not None and first[-1].input is not second[-1].input
    assert first[-1] == second[-1]
    assert first == second
    hybrids = [run_hybrid(world, model, law, u0, None, model_count, 2, desired)
               for _ in range(2)]
    switch_records = [history[model_count] for history in hybrids]
    assert switch_records[0].error is not None
    assert switch_records[0] == switch_records[1]
    assert hybrids[0] == hybrids[1]

    shifted = Trajectory(first[-1].input.values + 1.0)
    assert dataclasses.replace(first[-1], input=shifted) != first[-1]
    assert Trajectory(u0.values[:-1]) != u0
    for unhashable in (u0, first[-1]):
        with pytest.raises(TypeError, match="unhashable"):
            hash(unhashable)


def test_run_hybrid_dense_switch_input_is_the_model_loop(second_order_pair):
    world, model, u0, desired = second_order_pair
    law = LearningLaw("p_transpose", 1.0)
    # 5 and 6 <= N // 4 model iterations: the explicit loop
    history = run_hybrid(world, model, law, u0, None, 5, 3, desired)
    assert [r.phase for r in history] == ["model"] * 5 + ["world"] * 4

    # the first world input is the model-phase input at n = 5: bit for bit
    # the last input of a model run of 5 iterations, and the fast-forwarded
    # result to rounding
    run = run_iterations(world, model, law, u0, None, 5, "model", desired)
    assert np.array_equal(history[5].input.values, run[5].input.values)
    e0 = Trajectory(desired.values - model.p_matrix @ u0.values)
    u5, _ = fast_forward(model, law, u0, e0, 5)
    assert np.max(np.abs(history[5].input.values - u5.values)) <= (
        1e-12 * np.max(np.abs(u5.values))
    )
    y5 = world.p_matrix @ history[5].input.values
    assert np.allclose(history[5].error.values, desired.values - y5)


@pytest.mark.parametrize("kind, bound", [("p_transpose", 25), ("norm_optimal", 12)])
@pytest.mark.parametrize("preset", ["second_order_pair", "third_order_pair"])
def test_dense_hybrid_model_phase_is_the_model_run(
    preset, kind, bound, request, loop_rows
):
    # N = 100, model_count at the law's bound: the hybrid model phase is the
    # explicit loop of run_iterations, and its switch input that loop's
    # record model_count, bit for bit
    world, model, u0, desired = request.getfixturevalue(preset)
    law = LearningLaw(kind, 1.0)
    model_pass = engine._ModelPass(world, model, law, u0, None, desired)
    model_rms, world_rms, (u_switch, _), _ = model_pass.hybrid(bound, 5)
    loop_rows.clear()
    run = run_iterations(world, model, law, u0, None, bound, "model", desired)
    # e = target - P u is deterministic: equal inputs pin the errors
    inputs = model_pass.source(engine._model_operator(model, law, bound)).kept
    for u, (u_run, _) in zip(inputs, loop_rows, strict=True):
        assert np.array_equal(u, u_run)
    assert model_rms == [r.rms for r in run[:bound]]
    assert len(world_rms) == 6
    assert np.array_equal(u_switch, run[bound].input.values)


@pytest.mark.parametrize("kind", LAW_KINDS)
@pytest.mark.parametrize("preset", ["second_order_pair", "third_order_pair"])
def test_a_closed_form_switch_input_has_the_bits_of_fast_forward(
    preset, kind, request
):
    # the world segment of every figure starts from the switch input; on
    # the closed form (M above the law's dense bound, and M = 0 with
    # partial_isometry) it comes from the pass's one closed-form product
    world, model, u0, desired = request.getfixturevalue(preset)
    law = LearningLaw(kind, 1.0)
    e0 = Trajectory(engine._measure(model, u0.values, desired.values))
    for model_count in (0, 26, 63, 64, 127, 1000):
        history = run_hybrid(world, model, law, u0, None, model_count, 1, desired)
        u_m, _ = fast_forward(model, law, u0, e0, model_count)
        assert np.array_equal(history[model_count].input.values, u_m.values)


def test_a_closed_form_hybrid_of_no_model_iterations_switches_with_u0():
    # partial_isometry at gain 1 on P = I has every eigenvalue exactly 0, so
    # log|lambda| is -inf, and the closed-form product at n = 0 would form
    # 0 * -inf = NaN: a switch after 0 model iterations applies u0 itself
    model = LiftedSystem(np.eye(4), np.zeros((4, 1)))
    law = LearningLaw("partial_isometry", 1.0)
    u0, desired = Trajectory(np.arange(4.0)), Trajectory(np.ones(4))
    history = run_hybrid(model, model, law, u0, None, 0, 2, desired)
    assert np.array_equal(history[0].input.values, u0.values)
    assert [r.rms for r in history[1:]] == [0.0, 0.0]


@pytest.mark.parametrize("kind", LAW_KINDS)
def test_a_model_pass_is_freed_by_reference_counting_alone(second_order_pair, kind):
    # no source refers back to its pass: a cycle would keep every pass, with
    # its e0 and its explicit run's rows, alive until the cyclic collector
    # ran. The reads cover the explicit run, the closed form and the world run
    world, model, u0, desired = second_order_pair
    law = LearningLaw(kind, 1.0)
    enabled = gc.isenabled()
    gc.disable()
    try:
        model_pass = engine._ModelPass(world, model, law, u0, None, desired)
        model_pass.model_run(10)
        model_pass.model_run(300)
        model_pass.hybrid(20, 5)
        model_pass.hybrid(90, 5)
        model_pass.world_run(30)
        model_pass.probe([5, 20, 70])
        freed = weakref.ref(model_pass)
        del model_pass
        assert freed() is None
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("kind", LAW_KINDS)
@pytest.mark.parametrize("horizon", [100, 400])
@pytest.mark.parametrize("preset", ["second_order", "third_order"])
def test_a_model_pass_is_prefix_stable(preset, horizon, kind):
    # what a shorter pass computes is bit for bit the start of a longer one,
    # on both sides of each block boundary: either source's RMS values, and
    # the explicit run's inputs, which pin its errors (e = target - P u).
    # One closed-form product over all the counts is not: its values' last
    # bits move with the count
    world, model, u0, desired = build_experiment(
        dataclasses.replace(load_preset(preset), horizon=horizon)
    )
    law = LearningLaw(kind, 1.0)
    block = engine._BLOCK
    # the explicit loop where a law has one (a model phase of 1), and the
    # closed form (one of N)
    for count in (1, horizon):
        op = engine._model_operator(model, law, count)
        longest = engine._ModelPass(world, model, law, u0, None, desired)
        for rows in (1, block - 1, block, block + 1, 2 * block):
            short = engine._ModelPass(world, model, law, u0, None, desired).source(op)
            assert short.read(rows - 1) == longest.source(op).read(2 * block)[:rows]
            if isinstance(op, engine._DenseLaw):
                for u, u_long in zip(
                    short.kept, longest.source(op).kept[:rows], strict=True,
                ):
                    assert np.array_equal(u, u_long)


@functools.lru_cache(maxsize=None)
def _curve_experiment(preset, horizon):
    """A preset's experiment at one horizon, built once for the curve tests."""
    return build_experiment(dataclasses.replace(load_preset(preset), horizon=horizon))


@pytest.mark.parametrize("kind", LAW_KINDS)
@pytest.mark.parametrize("horizon", [100, 400])
@pytest.mark.parametrize("preset", ["second_order", "third_order"])
def test_the_rms_curve_is_prefix_stable(preset, horizon, kind):
    # a curve read to k and one read to 10 k agree in their first k values
    # bit for bit, k on both sides of the block boundaries at 64 and 128
    world, model, u0, desired = _curve_experiment(preset, horizon)
    law = LearningLaw(kind, 1.0)
    op = engine._convergent_operator(model, law)
    for k in (63, 64, 65, 127, 129):
        passes = [engine._ModelPass(world, model, law, u0, None, desired)
                  for _ in range(2)]
        short = passes[0].source(op).read(k - 1)
        long = passes[1].source(op).read(10 * k)
        assert short == long[:k]


@pytest.mark.parametrize("kind", LAW_KINDS)
@pytest.mark.parametrize("horizon", [100, 400])
@pytest.mark.parametrize("preset", ["second_order", "third_order"])
def test_the_rms_curve_matches_the_explicit_loop(preset, horizon, kind):
    # RMS_n = |lambda^n * U^T e0| / sqrt(N - d) against run_iterations' rows
    # on the same operator wherever the RMS is at least 1e-3: within 1e-12
    # over the 150 iterations of the longest bundled figure. Row 0 is the RMS
    # of e0 itself. The gap grows with n, as lambda^n magnifies the error of
    # the eigh-built lambda n-fold: third-order partial_isometry at N = 100
    # reaches 2.1e-12 near n = 300, as the closed form's rows do (1.9e-12)
    world, model, u0, desired = _curve_experiment(preset, horizon)
    law = LearningLaw(kind, 1.0)
    op = engine._convergent_operator(model, law)
    count = 300  # above every dense bound, so the loop runs on op too
    history = run_iterations(model, model, law, u0, None, count, "model", desired)
    model_pass = engine._ModelPass(world, model, law, u0, None, desired)
    curve = model_pass.source(op).read(count)
    assert curve[0] == history[0].rms
    compared = 0
    for n, (record, value) in enumerate(zip(history, curve, strict=True)):
        if record.rms >= 1e-3:
            compared += 1
            bound = 1e-12 if n <= 150 else 1e-11
            assert value == pytest.approx(record.rms, rel=bound, abs=0)
    assert compared > 50


def test_a_long_closed_form_hybrid_keeps_no_rows():
    # 10^5 model iterations at N = 400: the RMS curve, its 64-count blocks
    # and the records take O(count + N^2) memory; rows of u and e would take
    # count N 8 bytes for each of them
    _, model, u0, desired = build_experiment(
        dataclasses.replace(load_preset("second_order"), horizon=400))
    world = model
    law = LearningLaw("p_transpose", 1.0)
    count = 10**5
    tracemalloc.start()
    try:
        history = run_hybrid(world, model, law, u0, None, count, 1, desired)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [r.phase for r in history[count - 1 : count + 1]] == ["model", "world"]
    assert len(history) == count + 2
    assert peak < count * model.horizon * 8 / 4


def test_world_only_p_transpose_run_builds_no_factorization(
    second_order_pair, factorization_calls
):
    world, model, u0, desired = second_order_pair
    run_iterations(world, _fresh(model), LearningLaw("p_transpose", 1.0), u0, None,
                   50, "world", desired)
    assert factorization_calls == []


def test_run_hybrid_model_records_match_explicit_loop(
    second_order_pair, third_order_pair
):
    """The closed form's model phase equals the explicit update loop: every
    record's RMS, the batched inputs the advisor forms, and the switch input."""
    for world, model, u0, desired in (second_order_pair, third_order_pair):
        for kind in LAW_KINDS:
            law = LearningLaw(kind, 1.0)
            history = run_hybrid(world, model, law, u0, None, 60, 0, desired)
            gain = build_gain(law, model)
            ref = explicit_iterates(model, gain.l_matrix, u0.values, desired.values, 60)
            op = engine._convergent_operator(model, law)
            e0 = desired.values - model.p_matrix @ u0.values
            inputs = engine._model_phase(op, u0.values, e0, range(1, 60))
            for j, (u_ref, e_ref) in enumerate(ref[:60]):
                record = history[j]
                assert record.phase == "model"
                assert abs(record.rms - _rms_of(e_ref)) < 1e-9
                if j:
                    assert np.max(np.abs(inputs[j - 1] - u_ref)) < 1e-9
            assert np.max(np.abs(history[60].input.values - ref[60][0])) < 1e-9


def _assert_rows_match(rows, reference):
    assert len(rows) == len(reference)
    for (u, e), (u_ref, e_ref) in zip(rows, reference):
        for got, want in ((u, u_ref), (e, e_ref)):
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


def _assert_records_match(records, reference):
    """Each record's RMS, and the input and error a record keeps, against
    the reference rows: RMS(e - e_ref) <= max|e - e_ref| bounds the RMS gap."""
    assert len(records) == len(reference)
    for record, (u_ref, e_ref) in zip(records, reference):
        assert abs(record.rms - _rms_of(e_ref)) <= 1e-9 * np.max(np.abs(e_ref))
        if record.input is not None:
            _assert_rows_match([(record.input.values, record.error.values)],
                               [(u_ref, e_ref)])


@pytest.mark.parametrize("kind", LAW_KINDS)
@pytest.mark.parametrize("preset", ["second_order_pair", "third_order_pair"])
def test_a_nonzero_initial_state_enters_every_run_as_abar_x0(
    preset, kind, request, loop_rows
):
    world, model, u0, desired = request.getfixturevalue(preset)
    x0 = np.linspace(1.0, -1.0, model.abar_matrix.shape[1]) * 1e-3
    law = LearningLaw(kind, 1.0)
    l_matrix = build_gain(law, model).l_matrix

    def dense_loop(plant, u, count):
        # e = y* - P u - Abar x0: the dense loop against the shifted target
        target = desired.values - plant.abar_matrix @ x0
        return explicit_iterates(plant, l_matrix, u, target, count)

    for phase, plant in (("model", model), ("world", world)):
        loop_rows.clear()
        history = run_iterations(world, model, law, u0, x0, 10, phase, desired)
        reference = dense_loop(plant, u0.values, 10)
        _assert_records_match(history, reference)
        _assert_rows_match(loop_rows, reference)

    model_ref = dense_loop(model, u0.values, 101)
    u30 = model_ref[30][0]
    history = run_hybrid(world, model, law, u0, x0, 30, 10, desired)
    _assert_records_match(history, model_ref[:30] + dense_loop(world, u30, 10))

    # odd and even candidates, evaluated together
    candidates = (1, 2, 7, 30, 51, 100)
    reports = evaluate_switch(world, model, law, u0, x0, candidates, 1.0, desired)
    assert [r.candidate_n for r in reports] == list(candidates)
    for n, report in zip(candidates, reports):
        world_ref = dense_loop(world, model_ref[n][0], 1)
        want = [model_ref[n][1], model_ref[n + 1][1], world_ref[0][1], world_ref[1][1]]
        got = [report.r_model_n, report.r_model_n1, report.r_world_n, report.r_world_n1]
        for r, e in zip(got, want):
            assert r == pytest.approx(np.sqrt(np.mean(e**2)), rel=1e-10)


def test_an_initial_state_is_resolved_once_per_plant_per_call(
    second_order_pair, monkeypatch
):
    # Abar x0 enters each plant's target once, not once per plant apply: a
    # run applies one plant, a hybrid and the advisor the model and the world
    world, model, u0, desired = second_order_pair
    x0 = np.array([1e-3, -2e-3])
    law = LearningLaw("p_transpose", 1.0)
    resolved = []
    real = engine._free_response

    def counting(plant, initial_state):
        resolved.append(plant)
        return real(plant, initial_state)

    monkeypatch.setattr(engine, "_free_response", counting)
    calls = [
        (lambda: run_iterations(world, model, law, u0, x0, 100, "model", desired),
         [model]),
        (lambda: run_iterations(world, model, law, u0, x0, 100, "world", desired),
         [world]),
        (lambda: run_hybrid(world, model, law, u0, x0, 20, 10, desired),
         [model, world]),
        (lambda: evaluate_switch(world, model, law, u0, x0, [5, 20], 1.0, desired),
         [model, world]),
    ]
    for call, plants in calls:
        resolved.clear()
        call()
        assert len(resolved) == len(plants)
        assert all(got is want for got, want in zip(resolved, plants))


@pytest.mark.parametrize("gain", [1.0, 50.0])
@pytest.mark.parametrize("kind", LAW_KINDS)
def test_a_wrong_length_initial_state_is_refused_before_any_factorization(
    second_order_pair, kind, gain
):
    # x0 is checked with u0 and desired, before an operator is picked: the
    # model is left unfactorized, and a divergent gain (50 for p_transpose
    # and partial_isometry) still reports the DimensionError
    world, model, u0, desired = second_order_pair
    law = LearningLaw(kind, gain)
    x0 = np.zeros(3)
    # counts past every dense bound, where the closed form would factorize
    calls = [
        lambda m: run_iterations(world, m, law, u0, x0, 100, "model", desired),
        lambda m: run_iterations(world, m, law, u0, x0, 100, "world", desired),
        lambda m: run_hybrid(world, m, law, u0, x0, 100, 1, desired),
        lambda m: evaluate_switch(world, m, law, u0, x0, [100], 1.0, desired),
    ]
    for call in calls:
        fresh = _fresh(model)
        with pytest.raises(DimensionError, match="initial_state has 3 entries"):
            call(fresh)
        assert fresh._factorization is None


@pytest.mark.parametrize(
    "kind, smallest_sigma",
    [("p_transpose", 1e-5), ("partial_isometry", 1e-10), ("norm_optimal", 1e-5)],
)
def test_eigenvalues_near_one_keep_full_accuracy(kind, smallest_sigma):
    # a singular value this small puts one eigenvalue within 1e-9 of 1,
    # where 1 - lambda^n computed directly would cancel to a few digits
    rng = np.random.default_rng(5)
    q_left, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    q_right, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    sigma = np.array([1.2, 0.9, 0.6, 0.4, 0.2, smallest_sigma])
    model = LiftedSystem(q_left @ np.diag(sigma) @ q_right.T, np.zeros((6, 1)))
    law = LearningLaw(kind, 0.5)
    op = engine._convergent_operator(model, law)
    assert 0.0 < 1.0 - np.max(op.lam) < 1e-9
    u0 = Trajectory(rng.standard_normal(6))
    desired = Trajectory(rng.standard_normal(6))
    # records 0..39 are the closed form's RMS curve, record 40 (the first
    # "world" record, on the same plant) keeps one fast_forward call's input;
    # the advisor's batched inputs are checked too
    history = run_hybrid(model, model, law, u0, None, 40, 0, desired)
    gain = build_gain(law, model)
    ref = explicit_iterates(model, gain.l_matrix, u0.values, desired.values, 40)
    for record, (_, e_ref) in zip(history, ref, strict=True):
        assert abs(record.rms - _rms_of(e_ref)) < 1e-9
    inputs = engine._model_phase(op, u0.values, ref[0][1], range(1, 41))
    for u, (u_ref, _) in zip(inputs, ref[1:], strict=True):
        assert np.max(np.abs(u - u_ref)) < 1e-9
    assert np.max(np.abs(history[40].input.values - ref[40][0])) < 1e-9
    assert np.max(np.abs(history[40].error.values - ref[40][1])) < 1e-9


def test_model_phase_divergence_is_caught_before_iterating(second_order_pair):
    world, model, u0, desired = second_order_pair
    law = LearningLaw("partial_isometry", 2.5)
    with pytest.raises(DivergenceError, match="eigenvalue magnitude"):
        run_iterations(world, model, law, u0, None, 1000, "model", desired)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("target", ["u0", "desired"])
def test_runs_reject_a_non_finite_input_or_target(second_order_pair, target, value):
    world, model, u0, desired = second_order_pair
    if target == "u0":
        u0 = poisoned(u0, value)
    else:
        desired = poisoned(desired, value)
    law = LearningLaw("p_transpose", 1.0)
    match = f"{target} holds non-finite values"
    for phase in ("model", "world"):
        with pytest.raises(InvalidParameterError, match=match):
            run_iterations(world, model, law, u0, None, 5, phase, desired)
    with pytest.raises(InvalidParameterError, match=match):
        run_hybrid(world, model, law, u0, None, 5, 5, desired)


def _lightly_damped_world(model):
    """A world that the model-built gain cannot stabilize (damping 0.05)."""
    return build_lifted(
        discretize_zoh(continuous_plant("second_order", PlantParams(0.05, 37.0)),
                       SAMPLE_PERIOD),
        model.horizon,
    )


def test_world_phase_divergence_names_phase_and_iteration(second_order_pair):
    # the model-built gain on a plant it cannot stabilize: the world error
    # grows until its RMS overflows
    _, model, u0, desired = second_order_pair
    world = _lightly_damped_world(model)
    law = LearningLaw("p_transpose", 1.0)
    with pytest.raises(DivergenceError, match=r"world phase diverged.*iteration \d+"):
        run_iterations(world, model, law, u0, None, 1000, "world", desired)
    with pytest.raises(DivergenceError, match=r"world phase diverged.*iteration \d+"):
        run_hybrid(world, model, law, u0, None, 10, 1000, desired)


@pytest.mark.parametrize("horizon", [100, 1000])
def test_a_diverging_hybrid_names_its_iteration_from_the_switch(horizon):
    # the world phase is the one loop started at the switch input: it
    # diverges where a world-phase run_iterations from that input does,
    # model_count iterations later in the hybrid's numbering
    config = dataclasses.replace(load_preset("second_order"), horizon=horizon)
    _, model, u0, desired = build_experiment(config)
    world = _lightly_damped_world(model)
    law = LearningLaw("p_transpose", 1.0)
    model_count = 10
    switch = run_iterations(model, model, law, u0, None, model_count, "model",
                            desired)[-1].input
    with pytest.raises(DivergenceError) as alone:
        run_iterations(world, model, law, switch, None, 10**6, "world", desired)
    iteration = int(str(alone.value).rsplit(" ", 1)[1])
    with pytest.raises(DivergenceError, match=r"^world phase diverged: error RMS "
                       rf"is inf at iteration {model_count + iteration}$"):
        run_hybrid(world, model, law, u0, None, model_count, 10**6, desired)


def test_a_diverging_run_stops_at_its_first_non_finite_rms(
    second_order_pair, monkeypatch
):
    # a million updates asked for, 384 made: the loop applies one input per
    # iteration up to the first overflowing RMS, and holds only what it ran
    _, model, u0, desired = second_order_pair
    world = _lightly_damped_world(model)
    law = LearningLaw("p_transpose", 1.0)
    applied = []
    real_measure = engine._measure

    def counting_measure(plant, inputs, target):
        applied.append(plant)
        return real_measure(plant, inputs, target)

    monkeypatch.setattr(engine, "_measure", counting_measure)
    tracemalloc.start()
    try:
        with pytest.raises(DivergenceError, match="world phase diverged: error "
                           "RMS is inf at iteration 384$"):
            run_iterations(world, model, law, u0, None, 10**6, "world", desired)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(applied) <= 385
    assert all(plant is world for plant in applied)
    # 385 inputs and errors of 100 samples take 0.6 MB; storage sized by the
    # count, even a list of 10**6 pointers, would take 8 MB or more
    assert peak < 4e6


def test_run_hybrid_zero_counts_yield_one_world_record(second_order_pair):
    world, model, u0, desired = second_order_pair
    law = LearningLaw("p_transpose", 1.0)
    history = run_hybrid(world, model, law, u0, None, 0, 0, desired)
    assert len(history) == 1
    assert history[0].phase == "world"
    assert np.array_equal(history[0].input.values, u0.values)
    with pytest.raises(InvalidParameterError):
        run_hybrid(world, model, law, u0, None, -1, 0, desired)


@pytest.mark.parametrize("value", [np.nan, np.inf, 2.5])
@pytest.mark.parametrize("argument", [
    "horizon", "deleted_rows", "n", "count", "model_count", "world_count",
    "candidate_n",
])
def test_integer_arguments_reject_nan_inf_and_fractions(
    second_order_pair, argument, value
):
    world, model, u0, desired = second_order_pair
    law = LearningLaw("p_transpose", 1.0)
    e0 = Trajectory(desired.values - model.p_matrix @ u0.values)
    config = load_preset("second_order")
    dss = _sampled_plant(
        config.system_kind, config.model_params, config.sample_period
    ).dss
    calls = {
        "horizon": lambda v: build_lifted(dss, v),
        "deleted_rows": lambda v: delete_rows(build_lifted(dss, 10), v),
        "n": lambda v: fast_forward(model, law, u0, e0, v),
        "count": lambda v: run_iterations(
            world, model, law, u0, None, v, "model", desired),
        "model_count": lambda v: run_hybrid(
            world, model, law, u0, None, v, 0, desired),
        "world_count": lambda v: run_hybrid(
            world, model, law, u0, None, 0, v, desired),
        "candidate_n": lambda v: evaluate_switch(
            world, model, law, u0, None, [v], 1.0, desired),
    }
    with pytest.raises(InvalidParameterError, match="must be an integer"):
        calls[argument](value)


def test_rms_db_is_none_for_exact_tracking(second_order_pair):
    _, model, u0, _ = second_order_pair
    desired = Trajectory(model.p_matrix @ u0.values)
    law = LearningLaw("p_transpose", 1.0)
    history = run_iterations(model, model, law, u0, None, 0, "model", desired)
    assert history[0].rms == 0.0
    assert history[0].rms_db is None


# ------------------------------------------------------------ the FFT plant apply

# just below, at and above lifted._FFT_HORIZON
_FFT_HORIZONS = [511, 512, 1000, 2000]

# ||FFT - dense|| / ||dense|| for P u and P^T e of Gaussian vectors. Measured
# at most 6.1e-16 on both presets and 5.5e-16 on random stable plants with up
# to two deleted rows (936 plants), at N = 512 to 2000
_FFT_RTOL = 1e-14


def _preset_pair_at(kind, horizon):
    """A preset's (world, model) pair lifted anew at another horizon."""
    config = dataclasses.replace(load_preset(kind), horizon=horizon)
    return experiments._lift_pair(config)


def _assert_vector_applies(plant, rng):
    """_measure and the p_transpose step of one vector against the dense products.

    Bit for bit where the plant has no convolution, within _FFT_RTOL where it
    has one.
    """
    u = rng.standard_normal(plant.horizon)
    e = rng.standard_normal(plant.row_count)
    law = LearningLaw("p_transpose", 0.7)
    # a zero target makes the measured error -P u exactly
    applied = -engine._measure(plant, u, np.zeros(plant.row_count))
    step = engine._learn(engine._world_operator(plant, law), e)
    dense_applied = u @ plant.p_matrix.T
    dense_step = 0.7 * (e @ plant.p_matrix)
    if not plant._convolution:
        assert np.array_equal(applied, dense_applied)
        assert np.array_equal(step, dense_step)
        return
    for got, dense in ((applied, dense_applied), (step, dense_step)):
        assert got.shape == dense.shape
        assert np.linalg.norm(got - dense) <= _FFT_RTOL * np.linalg.norm(dense)


@pytest.mark.parametrize("horizon", _FFT_HORIZONS)
@pytest.mark.parametrize("preset", ["second_order", "third_order"])
def test_fft_apply_matches_the_dense_product_from_its_threshold(preset, horizon):
    # the second-order pair keeps every row (d = 0), the third-order one
    # deletes one (d = 1)
    rng = np.random.default_rng(horizon)
    for plant in _preset_pair_at(preset, horizon):
        assert bool(plant._convolution) == (horizon >= 512)
        _assert_vector_applies(plant, rng)


@pytest.mark.parametrize("horizon", _FFT_HORIZONS)
def test_lifting_decides_the_fft_apply_once(horizon):
    # build_lifted attaches the transforms of the h it built P from, which
    # are those of h read back from P; delete_rows shares them with its own
    # row offset, and a copy made by dataclasses.replace applies P densely
    config = load_preset("third_order")
    dss = _sampled_plant("third_order", config.model_params,
                         config.sample_period).dss
    full = build_lifted(dss, horizon)
    deleted = delete_rows(full, 1)
    assert dataclasses.replace(full)._convolution is False
    if horizon < 512:
        assert full._convolution is False and deleted._convolution is False
        return
    convolution = full._convolution
    assert np.array_equal(convolution.forward,
                          np.fft.rfft(full.p_matrix[:, 0], convolution.size))
    assert (convolution.deleted, deleted._convolution.deleted) == (0, 1)
    assert deleted._convolution.forward is convolution.forward
    assert deleted._convolution.adjoint is convolution.adjoint


@given(st.integers(0, 10_000), st.sampled_from(_FFT_HORIZONS), st.integers(0, 2))
@settings(max_examples=16)
def test_fft_apply_of_random_stable_plants(seed, horizon, deleted):
    rng = np.random.default_rng(seed)
    _, dss = random_stable_lifted(rng)
    plant = build_lifted(dss, horizon)
    if deleted:
        plant = delete_rows(plant, deleted)
    _assert_vector_applies(plant, rng)


@pytest.mark.parametrize("horizon", _FFT_HORIZONS)
@pytest.mark.parametrize("preset", ["second_order", "third_order"])
def test_blocks_and_raw_matrix_systems_apply_p_densely(preset, horizon):
    # the advisor's row blocks never take the FFT, and neither does a system
    # built from a matrix, which need not be Toeplitz: both keep the dense
    # product's bits
    world, model = _preset_pair_at(preset, horizon)
    raw = LiftedSystem(model.p_matrix, model.abar_matrix)
    rng = np.random.default_rng(7)
    inputs = rng.standard_normal((3, horizon))
    errors = rng.standard_normal((3, model.row_count))
    target = rng.standard_normal(model.row_count)
    law = LearningLaw("p_transpose", 0.7)
    for plant in (world, model, raw):
        op = engine._world_operator(plant, law)
        assert np.array_equal(engine._measure(plant, inputs, target),
                              target - inputs @ plant.p_matrix.T)
        assert np.array_equal(engine._learn(op, errors),
                              0.7 * (errors @ plant.p_matrix))
    assert raw._convolution is False
    _assert_vector_applies(raw, rng)


@pytest.mark.parametrize("kind", ["p_transpose", "norm_optimal"])
def test_both_direct_laws_keep_the_convolution(third_order_pair, kind):
    # the model phase's cached direct law forms P^T of one vector through the
    # model's convolution: norm_optimal's P^T (M e) as p_transpose's phi P^T e
    _, model = _preset_pair_at("third_order", 1000)
    dense = engine._model_operator(model, LearningLaw(kind, 1.0), 10)
    assert isinstance(dense, engine._DenseLaw)
    assert dense.convolution is model._convolution
    assert isinstance(dense.convolution, lifted._Convolution)
    # at the paper's N = 100 no law has one
    _, small, _, _ = third_order_pair
    assert engine._model_operator(small, LearningLaw(kind, 1.0),
                                  10).convolution is False


# ------------------------------------------------ norm_optimal's direct law


@pytest.mark.parametrize("horizon", [100, 400, 1000])
@pytest.mark.parametrize("preset", ["second_order", "third_order"])
def test_direct_norm_optimal_step_matches_the_dense_gain(preset, horizon):
    # P^T (M e) with M = R R^T from one Cholesky factor against the LU-solved
    # gain of laws, for one vector (through the convolution from N = 512) and
    # for each row of a block. Measured at most 9.4e-15 relative
    _, model = _preset_pair_at(preset, horizon)
    rng = np.random.default_rng(horizon)
    errors = rng.standard_normal((3, model.row_count))
    for gain in (1.0, 0.01):
        law = LearningLaw("norm_optimal", gain)
        op = engine._model_operator(model, law, 1)
        assert isinstance(op, engine._DenseLaw)
        l_matrix = build_gain(law, model).l_matrix
        steps = [engine._learn(op, errors[0])] + list(engine._learn(op, errors))
        for step, e in zip(steps, [errors[0]] + list(errors), strict=True):
            expected = l_matrix @ e
            assert np.linalg.norm(step - expected) <= 1e-12 * np.linalg.norm(expected)


@pytest.mark.parametrize("horizon", [511, 512, 1000])
def test_the_direct_norm_optimal_vector_step_takes_the_fft_from_512(
    horizon, monkeypatch
):
    calls = []
    real = lifted._Convolution.apply_transpose

    def counting(self, e):
        calls.append(e.shape)
        return real(self, e)

    monkeypatch.setattr(lifted._Convolution, "apply_transpose", counting)
    _, model = _preset_pair_at("third_order", horizon)
    op = engine._model_operator(model, LearningLaw("norm_optimal", 1.0), 1)
    rng = np.random.default_rng(5)
    engine._learn(op, rng.standard_normal(model.row_count))
    engine._learn(op, rng.standard_normal((3, model.row_count)))
    # only the vector, never the block
    assert calls == ([(model.row_count,)] if horizon >= 512 else [])


def test_a_failed_norm_optimal_factor_takes_the_spectral_path(
    second_order_pair, monkeypatch
):
    # the certificate passes, then the Cholesky factor of phi I + P P^T
    # raises: both phases run on the spectrum, with a fresh spectral run's bits
    world, model, u0, desired = second_order_pair
    law = LearningLaw("norm_optimal", 1.0)

    def runs(plant):
        return [[record.rms for record in run_iterations(
                    world, plant, law, u0, None, 12, phase, desired)]
                for phase in engine.PHASES]

    real = np.linalg.cholesky
    shapes = []

    def second_raises(a):
        shapes.append(a.shape)
        if len(shapes) == 2:
            raise np.linalg.LinAlgError("forced")
        return real(a)

    failed = _fresh(model)
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "cholesky", second_raises)
        got = runs(failed)
    assert len(shapes) == 2
    assert failed._factorization.dense == {("norm_optimal", 1.0): None}
    monkeypatch.setattr(engine, "_dense_law", lambda model, law: None)
    assert got == runs(_fresh(model))


def test_a_world_only_norm_optimal_run_builds_no_spectrum(
    tmp_path, second_order_pair, factorization_calls
):
    world, model, u0, desired = second_order_pair
    law = LearningLaw("norm_optimal", 1.0)
    fresh = _fresh(model)
    run_iterations(world, fresh, law, u0, None, 150, "world", desired)
    assert factorization_calls == ["cholesky", "cholesky"]
    # a world-mode run whose switch candidates are at most N // 8 = 12 shares
    # the one direct law with its advisor
    bundled_experiment.cache_clear()
    factorization_calls.clear()
    run_experiment(dataclasses.replace(
        load_preset("second_order"), law_kind="norm_optimal", mode="world",
        switch_candidates=(1, 12), csv_path=str(tmp_path / "world.csv"),
        plot_path=None,
    ))
    assert factorization_calls == ["cholesky", "cholesky"]
