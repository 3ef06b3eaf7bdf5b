import math

import numpy as np
import pytest

import liftedilc.engine as engine
import liftedilc.switching as switching
from liftedilc import (
    InvalidParameterError,
    LearningLaw,
    LiftedSystem,
    Trajectory,
    UndefinedDbError,
    evaluate_switch,
    fast_forward,
    run_hybrid,
    run_iterations,
    to_db,
)

from conftest import poisoned


def test_rms_definition():
    assert engine._rms(np.array([3.0, -4.0])) == pytest.approx(
        math.sqrt(12.5), abs=1e-15)


def test_to_db_definition():
    assert to_db(10.0) == pytest.approx(20.0, abs=1e-12)
    assert to_db(1.0) == 0.0
    with pytest.raises(UndefinedDbError):
        to_db(0.0)
    with pytest.raises(UndefinedDbError):
        to_db(-1.0)


def test_report_agrees_with_a_hybrid_run(second_order_pair):
    world, model, u0, desired = second_order_pair
    law = LearningLaw("p_transpose", 1.0)
    [report] = evaluate_switch(world, model, law, u0, None, [50], 1.0, desired)

    assert report.jump == pytest.approx(report.r_world_n - report.r_model_n)
    assert report.model_slope == pytest.approx(report.r_model_n - report.r_model_n1)
    assert report.world_slope == pytest.approx(report.r_world_n - report.r_world_n1)
    assert report.candidate_n == 50
    assert report.slope_factor == 1.0

    # the advisor's world RMS at the candidate is exactly what a hybrid run
    # records when it switches there
    history = run_hybrid(world, model, law, u0, None, 50, 1, desired)
    assert report.r_world_n == pytest.approx(history[50].rms, rel=1e-12)
    assert report.r_world_n1 == pytest.approx(history[51].rms, rel=1e-12)


def test_identical_plants_give_zero_jump(second_order_pair):
    _, model, u0, desired = second_order_pair
    law = LearningLaw("p_transpose", 1.0)
    [report] = evaluate_switch(model, model, law, u0, None, [50], 1.0, desired)
    assert abs(report.jump) < 1e-9
    assert abs(report.world_slope - report.model_slope) < 1e-9
    # at slope_factor exactly 1.0 equal slopes sit on the comparison edge,
    # so test the recommendation a hair below it
    [relaxed] = evaluate_switch(model, model, law, u0, None, [50], 0.999, desired)
    assert relaxed.recommend_switch


def test_advisor_consumes_exactly_two_world_runs(second_order_pair, monkeypatch):
    # rows applied to each plant, one per input, however they are grouped
    # into calls
    world, model, u0, desired = second_order_pair
    law = LearningLaw("p_transpose", 1.0)
    rows = {"world": 0, "model": 0}
    real_measure = engine._measure

    def counting_measure(plant, inputs, target):
        plant_rows = inputs.shape[0] if inputs.ndim == 2 else 1
        rows["world" if plant is world else "model"] += plant_rows
        return real_measure(plant, inputs, target)

    # the one plant apply of the engine's loop and of the pass's probe
    monkeypatch.setattr(engine, "_measure", counting_measure)
    # one candidate, and more than one block of them. On the dense side
    # (25 <= N // 4) the model takes the 27 records of the one explicit model
    # run to 26, the first of them the initial error; the closed form applies
    # the model for the initial error only
    for candidates, model_rows in (([25], 27), (range(1, 71), 1)):
        rows.update(world=0, model=0)
        evaluate_switch(world, model, law, u0, None, candidates, 1.0, desired)
        assert rows == {"world": 2 * len(candidates), "model": model_rows}


def test_candidate_must_be_positive(second_order_pair, monkeypatch):
    # the first invalid candidate raises, before any numerical work
    world, model, u0, desired = second_order_pair
    law = LearningLaw("p_transpose", 1.0)

    def refuse(*args):
        raise AssertionError("numerical work before the candidates were checked")

    # the model pass is the advisor's one way into the engine
    monkeypatch.setattr(switching, "_ModelPass", refuse)
    for bad in (0, 1.5, np.nan, np.inf):
        with pytest.raises(InvalidParameterError, match=f"candidate_n .*got {bad!r}"):
            evaluate_switch(
                world, model, law, u0, None, [5, bad, -1, 2.5], 1.0, desired
            )


def test_reports_follow_the_candidates_in_the_order_given(second_order_pair):
    world, model, u0, desired = second_order_pair
    law = LearningLaw("norm_optimal", 1.0)
    reports = evaluate_switch(world, model, law, u0, None, (50, 1, 50), 1.0, desired)
    assert [r.candidate_n for r in reports] == [50, 1, 50]
    assert reports[0] == reports[2]
    assert reports[1] != reports[0]
    assert evaluate_switch(world, model, law, u0, None, [], 1.0, desired) == []


@pytest.mark.parametrize("kind", ["p_transpose", "partial_isometry", "norm_optimal"])
def test_candidates_beyond_one_block_match_single_evaluations(second_order_pair, kind):
    world, model, u0, desired = second_order_pair
    law = LearningLaw(kind, 1.0)
    candidates = range(1, 151)
    assert len(candidates) > 2 * engine._BLOCK
    reports = evaluate_switch(world, model, law, u0, None, candidates, 1.0, desired)
    fields = ("r_model_n", "r_model_n1", "r_world_n", "r_world_n1")
    for n, report in zip(candidates, reports):
        [single] = evaluate_switch(world, model, law, u0, None, [n], 1.0, desired)
        assert report.candidate_n == single.candidate_n == n
        for name in fields:
            assert getattr(report, name) == pytest.approx(
                getattr(single, name), rel=1e-13
            )


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("target", ["u0", "desired"])
def test_advisor_rejects_a_non_finite_input_or_target(second_order_pair, target, value):
    world, model, u0, desired = second_order_pair
    if target == "u0":
        u0 = poisoned(u0, value)
    else:
        desired = poisoned(desired, value)
    law = LearningLaw("p_transpose", 1.0)
    with pytest.raises(InvalidParameterError, match=f"{target} holds non-finite"):
        evaluate_switch(world, model, law, u0, None, [10], 1.0, desired)


@pytest.mark.parametrize("kind", ["partial_isometry", "norm_optimal"])
def test_advisor_rejects_a_finite_input_whose_error_overflows(kind):
    # u0 is finite, but P u0 overflows, so the initial error is not
    ones = LiftedSystem(np.tril(np.ones((8, 8))), np.zeros((8, 1)))
    with pytest.raises(InvalidParameterError, match="^e0 holds non-finite values$"):
        evaluate_switch(ones, ones, LearningLaw(kind, 0.1), Trajectory(np.full(8, 1e308)),
                        None, [1, 5], 1.0, Trajectory(np.ones(8)))


def test_extreme_slope_factor_blocks_the_switch(second_order_pair):
    world, model, u0, desired = second_order_pair
    law = LearningLaw("p_transpose", 1.0)
    [report] = evaluate_switch(world, model, law, u0, None, [50], 1e9, desired)
    assert not report.recommend_switch


@pytest.mark.parametrize("kind, bound", [("p_transpose", 25), ("norm_optimal", 12)])
@pytest.mark.parametrize("preset", ["second_order_pair", "third_order_pair"])
def test_dense_advisor_model_rms_is_the_model_run_rms(preset, kind, bound, request):
    # N = 100, every candidate at most the law's bound: the advisor's model
    # values are rows of the explicit model run, bit for bit
    world, model, u0, desired = request.getfixturevalue(preset)
    law = LearningLaw(kind, 1.0)
    candidates = (1, 2, 7, bound - 1, bound)
    history = run_iterations(world, model, law, u0, None, bound, "model", desired)
    reports = evaluate_switch(world, model, law, u0, None, candidates, 1.0, desired)
    for n, report in zip(candidates, reports):
        assert report.r_model_n == history[n].rms
        if n < bound:
            assert report.r_model_n1 == history[n + 1].rms


@pytest.mark.parametrize("kind", ["p_transpose", "partial_isometry", "norm_optimal"])
@pytest.mark.parametrize("preset", ["second_order_pair", "third_order_pair"])
def test_closed_form_advisor_model_rms_follows_the_model_run(preset, kind, request):
    # 60 > N // 4 = 25: the advisor reads n and n + 1 from the closed form
    world, model, u0, desired = request.getfixturevalue(preset)
    law = LearningLaw(kind, 1.0)
    history = run_iterations(world, model, law, u0, None, 61, "model", desired)
    reports = evaluate_switch(world, model, law, u0, None, [30, 60], 1.0, desired)
    for n, report in zip((30, 60), reports):
        assert report.r_model_n == pytest.approx(history[n].rms, rel=1e-12)
        assert report.r_model_n1 == pytest.approx(history[n + 1].rms, rel=1e-12)


@pytest.mark.parametrize("kind", ["p_transpose", "partial_isometry", "norm_optimal"])
def test_candidates_beyond_int64_match_fast_forward(second_order_pair, kind):
    world, model, u0, desired = second_order_pair
    law = LearningLaw(kind, 1.0)
    candidates = [2**63, 10**20 + 1]
    reports = evaluate_switch(world, model, law, u0, None, candidates, 1.0, desired)
    e0 = Trajectory(desired.values - model.p_matrix @ u0.values)
    for n, report in zip(candidates, reports):
        assert report.candidate_n == n
        u_n, e_n = fast_forward(model, law, u0, e0, n)
        _, e_n1 = fast_forward(model, law, u0, e0, n + 1)
        e_world = Trajectory(desired.values - world.p_matrix @ u_n.values)
        for got, want in ((report.r_model_n, engine._rms(e_n.values)),
                          (report.r_model_n1, engine._rms(e_n1.values)),
                          (report.r_world_n, engine._rms(e_world.values))):
            assert math.isfinite(got)
            assert got == pytest.approx(want, rel=1e-12)
