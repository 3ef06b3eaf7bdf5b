"""Acceptance gate: the ten shipped self-checks, one test per criterion.

Each test runs the corresponding check from liftedilc.selfcheck, prints its
one-line verdict (kept visible through the -s default in pyproject), and
fails with that same line if the check did not pass. `liftedilc check` runs
the identical functions from the command line. The last tests pin the
registry the ten checks are declared in and the two wall-clock budgets it
applies.
"""

import itertools
import types

import pytest

import liftedilc.cli as cli
from liftedilc import DivergenceError, selfcheck


def _run(check):
    result = check()
    print(selfcheck.format_result(result))
    assert result.passed, selfcheck.format_result(result)


def test_criterion_01_fast_forward_matches_explicit_iteration():
    _run(selfcheck.check_fast_forward_matches_explicit)


def test_criterion_02_iteration_spectra_match_singular_values():
    _run(selfcheck.check_law_eigenvalue_identities)


def test_criterion_03_discretization_matches_continuous_response():
    _run(selfcheck.check_first_order_discretization)


def test_criterion_04_unstable_sampled_zeros_are_detected():
    _run(selfcheck.check_sampled_zero_detection)


def test_criterion_05_row_deletion_bounds_the_inverse_input():
    _run(selfcheck.check_stable_inverse_boundedness)


def test_criterion_06_curve_ordering_of_the_three_runs():
    _run(selfcheck.check_second_order_curve_ordering)


def test_criterion_07_second_order_db_levels():
    _run(selfcheck.check_second_order_db_levels)


def test_criterion_08_switch_advisor_is_consistent():
    _run(selfcheck.check_switch_advisor_consistency)


def test_criterion_09_figure_output_is_deterministic():
    _run(selfcheck.check_figure_determinism)


def test_criterion_10_fast_forward_beats_the_explicit_loop():
    _run(selfcheck.check_fast_forward_speedup)


def test_all_checks_registers_every_check_once_in_number_order():
    functions = [
        value for name, value in vars(selfcheck).items()
        if name.startswith("check_") and isinstance(value, types.FunctionType)
    ]
    assert len(functions) == 10
    assert sorted(map(id, selfcheck.ALL_CHECKS)) == sorted(map(id, functions))
    numbers = [check.number for check in selfcheck.ALL_CHECKS]
    assert numbers == list(range(1, 11))
    assert len({check.name for check in selfcheck.ALL_CHECKS}) == 10


@pytest.mark.parametrize(
    "check, budget",
    [
        (selfcheck.check_fast_forward_matches_explicit, 2),
        (selfcheck.check_second_order_curve_ordering, 5),
    ],
)
def test_a_check_past_its_budget_fails_with_its_runtime(
    monkeypatch, check, budget
):
    # every read of the clock advances it by ten seconds
    monkeypatch.setattr(
        selfcheck.time, "perf_counter", itertools.count(step=10.0).__next__
    )
    result = check()
    assert result.elapsed > budget
    assert not result.passed
    assert result.detail.endswith(
        f", runtime {result.elapsed:.2f} s (< {budget} s)"
    )


def test_check_6_names_each_law_whose_model_phase_is_not_monotone(monkeypatch):
    real = selfcheck._second_order_curves

    def rising(law_kind):
        model_history, hybrid, world_history = real(law_kind)
        # reversed, the curve rises; its midpoint, the jump's reference, stays
        return model_history[::-1], hybrid, world_history

    monkeypatch.setattr(selfcheck, "_second_order_curves", rising)
    result = selfcheck.check_second_order_curve_ordering()
    assert not result.passed
    assert result.detail.startswith("; ".join(
        f"{kind}: monotone=False jump=True bypass=True"
        for kind in ("p_transpose", "partial_isometry", "norm_optimal")) + ", runtime ")


def test_check_9_reports_a_figure_command_that_fails(monkeypatch):
    def diverging(*args):
        raise DivergenceError("stub divergence")

    monkeypatch.setattr(cli, "reproduce_figure", diverging)
    result = selfcheck.check_figure_determinism()
    assert not result.passed
    assert result.detail == "figure command exited with 2"
