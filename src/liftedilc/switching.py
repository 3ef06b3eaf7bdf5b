"""When to stop iterating on the model and move to the hardware.

Around a candidate iteration n the advisor computes four RMS values: the
model error at n and n+1 (one more model update) and the world error for the
same input at n and n+1 (one learning update against the world). Comparing
the two one-iteration improvements tells whether the hardware is still
learning faster than the model predicts. Each candidate consumes two world
applications, which is the entire cost of asking.

The model points at n and n+1 come from the command's model pass (see
engine): rows of one explicit model run to the largest candidate + 1 where
that is short enough, else the closed form's RMS curve, with the inputs u_n
from one product. A figure's markers and a run's advisor share the pass
with the run's model phase where both pick the same operator, so A1 and A2
are values of the figure's model curve. The candidates are evaluated in
blocks of rows: each world step (world application, world update) is the
engine's one plant apply or learning step, and each world RMS is the one
the run records hold.
"""

import math
from dataclasses import dataclass

import numpy as np

from .engine import (
    _BLOCK,
    _ModelPass,
    _check_run_inputs,
    _learn,
    _measure,
    _model_operator,
    _rms,
    fast_forward,  # unused here; bench/tests/test_tracer.py traces this binding
)
from .errors import DivergenceError, InvalidParameterError, _integer

__all__ = ["SwitchReport", "evaluate_switch"]


@dataclass(frozen=True)
class SwitchReport:
    """The four RMS values around a candidate switch point, with slopes.

    model_slope and world_slope are the one-iteration RMS improvements in
    raw units; jump is the world-minus-model gap at the candidate. The
    recommendation is world_slope >= slope_factor * model_slope.
    """

    candidate_n: int
    r_model_n: float
    r_model_n1: float
    r_world_n: float
    r_world_n1: float
    model_slope: float
    world_slope: float
    jump: float
    recommend_switch: bool
    slope_factor: float


def evaluate_switch(world, model, law, u0, x0, candidates, slope_factor, desired):
    """Assess switching from model to world iterations at each candidate.

    For every candidate n, reads the model-phase states at n and n + 1 for
    the model slope (see engine), applies the candidate input to the world
    once for the jump, and runs one world learning iteration for the world
    slope: two world applications per candidate.

    Parameters
    ----------
    world, model : LiftedSystem
    law : LearningLaw
    u0 : Trajectory
    x0 : array_like or None
    candidates : sequence of int
        Candidate numbers of model iterations before switching, each >= 1,
        in any order; repeats are allowed.
    slope_factor : float
        Threshold ratio; switching is recommended when the world improves
        at least slope_factor times as fast as the model.
    desired : Trajectory

    Returns
    -------
    list of SwitchReport
        One report per candidate, in the order given.

    Raises
    ------
    InvalidParameterError
        If a candidate is not a whole number >= 1 (before any numerical
        work), or u0, desired or the initial error is not finite.
    DivergenceError
        If the model iteration matrix has an eigenvalue outside (-1, 1), or
        any of a candidate's four RMS values is not finite.
    """
    counts = [_integer("candidate_n", n, 1) for n in candidates]
    _check_run_inputs(world, model, u0, desired)
    return _reports(world, _ModelPass(model, law, u0, x0, desired), counts,
                    slope_factor)


def _reports(world, model_pass, counts, slope_factor):
    """evaluate_switch's reports, the model states read from model_pass."""
    if not counts:
        return []
    op = _model_operator(model_pass.model, model_pass.law, max(counts))
    if not np.isfinite(model_pass.e0).all():
        raise InvalidParameterError("e0 holds non-finite values")
    source = model_pass.source(op)
    x0, desired = model_pass.x0, model_pass.desired
    reports = []
    for start in range(0, len(counts), _BLOCK):
        block = counts[start : start + _BLOCK]
        u_n = source.inputs(block)
        with np.errstate(over="ignore", invalid="ignore"):
            e_world_n = _measure(world, u_n, x0, desired)
            e_world_n1 = _measure(world, u_n + _learn(op, e_world_n), x0, desired)
            rms_rows = [(source.value(n), source.value(n + 1), _rms(e_world_n[j]),
                         _rms(e_world_n1[j])) for j, n in enumerate(block)]
        for candidate_n, rms_values in zip(block, rms_rows):
            r_model_n, r_model_n1, r_world_n, r_world_n1 = rms_values
            if not all(map(math.isfinite, rms_values)):
                raise DivergenceError(
                    f"switch evaluation diverged at candidate {candidate_n}: "
                    f"error RMS model {r_model_n} -> {r_model_n1}, "
                    f"world {r_world_n} -> {r_world_n1}"
                )
            model_slope = r_model_n - r_model_n1
            world_slope = r_world_n - r_world_n1
            reports.append(SwitchReport(
                candidate_n=candidate_n,
                r_model_n=r_model_n,
                r_model_n1=r_model_n1,
                r_world_n=r_world_n,
                r_world_n1=r_world_n1,
                model_slope=model_slope,
                world_slope=world_slope,
                jump=r_world_n - r_model_n,
                recommend_switch=world_slope >= slope_factor * model_slope,
                slope_factor=float(slope_factor),
            ))
    return reports
