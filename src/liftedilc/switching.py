"""When to stop iterating on the model and move to the hardware.

Around a candidate iteration n the advisor computes four RMS values: the
model error at n and n+1 (one more model update) and the world error for the
same input at n and n+1 (one learning update against the world). Comparing
the two one-iteration improvements tells whether the hardware is still
learning faster than the model predicts. Each candidate consumes two world
applications, which is the entire cost of asking.

The four values are the command's model pass's probe reader (see
engine._ModelPass.probe): the model points at n and n+1 are values of the
pass's source, rows of one explicit model run to the largest candidate + 1
where that is short enough, else the closed form's RMS curve, with the
inputs u_n from one product, and the world points come from the engine's
one plant apply and learning step on blocks of candidates. A figure's
markers and a run's advisor share the pass with the run's model phase
where both pick the same operator, so A1 and A2 are values of the figure's
model curve. This module turns the values into reports: the slopes, the
jump and the slope rule.
"""

import math
from dataclasses import dataclass

from .engine import (
    _ModelPass,
    fast_forward,  # unused here; bench/tests/test_tracer.py traces this binding
)
from .errors import DivergenceError, _integer

__all__ = ["SwitchReport", "evaluate_switch"]


@dataclass(frozen=True)
class SwitchReport:
    """The four RMS values around a candidate switch point, with slopes.

    A report stores the four values and the slope factor only; the rest is
    derived from them. model_slope and world_slope are the one-iteration RMS
    improvements in raw units; jump is the world-minus-model gap at the
    candidate. The recommendation is world_slope >= slope_factor *
    model_slope.
    """

    candidate_n: int
    r_model_n: float
    r_model_n1: float
    r_world_n: float
    r_world_n1: float
    slope_factor: float

    @property
    def model_slope(self):
        return self.r_model_n - self.r_model_n1

    @property
    def world_slope(self):
        return self.r_world_n - self.r_world_n1

    @property
    def jump(self):
        return self.r_world_n - self.r_model_n

    @property
    def recommend_switch(self):
        return self.world_slope >= self.slope_factor * self.model_slope


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
    DimensionError
        If u0, desired or x0 does not fit the plants; raised before any
        numerical work.
    InvalidParameterError
        If a candidate is not a whole number >= 1, or u0, desired or x0 is
        not finite (each before any numerical work), or the initial error
        is not finite, or the model's P P^T overflows.
    DivergenceError
        If the model iteration matrix has an eigenvalue outside (-1, 1), or
        any of a candidate's four RMS values is not finite.
    """
    counts = [_integer("candidate_n", n, 1) for n in candidates]
    return _reports(_ModelPass(world, model, law, u0, x0, desired), counts,
                    slope_factor)


def _reports(model_pass, counts, slope_factor):
    """evaluate_switch's reports, their four RMS values read from model_pass."""
    reports = []
    for candidate_n, rms_values in zip(counts, model_pass.probe(counts)):
        if not all(map(math.isfinite, rms_values)):
            r_model_n, r_model_n1, r_world_n, r_world_n1 = rms_values
            raise DivergenceError(
                f"switch evaluation diverged at candidate {candidate_n}: "
                f"error RMS model {r_model_n} -> {r_model_n1}, "
                f"world {r_world_n} -> {r_world_n1}"
            )
        reports.append(SwitchReport(candidate_n, *rms_values, float(slope_factor)))
    return reports
