"""When to stop iterating on the model and move to the hardware.

Around a candidate iteration n the advisor computes four RMS values: the
model error at n and n+1 (one more model update) and the world error for the
same input at n and n+1 (one learning update against the world). Comparing
the two one-iteration improvements tells whether the hardware is still
learning faster than the model predicts. Only two world applications are
consumed, which is the entire cost of asking.
"""

from dataclasses import dataclass

from .engine import _check_run_inputs, _learn, _measure, fast_forward, rms, to_db
from .errors import _integer

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


def evaluate_switch(world, model, law, u0, x0, candidate_n, slope_factor, desired):
    """Assess switching from model to world iterations at candidate_n.

    Fast-forwards the model phase to the candidate (no iterating), takes one
    explicit model iteration for the model slope, applies the candidate
    input to the world once for the jump, and runs one world learning
    iteration for the world slope.

    Parameters
    ----------
    world, model : LiftedSystem
    law : LearningLaw
    u0 : Trajectory
    x0 : array_like or None
    candidate_n : int
        Candidate number of model iterations before switching, >= 1.
    slope_factor : float
        Threshold ratio; switching is recommended when the world improves
        at least slope_factor times as fast as the model.
    desired : Trajectory

    Returns
    -------
    SwitchReport
    """
    candidate_n = _integer("candidate_n", candidate_n, 1)
    _check_run_inputs(world, model, u0, desired)
    e0 = _measure(model, u0, x0, desired)
    u_n, e_model_n = fast_forward(model, law, u0, e0, candidate_n)
    r_model_n = rms(e_model_n)
    r_model_n1 = rms(_measure(model, _learn(model, law, u_n, e_model_n), x0, desired))

    e_world_n = _measure(world, u_n, x0, desired)
    r_world_n = rms(e_world_n)
    r_world_n1 = rms(_measure(world, _learn(model, law, u_n, e_world_n), x0, desired))

    model_slope = r_model_n - r_model_n1
    world_slope = r_world_n - r_world_n1
    return SwitchReport(
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
    )
