"""Built-in verification suite: ten numbered checks behind `liftedilc check`.

Each check exercises one guaranteed behavior end to end, against either an
independent reference computation (explicit iteration loops, closed-form
eigenvalue identities, quadrature) or a qualitative property of the bundled
example systems. The acceptance tests call the same functions, so the CLI
and the test suite cannot drift apart.

Each check's number, name and wall-clock budget are declared once, at its
`_check` registration. A check body returns only (passed, detail); the
registration times it, fails it past its budget with the runtime appended to
the detail, builds its CheckResult and appends it to ALL_CHECKS.
"""

import dataclasses
import functools
import io
import math
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import _sampled_plant, load_preset
from .engine import fast_forward, run_hybrid, run_iterations
from .experiments import build_desired_trajectory, bundled_experiment
from .laws import LAW_KINDS, LearningLaw, build_gain, iteration_matrix
from .lifted import Trajectory, build_lifted, delete_rows, pseudo_inverse_input
from .lti import (
    DiscreteStateSpace,
    FirstOrderFeedbackSpec,
    analytic_first_order_response,
    discretize_zoh,
    first_order_closed_loop,
    simulate,
)

__all__ = ["CheckResult", "run_all", "format_result", "ALL_CHECKS"]

_T = 0.01
_N = 100


@dataclass(frozen=True)
class CheckResult:
    number: int
    name: str
    passed: bool
    detail: str
    elapsed: float


def format_result(result):
    status = "PASS" if result.passed else "FAIL"
    return (
        f"{status} {result.number:2d} {result.name}: "
        f"{result.detail} [{result.elapsed:.2f} s]"
    )


ALL_CHECKS = ()


def _check(number, name, seconds=None):
    """Register a body returning (passed, detail) as check `number`.

    The registered check times the body and, given a budget in `seconds`,
    fails past it with the runtime appended to the detail.
    """

    def register(body):
        global ALL_CHECKS

        @functools.wraps(body)
        def check():
            t0 = time.perf_counter()
            passed, detail = body()
            elapsed = time.perf_counter() - t0
            if seconds is not None:
                passed = passed and elapsed < seconds
                detail += f", runtime {elapsed:.2f} s (< {seconds} s)"
            return CheckResult(number, name, passed, detail, elapsed)

        check.number, check.name = number, name
        ALL_CHECKS += (check,)
        return check

    return register


def _rel_gap(candidate, reference):
    scale = max(float(np.max(np.abs(reference))), 1e-12)
    return float(np.max(np.abs(candidate - reference))) / scale


@_check(1, "fast-forward matches explicit iteration", seconds=2)
def check_fast_forward_matches_explicit():
    """1: fast-forward equals the explicit update loop for every law."""
    worst = 0.0
    for kind in ("second_order", "third_order"):
        _, (_, model, u0, desired) = bundled_experiment(kind)
        e0 = Trajectory(desired.values - model.p_matrix @ u0.values)
        for law_kind in LAW_KINDS:
            law = LearningLaw(law_kind, 1.0)
            gain = build_gain(law, model)
            u = u0.values.copy()
            e = e0.values.copy()
            reference = {0: (u.copy(), e.copy())}
            for j in range(1, 101):
                u = u + gain.l_matrix @ e
                e = desired.values - model.p_matrix @ u
                reference[j] = (u.copy(), e.copy())
            for n in (1, 7, 50, 100):
                u_fast, e_fast = fast_forward(model, law, u0, e0, n)
                u_ref, e_ref = reference[n]
                worst = max(
                    worst,
                    _rel_gap(u_fast.values, u_ref),
                    _rel_gap(e_fast.values, e_ref),
                )
    return worst <= 1e-8, f"max relative gap {worst:.2e} (tol 1e-8)"


@_check(2, "law eigenvalue identities")
def check_law_eigenvalue_identities():
    """2: eigenvalues of I - P L follow the closed forms; matrix symmetric."""
    rng = np.random.default_rng(31416)
    cases = []
    for _ in range(20):
        order = int(rng.integers(1, 5))
        steps = int(rng.integers(5, 41))
        a = rng.standard_normal((order, order))
        radius = float(np.max(np.abs(np.linalg.eigvals(a))))
        a *= rng.uniform(0.3, 0.95) / max(radius, 1e-3)
        dss = DiscreteStateSpace(
            a, rng.standard_normal((order, 1)), rng.standard_normal((1, order)), _T
        )
        cases.append((build_lifted(dss, steps), float(rng.uniform(0.2, 1.5))))
    cases.append((bundled_experiment("second_order")[1].model, 1.0))
    cases.append((bundled_experiment("third_order")[1].model, 1.0))

    worst_eig = 0.0
    worst_asym = 0.0
    for plant, phi in cases:
        sigma = np.linalg.svd(plant.p_matrix, compute_uv=False)
        predictions = {
            "p_transpose": 1.0 - phi * sigma**2,
            "partial_isometry": 1.0 - phi * sigma,
            "norm_optimal": phi / (phi + sigma**2),
        }
        for law_kind in LAW_KINDS:
            w = iteration_matrix(plant, build_gain(LearningLaw(law_kind, phi), plant))
            worst_asym = max(worst_asym, float(np.max(np.abs(w - w.T))))
            eig = np.sort(np.linalg.eigvalsh((w + w.T) / 2.0))
            gap = float(np.max(np.abs(eig - np.sort(predictions[law_kind]))))
            worst_eig = max(worst_eig, gap)
    passed = worst_eig <= 1e-8 and worst_asym <= 1e-10
    return passed, (
        f"22 systems x 3 laws: max eigenvalue gap {worst_eig:.2e} (tol 1e-8), "
        f"max asymmetry {worst_asym:.2e} (tol 1e-10)"
    )


@_check(3, "first-order discretization oracle")
def check_first_order_discretization():
    """3: sampled closed loop matches the quadrature solution."""
    spec = FirstOrderFeedbackSpec(3.0, 40.0, initial_output=0.25)
    grid = np.arange(_N + 1) * _T
    held = math.pi * (1.0 - np.cos(4.0 * math.pi * grid[:-1])) ** 2

    def staircase(t):
        return float(held[min(int(t / _T), _N - 1)])

    dss = discretize_zoh(first_order_closed_loop(spec), _T)
    y_discrete = simulate(dss, held, initial_state=[spec.initial_output])
    worst = 0.0
    for k in range(1, _N + 1):
        y_exact = analytic_first_order_response(
            spec, staircase, k * _T, breakpoints=grid
        )
        worst = max(worst, abs(y_discrete[k - 1] - y_exact))
    return worst <= 1e-8, (
        f"100 sample points, piecewise-constant command: "
        f"max gap {worst:.2e} (tol 1e-8)"
    )


@_check(4, "non-minimum-phase zero detection")
def check_sampled_zero_detection():
    """4: third-order plant has one zero outside, on the negative real axis."""
    z3, z2 = (
        _sampled_plant(c.system_kind, c.model_params, c.sample_period).zeros
        for c in map(load_preset, ("third_order", "second_order"))
    )
    outside3 = [z for z in z3 if abs(z) > 1.0]
    outside2 = [z for z in z2 if abs(z) > 1.0]
    passed = (
        len(outside3) == 1
        and outside3[0].real < 0.0
        and abs(outside3[0].imag) <= 1e-9
        and not outside2
    )
    moduli3 = ", ".join(f"{abs(z):.6f}" for z in z3)
    return passed, (
        f"third-order zero moduli [{moduli3}] -> {len(outside3)} outside "
        f"(negative real axis), second-order {len(outside2)} outside"
    )


def _forward_substitution(lower, rhs):
    """Solve lower @ x = rhs for a lower-triangular, nonsingular matrix."""
    x = np.empty(rhs.size)
    for i in range(rhs.size):
        x[i] = (rhs[i] - lower[i, :i] @ x[:i]) / lower[i, i]
    return x


@_check(5, "stable-inverse boundedness")
def check_stable_inverse_boundedness():
    """5: one deleted row shrinks the inverse input by >= 10x."""
    config = load_preset("third_order")
    dss = _sampled_plant("third_order", config.model_params, config.sample_period).dss
    full = build_lifted(dss, config.horizon)
    deleted = delete_rows(full, 1)
    y_full = build_desired_trajectory(dataclasses.replace(config, deleted_rows=0))
    y_deleted = build_desired_trajectory(dataclasses.replace(config, deleted_rows=1))
    u_star = pseudo_inverse_input(deleted, y_deleted)
    u_exact = _forward_substitution(full.p_matrix, y_full.values)
    bounded = float(np.max(np.abs(u_star.values)))
    unbounded = float(np.max(np.abs(u_exact)))
    ratio = unbounded / bounded
    return ratio >= 10.0, (
        f"max|u| full inverse {unbounded:.3e}, deleted-row pseudoinverse "
        f"{bounded:.3e}, ratio {ratio:.3e} (>= 10)"
    )


def _second_order_curves(law_kind):
    _, (world, model, u0, desired) = bundled_experiment("second_order")
    law = LearningLaw(law_kind, 1.0)
    model_history = run_iterations(world, model, law, u0, None, 100, "model", desired)
    hybrid = run_hybrid(world, model, law, u0, None, 50, 10, desired)
    world_history = run_iterations(world, model, law, u0, None, 10, "world", desired)
    return model_history, hybrid, world_history


@_check(6, "second-order curve ordering", seconds=5)
def check_second_order_curve_ordering():
    """6: monotone model phase, jump at the switch, hybrid beats world-only."""
    failures = []
    for law_kind in LAW_KINDS:
        model_history, hybrid, world_history = _second_order_curves(law_kind)
        rms_values = [r.rms for r in model_history]
        monotone = all(
            later <= earlier * (1.0 + 1e-12)
            for earlier, later in zip(rms_values, rms_values[1:])
        )
        jump = hybrid[50].rms > model_history[50].rms
        bypass = hybrid[60].rms < world_history[10].rms
        if not (monotone and jump and bypass):
            failures.append(
                f"{law_kind}: monotone={monotone} jump={jump} bypass={bypass}"
            )
    return not failures, (
        "all three laws: model phase monotone, world jump at 50, hybrid "
        "below world-only after 10 hardware iterations"
        if not failures
        else "; ".join(failures)
    )


@_check(7, "second-order dB spot checks")
def check_second_order_db_levels():
    """7: dB spot values of the p-transpose run sit in the expected windows."""
    _, hybrid, world_history = _second_order_curves("p_transpose")
    initial_world = world_history[0].rms_db
    hybrid_start = hybrid[50].rms_db
    hybrid_after_10 = hybrid[60].rms_db
    in_windows = (
        13.0 < initial_world < 18.0
        and hybrid_start < 7.0
        and abs(hybrid_after_10 - (-2.0)) <= 3.0
    )
    return in_windows, (
        f"world start {initial_world:.2f} dB (13..18), hybrid start "
        f"{hybrid_start:.2f} dB (< 7), after 10 world iterations "
        f"{hybrid_after_10:.2f} dB (-2 +/- 3); reference 20 log10(raw RMS)"
    )


@_check(8, "switch advisor consistency")
def check_switch_advisor_consistency():
    """8: no jump and equal slopes when the model is exact; jump otherwise."""
    from .switching import evaluate_switch

    _, (world, model, u0, desired) = bundled_experiment("second_order")
    law = LearningLaw("p_transpose", 1.0)
    same = evaluate_switch(model, model, law, u0, None, [50], 1.0, desired)[0]
    split = evaluate_switch(world, model, law, u0, None, [50], 1.0, desired)[0]
    passed = (
        abs(same.jump) <= 1e-9
        and abs(same.model_slope - same.world_slope) <= 1e-9
        and split.jump > 0.0
        and split.world_slope > 0.0
    )
    return passed, (
        f"exact model: |jump| {abs(same.jump):.2e}, slope gap "
        f"{abs(same.model_slope - same.world_slope):.2e} (tol 1e-9); "
        f"model/world pair: jump {split.jump:.4f} > 0, world slope "
        f"{split.world_slope:.4f} > 0"
    )


@_check(9, "figure output determinism")
def check_figure_determinism():
    """9: the same figure command twice produces byte-identical CSVs.

    Each draw starts from a cleared bundled cache, so it lifts the pair,
    factorizes the model and computes every curve itself instead of reading
    the pass the first draw kept.
    """
    from . import cli

    contents = []
    with tempfile.TemporaryDirectory() as tmp:
        for run in ("a", "b"):
            bundled_experiment.cache_clear()
            out = Path(tmp) / run
            code = cli.main(
                [
                    "figure",
                    "fig3",
                    "--law",
                    "p_transpose",
                    "--switch",
                    "50",
                    "--output-dir",
                    str(out),
                ],
                stdout=io.StringIO(),
            )
            if code != 0:
                return False, f"figure command exited with {code}"
            contents.append(
                {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
            )
    identical = contents[0] == contents[1] and len(contents[0]) == 3
    return identical, (
        f"{len(contents[0])} CSV files, repeated run byte-identical: {identical}"
    )


@_check(10, "fast-forward speedup")
def check_fast_forward_speedup():
    """10: the closed form beats 100 explicit iterations by > 100x."""
    _, (world, model, u0, desired) = bundled_experiment("second_order")
    law = LearningLaw("p_transpose", 1.0)
    e0 = Trajectory(desired.values - model.p_matrix @ u0.values)
    fast_forward(model, law, u0, e0, 100)  # populate the operator cache

    fast_time = math.inf
    for _ in range(300):
        tick = time.perf_counter()
        fast_forward(model, law, u0, e0, 100)
        fast_time = min(fast_time, time.perf_counter() - tick)
    loop_time = math.inf
    for _ in range(7):
        tick = time.perf_counter()
        run_iterations(world, model, law, u0, None, 100, "model", desired)
        loop_time = min(loop_time, time.perf_counter() - tick)
    ratio = fast_time / loop_time
    return ratio < 0.01, (
        f"fast-forward {fast_time * 1e6:.1f} us vs explicit loop "
        f"{loop_time * 1e6:.1f} us, ratio {ratio:.4f} (< 0.01)"
    )


def run_all():
    """Run the ten checks in order and return their results."""
    return [check() for check in ALL_CHECKS]
