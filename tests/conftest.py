import dataclasses
import sys

import numpy as np
import pytest
from hypothesis import settings

import liftedilc.experiments as experiments
from liftedilc import Trajectory, build_lifted, load_preset

# timing variance from BLAS warmup makes per-example deadlines meaningless
settings.register_profile("suite", deadline=None, max_examples=40)
settings.load_profile("suite")

SAMPLE_PERIOD = 0.01


def freshly_lifted_experiment(kind, horizon=100):
    """(world, model, u0, desired) of a preset at `horizon`, lifted anew."""
    config = dataclasses.replace(load_preset(kind), horizon=horizon)
    return experiments._experiment(config, experiments._lift_pair(config))


@pytest.fixture(scope="session")
def second_order_pair():
    """(world, model, u0, desired) for the second-order preset.

    Lifted here, not taken from bundled_experiment (which build_experiment
    returns for a preset): a test that counts factorization calls on this
    pair must not depend on which commands or checks ran before it in the
    session.
    """
    return freshly_lifted_experiment("second_order")


@pytest.fixture(scope="session")
def third_order_pair():
    """(world, model, u0, desired) for the third-order preset, one row deleted.

    Its own instance, not bundled_experiment's, for the same reason as
    second_order_pair.
    """
    return freshly_lifted_experiment("third_order")


@pytest.fixture
def factorization_calls(monkeypatch):
    """Names of the eigh, svd, cholesky and gain solve calls made while the test runs.

    Only solves called from `liftedilc.laws` (the dense reference gain) and
    `liftedilc.engine` (which builds norm_optimal's direct law from a
    Cholesky factor, so a solve there would show) count: the
    Pade exponential in `lti` also solves, but only the first time a plant
    is sampled in the process, so counting it would make the result depend
    on test order.
    """
    calls = []
    gain_solvers = ("liftedilc.laws", "liftedilc.engine")
    for name, callers in (("eigh", None), ("svd", None), ("cholesky", None),
                          ("solve", gain_solvers)):
        real = getattr(np.linalg, name)

        def counting(*args, _real=real, _name=name, _callers=callers, **kwargs):
            if (_callers is None
                    or sys._getframe(1).f_globals.get("__name__") in _callers):
                calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls


def explicit_iterates(model, l_matrix, u0_values, desired_values, count):
    """Independent reference loop: list of (u_j, e_j) arrays for j = 0..count."""
    u = np.array(u0_values, dtype=float)
    e = desired_values - model.p_matrix @ u
    history = [(u.copy(), e.copy())]
    for _ in range(count):
        u = u + l_matrix @ e
        e = desired_values - model.p_matrix @ u
        history.append((u.copy(), e.copy()))
    return history


def poisoned(trajectory, value):
    """A copy of the trajectory with sample 3 replaced by `value`."""
    values = trajectory.values.copy()
    values[3] = value
    return Trajectory(values)


def random_stable_lifted(rng, max_order=4, max_steps=30):
    """A lifted system around a random stable discrete plant."""
    from liftedilc import DiscreteStateSpace

    order = int(rng.integers(1, max_order + 1))
    steps = int(rng.integers(3, max_steps + 1))
    a = rng.standard_normal((order, order))
    radius = float(np.max(np.abs(np.linalg.eigvals(a))))
    a *= rng.uniform(0.2, 0.9) / max(radius, 1e-3)
    dss = DiscreteStateSpace(
        a, rng.standard_normal((order, 1)), rng.standard_normal((1, order)),
        SAMPLE_PERIOD,
    )
    return build_lifted(dss, steps), dss


MINIMAL_SECOND_ORDER = """\
system.kind = second_order
model.damping_ratio = 0.5
model.natural_frequency = 37.0
world.damping_ratio = 0.3
world.natural_frequency = 37.0
discretization.sample_period = 0.01
lifted.horizon = 100
trajectory.amplitude_coefficient = pi
trajectory.angular_frequency_coefficient = 20*pi
trajectory.exponent = 2.0
law.kind = p_transpose
"""

MINIMAL_THIRD_ORDER = """\
system.kind = third_order
model.damping_ratio = 0.5
model.natural_frequency = 37.0
model.real_pole = 8.8
world.damping_ratio = 0.5
world.natural_frequency = 44.4
world.real_pole = 8.8
discretization.sample_period = 0.01
lifted.horizon = 100
trajectory.amplitude_coefficient = pi
trajectory.angular_frequency_coefficient = 10*pi
trajectory.exponent = 2.0
law.kind = p_transpose
"""


@pytest.fixture
def write_cfg(tmp_path):
    """Write a config file from base text plus key overrides; returns the path."""

    def make(overrides=None, base=MINIMAL_SECOND_ORDER, name="test.cfg"):
        lines = [line for line in base.splitlines() if line.strip()]
        keyed = {line.split("=")[0].strip(): line for line in lines}
        for key, value in (overrides or {}).items():
            if value is None:
                keyed.pop(key, None)
            else:
                keyed[key] = f"{key} = {value}"
        path = tmp_path / name
        path.write_text("\n".join(keyed.values()) + "\n")
        return path

    return make
