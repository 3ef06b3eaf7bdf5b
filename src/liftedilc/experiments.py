"""Configuration-driven experiments and the bundled figure layouts.

Everything here orchestrates the numerical modules: build the plant pair
from a configuration, run the requested learning mode, and write the results
as CSV (one row per iteration) plus an optional SVG chart. The CSV column
`hardware_iterations_consumed` counts cumulative world applications, which
is the quantity the fast-forward scheme is designed to save.
"""

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional

import numpy as np

from .config import _sampled_plant, load_preset
from .engine import _ModelPass, to_db
from .errors import ConfigError, _integer
from .laws import LearningLaw
from .lifted import LiftedSystem, Trajectory, build_lifted, delete_rows
from .switching import _reports
from .svg import Marker, Series, render_line_chart

__all__ = [
    "RunArtifacts",
    "CSV_HEADER",
    "Experiment",
    "build_experiment",
    "bundled_experiment",
    "build_lifted_pair",
    "build_desired_trajectory",
    "build_initial_input",
    "run_experiment",
    "reproduce_figure",
    "FIGURE_IDS",
    "unhandled_zero_warning",
    "write_history_csv",
]

CSV_HEADER = "iteration,phase,rms,rms_db,hardware_iterations_consumed"

CURVE_COLORS = {"model": "#000000", "world": "#1f5fbf", "hybrid": "#c62828"}

# Figure layouts: the two bundled plant pairs (their packaged presets), each
# in a plain comparison variant and one annotated with the switch markers.
FIGURE_IDS = ("fig2", "fig3", "fig4", "fig5")
_FIGURE_FAMILY = {
    "fig2": ("second_order", True),
    "fig3": ("second_order", False),
    "fig4": ("third_order", True),
    "fig5": ("third_order", False),
}


@dataclass
class RunArtifacts:
    """What an experiment run left on disk, plus its summary values."""

    csv_path: str
    summary: dict
    plot_paths: List[str] = field(default_factory=list)
    curve_csv_paths: Optional[Dict[str, str]] = None


class Experiment(NamedTuple):
    """What every command runs on: the lifted pair, u0 and the target y*."""

    world: LiftedSystem
    model: LiftedSystem
    u0: Trajectory
    desired: Trajectory


def build_experiment(config):
    """The one experiment setup of a configuration.

    The lifted pair comes from build_lifted_pair, so a configuration on a
    bundled plant pair shares that pair's lifting and factorization; u0 and
    the desired output are sampled from the configuration itself.
    """
    return _experiment(config, build_lifted_pair(config))


def _experiment(config, pair):
    return Experiment(
        *pair, build_initial_input(config), build_desired_trajectory(config)
    )


@lru_cache(maxsize=None)
def bundled_experiment(kind):
    """The packaged configuration and experiment of one bundled plant pair.

    kind is 'second_order' or 'third_order'. The pair is lifted once per
    process and shared by every figure, self-check and script that reads it,
    and by every configuration whose plant pair equals it (see
    build_lifted_pair), so the engine's factorization of its model (one eigh
    of P P^T, one operator per law) is computed once too. Like the lifted
    matrices, the shared u0 and desired samples are read-only.

    Returns
    -------
    (ExperimentConfig, Experiment)
    """
    config = load_preset(kind)
    # lifted here, not through build_lifted_pair, which calls back into this
    experiment = _experiment(config, _lift_pair(config))
    for trajectory in (experiment.u0, experiment.desired):
        trajectory.values.flags.writeable = False
    return config, experiment


# kind -> (the bundled Experiment, {law kind: _ModelPass at the preset's gain})
_BUNDLED_PASSES = {}


def _bundled_pass(kind, law_kind):
    """A bundled pair's configuration and its learning pass under law_kind.

    The pass serves the pair's world and runs the law at the preset's gain.
    It is kept for the process, one per pair and law kind, until
    bundled_experiment's cache is cleared. Between commands it holds RMS
    values and one state: the model curve, the world-only run's RMS values
    and last (input, error), and the explicit model run's kept inputs, at
    most N // 4 + 2 = 27 of them at the bundled N = 100.

    Returns
    -------
    (ExperimentConfig, _ModelPass)
    """
    config, experiment = bundled_experiment(kind)
    held, passes = _BUNDLED_PASSES.get(kind, (None, None))
    if held is not experiment:
        passes = {}
        _BUNDLED_PASSES[kind] = experiment, passes
    if law_kind not in passes:
        world, model, u0, desired = experiment
        law = LearningLaw(law_kind, config.gain)
        passes[law_kind] = _ModelPass(world, model, law, u0, None, desired)
    return config, passes[law_kind]


def _pair_key(config):
    """Everything a lifted pair depends on: plants, sampling, horizon, deletion."""
    return (config.system_kind, config.model_params, config.world_params,
            config.sample_period, config.horizon, config.deleted_rows)


@lru_cache(maxsize=None)
def _preset_pair_key(kind):
    return _pair_key(load_preset(kind))


def build_lifted_pair(config):
    """The sampled (world, model) plant pair of a configuration, lifted.

    Both systems get the same leading-row deletion so their error
    trajectories stay aligned.

    A pair value-equal to its kind's bundled pair (same system kind, both
    plants, sample period, horizon and deleted rows; trajectory, law, counts
    and outputs do not matter) is bundled_experiment's, lifted and
    factorized once per process. Any other pair is lifted anew on every call
    and freed with its last reference: keeping a few N = 1000 pairs would
    about double a command's peak memory.

    Returns
    -------
    (LiftedSystem, LiftedSystem)
        (world, model), rows deleted per the configuration.
    """
    if _pair_key(config) == _preset_pair_key(config.system_kind):
        _, experiment = bundled_experiment(config.system_kind)
        return experiment.world, experiment.model
    return _lift_pair(config)


def _lift_pair(config):
    """Lift a configuration's (world, model) pair anew."""
    def lift(params):
        plant = _sampled_plant(config.system_kind, params, config.sample_period)
        full = build_lifted(plant.dss, config.horizon)
        return delete_rows(full, config.deleted_rows) if config.deleted_rows else full

    model = lift(config.model_params)
    return lift(config.world_params), model


def unhandled_zero_warning(config):
    """Warning text when deleted_rows leaves unstable zeros uncovered, else None."""
    outside = _sampled_plant(
        config.system_kind, config.model_params, config.sample_period
    ).unstable_zero_count
    if outside > config.deleted_rows:
        return (
            f"model has {outside} sampled zero(s) outside the unit circle "
            f"but only {config.deleted_rows} deleted row(s); the inverse "
            "problem is effectively unstable"
        )
    return None


def _sample_desired(config, start_step):
    shape = config.trajectory
    steps = np.arange(start_step, config.horizon + 1)
    t = steps * config.sample_period
    with np.errstate(all="ignore"):
        values = shape.amplitude_coefficient * (
            1.0 - np.cos(shape.angular_frequency_coefficient * t)
        ) ** shape.exponent
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ConfigError(
            f"keys 'trajectory.*': the desired output is not finite at step "
            f"{steps[bad[0]]} (t = {t[bad[0]]:g} s)"
        )
    return Trajectory(values)


def build_desired_trajectory(config):
    """Desired output sampled over the retained steps 1 + d .. N."""
    return _sample_desired(config, 1 + config.deleted_rows)


def build_initial_input(config):
    """Initial input u0: zeros, the desired output, or a file of N samples."""
    if config.initial_input == "zero":
        return Trajectory(np.zeros(config.horizon))
    if config.initial_input == "desired_output":
        return _sample_desired(config, 1)
    try:
        values = np.loadtxt(config.initial_input, dtype=float,
                            encoding="utf-8-sig").ravel()
    except (OSError, ValueError) as exc:
        raise ConfigError(
            f"key 'run.initial_input': cannot read {config.initial_input!r}: {exc}"
        ) from None
    if values.size != config.horizon:
        raise ConfigError(
            f"key 'run.initial_input': file has {values.size} samples, "
            f"horizon is {config.horizon}"
        )
    if not np.all(np.isfinite(values)):
        raise ConfigError(
            f"key 'run.initial_input': file {config.initial_input!r} holds "
            "non-finite samples"
        )
    return Trajectory(values)


def write_history_csv(model_rms, world_rms, path):
    """One CSV row per RMS value: the model phase's, then the world phase's.

    model_rms and world_rms are lists of float. Rows are numbered from 0
    across both lists; a world row's hardware_iterations_consumed is its
    1-based position in world_rms, a model row's 0. Floats are written via
    repr, so output is byte-stable. Returns the rows' rms_db values,
    20 log10(rms), with None for a blank cell (rms <= 0).
    """
    log10 = math.log10
    db = [20.0 * log10(r) if r > 0 else None for r in model_rms + world_rms]
    split = len(model_rms)
    lines = [CSV_HEADER]
    lines += [f"{i},model,{r!r},{'' if d is None else repr(d)},0"
              for i, (r, d) in enumerate(zip(model_rms, db))]
    lines += [f"{split + j - 1},world,{r!r},{'' if d is None else repr(d)},{j}"
              for j, (r, d) in enumerate(zip(world_rms, db[split:]), 1)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return db


@contextmanager
def _all_or_nothing(paths):
    """Yield a temporary sibling of each path, moved into place together.

    Each temporary file is in its own target's directory. Only when the
    block completes are they renamed onto their targets (no fsync); where
    it raises they are removed, so no target changes.
    """
    token = os.urandom(8).hex()
    temps = [Path(path).with_name(f".{Path(path).name}.{token}.tmp")
             for path in paths]
    try:
        yield temps
        for temp, path in zip(temps, paths):
            # ext4 (auto_da_alloc) writes a file renamed over another to disk
            # at once; removing the old file first spares that wait, which
            # raised paper-n100's median op_tail_ms by a fifth
            Path(path).unlink(missing_ok=True)
            os.replace(temp, path)
    except BaseException:
        for temp in temps:
            temp.unlink(missing_ok=True)
        raise


def _db_series(name, db, color, first=0):
    """A chart series of a curve's dB values, the first at iteration `first`."""
    xs = [float(first + i) for i, d in enumerate(db) if d is not None]
    return Series(name, xs, [d for d in db if d is not None], color)


def run_experiment(config):
    """Run the configured learning mode and write its artifacts.

    The run's RMS values come from one model pass (see engine), with no
    IterationRecord, and go to the CSV and the plot as they are. Before any
    numerical work, each output path must name a file in an existing
    directory, and the plot must not name the CSV's file.

    Returns
    -------
    RunArtifacts
        CSV path, summary dictionary (final RMS per phase, switch reports,
        any warnings), and the plot path when one was requested.
    """
    # an output that cannot be written fails before any numerical work runs
    for key, path in (("output.csv", config.csv_path),
                      ("output.plot", config.plot_path)):
        if path is None:
            continue
        target = Path(path)
        if not target.parent.is_dir():
            raise ConfigError(
                f"key {key!r}: {str(target.parent)!r} is not an existing directory"
            )
        if target.is_dir():
            raise ConfigError(f"key {key!r}: {path!r} is a directory, not a file")
    # the plot is written after the CSV and would silently replace it
    if (config.plot_path is not None
            and Path(config.plot_path).resolve() == Path(config.csv_path).resolve()):
        raise ConfigError(
            f"key 'output.plot': {config.plot_path!r} names the file of 'output.csv'"
        )
    world, model, u0, desired = build_experiment(config)
    law = LearningLaw(config.law_kind, config.gain)

    # a run's model phase and the advisor's model points read one pass
    model_pass = _ModelPass(world, model, law, u0, None, desired)
    model_rms, world_rms = [], []
    if config.mode == "hybrid":
        model_rms, world_rms, _, _ = model_pass.hybrid(config.model_count,
                                                       config.world_count)
    elif config.mode == "model":
        model_rms = model_pass.model_run(config.model_count)
    else:
        world_rms = model_pass.world_run(config.world_count)
    # every numerical step runs before the first file is written, so a
    # failure leaves no output behind
    reports = _reports(model_pass, list(config.switch_candidates),
                       config.slope_factor)
    warning = unhandled_zero_warning(config)
    summary = {
        "final_rms": {phase: values[-1] for phase, values
                      in (("model", model_rms), ("world", world_rms)) if values},
        "switch_reports": reports,
        "warnings": [warning] if warning else [],
    }

    paths = [config.csv_path] + ([config.plot_path] if config.plot_path else [])
    with _all_or_nothing(paths) as temps:
        db = write_history_csv(model_rms, world_rms, temps[0])
        if config.plot_path:
            split = len(model_rms)
            render_line_chart(
                temps[1],
                [_db_series("model", db[:split], "#000000"),
                 _db_series("world", db[split:], "#c62828", split)],
                f"{config.system_kind} {config.mode} run, {config.law_kind}",
            )
    return RunArtifacts(config.csv_path, summary, paths[1:])


def reproduce_figure(figure_id, law_kind, switch_n=None, output_dir="."):
    """Generate one bundled figure: three aligned curves plus optional markers.

    The three curves share the iteration axis: learning against the model
    only (black), against the world from the start (blue), and the hybrid
    run that fast-forwards the model phase, switches at `switch_n` and learns
    for the preset's run.world_count updates (red). The marker variants (fig2,
    fig4) annotate the four switch-decision RMS values at the switch point;
    they refuse a switch_n below 1 before any numerical work.

    The model curve, the hybrid's model phase and the markers' model points
    are rows of one model pass (see engine), so the model curve matches
    run_iterations to rounding where it is long enough for the closed form.
    The world curve and the hybrid's world segment are explicit runs. Each
    curve is a list of RMS values, written to its CSV by write_history_csv,
    whose dB values the chart plots; no IterationRecord is built.

    The pair comes from bundled_experiment, and the pass is kept with it:
    one per pair and law kind, holding RMS values, the last input and error
    of the world-only run, and at most 27 inputs of a short explicit model
    run (see _bundled_pass). The first figure of a pair in a process lifts
    and factorizes it, and every later figure of that pair, in any law,
    reuses both; one in the same law reads its world curve from the kept
    run, extended from that state where it is longer. The output does not
    depend on which came first.

    Parameters
    ----------
    figure_id : str
        One of fig2..fig5.
    law_kind : str
    switch_n : int or None
        Model iterations before the switch; None takes the preset's
        run.model_count (50 for fig2/fig3, 100 for fig4/fig5).
    output_dir : str

    Returns
    -------
    RunArtifacts
        csv_path points at the hybrid curve; curve_csv_paths maps all three.
    """
    if figure_id not in _FIGURE_FAMILY:
        raise ConfigError(
            f"unknown figure id {figure_id!r}; expected one of {FIGURE_IDS}"
        )
    family, with_markers = _FIGURE_FAMILY[figure_id]
    if switch_n is not None:
        # checked here, so a bad value is named, not the curves' total count
        # or the advisor's candidate
        switch_n = _integer("switch_n", switch_n, 1 if with_markers else 0)
    config, model_pass = _bundled_pass(family, law_kind)
    if switch_n is None:
        switch_n = config.model_count
    total = switch_n + config.world_count

    # each curve as (model-phase RMS values, world-phase RMS values)
    curves = {
        "model": (model_pass.model_run(total), []),
        "world": ([], model_pass.world_run(total)),
        "hybrid": model_pass.hybrid(switch_n, config.world_count)[:2],
    }

    # every numerical step runs before the first file is written, so a
    # failure leaves the output directory untouched
    report = None
    markers = []
    if with_markers:
        [report] = _reports(model_pass, [switch_n], config.slope_factor)
        markers = [
            Marker("A1", switch_n, to_db(report.r_model_n), "#000000"),
            Marker("A2", switch_n + 1, to_db(report.r_model_n1), "#000000"),
            Marker("B1", switch_n, to_db(report.r_world_n), "#c62828"),
            Marker("B2", switch_n + 1, to_db(report.r_world_n1), "#c62828"),
        ]

    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{figure_id}_{law_kind}_switch{switch_n}"
    curve_paths = {name: str(out / f"{stem}_{name}.csv") for name in curves}
    plot_path = out / f"{stem}.svg"
    series = []
    with _all_or_nothing([*curve_paths.values(), plot_path]) as temps:
        for temp, (name, (model_rms, world_rms)), label in zip(
                temps, curves.items(), ("model only", "world only", "hybrid")):
            db = write_history_csv(model_rms, world_rms, temp)
            series.append(_db_series(label, db, CURVE_COLORS[name]))
        render_line_chart(
            temps[-1],
            series,
            f"{figure_id}: {law_kind}, switch at {switch_n}",
            markers=markers,
        )

    summary = {
        "final_rms": {name: (world_rms or model_rms)[-1]
                      for name, (model_rms, world_rms) in curves.items()},
        "switch_report": report,
    }
    return RunArtifacts(
        csv_path=curve_paths["hybrid"],
        summary=summary,
        plot_paths=[str(plot_path)],
        curve_csv_paths=curve_paths,
    )
