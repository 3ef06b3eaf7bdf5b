"""Experiment configuration: a flat key-value file format with dotted keys.

Experiments take around fifteen parameters, which is too many for positional
flags, so they live in small text files:

    # comment lines start with '#'
    system.kind = second_order
    model.damping_ratio = 0.5
    trajectory.amplitude_coefficient = pi

Values are plain literals; 'pi' and '<number>*pi' are accepted wherever a
float is. Unknown keys are rejected rather than ignored, so typos surface
immediately.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib import resources
from pathlib import Path
from typing import Optional, Tuple

from .errors import ConfigError, InvalidParameterError
from .laws import LAW_KINDS
from .lti import discretize_zoh, make_second_order, make_third_order, sampled_zeros

__all__ = [
    "PlantParams",
    "TrajectoryShape",
    "ExperimentConfig",
    "load_config",
    "load_preset",
    "continuous_plant",
]

SYSTEM_KINDS = ("second_order", "third_order")
MODES = ("model", "world", "hybrid")
INITIAL_INPUT_NAMES = ("zero", "desired_output")
PRESET_FILES = {
    "second_order": "second_order_fig3.cfg",
    "third_order": "third_order_fig5.cfg",
}


@dataclass(frozen=True)
class PlantParams:
    """Parameters of one plant; real_pole only applies to third-order plants."""

    damping_ratio: float
    natural_frequency: float
    real_pole: Optional[float] = None


@dataclass(frozen=True)
class TrajectoryShape:
    """Desired output y*(t) = amplitude * (1 - cos(frequency * t)) ** exponent."""

    amplitude_coefficient: float
    angular_frequency_coefficient: float
    exponent: float


@dataclass(frozen=True)
class ExperimentConfig:
    system_kind: str
    model_params: PlantParams
    world_params: PlantParams
    sample_period: float
    horizon: int
    deleted_rows: int
    trajectory: TrajectoryShape
    law_kind: str
    gain: float
    initial_input: str
    mode: str
    model_count: int
    world_count: int
    switch_candidates: Tuple[int, ...]
    slope_factor: float
    csv_path: str
    plot_path: Optional[str]


def _parse_float(text, key):
    text = text.strip()
    try:
        if text == "pi":
            return math.pi
        value = float(text[:-3]) * math.pi if text.endswith("*pi") else float(text)
    except ValueError:
        raise ConfigError(f"key {key!r}: cannot parse {text!r} as a number") from None
    if not math.isfinite(value):
        raise ConfigError(f"key {key!r}: {text!r} is not a finite number")
    return value


def _parse_int(text, key):
    try:
        return int(text.strip())
    except ValueError:
        raise ConfigError(f"key {key!r}: cannot parse {text!r} as an integer") from None


def _parse_candidates(text, key):
    """Comma-separated switch candidates, each >= 1; empty text gives ()."""
    text = text.strip()
    if not text:
        return ()
    candidates = tuple(_parse_int(part, key) for part in text.split(","))
    if any(c < 1 for c in candidates):
        raise ConfigError(f"key {key!r}: candidates must be >= 1")
    return candidates


def _parse_positive(text, key):
    value = _parse_float(text, key)
    if not value > 0:
        raise ConfigError(f"key {key!r}: must be positive")
    return value


def _parse_horizon(text, key):
    value = _parse_int(text, key)
    if value < 1:
        raise ConfigError(f"key {key!r}: must be at least 1")
    return value


def _parse_count(text, key):
    value = _parse_int(text, key)
    if value < 0:
        raise ConfigError(f"key {key!r}: must be >= 0")
    return value


def _parse_text(text, key):
    return text


def _one_of(choices):
    def parse(text, key):
        if text not in choices:
            raise ConfigError(f"key {key!r}: expected one of {choices}, got {text!r}")
        return text
    return parse


_MANDATORY = object()

# Every key of the format, in the order load_config checks them, with its
# parser(text, key) and its default: _MANDATORY when the file must set the
# key, None when it may leave it out, or else the text parsed in its place.
_KEYS = {
    "system.kind": (_one_of(SYSTEM_KINDS), _MANDATORY),
    "model.damping_ratio": (_parse_positive, _MANDATORY),
    "model.natural_frequency": (_parse_positive, _MANDATORY),
    "model.real_pole": (_parse_positive, None),
    "world.damping_ratio": (_parse_positive, _MANDATORY),
    "world.natural_frequency": (_parse_positive, _MANDATORY),
    "world.real_pole": (_parse_positive, None),
    "discretization.sample_period": (_parse_positive, _MANDATORY),
    "lifted.horizon": (_parse_horizon, _MANDATORY),
    "trajectory.amplitude_coefficient": (_parse_float, _MANDATORY),
    "trajectory.angular_frequency_coefficient": (_parse_float, _MANDATORY),
    "trajectory.exponent": (_parse_float, _MANDATORY),
    "law.kind": (_one_of(LAW_KINDS), _MANDATORY),
    "law.gain": (_parse_positive, "1.0"),
    "lifted.deleted_rows": (_parse_text, "auto"),
    "run.initial_input": (_parse_text, "desired_output"),
    "run.mode": (_one_of(MODES), "hybrid"),
    "run.model_count": (_parse_count, "50"),
    "run.world_count": (_parse_count, "50"),
    "switch.candidates": (_parse_candidates, ""),
    "switch.slope_factor": (_parse_float, "1.0"),
    "output.csv": (_parse_text, "results.csv"),
    "output.plot": (_parse_text, None),
}


def _read_pairs(path):
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read configuration file {path}: {exc}") from None
    pairs = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown configuration key {key!r}")
        if key in pairs:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        pairs[key] = value.strip()
    return pairs


def load_config(path):
    """Parse and fully validate a configuration file.

    Defaults are applied for every optional key; lifted.deleted_rows set to
    'auto' is resolved here by counting the model's sampled zeros outside
    the unit circle. Every number must be finite, and so must both sampled
    plants.

    Raises
    ------
    ConfigError
        Naming the offending key, for any missing, unknown, or invalid entry.
    """
    pairs = _read_pairs(path)
    values = {}
    for key, (parse, default) in _KEYS.items():
        text = pairs.get(key, default)
        if text is _MANDATORY:
            raise ConfigError(f"{path}: missing required key {key!r}")
        values[key] = None if text is None else parse(text, key)

    kind = values["system.kind"]
    sample_period = values["discretization.sample_period"]
    params, plants = {}, {}
    for section in ("model", "world"):
        pole_key = f"{section}.real_pole"
        pole = values[pole_key]
        if kind == "third_order" and pole is None:
            raise ConfigError(f"key {pole_key!r}: required for third_order systems")
        if kind == "second_order" and pole is not None:
            raise ConfigError(
                f"key {pole_key!r}: not applicable to second_order systems"
            )
        params[section] = PlantParams(values[f"{section}.damping_ratio"],
                                      values[f"{section}.natural_frequency"], pole)
        try:
            plants[section] = _sampled_plant(kind, params[section], sample_period)
        except InvalidParameterError as exc:
            raise ConfigError(
                f"keys '{section}.*'/'discretization.sample_period': {exc}"
            ) from None

    deleted_rows = values["lifted.deleted_rows"]
    resolved = ""
    if deleted_rows == "auto":
        deleted_rows = plants["model"].unstable_zero_count
        resolved = f" ('auto' resolved to {deleted_rows})"
    else:
        deleted_rows = _parse_int(deleted_rows, "lifted.deleted_rows")
    if not 0 <= deleted_rows < values["lifted.horizon"]:
        raise ConfigError(
            f"key 'lifted.deleted_rows': must satisfy 0 <= d < horizon{resolved}"
        )

    initial_input = values["run.initial_input"]
    if initial_input not in INITIAL_INPUT_NAMES and not Path(initial_input).exists():
        raise ConfigError(
            f"key 'run.initial_input': expected {INITIAL_INPUT_NAMES} or an "
            f"existing file, got {initial_input!r}"
        )

    return ExperimentConfig(
        system_kind=kind,
        model_params=params["model"],
        world_params=params["world"],
        sample_period=sample_period,
        horizon=values["lifted.horizon"],
        deleted_rows=deleted_rows,
        trajectory=TrajectoryShape(
            values["trajectory.amplitude_coefficient"],
            values["trajectory.angular_frequency_coefficient"],
            values["trajectory.exponent"],
        ),
        law_kind=values["law.kind"],
        gain=values["law.gain"],
        initial_input=initial_input,
        mode=values["run.mode"],
        model_count=values["run.model_count"],
        world_count=values["run.world_count"],
        switch_candidates=values["switch.candidates"],
        slope_factor=values["switch.slope_factor"],
        csv_path=values["output.csv"],
        plot_path=values["output.plot"] or None,
    )


def load_preset(kind):
    """Load the packaged preset of one bundled plant pair.

    kind is 'second_order' or 'third_order'. The two presets are the one
    definition of the pairs: figures, self-checks and scripts read them
    through experiments.bundled_experiment, which lifts each pair once.
    """
    if kind not in PRESET_FILES:
        raise ConfigError(
            f"no preset for system kind {kind!r}; expected one of "
            f"{', '.join(PRESET_FILES)}"
        )
    ref = resources.files(__package__).joinpath("presets", PRESET_FILES[kind])
    with resources.as_file(ref) as path:
        return load_config(path)


def continuous_plant(kind, params):
    """Build the continuous plant described by one PlantParams block."""
    if kind == "second_order":
        return make_second_order(params.damping_ratio, params.natural_frequency)
    return make_third_order(
        params.real_pole, params.damping_ratio, params.natural_frequency
    )


class _SampledPlant:
    """One ZOH-sampled plant; its zeros are computed on first use."""

    def __init__(self, dss):
        # every caller shares this plant, so none may write into it
        for array in (dss.ad_matrix, dss.bd_vector, dss.c_vector):
            array.flags.writeable = False
        self.dss = dss

    @cached_property
    def zeros(self):
        return tuple(sampled_zeros(self.dss))

    @property
    def unstable_zero_count(self):
        return sum(1 for z in self.zeros if abs(z) > 1.0)


@lru_cache(maxsize=128)
def _sampled_plant(kind, params, sample_period):
    """The sampled plant of one PlantParams block, memoized by value.

    Every caller that needs a sampled plant or its zeros comes through here,
    so a plant is discretized, and its zeros found, once per process however
    many configurations, commands and checks share it (the 128 most recently
    used plants are kept).
    """
    return _SampledPlant(
        discretize_zoh(continuous_plant(kind, params), sample_period)
    )
