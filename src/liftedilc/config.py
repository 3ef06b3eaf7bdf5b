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
from dataclasses import dataclass, fields
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


def _parse_plot(text, key):
    """An output path; empty text means no plot."""
    return text or None


def _one_of(choices):
    def parse(text, key):
        if text not in choices:
            raise ConfigError(f"key {key!r}: expected one of {choices}, got {text!r}")
        return text
    return parse


_MANDATORY = object()

# Every key of the format, in the order load_config checks them, with its
# parser(text, key), its default and the ExperimentConfig field it fills.
# The default is _MANDATORY when the file must set the key, None when it may
# leave it out, or else the text parsed in its place. The model.*, world.*
# and trajectory.* keys fill no field of their own: each section fills the
# PlantParams or TrajectoryShape field named after the key's last part.
_KEYS = {
    "system.kind": (_one_of(SYSTEM_KINDS), _MANDATORY, "system_kind"),
    "model.damping_ratio": (_parse_positive, _MANDATORY, None),
    "model.natural_frequency": (_parse_positive, _MANDATORY, None),
    "model.real_pole": (_parse_positive, None, None),
    "world.damping_ratio": (_parse_positive, _MANDATORY, None),
    "world.natural_frequency": (_parse_positive, _MANDATORY, None),
    "world.real_pole": (_parse_positive, None, None),
    "discretization.sample_period": (_parse_positive, _MANDATORY, "sample_period"),
    "lifted.horizon": (_parse_horizon, _MANDATORY, "horizon"),
    "trajectory.amplitude_coefficient": (_parse_float, _MANDATORY, None),
    "trajectory.angular_frequency_coefficient": (_parse_float, _MANDATORY, None),
    "trajectory.exponent": (_parse_float, _MANDATORY, None),
    "law.kind": (_one_of(LAW_KINDS), _MANDATORY, "law_kind"),
    "law.gain": (_parse_positive, "1.0", "gain"),
    "lifted.deleted_rows": (_parse_text, "auto", "deleted_rows"),
    "run.initial_input": (_parse_text, "desired_output", "initial_input"),
    "run.mode": (_one_of(MODES), "hybrid", "mode"),
    "run.model_count": (_parse_count, "50", "model_count"),
    "run.world_count": (_parse_count, "50", "world_count"),
    "switch.candidates": (_parse_candidates, "", "switch_candidates"),
    "switch.slope_factor": (_parse_float, "1.0", "slope_factor"),
    "output.csv": (_parse_text, "results.csv", "csv_path"),
    "output.plot": (_parse_plot, None, "plot_path"),
}


def _section(cls, values, section):
    """A PlantParams or TrajectoryShape from the values of one key section."""
    return cls(**{f.name: values[f"{section}.{f.name}"] for f in fields(cls)})


def _read_pairs(path):
    try:
        lines = Path(path).read_text(encoding="utf-8-sig").splitlines()
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
    for key, (parse, default, _) in _KEYS.items():
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
        params[section] = _section(PlantParams, values, section)
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
    values["lifted.deleted_rows"] = deleted_rows

    initial_input = values["run.initial_input"]
    if initial_input not in INITIAL_INPUT_NAMES and not Path(initial_input).exists():
        raise ConfigError(
            f"key 'run.initial_input': expected {INITIAL_INPUT_NAMES} or an "
            f"existing file, got {initial_input!r}"
        )

    return ExperimentConfig(
        model_params=params["model"], world_params=params["world"],
        trajectory=_section(TrajectoryShape, values, "trajectory"),
        **{field: values[key] for key, (_, _, field) in _KEYS.items() if field},
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
