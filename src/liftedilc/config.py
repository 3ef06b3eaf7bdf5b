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


_REQUIRED = (
    "system.kind",
    "model.damping_ratio",
    "model.natural_frequency",
    "world.damping_ratio",
    "world.natural_frequency",
    "discretization.sample_period",
    "lifted.horizon",
    "trajectory.amplitude_coefficient",
    "trajectory.angular_frequency_coefficient",
    "trajectory.exponent",
    "law.kind",
)

_DEFAULTS = {
    "model.real_pole": None,
    "world.real_pole": None,
    "lifted.deleted_rows": "auto",
    "law.gain": "1.0",
    "run.initial_input": "desired_output",
    "run.mode": "hybrid",
    "run.model_count": "50",
    "run.world_count": "50",
    "switch.candidates": "",
    "switch.slope_factor": "1.0",
    "output.csv": "results.csv",
    "output.plot": None,
}

_ALL_KEYS = frozenset(_REQUIRED) | frozenset(_DEFAULTS)


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
        if key not in _ALL_KEYS:
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
    for key in _REQUIRED:
        if key not in pairs:
            raise ConfigError(f"{path}: missing required key {key!r}")
    merged = dict(_DEFAULTS)
    merged.update(pairs)

    kind = merged["system.kind"]
    if kind not in SYSTEM_KINDS:
        raise ConfigError(
            f"key 'system.kind': expected one of {SYSTEM_KINDS}, got {kind!r}"
        )
    model_params = _plant_params(merged, "model", kind)
    world_params = _plant_params(merged, "world", kind)

    sample_period = _parse_float(merged["discretization.sample_period"],
                                 "discretization.sample_period")
    if not sample_period > 0:
        raise ConfigError("key 'discretization.sample_period': must be positive")
    plants = {}
    for section, params in (("model", model_params), ("world", world_params)):
        try:
            plants[section] = _sampled_plant(kind, params, sample_period)
        except InvalidParameterError as exc:
            raise ConfigError(
                f"keys '{section}.*'/'discretization.sample_period': {exc}"
            ) from None
    horizon = _parse_int(merged["lifted.horizon"], "lifted.horizon")
    if horizon < 1:
        raise ConfigError("key 'lifted.horizon': must be at least 1")

    trajectory = TrajectoryShape(
        _parse_float(merged["trajectory.amplitude_coefficient"],
                     "trajectory.amplitude_coefficient"),
        _parse_float(merged["trajectory.angular_frequency_coefficient"],
                     "trajectory.angular_frequency_coefficient"),
        _parse_float(merged["trajectory.exponent"], "trajectory.exponent"),
    )

    law_kind = merged["law.kind"]
    if law_kind not in LAW_KINDS:
        raise ConfigError(
            f"key 'law.kind': expected one of {LAW_KINDS}, got {law_kind!r}"
        )
    gain = _parse_float(merged["law.gain"], "law.gain")
    if not gain > 0:
        raise ConfigError("key 'law.gain': must be positive")

    deleted_raw = merged["lifted.deleted_rows"]
    if deleted_raw == "auto":
        deleted_rows = plants["model"].unstable_zero_count
    else:
        deleted_rows = _parse_int(deleted_raw, "lifted.deleted_rows")
        if deleted_rows < 0 or deleted_rows >= horizon:
            raise ConfigError(
                "key 'lifted.deleted_rows': must satisfy 0 <= d < horizon"
            )

    initial_input = merged["run.initial_input"]
    if initial_input not in INITIAL_INPUT_NAMES and not Path(initial_input).exists():
        raise ConfigError(
            f"key 'run.initial_input': expected {INITIAL_INPUT_NAMES} or an "
            f"existing file, got {initial_input!r}"
        )
    mode = merged["run.mode"]
    if mode not in MODES:
        raise ConfigError(f"key 'run.mode': expected one of {MODES}, got {mode!r}")
    model_count = _parse_int(merged["run.model_count"], "run.model_count")
    world_count = _parse_int(merged["run.world_count"], "run.world_count")
    if model_count < 0 or world_count < 0:
        raise ConfigError("keys 'run.model_count'/'run.world_count': must be >= 0")

    candidates = _parse_candidates(merged["switch.candidates"], "switch.candidates")
    slope_factor = _parse_float(merged["switch.slope_factor"], "switch.slope_factor")

    plot_path = merged["output.plot"]
    return ExperimentConfig(
        system_kind=kind,
        model_params=model_params,
        world_params=world_params,
        sample_period=sample_period,
        horizon=horizon,
        deleted_rows=deleted_rows,
        trajectory=trajectory,
        law_kind=law_kind,
        gain=gain,
        initial_input=initial_input,
        mode=mode,
        model_count=model_count,
        world_count=world_count,
        switch_candidates=candidates,
        slope_factor=slope_factor,
        csv_path=merged["output.csv"],
        plot_path=plot_path if plot_path else None,
    )


def load_preset(kind):
    """Load the packaged preset of one bundled plant pair.

    kind is 'second_order' or 'third_order'. The two presets are the one
    definition of the pairs: figures and self-checks read them through here.
    """
    if kind not in PRESET_FILES:
        raise ConfigError(
            f"no preset for system kind {kind!r}; expected one of "
            f"{', '.join(PRESET_FILES)}"
        )
    ref = resources.files(__package__).joinpath("presets", PRESET_FILES[kind])
    with resources.as_file(ref) as path:
        return load_config(path)


def _plant_params(merged, section, kind):
    damping = _parse_float(merged[f"{section}.damping_ratio"],
                           f"{section}.damping_ratio")
    frequency = _parse_float(merged[f"{section}.natural_frequency"],
                             f"{section}.natural_frequency")
    if not damping > 0 or not frequency > 0:
        raise ConfigError(
            f"keys '{section}.damping_ratio'/'{section}.natural_frequency': "
            "must be positive"
        )
    pole_raw = merged[f"{section}.real_pole"]
    if kind == "third_order":
        if pole_raw is None:
            raise ConfigError(
                f"key '{section}.real_pole': required for third_order systems"
            )
        pole = _parse_float(pole_raw, f"{section}.real_pole")
        if not pole > 0:
            raise ConfigError(f"key '{section}.real_pole': must be positive")
        return PlantParams(damping, frequency, pole)
    if pole_raw is not None:
        raise ConfigError(
            f"key '{section}.real_pole': not applicable to second_order systems"
        )
    return PlantParams(damping, frequency)


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
