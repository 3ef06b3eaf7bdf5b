"""Workload definitions: generated configs and the operations of one pass.

Every workload is a fixed list of operations at a fixed horizon. The seed
draws the inputs that leave every iteration matrix unchanged (trajectory
amplitude and frequency within +-10 % of the preset, each figure's switch
point within +-10 % of its layout value) and, separately, the order of the
operations within each pass.
"""

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

DEFAULT_SEED = 1

FAMILIES = ("second_order", "third_order")
PRESET_FILES = {
    "second_order": "second_order_fig3.cfg",
    "third_order": "third_order_fig5.cfg",
}
LAWS = ("p_transpose", "partial_isometry", "norm_optimal")
# (figure id, plant family, layout switch point), as in scripts/reproduce_figures.py
FIGURES = (
    ("fig2", "second_order", 50),
    ("fig3", "second_order", 50),
    ("fig4", "third_order", 100),
    ("fig5", "third_order", 100),
)
# figures drawing the four switch-decision markers print one advisor report
MARKER_FIGURES = ("fig2", "fig4")
ADVISE_CANDIDATES = tuple(range(1, 21))
JITTER = 0.10


@dataclass(frozen=True)
class Workload:
    name: str
    horizon: int
    # passes measured at least, whatever --seconds says; fixes the sample
    # count the latency percentiles are taken from
    min_passes: int
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper-n100", 100, 16,
            "every command at the paper's N = 100, where per-call overhead "
            "dominates and no single factorization does",
        ),
        Workload(
            "run-n1000", 1000, 4,
            "run on both presets in all laws plus the stable inverse at "
            "N = 1000, where the O(N^3) factorizations dominate",
        ),
        Workload(
            "advise-n400", 400, 6,
            "advise-switch over 20 candidates at N = 400: one lifted pair "
            "read once per candidate",
        ),
    )
}


@dataclass(frozen=True)
class Op:
    """One operation: a CLI command, or the stable inverse of a config."""

    key: str
    command: str
    argv: Tuple[str, ...] = ()
    config: Optional[str] = None
    family: Optional[str] = None
    law: Optional[str] = None
    figure: Optional[str] = None
    switch: Optional[int] = None
    candidates: Optional[Tuple[int, ...]] = None


def _jittered(rng, value):
    return value * rng.uniform(1.0 - JITTER, 1.0 + JITTER)


def _override(text, values):
    """Replace the value of each `key = value` line named in `values`."""
    out = []
    for line in text.splitlines():
        key = line.split("=", 1)[0].strip()
        if "=" in line and not line.lstrip().startswith("#") and key in values:
            line = f"{key} = {values[key]}"
        out.append(line)
    return "\n".join(out) + "\n"


def write_configs(load_config, presets_dir, horizon, rng, workdir):
    """Write one config per (family, law) at `horizon`; return their paths.

    Amplitude and frequency coefficients are drawn per config from the
    preset's numeric values, read through `load_config`.
    """
    paths = {}
    for family in FAMILIES:
        preset = Path(presets_dir) / PRESET_FILES[family]
        shape = load_config(str(preset)).trajectory
        text = preset.read_text()
        for law in LAWS:
            stem = Path(workdir) / f"{family}-{law}"
            values = {
                "lifted.horizon": str(horizon),
                "law.kind": law,
                "trajectory.amplitude_coefficient":
                    repr(_jittered(rng, shape.amplitude_coefficient)),
                "trajectory.angular_frequency_coefficient":
                    repr(_jittered(rng, shape.angular_frequency_coefficient)),
                "output.csv": f"{stem}.csv",
                "output.plot": f"{stem}.svg",
            }
            path = stem.with_suffix(".cfg")
            path.write_text(_override(text, values))
            paths[family, law] = str(path)
    return paths


def build_ops(workload, configs, rng, workdir):
    """The operations of one pass, in definition order."""
    ops = []
    if workload.name == "paper-n100":
        for fig_id, family, layout_switch in FIGURES:
            for law in LAWS:
                low = round(layout_switch * (1.0 - JITTER))
                high = round(layout_switch * (1.0 + JITTER))
                switch = rng.randint(low, high)
                outdir = str(Path(workdir) / f"{fig_id}-{law}")
                ops.append(Op(
                    f"figure-{fig_id}-{law}", "figure",
                    ("figure", fig_id, "--law", law, "--switch", str(switch),
                     "--output-dir", outdir),
                    family=family, law=law, figure=fig_id, switch=switch,
                ))
    if workload.name in ("paper-n100", "run-n1000"):
        for (family, law), path in configs.items():
            ops.append(Op(f"run-{family}-{law}", "run", ("run", path),
                          config=path, family=family, law=law))
    if workload.name == "paper-n100":
        for (family, law), path in configs.items():
            ops.append(Op(f"advise-{family}-{law}", "advise-switch",
                          ("advise-switch", path), config=path,
                          family=family, law=law))
        for family in FAMILIES:
            path = configs[family, LAWS[0]]
            ops.append(Op(f"zeros-{family}", "zeros", ("zeros", path),
                          config=path, family=family, law=LAWS[0]))
    if workload.name == "advise-n400":
        listed = ",".join(str(c) for c in ADVISE_CANDIDATES)
        for (family, law), path in configs.items():
            ops.append(Op(f"advise-{family}-{law}", "advise-switch",
                          ("advise-switch", path, "--candidates", listed),
                          config=path, family=family, law=law,
                          candidates=ADVISE_CANDIDATES))
    if workload.name in ("paper-n100", "run-n1000"):
        path = configs["third_order", LAWS[0]]
        ops.append(Op("inverse-third_order", "inverse", config=path,
                      family="third_order", law=LAWS[0]))
    return ops


def input_rng(seed):
    return random.Random(f"{seed}:inputs")


def order_rng(seed):
    return random.Random(f"{seed}:order")
