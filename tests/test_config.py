import math
from pathlib import Path

import pytest

from liftedilc import (
    ConfigError,
    PlantParams,
    load_config,
    load_preset,
)
from liftedilc.config import _KEYS, _MANDATORY

from conftest import MINIMAL_THIRD_ORDER

README = Path(__file__).resolve().parent.parent / "README.md"


def test_second_order_preset_loads():
    cfg = load_preset("second_order")
    assert cfg.system_kind == "second_order"
    assert cfg.model_params == PlantParams(0.5, 37.0)
    assert cfg.world_params == PlantParams(0.3, 37.0)
    assert cfg.deleted_rows == 0  # 'auto': no sampled zero leaves the unit disc
    assert cfg.trajectory.angular_frequency_coefficient == pytest.approx(
        20.0 * math.pi
    )
    assert cfg.mode == "hybrid"
    assert cfg.switch_candidates == (25, 50, 100)


def test_third_order_preset_loads():
    cfg = load_preset("third_order")
    assert cfg.system_kind == "third_order"
    assert cfg.model_params.real_pole == 8.8
    assert cfg.world_params.natural_frequency == 44.4
    assert cfg.deleted_rows == 1  # 'auto': one sampled zero outside the unit disc
    assert cfg.trajectory.angular_frequency_coefficient == pytest.approx(
        10.0 * math.pi
    )
    assert cfg.model_count == 100


def test_load_preset_rejects_an_unknown_kind():
    with pytest.raises(ConfigError, match="second_order, third_order"):
        load_preset("bogus")


def test_defaults_fill_every_optional_key(write_cfg):
    cfg = load_config(write_cfg())
    assert cfg.gain == 1.0
    assert cfg.initial_input == "desired_output"
    assert cfg.mode == "hybrid"
    assert cfg.model_count == 50
    assert cfg.world_count == 50
    assert cfg.switch_candidates == ()
    assert cfg.slope_factor == 1.0
    assert cfg.csv_path == "results.csv"
    assert cfg.plot_path is None
    assert cfg.deleted_rows == 0


def test_pi_spelling_in_float_values(write_cfg):
    cfg = load_config(
        write_cfg({"trajectory.amplitude_coefficient": "2.5*pi"})
    )
    assert cfg.trajectory.amplitude_coefficient == pytest.approx(2.5 * math.pi)
    assert cfg.trajectory.angular_frequency_coefficient == pytest.approx(
        20.0 * math.pi
    )
    base = load_config(write_cfg())
    assert base.trajectory.amplitude_coefficient == math.pi


@pytest.mark.parametrize(
    "overrides, fragment",
    [
        ({"a.typo": "1"}, "unknown configuration key"),
        ({"law.kind": None}, "missing required key"),
        ({"model.damping_ratio": "-0.5"}, "must be positive"),
        ({"discretization.sample_period": "0"}, "must be positive"),
        ({"law.kind": "q_transpose"}, "law.kind"),
        ({"law.gain": "0"}, "must be positive"),
        ({"run.model_count": "-3"}, "must be >= 0"),
        ({"switch.candidates": "10,0"}, "must be >= 1"),
        ({"lifted.deleted_rows": "100"}, "0 <= d < horizon"),
        ({"lifted.horizon": "0"}, "at least 1"),
        ({"trajectory.exponent": "two"}, "cannot parse"),
        ({"run.mode": "simulate"}, "run.mode"),
        ({"model.real_pole": "8.8"}, "not applicable"),
        ({"run.initial_input": "missing_file.csv"}, "existing file"),
        # an error names the one key at fault, not its neighbour too
        ({"model.natural_frequency": "0"},
         r"^key 'model\.natural_frequency': must be positive$"),
        ({"world.damping_ratio": "-0.3"},
         r"^key 'world\.damping_ratio': must be positive$"),
        ({"run.world_count": "-1"}, r"^key 'run\.world_count': must be >= 0$"),
    ],
)
def test_invalid_values_are_rejected(write_cfg, overrides, fragment):
    path = write_cfg(overrides)
    with pytest.raises(ConfigError, match=fragment):
        load_config(path)


def test_auto_deleted_rows_must_leave_a_row(write_cfg):
    # the third-order model has one sampled zero outside the unit disc, so
    # 'auto' resolves to 1, which a one-step horizon cannot delete
    path = write_cfg({"lifted.horizon": "1"}, base=MINIMAL_THIRD_ORDER)
    with pytest.raises(
        ConfigError,
        match=r"^key 'lifted\.deleted_rows': .*0 <= d < horizon.*'auto' resolved to 1",
    ):
        load_config(path)
    assert load_config(write_cfg({"lifted.horizon": "2"}, base=MINIMAL_THIRD_ORDER)
                       ).deleted_rows == 1


def test_third_order_requires_real_poles(write_cfg):
    path = write_cfg({"model.real_pole": None}, base=MINIMAL_THIRD_ORDER)
    with pytest.raises(ConfigError, match="real_pole"):
        load_config(path)


def test_initial_input_may_name_an_existing_file(write_cfg, tmp_path):
    source = tmp_path / "warm_start.txt"
    source.write_text("0.0\n" * 100)
    cfg = load_config(write_cfg({"run.initial_input": str(source)}))
    assert cfg.initial_input == str(source)


def _readme_table(heading):
    """{key: first cell after the key} for each row of one README key table."""
    lines = README.read_text().splitlines()
    rows = {}
    # the rows start after a blank line, the header row and its rule
    for line in lines[lines.index(heading) + 4:]:
        if not line.startswith("|"):
            break
        key, first, *_ = [cell.strip() for cell in line.strip("|").split("|")]
        assert key.strip("`") not in rows, f"README lists {key} twice"
        rows[key.strip("`")] = first
    return rows


def test_readme_key_tables_match_the_key_table():
    required = [key for key, (_, default) in _KEYS.items() if default is _MANDATORY]
    assert sorted(_readme_table("Required keys:")) == sorted(required)
    spelled = {None: "none", "": "empty"}
    optional = {
        key: spelled.get(default, f"`{default}`")
        for key, (_, default) in _KEYS.items()
        if default is not _MANDATORY
    }
    assert _readme_table("Optional keys and their defaults:") == optional


def test_malformed_lines_report_positions(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("# fine\nsystem.kind second_order\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:2"):
        load_config(bad)
    dup = tmp_path / "dup.cfg"
    dup.write_text("law.kind = p_transpose\nlaw.kind = p_transpose\n")
    with pytest.raises(ConfigError, match="duplicate"):
        load_config(dup)
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.cfg")
