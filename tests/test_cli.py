import io
import json
import os
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import liftedilc.engine as engine
import liftedilc.experiments as experiments
from liftedilc import LAW_KINDS
from liftedilc.cli import _build_parser, main
from liftedilc.config import PRESET_FILES

from conftest import MINIMAL_SECOND_ORDER, MINIMAL_THIRD_ORDER

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, stdout=out)
    return code, out.getvalue()


def write_preset(kind, directory, replacements=()):
    """Copy a packaged preset into `directory` with line replacements."""
    text = resources.files("liftedilc").joinpath("presets", PRESET_FILES[kind]).read_text()
    for old, new in replacements:
        assert old in text
        text = text.replace(old, new)
    path = Path(directory) / f"{kind}.cfg"
    path.write_text(text)
    return path


def test_run_prints_artifacts_and_summary(write_cfg, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = write_cfg(
        {
            "run.model_count": "5",
            "run.world_count": "2",
            "switch.candidates": "5",
            "output.plot": "run.svg",
        }
    )
    code, text = run_cli(["run", str(path)])
    assert code == 0
    assert "wrote results.csv" in text
    assert "wrote run.svg" in text
    assert "mode hybrid, law p_transpose, 5 model + 2 world iterations" in text
    assert "final world RMS" in text
    assert "candidate 5:" in text
    assert (tmp_path / "results.csv").exists()
    assert (tmp_path / "run.svg").exists()


def test_run_reports_missing_file_as_config_error(capsys):
    code, _ = run_cli(["run", "no_such_file.cfg"])
    assert code == 1
    assert "config error:" in capsys.readouterr().err


def test_run_reports_unknown_key_as_config_error(write_cfg, capsys):
    path = write_cfg({"law.gian": "1.0"})
    code, _ = run_cli(["run", str(path)])
    assert code == 1
    assert "law.gian" in capsys.readouterr().err


def test_run_reports_divergence_as_numerical_error(write_cfg, tmp_path, capsys):
    path = write_cfg(
        {"law.gain": "2.5", "output.csv": str(tmp_path / "x.csv")}
    )
    code, _ = run_cli(["run", str(path)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides, phase",
    [
        # a divergent model law is refused before the first iteration
        ({"run.mode": "model", "law.kind": "partial_isometry", "law.gain": "2.5",
          "run.model_count": "1000"}, "model"),
        # the model-built gain cannot stabilize a lightly damped world
        ({"run.mode": "world", "world.damping_ratio": "0.05",
          "run.world_count": "1000"}, "world"),
        ({"run.mode": "hybrid", "world.damping_ratio": "0.05",
          "run.world_count": "1000"}, "world"),
    ],
    ids=["model", "world", "hybrid"],
)
def test_divergence_in_every_mode_exits_2_and_writes_nothing(
    write_cfg, tmp_path, capsys, overrides, phase
):
    csv_path = tmp_path / "out.csv"
    svg_path = tmp_path / "out.svg"
    path = write_cfg(
        {**overrides, "output.csv": str(csv_path), "output.plot": str(svg_path)}
    )
    code, _ = run_cli(["run", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    if phase == "model":
        assert "error: model iteration matrix has eigenvalue magnitude" in err
    else:
        assert "error: world phase diverged" in err
    assert not csv_path.exists()
    assert not svg_path.exists()


def test_run_whose_switch_advisor_diverges_writes_nothing(write_cfg, tmp_path, capsys):
    # world mode runs on the uncovered-zero pair, but the preset's switch
    # candidates fast-forward a model law with an eigenvalue at 1
    preset = resources.files("liftedilc").joinpath(
        "presets", PRESET_FILES["third_order"]
    )
    csv_path = tmp_path / "out.csv"
    svg_path = tmp_path / "out.svg"
    path = write_cfg(
        {"lifted.deleted_rows": "0", "run.mode": "world",
         "output.csv": str(csv_path), "output.plot": str(svg_path)},
        base=preset.read_text(),
    )
    code, _ = run_cli(["run", str(path)])
    assert code == 2
    assert "eigenvalue magnitude 1" in capsys.readouterr().err
    assert not csv_path.exists()
    assert not svg_path.exists()


def test_figure_writes_into_the_output_directory(tmp_path):
    code, text = run_cli(
        ["figure", "fig5", "--law", "norm_optimal", "--switch", "10",
         "--output-dir", str(tmp_path)]
    )
    assert code == 0
    stem = "fig5_norm_optimal_switch10"
    for suffix in ("_model.csv", "_world.csv", "_hybrid.csv", ".svg"):
        assert (tmp_path / f"{stem}{suffix}").exists()
    assert "final hybrid RMS" in text


def test_figure_rejects_unknown_id():
    with pytest.raises(SystemExit) as info:
        run_cli(["figure", "fig9"])
    assert info.value.code == 2  # argparse rejects values outside choices


def test_the_cached_parser_behaves_as_a_fresh_one_after_exits(write_cfg, capsys):
    # one parser serves a call argparse rejects, a --help and a valid call
    _build_parser.cache_clear()
    cached = []
    for argv in (["figure", "fig9"], ["--help"]):
        with pytest.raises(SystemExit) as info:
            run_cli(argv)
        cached.append((info.value.code, capsys.readouterr()))
    path = write_cfg(base=MINIMAL_THIRD_ORDER)
    cached.append(run_cli(["zeros", str(path)]))
    assert _build_parser.cache_info().misses == 1

    fresh = []
    for argv in (["figure", "fig9"], ["--help"]):
        with pytest.raises(SystemExit) as info:
            _build_parser.__wrapped__().parse_args(argv)
        fresh.append((info.value.code, capsys.readouterr()))
    args = _build_parser.__wrapped__().parse_args(["zeros", str(path)])
    out = io.StringIO()
    fresh.append((args.handler(args, out), out.getvalue()))
    assert cached == fresh
    assert [code for code, _ in cached] == [2, 0, 0]
    assert "invalid choice: 'fig9'" in cached[0][1].err
    assert "usage: liftedilc" in cached[1][1].out
    assert "configured deleted rows: 1" in cached[2][1]


def test_advise_switch_uses_flag_over_config(write_cfg):
    path = write_cfg({"switch.candidates": "40"})
    code, text = run_cli(["advise-switch", str(path), "--candidates", "5,10"])
    assert code == 0
    assert "candidate 5:" in text
    assert "candidate 10:" in text
    assert "candidate 40:" not in text
    code, text = run_cli(["advise-switch", str(path)])
    assert code == 0
    assert "candidate 40:" in text


def test_advise_switch_flag_rejects_candidates_below_one(write_cfg, capsys):
    path = write_cfg()
    code, text = run_cli(["advise-switch", str(path), "--candidates", "5,0"])
    assert code == 1
    assert text == ""
    assert "candidates must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv_tail, overrides, key", [
    ([], {"lifted.horizon": "abc"}, "lifted.horizon"),
    (["--candidates", "1,,2"], {}, "--candidates"),
], ids=["config-key", "flag"])
def test_an_integer_that_does_not_parse_is_named(
    argv_tail, overrides, key, write_cfg, capsys
):
    path = write_cfg(overrides)
    command = "advise-switch" if argv_tail else "run"
    code, text = run_cli([command, str(path), *argv_tail])
    assert code == 1
    assert text == ""
    _assert_one_line_error(capsys, f"config error: key {key!r}: cannot parse")


def test_advise_switch_prints_nothing_when_a_candidate_fails(tmp_path):
    # a gain of 2.5 makes the model iteration divergent, so every candidate fails
    path = write_preset("second_order", tmp_path,
                        [("law.gain = 1.0", "law.gain = 2.5")])
    code, text = run_cli(["advise-switch", str(path)])
    assert code == 2
    assert text == ""


def test_candidates_beyond_int64_run_in_both_commands(tmp_path, monkeypatch):
    # one past the int64 range, and far past it
    big = "9223372036854775808,100000000000000000001"
    path = write_preset("second_order", tmp_path,
                        [("switch.candidates = 25,50,100", f"switch.candidates = {big}")])
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, text = run_cli(["advise-switch", path.name, "--candidates", big])
        assert code == 0
        assert "candidate 9223372036854775808:" in text
        assert "candidate 100000000000000000001:" in text
        assert run_cli(["run", path.name])[0] == 0


@pytest.mark.parametrize("law", ["p_transpose", "norm_optimal"])
@pytest.mark.parametrize("base", [MINIMAL_SECOND_ORDER, MINIMAL_THIRD_ORDER],
                         ids=["second_order", "third_order"])
def test_model_and_hybrid_runs_write_the_same_model_rows(
    base, law, write_cfg, tmp_path, monkeypatch
):
    # 12 model iterations at N = 100 are on the dense side for both laws
    monkeypatch.chdir(tmp_path)
    rows = {}
    for mode in ("model", "hybrid"):
        overrides = {"law.kind": law, "run.mode": mode, "run.model_count": "12",
                     "output.csv": f"{mode}.csv"}
        path = write_cfg(overrides, base=base, name=f"{mode}.cfg")
        assert run_cli(["run", str(path)])[0] == 0
        rows[mode] = Path(f"{mode}.csv").read_text().splitlines()[:13]
    assert rows["model"] == rows["hybrid"]


def test_advise_switch_requires_candidates_somewhere(write_cfg, capsys):
    path = write_cfg()
    code, _ = run_cli(["advise-switch", str(path)])
    assert code == 1
    assert "no candidates" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, command", [
    ("discretization.sample_period", "inf", "zeros"),
    ("trajectory.amplitude_coefficient", "nan", "run"),
    ("switch.slope_factor", "nan", "advise-switch"),
    ("law.gain", "inf", "run"),
])
def test_non_finite_numbers_are_config_errors(
    key, value, command, write_cfg, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    path = write_cfg({key: value, "switch.candidates": "5"})
    code, text = run_cli([command, str(path)])
    assert code == 1
    assert text == ""
    assert f"{key!r}: {value!r} is not a finite number" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command", ["run", "zeros"])
@pytest.mark.parametrize("section", ["model", "world"])
def test_a_plant_too_extreme_to_sample_is_a_config_error(
    section, command, write_cfg, tmp_path, monkeypatch, capsys
):
    # wn^2 overflows, so the sampled plant cannot be finite
    monkeypatch.chdir(tmp_path)
    path = write_cfg({f"{section}.natural_frequency": "1e200",
                      "output.plot": "results.svg"})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run_cli([command, str(path)])
    assert code == 1
    assert text == ""
    err = capsys.readouterr().err
    assert f"config error: keys '{section}.*'/'discretization.sample_period'" in err
    assert "not finite" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["test.cfg"]


@pytest.mark.parametrize("command", ["run", "zeros"])
@pytest.mark.parametrize("section", ["model", "world"])
@pytest.mark.parametrize("natural_frequency", ["1e15", "1e30"])
def test_a_plant_too_stiff_for_the_sample_period_is_a_config_error(
    natural_frequency, section, command, write_cfg, tmp_path, monkeypatch, capsys
):
    # the sampled plant is finite but wrong, so nothing may run on it
    monkeypatch.chdir(tmp_path)
    path = write_cfg({f"{section}.natural_frequency": natural_frequency,
                      "output.plot": "results.svg"})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run_cli([command, str(path)])
    assert code == 1
    assert text == ""
    err = capsys.readouterr().err
    assert f"config error: keys '{section}.*'/'discretization.sample_period'" in err
    assert "too stiff" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["test.cfg"]


@pytest.mark.parametrize("sample", ["nan", "-inf"])
def test_run_rejects_a_non_finite_initial_input_file(
    sample, write_cfg, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    source = tmp_path / "u0.txt"
    source.write_text("\n".join(["0.0"] * 99 + [sample]) + "\n")
    path = write_cfg({"run.initial_input": str(source)})
    code, text = run_cli(["run", str(path)])
    assert code == 1
    assert text == ""
    assert "run.initial_input" in capsys.readouterr().err
    assert not (tmp_path / "results.csv").exists()


def test_run_rejects_an_initial_input_that_names_a_directory(
    write_cfg, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    path = write_cfg({"run.initial_input": str(tmp_path)})
    code, text = run_cli(["run", str(path)])
    assert code == 1
    assert text == ""
    _assert_one_line_error(capsys, "config error: key 'run.initial_input': cannot read")
    assert not (tmp_path / "results.csv").exists()


def test_an_exactly_zero_tracking_error_runs_and_advises(tmp_path, monkeypatch):
    # a zero target from u0 = y* = 0: every RMS is 0.0, which has no dB value
    monkeypatch.chdir(tmp_path)
    path = write_preset("second_order", tmp_path, [(
        "trajectory.amplitude_coefficient = pi",
        "trajectory.amplitude_coefficient = 0",
    )])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run_cli(["run", str(path)])
        assert code == 0
        assert "final model RMS 0.000000e+00 (-inf dB)" in text
        assert "final world RMS 0.000000e+00 (-inf dB)" in text
        rows = Path("second_order_results.csv").read_text().splitlines()[1:]
        assert len(rows) == 101
        assert all(row.split(",")[2:4] == ["0.0", ""] for row in rows)
        # no point to draw: the chart falls back to the unit range
        svg = Path("second_order_results.svg").read_text()
        assert "<polyline" not in svg
        assert 'text-anchor="middle">0.2</text>' in svg
        code, text = run_cli(["advise-switch", str(path)])
        assert code == 0
        assert "candidate 25: model RMS 0.0000e+00 -> 0.0000e+00" in text


def _huge_input_preset(directory, mode="hybrid"):
    """The second-order preset, run from an input of 100 x 1e306."""
    source = Path(directory) / "u0.txt"
    source.write_text("1e306\n" * 100)
    return write_preset("second_order", directory, [
        ("run.initial_input = desired_output", f"run.initial_input = {source}"),
        ("run.mode = hybrid", f"run.mode = {mode}"),
    ])


@pytest.mark.parametrize("mode", ["model", "world", "hybrid"])
def test_a_run_that_overflows_exits_2_without_a_warning(
    mode, tmp_path, monkeypatch, capsys
):
    # a finite input so large that its error RMS overflows diverges at
    # iteration 0 in every mode; no numpy overflow warning escapes first
    monkeypatch.chdir(tmp_path)
    path = _huge_input_preset(tmp_path, mode)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, text = run_cli(["run", str(path)])
    assert code == 2
    assert text == ""
    phase = "world" if mode == "world" else "model"
    assert f"error: {phase} phase diverged: error RMS is inf at iteration 0" in (
        capsys.readouterr().err
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["second_order.cfg", "u0.txt"]


@pytest.mark.parametrize("candidates, message", [
    # 60 > N // 4: the closed form's states, whose RMS overflows
    ("5,60", "error: switch evaluation diverged at candidate 5: error RMS model inf"),
    # 25 <= N // 4: the explicit model run to 26, which stops at iteration 0
    ("5,25", "error: model phase diverged: error RMS is inf at iteration 0"),
], ids=["closed_form", "dense"])
def test_an_advisor_that_overflows_exits_2_without_a_warning(
    candidates, message, tmp_path, capsys
):
    path = _huge_input_preset(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, text = run_cli(["advise-switch", str(path), "--candidates", candidates])
    assert code == 2
    assert text == ""
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command, overrides", [
    # (1 - cos(20 pi t)) is exactly 0 at t = 0.1 s, and 0 ** -1 is inf
    ("run", {"trajectory.exponent": "-1"}),
    ("run", {"trajectory.exponent": "-1", "run.initial_input": "zero"}),
    ("run", {"trajectory.exponent": "1e6"}),
    ("run", {"trajectory.amplitude_coefficient": "1e308"}),
    ("advise-switch", {"trajectory.exponent": "-1"}),
])
def test_a_target_that_samples_to_a_non_finite_value_is_a_config_error(
    command, overrides, write_cfg, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    path = write_cfg({**overrides, "switch.candidates": "5",
                      "output.plot": "results.svg"})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run_cli([command, str(path)])
    assert code == 1
    assert text == ""
    assert capsys.readouterr().err.startswith("config error: keys 'trajectory.*'")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["test.cfg"]


def _assert_one_line_error(capsys, prefix):
    err = capsys.readouterr().err
    assert err.startswith(prefix)
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("key", ["output.csv", "output.plot"])
def test_run_into_a_missing_directory_fails_before_writing(
    key, write_cfg, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    path = write_cfg({"output.csv": "results.csv", "output.plot": "results.svg",
                      key: "missing/out"})
    code, text = run_cli(["run", str(path)])
    assert code == 1
    assert text == ""
    _assert_one_line_error(capsys, f"config error: key {key!r}: 'missing'")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["test.cfg"]


@pytest.mark.parametrize("key", ["output.csv", "output.plot"])
def test_run_into_an_output_path_that_is_a_directory_fails_before_writing(
    key, write_cfg, tmp_path, monkeypatch, capsys, factorization_calls
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken").mkdir()
    path = write_cfg({"output.csv": "results.csv", "output.plot": "results.svg",
                      key: "taken"})
    code, text = run_cli(["run", str(path)])
    assert code == 1
    assert text == ""
    _assert_one_line_error(
        capsys, f"config error: key {key!r}: 'taken' is a directory"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken", "test.cfg"]
    assert list((tmp_path / "taken").iterdir()) == []
    assert factorization_calls == []


@pytest.mark.parametrize("plot", ["a.csv", "./a.csv", "sub/../a.csv"])
def test_a_plot_naming_the_csv_file_fails_before_writing(
    plot, write_cfg, tmp_path, monkeypatch, capsys, factorization_calls
):
    # the SVG would silently overwrite the CSV it was written after
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    path = write_cfg({"output.csv": "a.csv", "output.plot": plot})
    code, text = run_cli(["run", str(path)])
    assert code == 1
    assert text == ""
    _assert_one_line_error(
        capsys, f"config error: key 'output.plot': {plot!r} names the file of 'output.csv'"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sub", "test.cfg"]
    assert factorization_calls == []


def test_partial_isometry_fallback_run_is_the_thin_svd_run(tmp_path, monkeypatch):
    # without its deleted row the third-order pair has a zero singular value,
    # so V cannot come from the eigh; its CSV must match, byte for byte, a run
    # built on the thin SVD alone
    monkeypatch.chdir(tmp_path)
    path = write_preset("third_order", tmp_path, [
        ("lifted.deleted_rows = auto", "lifted.deleted_rows = 0"),
        ("law.kind = p_transpose", "law.kind = partial_isometry"),
        ("run.mode = hybrid", "run.mode = world"),
        ("switch.candidates = 50,100\n", ""),
    ])
    assert run_cli(["run", str(path)])[0] == 0
    fallback = Path("third_order_results.csv").read_bytes()
    assert fallback.count(b"\n") == 52

    def thin_svd(entry):
        u, sigma, vt = np.linalg.svd(entry.p_matrix, full_matrices=False)
        return u, sigma, vt.T

    monkeypatch.setattr(engine._Factorization, "isometry", property(thin_svd))
    assert run_cli(["run", str(path)])[0] == 0
    assert Path("third_order_results.csv").read_bytes() == fallback


def test_figure_into_an_output_dir_that_is_a_file_fails_cleanly(tmp_path, capsys):
    target = tmp_path / "taken"
    target.write_text("keep\n")
    code, text = run_cli(["figure", "fig3", "--output-dir", str(target)])
    assert code == 1
    assert text == ""
    _assert_one_line_error(capsys, "error: ")
    assert target.read_text() == "keep\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


def test_zeros_reports_both_plants(write_cfg):
    path = write_cfg(base=MINIMAL_THIRD_ORDER)
    code, text = run_cli(["zeros", str(path)])
    assert code == 0
    assert "model plant sampled zeros (1 outside unit circle):" in text
    assert "world plant sampled zeros (1 outside unit circle):" in text
    assert "configured deleted rows: 1" in text
    assert "-3.31042889" in text


@pytest.mark.parametrize("command", ["run", "zeros"])
def test_auto_deleted_rows_of_the_whole_horizon_is_a_config_error(
    command, tmp_path, monkeypatch, capsys
):
    # 'auto' resolves to the third-order model's one unstable zero, which
    # leaves no row of a one-step horizon
    monkeypatch.chdir(tmp_path)
    path = write_preset("third_order", tmp_path,
                        [("lifted.horizon = 100", "lifted.horizon = 1")])
    code, text = run_cli([command, str(path)])
    assert code == 1
    assert text == ""
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "lifted.deleted_rows" in err and "'auto' resolved to 1" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["third_order.cfg"]


@pytest.mark.parametrize("fig_id, code", [("fig2", 2), ("fig3", 0), ("fig4", 2)])
def test_switch_zero_fails_only_for_marker_figures_and_then_writes_nothing(
    fig_id, code, tmp_path
):
    argv = ["figure", fig_id, "--switch", "0", "--output-dir", str(tmp_path)]
    assert run_cli(argv)[0] == code
    written = list(tmp_path.glob("*.csv")) + list(tmp_path.glob("*.svg"))
    assert len(written) == (4 if code == 0 else 0)


def test_a_negative_switch_is_named_and_writes_nothing(tmp_path, capsys):
    argv = ["figure", "fig3", "--switch", "-60", "--output-dir", str(tmp_path)]
    assert run_cli(argv) == (2, "")
    assert "error: switch_n must be at least 0, got -60" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fig_id", ["fig2", "fig4"])
def test_a_marker_figure_names_a_zero_switch_and_writes_nothing(
    fig_id, tmp_path, capsys, monkeypatch
):
    def refuse(*args):
        raise AssertionError("numerical work before switch_n was checked")

    monkeypatch.setattr(experiments, "_ModelPass", refuse)
    argv = ["figure", fig_id, "--switch", "0", "--output-dir", str(tmp_path)]
    assert run_cli(argv) == (2, "")
    assert "error: switch_n must be at least 1, got 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("law", LAW_KINDS)
@pytest.mark.parametrize("kind, fig_id, switch_n", [
    ("second_order", "fig3", 50), ("third_order", "fig5", 100),
    ("second_order", "fig3", None), ("third_order", "fig5", None),
    # at most N // 4 (p_transpose) or N // 8 (norm_optimal, 10 only): the
    # hybrid's model phase is the explicit loop, while the figure's model
    # curve, 50 iterations longer, takes the closed form
    ("second_order", "fig3", 10), ("third_order", "fig5", 10),
    ("second_order", "fig3", 25), ("third_order", "fig5", 25),
])
def test_run_on_a_preset_writes_its_figure_hybrid_curve(
    kind, fig_id, switch_n, law, tmp_path, monkeypatch
):
    # the preset's run.model_count is the switch, and names the file when
    # --switch is left out
    default_switch = {"fig3": 50, "fig5": 100}[fig_id]
    model_count = default_switch if switch_n is None else switch_n
    path = write_preset(kind, tmp_path, [
        ("law.kind = p_transpose", f"law.kind = {law}"),
        (f"run.model_count = {default_switch}", f"run.model_count = {model_count}"),
    ])
    monkeypatch.chdir(tmp_path)
    assert run_cli(["run", path.name])[0] == 0
    argv = ["figure", fig_id, "--law", law, "--output-dir", "figures"]
    if switch_n is not None:
        argv += ["--switch", str(switch_n)]
    assert run_cli(argv)[0] == 0
    hybrid = Path("figures", f"{fig_id}_{law}_switch{model_count}_hybrid.csv")
    assert Path(f"{kind}_results.csv").read_bytes() == hybrid.read_bytes()


@pytest.mark.parametrize("law", LAW_KINDS)
@pytest.mark.parametrize("kind, fig_id, model_count", [
    ("second_order", "fig3", 50), ("third_order", "fig5", 100),
    # one count either side of the 64-count block boundary
    ("second_order", "fig3", 63), ("second_order", "fig3", 64),
])
def test_a_model_run_on_a_preset_writes_the_start_of_its_figure_model_curve(
    kind, fig_id, model_count, law, tmp_path, monkeypatch
):
    # model_count > N // 4: the run's model phase and the figure's longer
    # model curve read one prefix-stable RMS curve, in separate processes
    # too, so the run's CSV is the first model_count + 1 rows of the figure's
    default_switch = {"fig3": 50, "fig5": 100}[fig_id]
    path = write_preset(kind, tmp_path, [
        ("law.kind = p_transpose", f"law.kind = {law}"),
        ("run.mode = hybrid", "run.mode = model"),
        (f"run.model_count = {default_switch}", f"run.model_count = {model_count}"),
    ])
    monkeypatch.chdir(tmp_path)
    assert run_cli(["run", path.name])[0] == 0
    assert run_cli(["figure", fig_id, "--law", law, "--output-dir", "figures"])[0] == 0
    model = Path("figures", f"{fig_id}_{law}_switch{default_switch}_model.csv")
    lines = model.read_text().splitlines()
    assert len(lines) > model_count + 2
    assert Path(f"{kind}_results.csv").read_text().splitlines() == lines[: model_count + 2]


def test_commands_on_preset_pairs_make_one_eigh_per_pair(
    tmp_path, monkeypatch, factorization_calls
):
    # every configuration below keeps its preset's plant pair, whatever its
    # target and law, so each command reads one of the two bundled pairs,
    # lifted anew here; the first command on a pair factorizes it for all
    monkeypatch.chdir(tmp_path)
    experiments.bundled_experiment.cache_clear()
    for kind, fig_id in (("second_order", "fig2"), ("third_order", "fig4")):
        for law in LAW_KINDS:
            path = write_preset(kind, tmp_path, [
                ("law.kind = p_transpose", f"law.kind = {law}"),
                ("trajectory.amplitude_coefficient = pi",
                 "trajectory.amplitude_coefficient = 2.5"),
            ])
            for argv in (["run", path.name], ["advise-switch", path.name],
                         ["figure", fig_id, "--law", law, "--output-dir", "out"]):
                assert run_cli(argv)[0] == 0
    spectral = [name for name in factorization_calls if name in ("eigh", "svd")]
    assert spectral == ["eigh", "eigh"]


@pytest.mark.parametrize("law", LAW_KINDS)
@pytest.mark.parametrize("kind, fig_ids", [
    ("second_order", ("fig2", "fig3")), ("third_order", ("fig4", "fig5")),
])
def test_a_run_writes_the_same_bytes_on_a_fresh_and_a_shared_pair(
    kind, fig_ids, law, tmp_path, monkeypatch
):
    path = write_preset(kind, tmp_path, [("law.kind = p_transpose", f"law.kind = {law}")])
    monkeypatch.chdir(tmp_path)
    outputs = [Path(f"{kind}_results.csv"), Path(f"{kind}_results.svg")]

    experiments.bundled_experiment.cache_clear()
    assert run_cli(["run", path.name])[0] == 0
    fresh = [output.read_bytes() for output in outputs]

    # the shared pair: every figure and advice on it ran first, in every law
    experiments.bundled_experiment.cache_clear()
    for fig_id in fig_ids:
        for earlier_law in LAW_KINDS:
            argv = ["figure", fig_id, "--law", earlier_law, "--output-dir", "out"]
            assert run_cli(argv)[0] == 0
    assert run_cli(["advise-switch", path.name, "--candidates", "1,30,200"])[0] == 0
    for output in outputs:
        output.unlink()
    assert run_cli(["run", path.name])[0] == 0
    assert [output.read_bytes() for output in outputs] == fresh


_COMMANDS_WITHOUT_SCIPY = """
import io, json, sys
import liftedilc, liftedilc.cli, liftedilc.selfcheck
codes = [liftedilc.cli.main(argv, stdout=io.StringIO()) for argv in json.loads(sys.argv[1])]
checks = len(liftedilc.selfcheck.run_all())
print(json.dumps({"codes": codes, "checks": checks,
                  "scipy": sorted(m for m in sys.modules if m.startswith("scipy"))}))
"""


def test_commands_import_no_scipy_module(tmp_path):
    # the verdicts belong to test_acceptance.py; this only asks what the ten
    # checks load
    argvs = [["figure", "fig2", "--output-dir", str(tmp_path)]]
    for kind in PRESET_FILES:
        path = write_preset(kind, tmp_path, [
            (f"output.csv = {kind}_results.csv",
             f"output.csv = {tmp_path / (kind + '.csv')}"),
            (f"output.plot = {kind}_results.svg",
             f"output.plot = {tmp_path / (kind + '.svg')}"),
        ])
        argvs += [["run", str(path)], ["advise-switch", str(path)],
                  ["zeros", str(path)]]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", _COMMANDS_WITHOUT_SCIPY, json.dumps(argvs)],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["codes"] == [0] * len(argvs)
    assert result["checks"] == 10
    assert result["scipy"] == []
    # fig2's three curves and one history per run
    assert len(list(tmp_path.glob("*.csv"))) == 3 + len(PRESET_FILES)


_COUNT_SAMPLING = """
import io, json, sys
import liftedilc, liftedilc.cli
from liftedilc import lti
counts = {"discretize_zoh": 0, "sampled_zeros": 0}
modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "liftedilc"]
for name in counts:
    real = getattr(lti, name)
    def counting(*args, _real=real, _name=name, **kwargs):
        counts[_name] += 1
        return _real(*args, **kwargs)
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is real:
                setattr(module, attr, counting)
seen = []
for _ in range(2):
    assert liftedilc.cli.main(json.loads(sys.argv[1]), stdout=io.StringIO()) == 0
    seen.append(dict(counts))
print(json.dumps(seen))
"""


@pytest.mark.parametrize("argv, zeros_limit", [
    (["run", "second_order.cfg"], 1),
    (["run", "third_order.cfg"], 1),
    (["figure", "fig2", "--output-dir", "figures"], 1),
    (["advise-switch", "second_order.cfg"], 1),
    (["advise-switch", "third_order.cfg"], 1),
    (["zeros", "second_order.cfg"], 2),
    (["zeros", "third_order.cfg"], 2),
], ids=lambda value: "-".join(value[:2]) if isinstance(value, list) else None)
def test_each_command_samples_each_plant_once(argv, zeros_limit, tmp_path):
    for kind in PRESET_FILES:
        write_preset(kind, tmp_path)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", _COUNT_SAMPLING, json.dumps(argv)],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    first, repeated = json.loads(done.stdout.splitlines()[-1])
    assert first["discretize_zoh"] <= 2
    assert first["sampled_zeros"] <= zeros_limit
    assert repeated == first


def test_check_prints_each_result_and_exits_2_on_a_failure(monkeypatch):
    # two stub checks stand in for the real ten, which the acceptance tests
    # run once: the command only prints and counts what run_all returns
    import liftedilc.selfcheck as selfcheck

    def stub(number, passed):
        return lambda: selfcheck.CheckResult(number, f"stub {number}", passed,
                                             "detail", 0.0)

    monkeypatch.setattr(selfcheck, "ALL_CHECKS", (stub(1, True),))
    code, text = run_cli(["check"])
    assert code == 0
    assert text.splitlines() == ["PASS  1 stub 1: detail [0.00 s]",
                                 "1/1 checks passed"]
    monkeypatch.setattr(selfcheck, "ALL_CHECKS", (stub(1, True), stub(2, False)))
    code, text = run_cli(["check"])
    assert code == 2
    assert text.splitlines() == ["PASS  1 stub 1: detail [0.00 s]",
                                 "FAIL  2 stub 2: detail [0.00 s]",
                                 "1/2 checks passed"]
