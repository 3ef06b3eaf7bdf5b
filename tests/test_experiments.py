import csv
import dataclasses
import gc
import math
import weakref
from pathlib import Path

import numpy as np
import pytest

import liftedilc.engine as engine
import liftedilc.experiments as experiments
from liftedilc import selfcheck
from liftedilc import (
    CSV_HEADER,
    ConfigError,
    FIGURE_IDS,
    LAW_KINDS,
    LearningLaw,
    PlantParams,
    Trajectory,
    TrajectoryShape,
    build_desired_trajectory,
    build_experiment,
    build_initial_input,
    build_lifted,
    build_lifted_pair,
    bundled_experiment,
    continuous_plant,
    delete_rows,
    discretize_zoh,
    evaluate_switch,
    load_config,
    load_preset,
    reproduce_figure,
    run_experiment,
    run_hybrid,
    run_iterations,
    unhandled_zero_warning,
    write_history_csv,
)

from liftedilc.config import _sampled_plant
from liftedilc.experiments import _FIGURE_FAMILY

from conftest import MINIMAL_THIRD_ORDER


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_desired_trajectory_hits_known_points(write_cfg):
    config = load_config(write_cfg())
    desired = build_desired_trajectory(config)
    assert len(desired) == 100
    # 20 pi t passes pi at t = 0.05 and 2 pi at t = 0.1
    assert desired.values[4] == pytest.approx(4.0 * math.pi, rel=1e-12)
    assert desired.values[9] == pytest.approx(0.0, abs=1e-12)


def test_third_order_desired_skips_the_deleted_step(write_cfg):
    config = load_config(write_cfg(base=MINIMAL_THIRD_ORDER))
    desired = build_desired_trajectory(config)
    assert config.deleted_rows == 1
    assert len(desired) == 99
    want = math.pi * (1.0 - math.cos(10.0 * math.pi * 0.02)) ** 2
    assert desired.values[0] == pytest.approx(want, rel=1e-12)


def test_initial_input_variants(write_cfg, tmp_path):
    zero_cfg = load_config(write_cfg({"run.initial_input": "zero"}))
    u0 = build_initial_input(zero_cfg)
    assert np.all(u0.values == 0.0)

    warm_cfg = load_config(write_cfg({"run.initial_input": "desired_output"}))
    u0 = build_initial_input(warm_cfg)
    first = math.pi * (1.0 - math.cos(20.0 * math.pi * 0.01)) ** 2
    assert len(u0) == 100
    assert u0.values[0] == pytest.approx(first, rel=1e-12)

    source = tmp_path / "u0.txt"
    source.write_text("\n".join(str(0.1 * k) for k in range(100)))
    file_cfg = load_config(write_cfg({"run.initial_input": str(source)}))
    u0 = build_initial_input(file_cfg)
    assert u0.values[3] == pytest.approx(0.3)

    short = tmp_path / "short.txt"
    short.write_text("1.0\n2.0\n")
    short_cfg = load_config(write_cfg({"run.initial_input": str(short)}))
    with pytest.raises(ConfigError, match="samples"):
        build_initial_input(short_cfg)


def _split_by_phase(records):
    """(model RMS values, world RMS values) of a run's records."""
    return ([r.rms for r in records if r.phase == "model"],
            [r.rms for r in records if r.phase == "world"])


def test_csv_layout_counts_hardware_rows(write_cfg, tmp_path):
    config = load_config(write_cfg())
    world, model = build_lifted_pair(config)
    desired = build_desired_trajectory(config)
    u0 = build_initial_input(config)
    history = run_hybrid(
        world, model, LearningLaw("p_transpose", 1.0), u0, None, 3, 2, desired
    )
    path = tmp_path / "out.csv"
    db = write_history_csv(*_split_by_phase(history), path)

    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 7
    rows = read_rows(path)
    assert [r["iteration"] for r in rows] == list("012345")
    assert [r["phase"] for r in rows] == ["model"] * 3 + ["world"] * 3
    assert [r["hardware_iterations_consumed"] for r in rows] == list("000123")
    # repr-written floats parse back to the exact record values, and the
    # returned dB values are the column's
    assert db == [record.rms_db for record in history]
    for row, record in zip(rows, history):
        assert float(row["rms"]) == record.rms
        assert float(row["rms_db"]) == record.rms_db


def test_csv_leaves_db_blank_when_error_is_zero(second_order_pair, tmp_path):
    _, model, u0, _ = second_order_pair
    desired = Trajectory(model.p_matrix @ u0.values)
    history = run_iterations(
        model, model, LearningLaw("p_transpose", 1.0), u0, None, 0, "model", desired
    )
    path = tmp_path / "zero.csv"
    assert write_history_csv(*_split_by_phase(history), path) == [None]
    rows = read_rows(path)
    assert rows[0]["rms"] == "0.0"
    assert rows[0]["rms_db"] == ""


@pytest.mark.parametrize("mode", ["hybrid", "world"])
@pytest.mark.parametrize("law", LAW_KINDS)
@pytest.mark.parametrize("kind", ["second_order", "third_order"])
def test_a_run_writes_the_csv_of_the_public_runs_records(kind, law, mode, tmp_path):
    # run_experiment writes RMS values from its model pass, with no records;
    # its CSV is the one write_history_csv makes of run_hybrid's or
    # run_iterations' records
    config = dataclasses.replace(
        load_preset(kind), law_kind=law, mode=mode,
        csv_path=str(tmp_path / "run.csv"), plot_path=None,
    )
    run_experiment(config)
    world, model, u0, desired = build_experiment(config)
    law = LearningLaw(law, config.gain)
    if mode == "hybrid":
        records = run_hybrid(world, model, law, u0, None, config.model_count,
                             config.world_count, desired)
    else:
        records = run_iterations(world, model, law, u0, None, config.world_count,
                                 "world", desired)
    write_history_csv(*_split_by_phase(records), tmp_path / "records.csv")
    assert (tmp_path / "run.csv").read_bytes() == (tmp_path / "records.csv").read_bytes()


def test_commands_build_no_iteration_record(tmp_path, monkeypatch):
    # a command hands RMS values from the engine to its files; only the
    # public runs wrap them in records
    def refuse(*args, **kwargs):
        raise AssertionError("a command built an IterationRecord")

    monkeypatch.setattr(engine, "IterationRecord", refuse)
    for kind in ("second_order", "third_order"):
        for mode in ("model", "world", "hybrid"):
            config = dataclasses.replace(
                load_preset(kind), mode=mode,
                csv_path=str(tmp_path / f"{kind}_{mode}.csv"),
                plot_path=str(tmp_path / f"{kind}_{mode}.svg"),
            )
            run_experiment(config)
    for figure_id in ("fig2", "fig4"):
        for law in LAW_KINDS:
            reproduce_figure(figure_id, law, output_dir=str(tmp_path))


def _tmp_config(write_cfg, tmp_path, name, base=None, **overrides):
    merged = {"output.csv": str(tmp_path / name)}
    merged.update(overrides)
    if base is None:
        return load_config(write_cfg(merged))
    return load_config(write_cfg(merged, base=base))


def test_hybrid_jump_shows_at_the_switch_row(write_cfg, tmp_path):
    config = _tmp_config(write_cfg, tmp_path, "hybrid.csv")
    artifacts = run_experiment(config)
    rows = read_rows(artifacts.csv_path)
    assert len(rows) == 101
    assert rows[49]["phase"] == "model"
    assert rows[50]["phase"] == "world"
    assert rows[50]["hardware_iterations_consumed"] == "1"
    # switching to the real plant reveals error the model cannot see
    assert float(rows[50]["rms"]) > float(rows[49]["rms"])
    # the switch is where the phase turns to "world"
    assert [r["phase"] for r in rows] == ["model"] * 50 + ["world"] * 51


def test_zero_count_hybrid_writes_a_single_row(write_cfg, tmp_path):
    config = _tmp_config(
        write_cfg, tmp_path, "tiny.csv",
        **{"run.model_count": "0", "run.world_count": "0"},
    )
    artifacts = run_experiment(config)
    rows = read_rows(artifacts.csv_path)
    assert len(rows) == 1
    assert rows[0]["phase"] == "world"
    assert rows[0]["hardware_iterations_consumed"] == "1"


def test_model_mode_error_decreases_every_iteration(write_cfg, tmp_path):
    config = _tmp_config(
        write_cfg, tmp_path, "model.csv",
        **{"run.mode": "model", "run.model_count": "20"},
    )
    artifacts = run_experiment(config)
    rms = [float(r["rms"]) for r in read_rows(artifacts.csv_path)]
    assert len(rms) == 21
    assert all(b < a for a, b in zip(rms, rms[1:]))
    assert artifacts.summary["final_rms"]["model"] == pytest.approx(rms[-1])


def test_run_experiment_output_is_byte_stable(write_cfg, tmp_path):
    paths = []
    for name in ("first.csv", "second.csv"):
        config = _tmp_config(write_cfg, tmp_path, name)
        paths.append(Path(run_experiment(config).csv_path))
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_switch_reports_follow_the_candidate_list(write_cfg, tmp_path):
    config = _tmp_config(
        write_cfg, tmp_path, "cand.csv", **{"switch.candidates": "10,50"}
    )
    artifacts = run_experiment(config)
    reports = artifacts.summary["switch_reports"]
    assert [r.candidate_n for r in reports] == [10, 50]
    assert all(r.jump > 0 for r in reports)

    config = _tmp_config(
        write_cfg, tmp_path, "none.csv", **{"switch.candidates": ""}
    )
    artifacts = run_experiment(config)
    assert artifacts.summary["switch_reports"] == []
    assert len(read_rows(artifacts.csv_path)) == 101


def test_unhandled_zero_warning_for_uncovered_zero(write_cfg, tmp_path):
    config = _tmp_config(
        write_cfg, tmp_path, "nodelete.csv",
        base=MINIMAL_THIRD_ORDER,
        **{
            "lifted.deleted_rows": "0",
            "run.mode": "world",
            "run.world_count": "2",
        },
    )
    warning = unhandled_zero_warning(config)
    assert warning is not None and "unit circle" in warning
    artifacts = run_experiment(config)
    assert artifacts.summary["warnings"] == [warning]

    clean = load_config(write_cfg())
    assert unhandled_zero_warning(clean) is None


def _freshly_lifted(config, params):
    """The lifted plant of one PlantParams block, sampled without the memo."""
    dss = discretize_zoh(
        continuous_plant(config.system_kind, params), config.sample_period
    )
    lifted = build_lifted(dss, config.horizon)
    return delete_rows(lifted, config.deleted_rows) if config.deleted_rows else lifted


@pytest.mark.parametrize("kind, deleted_rows", [
    ("second_order", None), ("third_order", None), ("third_order", 0),
])
def test_build_experiment_matches_the_three_builders(kind, deleted_rows):
    config = load_preset(kind)
    if deleted_rows is not None:
        config = dataclasses.replace(config, deleted_rows=deleted_rows)
    experiment = build_experiment(config)
    world, model = build_lifted_pair(config)
    for built, pair, params in ((experiment.world, world, config.world_params),
                                (experiment.model, model, config.model_params)):
        fresh = _freshly_lifted(config, params)
        for lifted in (pair, fresh):
            assert np.array_equal(built.p_matrix, lifted.p_matrix)
            assert np.array_equal(built.abar_matrix, lifted.abar_matrix)
            assert built.deleted_rows == lifted.deleted_rows
    assert np.array_equal(experiment.u0.values, build_initial_input(config).values)
    desired = build_desired_trajectory(config)
    assert np.array_equal(experiment.desired.values, desired.values)


def _model_plant(config):
    return _sampled_plant(
        config.system_kind, config.model_params, config.sample_period
    )


def test_each_plant_is_sampled_once_per_value(write_cfg):
    path = write_cfg()
    first, second = load_config(path), load_config(path)
    assert first.model_params is not second.model_params
    assert _model_plant(first) is _model_plant(second)

    params = PlantParams(0.4, 37.0)
    changed = dataclasses.replace(first, model_params=params)
    _, model = build_lifted_pair(changed)
    assert _model_plant(changed) is not _model_plant(first)
    assert np.array_equal(model.p_matrix, _freshly_lifted(changed, params).p_matrix)


def test_build_lifted_pair_shares_the_deletion(write_cfg):
    config = load_config(write_cfg(base=MINIMAL_THIRD_ORDER))
    world, model = build_lifted_pair(config)
    assert (model.deleted_rows, world.deleted_rows) == (1, 1)
    assert model.row_count == world.row_count == 99
    assert not np.allclose(model.p_matrix, world.p_matrix)


def test_reproduce_figure_aligns_three_curves(tmp_path):
    artifacts = reproduce_figure("fig3", "p_transpose", 50, str(tmp_path))
    curves = {k: read_rows(v) for k, v in artifacts.curve_csv_paths.items()}
    assert set(curves) == {"model", "world", "hybrid"}
    assert all(len(rows) == 101 for rows in curves.values())

    def rms_at_budget(rows, consumed):
        return min(
            float(r["rms"])
            for r in rows
            if int(r["hardware_iterations_consumed"]) == consumed
        )

    # the hybrid run beats learning on the plant alone at equal hardware cost
    for consumed in (1, 11, 51):
        assert rms_at_budget(curves["hybrid"], consumed) < rms_at_budget(
            curves["world"], consumed
        )
    assert Path(artifacts.plot_paths[0]).exists()


def test_marker_variants_annotate_the_switch(tmp_path):
    with_markers = reproduce_figure("fig2", "p_transpose", 50, str(tmp_path / "a"))
    text = Path(with_markers.plot_paths[0]).read_text()
    for label in ("A1", "A2", "B1", "B2"):
        assert label in text
    assert with_markers.summary["switch_report"] is not None

    plain = reproduce_figure("fig3", "p_transpose", 50, str(tmp_path / "b"))
    assert "A1" not in Path(plain.plot_paths[0]).read_text()
    assert plain.summary["switch_report"] is None


# the two figure ids drawn from each bundled pair: marker variant, plain variant
_PAIR_FIGURES = (("fig2", "fig3"), ("fig4", "fig5"))


@pytest.mark.parametrize("kind", LAW_KINDS)
def test_reproduce_figure_factorizes_the_model_once(
    tmp_path, factorization_calls, kind
):
    # the first figure of a pair makes its one eigh: three curves plus the
    # marker advisor share it, and the default switch (50 and 100, both past
    # N // 4 = 25) keeps every call on the closed form. norm_optimal's
    # world-only curve takes its direct law: the certificate and one
    # Cholesky factor, made once per pair. Every later figure of that pair,
    # in any law and either figure id, factorizes nothing else.
    direct = ["cholesky", "cholesky"]
    for first, other in _PAIR_FIGURES:
        bundled_experiment.cache_clear()
        factorization_calls.clear()
        reproduce_figure(first, kind, output_dir=str(tmp_path))
        assert factorization_calls == ["eigh"] + (
            direct if kind == "norm_optimal" else [])
        factorization_calls.clear()
        for law in LAW_KINDS:
            if law != kind:
                reproduce_figure(first, law, output_dir=str(tmp_path))
            reproduce_figure(other, law, output_dir=str(tmp_path))
        assert factorization_calls == ([] if kind == "norm_optimal" else direct)


def _figure_bytes(figure_id, law, directory):
    artifacts = reproduce_figure(figure_id, law, output_dir=str(directory))
    paths = list(artifacts.curve_csv_paths.values()) + artifacts.plot_paths
    assert len(paths) == 4
    return {Path(path).name: Path(path).read_bytes() for path in paths}


@pytest.mark.parametrize("law", LAW_KINDS)
@pytest.mark.parametrize("figure_id", FIGURE_IDS)
def test_figure_output_is_the_same_on_a_fresh_and_a_shared_pair(
    tmp_path, figure_id, law
):
    # fresh: this figure lifts and factorizes its pair. Shared: the pair's
    # other figure id in every law and this one in the other two laws ran
    # first, so the eigh, the isometry and this law's operator are reused.
    [pair] = [p for p in _PAIR_FIGURES if figure_id in p]
    bundled_experiment.cache_clear()
    fresh = _figure_bytes(figure_id, law, tmp_path / "fresh")

    bundled_experiment.cache_clear()
    other = pair[1 - pair.index(figure_id)]
    for earlier_law in LAW_KINDS:
        reproduce_figure(other, earlier_law, output_dir=str(tmp_path / "earlier"))
        if earlier_law != law:
            reproduce_figure(
                figure_id, earlier_law, output_dir=str(tmp_path / "earlier")
            )
    assert _figure_bytes(figure_id, law, tmp_path / "shared") == fresh


@pytest.mark.parametrize("kind", ["second_order", "third_order"])
def test_bundled_experiment_is_one_shared_read_only_setup(kind):
    config, experiment = bundled_experiment(kind)
    assert bundled_experiment(kind)[1] is experiment
    assert config == load_preset(kind)
    reference = build_experiment(config)
    for name in ("u0", "desired"):
        values = getattr(experiment, name).values
        np.testing.assert_array_equal(values, getattr(reference, name).values)
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 1.0
    # a user configuration's setup stays private to its command
    assert reference.u0.values.flags.writeable


@pytest.mark.parametrize("law", LAW_KINDS)
@pytest.mark.parametrize("figure_id", FIGURE_IDS)
def test_a_figure_model_curve_is_the_explicit_model_run(tmp_path, figure_id, law):
    # the closed form's rows, to rounding: every model phase of a figure at
    # its default switch is longer than N // 4
    artifacts = reproduce_figure(figure_id, law, output_dir=str(tmp_path))
    curve = [float(r["rms"]) for r in read_rows(artifacts.curve_csv_paths["model"])]
    config, (world, model, u0, desired) = bundled_experiment(
        _FIGURE_FAMILY[figure_id][0]
    )
    explicit = run_iterations(world, model, LearningLaw(law, config.gain), u0, None,
                              len(curve) - 1, "model", desired)
    np.testing.assert_allclose(curve, [r.rms for r in explicit], rtol=1e-12, atol=0)


def _count_applied_rows(monkeypatch, model):
    """{'model': rows, 'world': rows} applied through the one plant apply."""
    applied = {"model": 0, "world": 0}
    real_measure = engine._measure

    def counting_measure(plant, inputs, target):
        plant_rows = inputs.shape[0] if inputs.ndim == 2 else 1
        applied["model" if plant is model() else "world"] += plant_rows
        return real_measure(plant, inputs, target)

    monkeypatch.setattr(engine, "_measure", counting_measure)
    return applied


@pytest.mark.parametrize("law", LAW_KINDS)
@pytest.mark.parametrize("figure_id, switch_n", [("fig2", 50), ("fig4", 100)])
def test_a_closed_form_figure_applies_the_model_only_for_e0(
    tmp_path, monkeypatch, figure_id, switch_n, law
):
    # the model curve, the hybrid's model phase and the markers' model points
    # are rows of one closed-form pass from the initial error. A fresh pair
    # and pass: the process keeps each bundled pair's pass between figures
    bundled_experiment.cache_clear()
    config, (_, model, _, _) = bundled_experiment(_FIGURE_FAMILY[figure_id][0])
    applied = _count_applied_rows(monkeypatch, lambda: model)
    reproduce_figure(figure_id, law, switch_n, str(tmp_path))
    # the world curve's records, the hybrid's world segment, the markers' B1, B2
    world_count = config.world_count
    segment_and_markers = (world_count + 1) + 2
    assert applied == {"model": 1,
                       "world": (switch_n + world_count + 1) + segment_and_markers}
    # drawn again, the figure reads e0 and its world curve from the kept pass
    applied.update(model=0, world=0)
    reproduce_figure(figure_id, law, switch_n, str(tmp_path))
    assert applied == {"model": 0, "world": segment_and_markers}


@pytest.mark.parametrize("law", ["p_transpose", "norm_optimal"])
def test_a_dense_hybrid_run_and_its_advisor_share_one_model_run(
    tmp_path, monkeypatch, law
):
    # N = 1000: model_count 50 and the candidates 25, 50 and 100 are at most
    # N // 8, so the hybrid's model phase and the advisor's model points are
    # rows of one explicit model run to max(50, 100 + 1) = 101
    config = dataclasses.replace(
        load_preset("second_order"), horizon=1000, law_kind=law,
        csv_path=str(tmp_path / "run.csv"), plot_path=None,
    )
    built = []
    monkeypatch.setattr(experiments, "build_experiment",
                        lambda c: built.append(build_experiment(c)) or built[0])
    applied = _count_applied_rows(monkeypatch, lambda: built[0].model)
    run_experiment(config)
    # the world segment's records, then two world rows per candidate
    assert applied == {"model": 102, "world": 51 + 2 * 3}


@pytest.mark.parametrize("law", ["p_transpose", "norm_optimal"])
def test_a_dense_model_run_and_its_advisor_share_one_model_run(
    tmp_path, monkeypatch, law
):
    # as in hybrid mode: a model-mode run of 50 and the candidates 25, 50 and
    # 100 read one explicit model run to 101, so the model is applied 102
    # times, not 51 for the run and 102 more for the advisor
    config = dataclasses.replace(
        load_preset("second_order"), horizon=1000, law_kind=law, mode="model",
        csv_path=str(tmp_path / "run.csv"), plot_path=None,
    )
    built = []
    monkeypatch.setattr(experiments, "build_experiment",
                        lambda c: built.append(build_experiment(c)) or built[0])
    applied = _count_applied_rows(monkeypatch, lambda: built[0].model)
    artifacts = run_experiment(config)
    assert applied == {"model": 102, "world": 2 * 3}
    assert len(read_rows(artifacts.csv_path)) == 51


@pytest.mark.parametrize("law", LAW_KINDS)
@pytest.mark.parametrize("figure_id, switch_n", [
    ("fig2", None), ("fig3", None), ("fig4", None), ("fig5", None),
    # A2 one count past the 64-count block of A1
    ("fig2", 63), ("fig4", 127),
])
def test_a_figure_reads_one_rms_curve(tmp_path, figure_id, switch_n, law):
    # every default figure's model phase is longer than N // 4 (N // 8 for
    # norm_optimal), so its model curve, its hybrid's model records and its
    # markers A1 and A2 all read the closed form's RMS curve
    artifacts = reproduce_figure(figure_id, law, switch_n, str(tmp_path))
    config, _ = bundled_experiment(_FIGURE_FAMILY[figure_id][0])
    switch_n = config.model_count if switch_n is None else switch_n
    model = read_rows(artifacts.curve_csv_paths["model"])
    hybrid = read_rows(artifacts.curve_csv_paths["hybrid"])
    assert hybrid[:switch_n] == model[:switch_n]
    assert hybrid[switch_n]["phase"] == "world"
    report = artifacts.summary["switch_report"]
    if report is not None:
        assert (report.r_model_n, report.r_model_n1) == (
            float(model[switch_n]["rms"]), float(model[switch_n + 1]["rms"]))


@pytest.mark.parametrize("kind", ["second_order", "third_order"])
@pytest.mark.parametrize("changes", [
    {"trajectory": TrajectoryShape(1.0, 3.0, 2.0)},
    {"law_kind": "norm_optimal", "gain": 0.5},
    {"initial_input": "zero", "mode": "model", "model_count": 7,
     "world_count": 3, "switch_candidates": (1, 2), "slope_factor": 2.0},
    {"csv_path": "elsewhere.csv", "plot_path": "elsewhere.svg"},
], ids=["trajectory", "law", "counts", "outputs"])
def test_a_config_on_a_bundled_pair_gets_that_pair(kind, changes):
    _, bundled = bundled_experiment(kind)
    config = dataclasses.replace(load_preset(kind), **changes)
    experiment = build_experiment(config)
    assert experiment.model is bundled.model
    assert experiment.world is bundled.world
    world, model = build_lifted_pair(config)
    assert world is bundled.world and model is bundled.model
    # the samples are the configuration's own, not the bundled ones
    assert experiment.u0.values.flags.writeable
    reference = build_desired_trajectory(config)
    assert np.array_equal(experiment.desired.values, reference.values)


@pytest.mark.parametrize("changes", [
    {"horizon": 80},
    {"model_params": PlantParams(0.45, 37.0, 8.8)},
    {"world_params": PlantParams(0.5, 44.4, 9.0)},
    {"sample_period": 0.011},
    {"deleted_rows": 2},
], ids=["horizon", "model_plant", "world_plant", "sample_period", "deleted_rows"])
def test_any_other_pair_is_lifted_per_command_and_freed(
    tmp_path, monkeypatch, changes
):
    _, bundled = bundled_experiment("third_order")
    config = dataclasses.replace(
        load_preset("third_order"), csv_path=str(tmp_path / "run.csv"),
        plot_path=None, **changes,
    )
    world, model = build_lifted_pair(config)
    assert world is not bundled.world and model is not bundled.model
    assert build_lifted_pair(config)[1] is not model
    del world, model

    lifted = []
    real = experiments._lift_pair

    def recording(config):
        pair = real(config)
        lifted.extend(weakref.ref(system) for system in pair)
        return pair

    monkeypatch.setattr(experiments, "_lift_pair", recording)
    run_experiment(config)
    assert len(lifted) == 2
    gc.collect()
    assert [ref() for ref in lifted] == [None, None]


@pytest.mark.parametrize("law_kind", LAW_KINDS)
@pytest.mark.parametrize("kind", ["second_order", "third_order"])
def test_a_large_pair_is_freed_by_reference_counting_alone(tmp_path, monkeypatch,
                                                           kind, law_kind):
    # at N = 1000 both systems keep an FFT convolution and the model its
    # factorization, dense laws and operators; none of them may refer back
    # to a system, or a cycle would keep a 16 MB pair alive until the cyclic
    # collector ran
    config = dataclasses.replace(
        load_preset(kind), horizon=1000, law_kind=law_kind,
        csv_path=str(tmp_path / "run.csv"), plot_path=None,
    )
    law = LearningLaw(law_kind, config.gain)
    lifted = []
    real = experiments._lift_pair

    def recording(config):
        pair = real(config)
        lifted.extend(weakref.ref(system) for system in pair)
        return pair

    monkeypatch.setattr(experiments, "_lift_pair", recording)
    enabled = gc.isenabled()
    gc.disable()
    try:
        run_experiment(config)
        world, model, u0, desired = build_experiment(config)
        evaluate_switch(world, model, law, u0, None, [5, 20], 1.0, desired)
        for phase in ("model", "world"):
            run_iterations(world, model, law, u0, None, 5, phase, desired)
        assert world._convolution and model._factorization is not None
        del world, model
        assert len(lifted) == 4
        assert [ref() for ref in lifted] == [None] * 4
    finally:
        if enabled:
            gc.enable()


def test_a_gain_sweep_keeps_one_operator_and_one_dense_law_per_kind(tmp_path):
    # the preset's hybrid run takes the closed form (50 > N // 4), a
    # 10-iteration model run the dense path of p_transpose and norm_optimal
    bundled_experiment.cache_clear()
    _, (_, model, _, _) = bundled_experiment("second_order")
    preset = dataclasses.replace(
        load_preset("second_order"), csv_path=str(tmp_path / "run.csv"),
        plot_path=None,
    )
    gains = (0.5, 0.6, 0.7, 0.8, 0.9)
    for law in LAW_KINDS:
        for gain in gains:
            config = dataclasses.replace(preset, law_kind=law, gain=gain)
            run_experiment(config)
            run_experiment(dataclasses.replace(
                config, mode="model", model_count=10, switch_candidates=()))
            assert build_lifted_pair(config)[1] is model
    entry = model._factorization
    assert set(entry.laws) == {(law, gains[-1]) for law in LAW_KINDS}
    assert set(entry.dense) == {
        ("p_transpose", gains[-1]), ("norm_optimal", gains[-1])}


def _recording_runs(monkeypatch):
    """(phase, first iteration, updates) of every _Run read that runs the loop."""
    runs = []
    real = engine._Run._extend

    def recording(run, n):
        done = len(run.rms_values) - 1
        if n > done:
            runs.append((run.phase, run.first + done, n - done))
        return real(run, n)

    monkeypatch.setattr(engine._Run, "_extend", recording)
    return runs


def test_check_9_computes_every_curve_in_both_draws(
    tmp_path, monkeypatch, factorization_calls
):
    # the pass of fig3 in p_transpose is kept before the check runs, yet each
    # of its two draws lifts the pair, makes the model's eigh and runs the
    # 100-update world-only curve from u0 itself
    reproduce_figure("fig3", "p_transpose", 50, str(tmp_path))
    factorization_calls.clear()
    runs = _recording_runs(monkeypatch)
    assert selfcheck.check_figure_determinism().passed
    assert [run for run in runs if run[:2] == ("world", 0)] == [("world", 0, 100)] * 2
    assert factorization_calls == ["eigh", "eigh"]


@pytest.mark.parametrize("pair", _PAIR_FIGURES)
def test_a_world_curve_is_a_prefix_or_an_extension_of_the_kept_run(tmp_path, pair):
    # fig2 and fig3 (fig4 and fig5) share the world-only run of their pair
    # and law: a shorter curve reads its prefix, a longer one extends it from
    # its last state, both with the bytes of a fresh draw
    marker, plain = pair
    config, _ = bundled_experiment(_FIGURE_FAMILY[marker][0])
    short, long = config.model_count - 10, config.model_count + 10
    for law in LAW_KINDS:
        fresh = {}
        for figure_id, switch_n in ((marker, short), (plain, long)):
            bundled_experiment.cache_clear()
            fresh[figure_id] = reproduce_figure(
                figure_id, law, switch_n, str(tmp_path / "fresh"))
        for order in ([(marker, short), (plain, long)],
                      [(plain, long), (marker, short)]):
            bundled_experiment.cache_clear()
            for figure_id, switch_n in order:
                artifacts = reproduce_figure(
                    figure_id, law, switch_n, str(tmp_path / "shared"))
                for name, path in artifacts.curve_csv_paths.items():
                    expected = fresh[figure_id].curve_csv_paths[name]
                    assert Path(path).read_bytes() == Path(expected).read_bytes()


def test_a_gain_sweep_and_figures_keep_one_pass_per_pair_and_law(tmp_path):
    # each pass holds its model curve, of the world-only run its RMS values
    # and last (input, error), and of an explicit model run (a short model
    # phase's dense path) its inputs, which stop at n = N // 4 + 1: at most
    # 27 at N = 100
    bundled_experiment.cache_clear()
    for kind, figure_id in (("second_order", "fig2"), ("third_order", "fig4")):
        preset = dataclasses.replace(
            load_preset(kind), csv_path=str(tmp_path / "run.csv"), plot_path=None)
        for law in LAW_KINDS:
            for gain in (0.5, 0.6, 0.7, 0.8, 0.9):
                run_experiment(dataclasses.replace(preset, law_kind=law, gain=gain))
                for switch_n in (5, preset.model_count):
                    reproduce_figure(figure_id, law, switch_n, str(tmp_path))
        experiment, passes = experiments._BUNDLED_PASSES[kind]
        assert experiment is bundled_experiment(kind)[1]
        assert sorted(passes) == sorted(LAW_KINDS)
        for law, model_pass in passes.items():
            assert model_pass.law == LearningLaw(law, preset.gain)
            assert set(model_pass._sources) <= {engine._LawOperator, engine._DenseLaw}
            dense = model_pass._sources.get(engine._DenseLaw)
            if dense is not None:
                assert len(dense.kept) <= preset.horizon // 4 + 2 == 27
                assert all(u.shape == (preset.horizon,) for u in dense.kept)
            world_run = model_pass._world_run
            assert world_run.kept is None
            rms_values, (u, e) = world_run.rms_values, world_run.last
            assert len(rms_values) == preset.model_count + preset.world_count + 1
            assert u.shape == (preset.horizon,)
            assert e.shape == (experiment.world.row_count,)


def test_reproduce_figure_rejects_unknown_id(tmp_path):
    with pytest.raises(ConfigError, match="fig"):
        reproduce_figure("fig9", "p_transpose", 50, str(tmp_path))
