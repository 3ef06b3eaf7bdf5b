from pathlib import Path

import liftedilc
import liftedilc.cli

import workloads
from worker import Checker, execute, nearest_rank

PRESETS = Path(liftedilc.__file__).parent / "presets"


def run_op(tmp_path):
    paths = workloads.write_configs(liftedilc.load_config, PRESETS, 100,
                                    workloads.input_rng(7), tmp_path)
    configs = {key: liftedilc.load_config(path) for key, path in paths.items()}
    op = next(op for op in workloads.build_ops(
        workloads.WORKLOADS["run-n1000"], paths, workloads.input_rng(7), tmp_path)
        if op.key == "run-third_order-partial_isometry")
    return Checker(liftedilc, configs, PRESETS), op, configs


def test_run_output_passes_the_oracle_check(tmp_path):
    checker, op, _ = run_op(tmp_path)
    outcome = execute(liftedilc, op)
    assert checker.check(op, outcome) == []


def test_corrupted_rms_row_is_flagged(tmp_path):
    checker, op, configs = run_op(tmp_path)
    outcome = execute(liftedilc, op)
    csv = Path(configs["third_order", "partial_isometry"].csv_path)
    lines = csv.read_text().splitlines()
    fields = lines[7].split(",")
    fields[2] = repr(float(fields[2]) * (1.0 + 1e-6))
    lines[7] = ",".join(fields)
    csv.write_text("\n".join(lines) + "\n")
    problems = checker.check(op, outcome)
    assert any("row 6 rms" in p for p in problems)


def test_failed_command_is_a_failure(tmp_path):
    checker, op, _ = run_op(tmp_path)
    assert checker.check(op, (2, "", "error: diverged", None))


def test_nearest_rank_leaves_ten_samples_beyond():
    values = list(range(40))
    assert nearest_rank(values, 100.0 * (1 - 10 / 40)) == 29
