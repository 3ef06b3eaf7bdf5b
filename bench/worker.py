"""One workload in one fresh process: set up, warm up, measure, check.

Protocol on standard output: the line READY once set-up is done (the parent
times interpreter start to this line as one set-up sample), then, unless
--setup-only, one JSON line with the run's results. Operations are driven
through the public entry points only: `liftedilc.cli.main` for commands, and
`load_config`, `build_lifted_pair`, `build_desired_trajectory` and
`pseudo_inverse_input` for the stable inverse.
"""

import argparse
import contextlib
import dataclasses
import io
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import workloads  # noqa: E402
from environment import record  # noqa: E402
from tracer import TRACED, Tracer, layer_totals, op_shares, self_times  # noqa: E402

# record counts of the figures' hybrid curve beyond the switch point
FIGURE_WORLD_SEGMENT = 50
TAIL_BEYOND = 10
FACTORIZATION = ("laws.build_gain", "engine.spectral_decompose")


def execute(api, op):
    """Run one operation; returns (exit code, stdout, stderr, payload)."""
    if op.command == "inverse":
        config = api.load_config(op.config)
        _, model = api.build_lifted_pair(config)
        desired = api.build_desired_trajectory(config)
        u = api.pseudo_inverse_input(model, desired)
        return 0, "", "", (model.p_matrix, desired.values, u.values)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = api.cli.main(list(op.argv), stdout=out)
    return code, out.getvalue(), err.getvalue(), None


class Checker:
    """Checks outcomes against the oracle, computed once per operation."""

    def __init__(self, api, configs, presets_dir):
        self.api = api
        self.configs = configs
        self.presets_dir = Path(presets_dir)
        self._expected = {}
        self._digests = {}

    def _plant(self, op):
        if op.command == "figure":
            # figures are self-contained: the bundled preset at its own horizon
            preset = self.presets_dir / workloads.PRESET_FILES[op.family]
            config = self.api.load_config(str(preset))
            config = dataclasses.replace(config, law_kind=op.law)
        else:
            config = self.configs[op.family, op.law]
        return checks.Plant(self.api, config)

    def _expectation(self, op):
        if op.key not in self._expected:
            plant = self._plant(op)
            config = plant.config
            if op.command == "run":
                expected = {
                    "csv": {"history": plant.history(checks.hybrid_schedule(
                        config.model_count, config.world_count))},
                    "candidates": config.switch_candidates,
                }
            elif op.command == "figure":
                total = op.switch + FIGURE_WORLD_SEGMENT
                curves = {
                    "model": [("model", total + 1)],
                    "world": [("world", total + 1)],
                    "hybrid": checks.hybrid_schedule(op.switch, FIGURE_WORLD_SEGMENT),
                }
                expected = {
                    "csv": {name: plant.history(s) for name, s in curves.items()},
                    "candidates": (op.switch,)
                    if op.figure in workloads.MARKER_FIGURES else (),
                }
            else:
                expected = {"csv": {},
                            "candidates": op.candidates or config.switch_candidates}
            if expected["candidates"]:
                expected["advisor"] = plant.advisor(expected["candidates"])
            self._expected[op.key] = expected
        return self._expected[op.key]

    def check(self, op, outcome):
        code, stdout, stderr, payload = outcome
        if code != 0:
            return [f"exit code {code}: {stderr.strip()[-300:]}"]
        if op.command == "inverse":
            return checks.check_inverse(*payload)
        if op.command == "zeros":
            return checks.check_zeros(stdout, self.configs[op.family, op.law].deleted_rows)
        problems = checks.Problem()
        expected = self._expectation(op)
        if op.command in ("run", "figure"):
            checks.check_finals(stdout, problems)
            # the consumed column is compared row by row, so a run's last
            # row must read world_count + 1
            paths = self._csv_paths(op, stdout)
            for name, rows in expected["csv"].items():
                checks.check_csv(Path(paths[name]).read_text(), rows, problems,
                                 f"{op.key} {name} CSV")
            digest = checks.csv_digest(paths[name] for name in sorted(paths))
            first = self._digests.setdefault(op.key, digest)
            problems.need(digest == first, "CSV bytes differ from the first pass")
        checks.check_advisor(stdout, expected["candidates"],
                             expected.get("advisor", {}), problems)
        return problems

    def _csv_paths(self, op, stdout):
        if op.command == "run":
            return {"history": self.configs[op.family, op.law].csv_path}
        written = [line[len("wrote "):] for line in stdout.splitlines()
                   if line.startswith("wrote ") and line.endswith(".csv")]
        return {name: next(p for p in written if p.endswith(f"_{name}.csv"))
                for name in ("model", "world", "hybrid")}


def nearest_rank(sorted_values, percentile):
    index = max(0, math.ceil(percentile / 100.0 * len(sorted_values)) - 1)
    return sorted_values[index]


class Runner:
    def __init__(self, api, ops, checker, seed):
        self.api = api
        self.ops = ops
        self.checker = checker
        self.order = workloads.order_rng(seed)
        self.attempted = 0
        self.failures = []

    def run_pass(self, tracer=None):
        """One pass over every operation; returns (op key, seconds) per operation."""
        order = list(self.ops)
        self.order.shuffle(order)
        outcomes = []
        latencies = []
        if tracer is not None:
            tracer.install()
        try:
            for op in order:
                if tracer is not None:
                    tracer.op = op.key
                start = time.perf_counter()
                try:
                    outcome = execute(self.api, op)
                except (Exception, SystemExit):
                    outcome = (None, "", traceback.format_exc(), None)
                latencies.append((op.key, time.perf_counter() - start))
                outcomes.append((op, outcome))
        finally:
            if tracer is not None:
                tracer.uninstall()
        for op, outcome in outcomes:
            self.attempted += 1
            try:
                problems = self.checker.check(op, outcome)
            except Exception:
                problems = [f"check raised: {traceback.format_exc()[-400:]}"]
            if problems:
                self.failures.append({"op": op.key, "problems": list(problems)[:5]})
        return latencies


def by_op(samples):
    grouped = {}
    for key, seconds in samples:
        grouped.setdefault(key, []).append(seconds)
    return grouped


def total_seconds(samples):
    return sum(seconds for _, seconds in samples)


def end_to_end(samples, min_passes):
    """Latency metrics of the measured passes.

    ops_per_s and op_p50_ms are taken from each operation's fastest measured
    run: on a shared two-core host the other runs of an operation mix a fast
    mode with stalls of 20-130 ms in proportions that drift over seconds, so
    their means and medians move by 20 % between identical runs. The stalls
    show in op_tail_ms, which is taken over every measured run at the
    percentile that leaves TAIL_BEYOND samples beyond it at the workload's
    minimum sample count.
    """
    grouped = by_op(samples)
    best = sorted(min(values) for values in grouped.values())
    ordered = sorted(seconds for _, seconds in samples)
    percentile = 100.0 * (1.0 - TAIL_BEYOND / (len(grouped) * min_passes))
    return {
        "ops_per_s": len(best) / sum(best),
        "op_p50_ms": 1e3 * statistics.median(best),
        "op_tail_ms": 1e3 * nearest_rank(ordered, percentile),
        "tail_percentile": percentile,
        "samples": len(ordered),
        "all_ops_per_s": len(ordered) / sum(ordered),
        "all_p50_ms": 1e3 * statistics.median(ordered),
    }


def per_layer(tracer, self_s_list, traced_passes, overhead_pct):
    totals = layer_totals(tracer.spans, self_s_list)
    metrics = {}
    for name in TRACED:
        entry = totals.get(name, {})
        metrics[f"{name}.calls"] = entry.get("calls", 0) / traced_passes
        metrics[f"{name}.self_ms"] = entry.get("self_ms", 0.0) / traced_passes
    for tag in ("cold", "warm"):
        metrics[f"engine.fast_forward.{tag}_ms"] = (
            totals.get("engine.fast_forward", {}).get(f"{tag}_ms", 0.0) / traced_passes
        )
    pairs = totals.get("experiments.build_lifted_pair", {}).get("calls", 0)
    for name in ("laws.build_gain", "engine.spectral_decompose"):
        calls = totals.get(name, {}).get("calls", 0)
        metrics[f"{name}.per_pair"] = calls / pairs if pairs else 0.0
    metrics["lifted.lifted_output.world_calls"] = (
        tracer.counts["lifted.lifted_output.world_calls"] / traced_passes
    )
    metrics["trace.overhead_pct"] = overhead_pct
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import liftedilc as api
    import liftedilc.cli  # noqa: F401  (binds api.cli)

    if not Path(api.__file__).resolve().is_relative_to((root / "src").resolve()):
        print(f"liftedilc imported from {api.__file__}, not from {root / 'src'}",
              file=sys.stderr)
        return 3
    workload = workloads.WORKLOADS[args.workload]
    workdir = root / ".bench_work" / workload.name
    workdir.mkdir(parents=True, exist_ok=True)
    presets_dir = Path(api.__file__).parent / "presets"
    rng = workloads.input_rng(args.seed)
    paths = workloads.write_configs(api.load_config, presets_dir, workload.horizon,
                                    rng, workdir)
    configs = {key: api.load_config(path) for key, path in paths.items()}
    for config in configs.values():
        api.build_lifted_pair(config)
    ops = workloads.build_ops(workload, paths, rng, workdir)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    runner = Runner(api, ops, Checker(api, configs, presets_dir), args.seed)
    runner.run_pass()  # warm-up: fills caches and computes the oracle
    measured = []
    result = {"passes": 0}
    if args.trace:
        tracer = Tracer()
        traced = []
        while not traced or total_seconds(measured + traced) < args.seconds:
            measured += runner.run_pass()
            traced += runner.run_pass(tracer)
            result["passes"] += 1
        untraced_rate = len(measured) / total_seconds(measured)
        traced_rate = len(traced) / total_seconds(traced)
        self_s_list = self_times(tracer.spans)
        metrics = per_layer(tracer, self_s_list, result["passes"],
                            100.0 * (untraced_rate / traced_rate - 1.0))
        result["factorization_layers"] = FACTORIZATION
        result["factorization_share"] = op_shares(tracer.spans, self_s_list,
                                                  FACTORIZATION)
        result["absent"] = tracer.absent
        spans_path = workdir / f"spans-seed{args.seed}.json"
        spans_path.write_text(json.dumps(tracer.spans))
        result["spans"] = str(spans_path.relative_to(root))
    else:
        while result["passes"] < workload.min_passes or total_seconds(measured) < args.seconds:
            measured += runner.run_pass()
            result["passes"] += 1
        metrics = end_to_end(measured, workload.min_passes)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        samples_path = workdir / f"samples-seed{args.seed}.json"
        samples_path.write_text(json.dumps(by_op(measured)))
        result["samples"] = str(samples_path.relative_to(root))

    result.update(
        metrics=metrics,
        attempted=runner.attempted,
        failures=runner.failures,
        ops_per_pass=len(ops),
        op_median_ms={key: 1e3 * statistics.median(values)
                      for key, values in sorted(by_op(measured).items())},
        environment=record(root),
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
