"""liftedilc benchmark: one workload, end-to-end or traced, printed as JSON.

    python3 bench/run.py --workload paper-n100 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Set-up is timed in several fresh
processes (interpreter start, `import liftedilc`, config generation, loading
and lifting every config) and reported as their median. The measurement
itself runs in one more fresh process, so its peak memory belongs to this
workload alone. The last line of output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it give the seed,
the environment, the tail percentile with its sample count and, for --trace
1, the traced layers missing from this version of the package.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5  # fresh processes timed for setup_s, the measuring one included
TIMEOUT_S = 170.0

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def _spawn(args, extra, deadline):
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    start = time.perf_counter()
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        ready = child.stdout.readline()
        setup = time.perf_counter() - start
        rest, _ = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        raise BenchError("worker timed out") from None
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if ready.strip() != "READY" or child.returncode != 0:
        raise BenchError(f"worker failed with exit code {child.returncode}")
    return setup, rest


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (Path.cwd() / "src" / "liftedilc" / "__init__.py").is_file():
        print("no src/liftedilc here: run from the root of a liftedilc checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIMEOUT_S
    try:
        setups = [_spawn(args, ["--setup-only"], deadline)[0]
                  for _ in range(SETUP_SAMPLES - 1)]
        setup, output = _spawn(args, [], deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(setup)
    result = json.loads(output.strip().splitlines()[-1])

    metrics = dict(result["metrics"])
    failed = len(result["failures"])
    attempted = result["attempted"]
    print(f"workload {args.workload}: {WORKLOADS[args.workload].why}")
    kind = "untraced and as many traced" if args.trace else "measured"
    print(f"seed {args.seed} (default {DEFAULT_SEED}), {result['passes']} {kind} "
          f"passes of {result['ops_per_pass']} operations after one warm-up pass")
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    print("median ms per operation: " + ", ".join(
        f"{key} {ms:.1f}" for key, ms in result["op_median_ms"].items()))
    for failure in result["failures"]:
        print("FAILED " + json.dumps(failure))

    if args.trace:
        print("absent layers: " + (", ".join(result["absent"]) or "none"))
        print(f"spans written to {result['spans']}")
        print("self time of " + " + ".join(result["factorization_layers"])
              + " as a share of each operation's traced time: " + ", ".join(
                  f"{op} {100 * share:.0f}%"
                  for op, share in result["factorization_share"].items()))
        units = {name: _layer_unit(name) for name in metrics}
    else:
        metrics["setup_s"] = statistics.median(setups)
        print(f"op_tail_ms is the p{metrics.pop('tail_percentile'):.1f} latency "
              f"of {metrics.pop('samples')} samples; over all of them "
              f"{metrics.pop('all_ops_per_s'):.6g} operations per second, "
              f"median {metrics.pop('all_p50_ms'):.6g} ms; setup_s is the median of "
              + ", ".join(f"{s:.4f}" for s in setups) + " s")
        print(f"measured latencies written to {result['samples']}")
        units = dict(END_TO_END_UNITS)
        print(f"error_rate {failed / attempted:.6g} fraction (failed / attempted = "
              f"{failed} / {attempted})")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def _layer_unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith(".per_pair"):
        return "1/pair"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
