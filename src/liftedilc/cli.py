"""Command-line front end.

Subcommands: run, figure, advise-switch, check, zeros. Exit codes: 0 on
success, 1 for configuration problems and output that cannot be written, 2
for numerical failures (divergence, rank deficiency, and the like) or failed
self-checks.
"""

import argparse
import sys
from functools import lru_cache

from .config import _parse_candidates, _sampled_plant, load_config
from .engine import to_db
from .errors import ConfigError, LiftedIlcError
from .experiments import FIGURE_IDS, build_experiment, reproduce_figure, run_experiment
from .laws import LAW_KINDS, LearningLaw
from .switching import evaluate_switch

__all__ = ["main"]


def _format_db(rms_value):
    if rms_value <= 0.0:
        return "-inf dB"
    return f"{to_db(rms_value):.2f} dB"


def _print_switch_report(report, out):
    verdict = "switch" if report.recommend_switch else "stay on the model"
    print(
        f"  candidate {report.candidate_n}: model RMS {report.r_model_n:.4e} "
        f"-> {report.r_model_n1:.4e}, world RMS {report.r_world_n:.4e} "
        f"-> {report.r_world_n1:.4e}",
        file=out,
    )
    print(
        f"    jump {report.jump:+.4e}, model slope {report.model_slope:.4e}, "
        f"world slope {report.world_slope:.4e} "
        f"(factor {report.slope_factor:g}) -> {verdict}",
        file=out,
    )


def _cmd_run(args, out):
    config = load_config(args.config)
    artifacts = run_experiment(config)
    summary = artifacts.summary
    print(f"wrote {artifacts.csv_path}", file=out)
    for path in artifacts.plot_paths:
        print(f"wrote {path}", file=out)
    counts = {
        "model": f"{config.model_count} model iterations",
        "world": f"{config.world_count} world iterations",
        "hybrid": (
            f"{config.model_count} model + {config.world_count} world iterations"
        ),
    }[config.mode]
    print(f"mode {config.mode}, law {config.law_kind}, {counts}", file=out)
    for phase, value in summary["final_rms"].items():
        print(f"final {phase} RMS {value:.6e} ({_format_db(value)})", file=out)
    if summary["switch_reports"]:
        print("switch advisor:", file=out)
        for report in summary["switch_reports"]:
            _print_switch_report(report, out)
    for warning in summary["warnings"]:
        print(f"warning: {warning}", file=sys.stderr)
    return 0


def _cmd_figure(args, out):
    artifacts = reproduce_figure(args.fig_id, args.law, args.switch, args.output_dir)
    for path in artifacts.curve_csv_paths.values():
        print(f"wrote {path}", file=out)
    for path in artifacts.plot_paths:
        print(f"wrote {path}", file=out)
    for name, value in artifacts.summary["final_rms"].items():
        print(f"final {name} RMS {value:.6e} ({_format_db(value)})", file=out)
    report = artifacts.summary["switch_report"]
    if report is not None:
        print("switch decision at the marked point:", file=out)
        _print_switch_report(report, out)
    return 0


def _cmd_advise_switch(args, out):
    config = load_config(args.config)
    if args.candidates is not None:
        candidates = _parse_candidates(args.candidates, "--candidates")
    else:
        candidates = config.switch_candidates
    if not candidates:
        raise ConfigError(
            "no candidates: pass --candidates or set switch.candidates"
        )
    world, model, u0, desired = build_experiment(config)
    law = LearningLaw(config.law_kind, config.gain)
    # every candidate is evaluated before anything is printed, so a failing
    # one leaves stdout empty
    reports = evaluate_switch(
        world, model, law, u0, None, candidates, config.slope_factor, desired
    )
    print(
        f"law {config.law_kind}, slope factor {config.slope_factor:g}", file=out
    )
    for report in reports:
        _print_switch_report(report, out)
    return 0


def _cmd_check(args, out):
    from . import selfcheck

    results = selfcheck.run_all()
    for result in results:
        print(selfcheck.format_result(result), file=out)
    failed = sum(1 for r in results if not r.passed)
    print(f"{len(results) - failed}/{len(results)} checks passed", file=out)
    return 0 if failed == 0 else 2


def _cmd_zeros(args, out):
    config = load_config(args.config)
    for role, params in (("model", config.model_params),
                         ("world", config.world_params)):
        plant = _sampled_plant(config.system_kind, params, config.sample_period)
        print(f"{role} plant sampled zeros ({plant.unstable_zero_count} outside "
              "unit circle):", file=out)
        for z in plant.zeros:
            flag = "  outside" if abs(z) > 1.0 else ""
            print(f"  {z.real:+.8f} {z.imag:+.8f}j  modulus {abs(z):.8f}{flag}",
                  file=out)
    print(f"configured deleted rows: {config.deleted_rows}", file=out)
    return 0


@lru_cache(maxsize=None)
def _build_parser():
    """The argument parser, built on the first main call and reused."""
    parser = argparse.ArgumentParser(
        prog="liftedilc",
        description=(
            "Iterative learning control on lifted system models: "
            "config-driven runs, bundled comparison figures, switch advice, "
            "self checks, and sampled-zero reports."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one configured experiment")
    p_run.add_argument("config", help="path to a configuration file")
    p_run.set_defaults(handler=_cmd_run)

    p_fig = sub.add_parser("figure", help="reproduce a bundled figure")
    p_fig.add_argument("fig_id", choices=FIGURE_IDS, metavar="fig-id",
                       help="one of " + ", ".join(FIGURE_IDS))
    p_fig.add_argument("--law", choices=LAW_KINDS, default="p_transpose")
    p_fig.add_argument("--switch", type=int, default=None, metavar="N",
                       help="model iterations before the switch (default: the "
                       "preset's run.model_count, 50 for fig2/fig3 and 100 for "
                       "fig4/fig5)")
    p_fig.add_argument("--output-dir", default=".", metavar="DIR")
    p_fig.set_defaults(handler=_cmd_figure)

    p_adv = sub.add_parser(
        "advise-switch", help="evaluate candidate switch points"
    )
    p_adv.add_argument("config", help="path to a configuration file")
    p_adv.add_argument(
        "--candidates", metavar="N1,N2,...",
        help="comma-separated iteration counts (default: switch.candidates)",
    )
    p_adv.set_defaults(handler=_cmd_advise_switch)

    p_check = sub.add_parser("check", help="run the built-in check suite")
    p_check.set_defaults(handler=_cmd_check)

    p_zeros = sub.add_parser(
        "zeros", help="print sampled zero locations and moduli"
    )
    p_zeros.add_argument("config", help="path to a configuration file")
    p_zeros.set_defaults(handler=_cmd_zeros)
    return parser


def main(argv=None, stdout=None):
    out = stdout if stdout is not None else sys.stdout
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except LiftedIlcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
