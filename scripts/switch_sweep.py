"""Sweep candidate switch points on the second-order pair.

For each candidate n the switch advisor reports the four decision RMS
values; the table also shows where a hybrid run that switches at n ends up
after a fixed hardware budget, which is the quantity the advisor is trying
to optimize indirectly. Larger n means more free model iterations but also
more time spent converging toward the wrong (model) fixed point.
"""

import argparse

from liftedilc import (
    LAW_KINDS,
    LearningLaw,
    bundled_experiment,
    evaluate_switch,
    run_hybrid,
    to_db,
)


def _at_least(minimum):
    """An argparse type: an integer no smaller than `minimum`."""

    def integer(text):
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return integer


def _candidates(text):
    """An argparse type: comma-separated switch points, each at least 1."""
    return [_at_least(1)(item) for item in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--law", default="p_transpose", choices=LAW_KINDS)
    parser.add_argument("--budget", type=_at_least(0), default=10,
                        help="hardware iterations after the switch")
    parser.add_argument("--candidates", type=_candidates,
                        default="5,10,25,50,100,200")
    args = parser.parse_args()

    _, (world, model, u0, desired) = bundled_experiment("second_order")
    law = LearningLaw(args.law, 1.0)
    print(f"law {args.law}, hardware budget {args.budget}")
    print("     n   R_M,n      jump       model slope  world slope  "
          "final dB  advice")
    reports = evaluate_switch(
        world, model, law, u0, None, args.candidates, 1.0, desired
    )
    for n, report in zip(args.candidates, reports):
        hybrid = run_hybrid(world, model, law, u0, None, n, args.budget, desired)
        final_db = to_db(hybrid[-1].rms)
        advice = "switch" if report.recommend_switch else "stay"
        print(
            f"  {n:4d}   {report.r_model_n:.4f}     {report.jump:+.4f}    "
            f"{report.model_slope:11.6f}  {report.world_slope:11.6f}  "
            f"{final_db:8.2f}  {advice}"
        )


if __name__ == "__main__":
    main()
