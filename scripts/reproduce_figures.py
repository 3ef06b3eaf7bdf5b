"""Regenerate every bundled comparison figure into one directory.

fig2 and fig3 come from the second-order pair, fig4 and fig5 from the
third-order non-minimum-phase pair; each switches after its preset's
run.model_count model iterations (50 and 100). The marker variants fig2/fig4
are rendered with the p-transpose law; the plain comparison variants
fig3/fig5 are rendered once per law.
"""

import argparse

from liftedilc import reproduce_figure, to_db

LAYOUTS = [
    ("fig2", ["p_transpose"]),
    ("fig3", ["p_transpose", "partial_isometry", "norm_optimal"]),
    ("fig4", ["p_transpose"]),
    ("fig5", ["p_transpose", "partial_isometry", "norm_optimal"]),
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output-dir", default="figures")
    args = parser.parse_args()

    for figure_id, law_kinds in LAYOUTS:
        for law_kind in law_kinds:
            artifacts = reproduce_figure(
                figure_id, law_kind, output_dir=args.output_dir
            )
            finals = ", ".join(
                f"{name} {to_db(v):.2f} dB"
                for name, v in artifacts.summary["final_rms"].items()
            )
            print(f"{figure_id} {law_kind}: {artifacts.plot_paths[0]} ({finals})")


if __name__ == "__main__":
    main()
