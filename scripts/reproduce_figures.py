"""Regenerate every bundled comparison figure into one directory.

fig2 and fig3 come from the second-order pair (switch after 50 model
iterations), fig4 and fig5 from the third-order non-minimum-phase pair
(switch after 100). The marker variants fig2/fig4 are rendered with the
p-transpose law; the plain comparison variants fig3/fig5 are rendered once
per law.
"""

import argparse

from liftedilc import reproduce_figure, to_db

LAYOUTS = [
    ("fig2", ["p_transpose"], 50),
    ("fig3", ["p_transpose", "partial_isometry", "norm_optimal"], 50),
    ("fig4", ["p_transpose"], 100),
    ("fig5", ["p_transpose", "partial_isometry", "norm_optimal"], 100),
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output-dir", default="figures")
    args = parser.parse_args()

    for figure_id, law_kinds, switch_n in LAYOUTS:
        for law_kind in law_kinds:
            artifacts = reproduce_figure(
                figure_id, law_kind, switch_n, args.output_dir
            )
            finals = ", ".join(
                f"{name} {to_db(v):.2f} dB"
                for name, v in artifacts.summary["final_rms"].items()
            )
            print(f"{figure_id} {law_kind}: {artifacts.plot_paths[0]} ({finals})")


if __name__ == "__main__":
    main()
