"""Figure 9: contribution of each BF-Neural optimization.

Four configurations per trace, mirroring the paper's bars:

1. a conventional hashed perceptron with history length 72,
2. BF-Neural (fhist): BST detection keeps biased branches out of the
   weight tables, but the history register still records every branch,
3. BF-Neural (ghist bias-free + fhist): biased branches filtered from
   the history as well,
4. BF-Neural (ghist bias-free + RS + fhist): recency-stack management.

The paper's averages fall 3.28 -> 2.67 -> 2.59 -> 2.49; the reproduced
claim is the monotone decrease with the biggest step at stage 2 and the
RS step mattering most on the low-bias, repetition-heavy traces
(SPEC03/14/18).
"""

from __future__ import annotations

from repro.experiments import common
from repro.experiments.report import format_table, write_report
from repro.sim import aggregate_mpki

STAGES = [
    "Conventional Perceptron",
    "BF-Neural (fhist)",
    "BF-Neural (ghist bias-free + fhist)",
    "BF-Neural (ghist bias-free + RS + fhist)",
]


def run(args) -> str:
    specs = common.trace_specs(args)
    results = common.run_grid(
        args,
        {
            STAGES[0]: common.conventional_perceptron_72,
            STAGES[1]: common.factory(common.bf_neural_stage, 1),
            STAGES[2]: common.factory(common.bf_neural_stage, 2),
            STAGES[3]: common.factory(common.bf_neural_stage, 3),
        },
        specs,
    )

    headers = ["trace"] + [f"stage{i}" for i in range(len(STAGES))]
    rows = []
    for i, spec in enumerate(specs):
        rows.append([spec.name] + [results[name][i].mpki for name in STAGES])
    averages = [aggregate_mpki(results[name]) for name in STAGES]
    rows.append(["Avg."] + averages)

    legend = "\n".join(f"stage{i}: {name}" for i, name in enumerate(STAGES))
    arrow = " -> ".join(f"{avg:.3f}" for avg in averages)
    return (
        format_table(headers, rows, title="Figure 9 — BF-Neural optimization breakdown")
        + f"\n\n{legend}\n\naverage MPKI: {arrow} (paper: 3.28 -> 2.67 -> 2.59 -> 2.49)"
    )


def main(argv: list[str] | None = None) -> None:
    parser = common.make_parser(__doc__.splitlines()[0])
    args = parser.parse_args(argv)
    write_report(run(args), args.output)


if __name__ == "__main__":
    main()
