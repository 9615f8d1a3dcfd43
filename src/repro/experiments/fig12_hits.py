"""Figure 12: per-table branch-hit histograms, TAGE vs BF-TAGE.

For the traces where a 10-table BF-TAGE matches a 15-table TAGE, the
paper plots the percentage of predictions provided by each tagged table.
The reproduced claim: BF-TAGE shifts the distribution from
longer-history tables toward shorter-history tables — the same deep
context is reachable at a smaller table number once the history is
compressed.
"""

from __future__ import annotations

from repro.experiments import common
from repro.experiments.report import format_table, write_report

#: The traces Figure 12 plots.
FIG12_TRACES = ["SPEC00", "SPEC02", "SPEC03", "SPEC06", "SPEC09", "SPEC15", "SPEC17"]


def _hit_percentages(result, num_tables: int) -> list[float]:
    total = result.branches
    return [
        100.0 * result.provider_hits.get(f"T{i}", 0) / total
        for i in range(1, num_tables + 1)
    ]


def _mean_table(percentages: list[float]) -> float:
    """Average provider table number, weighted by hit share."""
    weight = sum(percentages)
    if weight == 0:
        return 0.0
    return sum((i + 1) * p for i, p in enumerate(percentages)) / weight


def run(args) -> str:
    if args.traces is None:
        args.traces = list(FIG12_TRACES)
    specs = common.trace_specs(args)
    results = common.run_grid(
        args,
        {
            "ISL-TAGE-15": common.factory(common.isl_tage, 15),
            "BF-ISL-TAGE-10": common.factory(common.bf_isl_tage, 10),
        },
        specs,
        track_providers=True,
    )

    sections = []
    shifted = 0
    for i, spec in enumerate(specs):
        tage_pct = _hit_percentages(results["ISL-TAGE-15"][i], 15)
        bf_pct = _hit_percentages(results["BF-ISL-TAGE-10"][i], 10)
        rows = []
        for t in range(15):
            rows.append(
                [
                    t + 1,
                    tage_pct[t],
                    bf_pct[t] if t < 10 else "",
                ]
            )
        mean_tage = _mean_table(tage_pct)
        mean_bf = _mean_table(bf_pct)
        if mean_bf < mean_tage:
            shifted += 1
        sections.append(
            format_table(
                ["table", "TAGE-15 %hits", "BF-TAGE-10 %hits"],
                rows,
                title=f"-- {spec.name} (mean provider table: TAGE {mean_tage:.2f}, "
                f"BF {mean_bf:.2f})",
            )
        )
    summary = (
        f"\nBF-TAGE's hit distribution sits at a lower mean table on "
        f"{shifted}/{len(specs)} traces (paper: shift from longer- to "
        f"shorter-history tables on all plotted traces)"
    )
    return (
        "Figure 12 — Distribution of predictions across tagged tables\n\n"
        + "\n\n".join(sections)
        + summary
    )


def main(argv: list[str] | None = None) -> None:
    parser = common.make_parser(__doc__.splitlines()[0])
    args = parser.parse_args(argv)
    write_report(run(args), args.output)


if __name__ == "__main__":
    main()
