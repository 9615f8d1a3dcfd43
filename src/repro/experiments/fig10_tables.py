"""Figure 10: average MPKI vs number of tagged tables.

ISL-TAGE and BF-ISL-TAGE are swept from 4 to 10 tagged tables at
matched storage.  The paper's claims: BF-ISL-TAGE is consistently better
for small-to-moderate table counts (e.g. 2.57 vs 2.73 at 7 tables), with
the advantage fading by 10 tables (where the SERV/MM dynamic-detection
pathologies offset the long-history wins).
"""

from __future__ import annotations

from repro.experiments import common
from repro.experiments.report import format_table, write_report
from repro.sim import aggregate_mpki

TABLE_COUNTS = list(range(4, 11))


def run(args) -> str:
    factories = {}
    for count in TABLE_COUNTS:
        factories[f"ISL-TAGE-{count}"] = common.factory(common.isl_tage, count)
        factories[f"BF-ISL-TAGE-{count}"] = common.factory(common.bf_isl_tage, count)
    results = common.run_grid(args, factories, common.trace_specs(args))

    rows = []
    crossover = []
    for count in TABLE_COUNTS:
        isl = aggregate_mpki(results[f"ISL-TAGE-{count}"])
        bf = aggregate_mpki(results[f"BF-ISL-TAGE-{count}"])
        rows.append([count, isl, bf, bf - isl])
        crossover.append(bf < isl)
    better = [str(TABLE_COUNTS[i]) for i, won in enumerate(crossover) if won]
    summary = (
        f"\nBF-ISL-TAGE better at table counts: {', '.join(better) or 'none'} "
        f"(paper: better at 4-9, parity at 10)"
    )
    return (
        format_table(
            ["tables", "ISL-TAGE", "BF-ISL-TAGE", "delta (BF-ISL)"],
            rows,
            title="Figure 10 — Avg MPKI vs number of tagged tables",
        )
        + summary
    )


def main(argv: list[str] | None = None) -> None:
    parser = common.make_parser(__doc__.splitlines()[0])
    args = parser.parse_args(argv)
    write_report(run(args), args.output)


if __name__ == "__main__":
    main()
