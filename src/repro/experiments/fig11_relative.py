"""Figure 11: relative MPKI improvement w.r.t. a 10-table TAGE.

For every trace, the improvement of (a) a 15-table TAGE and (b) a
10-table BF-TAGE over the 10-table conventional TAGE baseline.  The
paper's claim: on the long-history-sensitive traces (SPEC00/02/03/06/
09/10/15/17, INT1/4/5) the 10-table BF-TAGE closely tracks the 15-table
TAGE; SERV traces suffer from dynamic bias detection; SPEC07/FP2/MM5
lose through the local-history pathology.
"""

from __future__ import annotations

from repro.experiments import common
from repro.experiments.report import format_table, write_report

LONG_HISTORY_TRACES = {
    "SPEC00", "SPEC02", "SPEC03", "SPEC06", "SPEC09", "SPEC10", "SPEC15",
    "SPEC17", "INT1", "INT4", "INT5",
}


def run(args) -> str:
    specs = common.trace_specs(args)
    results = common.run_grid(
        args,
        {
            "ISL-TAGE-10": common.factory(common.isl_tage, 10),
            "ISL-TAGE-15": common.factory(common.isl_tage, 15),
            "BF-ISL-TAGE-10": common.factory(common.bf_isl_tage, 10),
        },
        specs,
    )

    rows = []
    tracked = both = 0
    for i, spec in enumerate(specs):
        base = results["ISL-TAGE-10"][i].mpki
        t15 = results["ISL-TAGE-15"][i].mpki
        bf10 = results["BF-ISL-TAGE-10"][i].mpki
        imp_t15 = 100.0 * (base - t15) / base if base else 0.0
        imp_bf = 100.0 * (base - bf10) / base if base else 0.0
        marker = "*" if spec.name in LONG_HISTORY_TRACES else ""
        rows.append([spec.name + marker, imp_t15, imp_bf, imp_bf - imp_t15])
        if spec.name in LONG_HISTORY_TRACES:
            tracked += 1
            if imp_bf >= imp_t15 - 2.0:  # within 2 points counts as tracking
                both += 1
    summary = (
        f"\n* = long-history-sensitive trace.  BF-TAGE-10 tracks TAGE-15 "
        f"(within 2 points) on {both}/{tracked} of them "
        f"(paper: closely matches on most)"
    )
    return (
        format_table(
            ["trace", "TAGE-15 impr %", "BF-TAGE-10 impr %", "delta"],
            rows,
            title="Figure 11 — Relative MPKI improvement vs 10-table TAGE",
        )
        + summary
    )


def main(argv: list[str] | None = None) -> None:
    parser = common.make_parser(__doc__.splitlines()[0])
    args = parser.parse_args(argv)
    write_report(run(args), args.output)


if __name__ == "__main__":
    main()
