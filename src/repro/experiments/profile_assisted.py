"""Static profile-assisted classification vs dynamic detection (§VI-D).

The paper reports that SERV traces "suffer significantly from the
dynamic detection of non-biased branches", and that replacing the BST
with a static profile-assisted classification improves SERV3 from 2.62
to 2.44 MPKI in the 10-table BF-TAGE (with FP1 and MM5 also recovering).

This experiment runs BF-ISL-TAGE-10 twice on the affected traces — once
with the runtime BST, once with a whole-trace profiling oracle — and
reports the per-trace recovery.
"""

from __future__ import annotations

from repro.core.bfneural_ideal import oracle_from_trace
from repro.core.bftage import BFTage, BFTageConfig
from repro.experiments import common
from repro.experiments.report import format_table, write_report
from repro.predictors.tage.isl import ISLTage
from repro.sim.batchkernel import simulate_batch

#: Traces §VI-D singles out as hurt by dynamic detection.
AFFECTED_TRACES = ["SERV1", "SERV2", "SERV3", "SERV4", "SERV5", "FP1", "MM5"]


def _bf_isl(oracle=None) -> ISLTage:
    return ISLTage(core=BFTage(BFTageConfig.for_tables(10), bias_oracle=oracle))


def run(args) -> str:
    if args.traces is None:
        args.traces = list(AFFECTED_TRACES)
    traces = common.load_traces(args)
    rows = []
    recovered = 0
    for trace in traces:
        dynamic = simulate_batch(_bf_isl(), trace, kernel="auto")
        # A bias oracle keeps BF-TAGE off the kernel: this run stays scalar.
        oracle = simulate_batch(_bf_isl(oracle_from_trace(trace)), trace, kernel="auto")
        improvement = dynamic.mpki - oracle.mpki
        if improvement > 0:
            recovered += 1
        rows.append([trace.name, dynamic.mpki, oracle.mpki, improvement])
    summary = (
        f"\nprofile-assisted classification improves {recovered}/{len(traces)} "
        f"affected traces (paper: SERV3 2.62 -> 2.44; FP1/MM5 also recover)"
    )
    return (
        format_table(
            ["trace", "dynamic BST MPKI", "profile oracle MPKI", "recovery"],
            rows,
            title="§VI-D — dynamic detection vs static profile-assisted "
            "classification (BF-ISL-TAGE-10)",
        )
        + summary
    )


def main(argv: list[str] | None = None) -> None:
    parser = common.make_parser(__doc__.splitlines()[0])
    args = parser.parse_args(argv)
    write_report(run(args), args.output)


if __name__ == "__main__":
    main()
