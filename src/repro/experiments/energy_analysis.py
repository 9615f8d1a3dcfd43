"""Energy analysis: table accesses and read energy per prediction.

Not a numbered figure, but the quantified version of the paper's §V /
§VI-C argument: "BF-TAGE demonstrates the potential to closely match the
accuracy of a 15 tagged table TAGE with fewer tables, thus reducing the
power consumption of the predictor even further."

For each 64 KB-class contender this reports accuracy (avg MPKI over the
selected traces) next to the access model of :mod:`repro.sim.energy`:
arrays read per prediction, bits read, and a relative energy proxy.
BF-Neural's weight arrays are gated by the BST, so its access profile is
measured *after* simulation, with the observed non-biased fraction.
"""

from __future__ import annotations

from repro.experiments import common
from repro.experiments.report import format_table, write_report
from repro.sim import aggregate_mpki, simulate
from repro.sim.energy import profile_of


def run(args) -> str:
    specs = common.trace_specs(args)
    # Names match the Figure 8/10 campaigns so cached results are reused.
    factories = {
        "OH-SNAP": common.oh_snap,
        "ISL-TAGE-15": common.factory(common.isl_tage, 15),
        "ISL-TAGE-10": common.factory(common.isl_tage, 10),
        "BF-ISL-TAGE-10": common.factory(common.bf_isl_tage, 10),
        "BF-ISL-TAGE-7": common.factory(common.bf_isl_tage, 7),
        "BF-Neural": common.bf_neural,
    }
    results = common.run_grid(args, factories, specs)

    rows = []
    for name, factory in factories.items():
        predictor = factory()
        if name == "BF-Neural":
            # Warm the BST on the first trace so the gating fraction is
            # representative rather than the cold default.
            first = specs[0].resolve()
            simulate(predictor, first.truncated(min(len(first), 10_000)))
        profile = profile_of(predictor)
        rows.append(
            [
                name,
                aggregate_mpki(results[name]),
                len(profile.arrays),
                round(profile.total_reads, 1),
                round(profile.total_bits_read, 1),
                round(profile.energy_units / 1000, 2),
            ]
        )
    rows.sort(key=lambda row: row[1])
    note = (
        "\nenergy = Σ reads x entry_bits x sqrt(entries), in kilo-units —"
        "\na ranking proxy for SRAM read energy, not a circuit number."
    )
    return (
        format_table(
            ["predictor", "avg MPKI", "arrays", "reads/pred", "bits/pred", "energy (ku)"],
            rows,
            title="Energy analysis — accuracy vs per-prediction access cost",
        )
        + note
    )


def main(argv: list[str] | None = None) -> None:
    parser = common.make_parser(__doc__.splitlines()[0])
    args = parser.parse_args(argv)
    write_report(run(args), args.output)


if __name__ == "__main__":
    main()
