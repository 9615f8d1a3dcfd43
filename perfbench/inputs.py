"""Seeded benchmark inputs, built by the repo's own generator families.

Each workload's traces are a pure function of the benchmark seed and a
branch budget: a multi-program mix of calibrated suite traces (the seed
drives the ``compose_mix`` schedule), a ``sparse`` long-range-correlation
trace and a ``wild`` hard-to-predict trace (the seed drives both
generators).  The program under test only ever sees the generated traces.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

#: Calibrated suite traces interleaved by the mix: one SPEC-like, one
#: integer and one server program, so the mix spans three categories.
MIX_COMPONENTS = ("SPEC03", "INT2", "SERV3")

#: Roles of the three seeded traces, in workload order.
ROLES = ("mix", "sparse", "wild")


def derive_seed(seed: int, role: str) -> int:
    """A per-generator seed, so no two generators share a stream."""
    digest = hashlib.sha256(f"perfbench:{seed}:{role}".encode()).digest()
    return int.from_bytes(digest[:6], "big")


def seeded_traces(seed: int, branches: int, prefix: str) -> list:
    """The mix, sparse and wild traces of exactly ``branches`` events each
    (generators finish their last scene, so they are cut to size)."""
    from repro.workloads import build_trace, compose_mix
    from repro.workloads.registry import generator_families

    families = generator_families()
    components = [build_trace(name, branches) for name in MIX_COMPONENTS]
    traces = [
        compose_mix(f"{prefix}-mix", components, branches, seed=derive_seed(seed, "mix")),
        families["sparse"](f"{prefix}-sparse", derive_seed(seed, "sparse"), branches),
        families["wild"](f"{prefix}-wild", derive_seed(seed, "wild"), branches),
    ]
    return [trace.truncated(branches) for trace in traces]


def write_bfbp(traces, directory: Path) -> list[Path]:
    """Encode each trace as a BFBP v2 file named after it."""
    from repro.trace.io import write_trace

    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for trace in traces:
        path = directory / f"{trace.name}.bfbp"
        write_trace(trace, path)
        paths.append(path)
    return paths


def fingerprints(traces) -> dict[str, str]:
    """``trace_content_fingerprint`` of each trace, by name."""
    from repro.orchestration.fingerprint import trace_content_fingerprint

    return {trace.name: trace_content_fingerprint(trace) for trace in traces}
