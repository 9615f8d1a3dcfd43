"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload campaign-paper --seed 1 --seconds 20 --trace 0

``--workload all`` runs ``campaign-paper``, ``campaign-kernel`` and
``serve-mixed`` in turn.  A run sets its inputs up, measures for
``--seconds``, checks every output against the scalar ``simulate()``
oracle and sets up again: ``setup_s`` is the median of the set-ups before
and after.  It prints a report and, as its last line, one JSON object:
the end-to-end metrics, or with ``--trace 1`` the per-layer metrics of a
second, traced measuring phase.
It exits 0 when every output matched, 1 when any did not (or a run
failed), and 2 when the checkout has no source tree to measure.

Every run appends a record (commit, source digest, host fingerprint,
seed, trace sizes and fingerprints, metrics) to
``.perfbench/records.ndjson``; a traced run also writes its spans to
``.perfbench/spans-<run id>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
import uuid
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import host  # noqa: E402
from perfbench.metrics import END_TO_END, LAYERS, per_layer  # noqa: E402
from perfbench.oracle import DEFAULT_SEED  # noqa: E402
from perfbench.stats import latency_summary, median  # noqa: E402
from perfbench.tracer import Tracer, maybe_span  # noqa: E402

WORKLOADS = ("campaign-paper", "campaign-kernel", "serve-mixed")


def make_workload(name: str, seed: int, work: Path, sizes: dict | None = None):
    """The workload object for ``name``; ``sizes`` overrides its spec's
    fields (the benchmark's own tests shrink them)."""
    from dataclasses import replace

    from perfbench import campaigns, serve_mixed

    if name == "serve-mixed":
        return serve_mixed.ServeWorkload(replace(serve_mixed.SERVE, **(sizes or {})), seed, work)
    spec = {"campaign-paper": campaigns.PAPER, "campaign-kernel": campaigns.KERNEL}[name]
    return campaigns.CampaignWorkload(replace(spec, **(sizes or {})), seed, work)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes: dict | None = None) -> dict:
    """Set up, measure and check one workload; returns its record."""
    run_id = f"{name}-s{seed}-{'t' if trace else 'u'}-{uuid.uuid4().hex[:8]}"
    tracer = Tracer(run_id) if trace else None
    workload = make_workload(name, seed, host.WORK / run_id, sizes)
    later = workload.setups // 2
    try:
        setups = [workload.setup(tracer) for _ in range(workload.setups - later)]
        phases = [workload.measure(seconds, None)]
        if tracer is not None:
            phases.append(workload.measure(seconds, tracer))
        with maybe_span(tracer, "bench.check"):
            verdict = workload.check(phases, tracer)
        layers = layer_metrics(workload, phases, tracer) if tracer is not None else {}
        described = workload.describe()
        # Half the set-ups run after the checks, half a minute later: this
        # host's speed drifts over seconds, and set-ups taken back to back
        # would sample a single moment of it.
        setups += [workload.setup(tracer) for _ in range(later)]
    finally:
        workload.close()
    untraced = phases[0]
    attempted = sum(phase.attempted for phase in phases) + verdict.ops
    failed = sum(phase.failed for phase in phases) + verdict.failures
    ops = latency_summary(untraced.op_s)
    details = {
        "failed_share": failed / attempted if attempted else 1.0,
        "op_tail_pct": ops["tail_pct"],
        "op_samples": ops["n"],
        "setup_runs_s": setups,
        "repetition_s": [rep.wall_s for rep in getattr(untraced, "reps", [])],
    }
    latency = getattr(untraced, "latency", None)
    if latency is not None:
        for cls, samples in latency.items():
            summary = latency_summary(samples)
            details[f"batch_p50_ms.{cls}"] = summary["p50"] * 1e3
            details[f"batch_tail_ms.{cls}"] = summary["tail"] * 1e3
            details[f"batch_tail_pct.{cls}"] = summary["tail_pct"]
            details[f"batch_samples.{cls}"] = summary["n"]
    if tracer is None:
        metrics = {
            "setup_s": median(setups),
            "events_per_s": untraced.events_per_s,
            "op_p50_ms": ops["p50"] * 1e3,
            "op_tail_ms": ops["tail"] * 1e3,
            "peak_rss_mb": host.peak_rss_mb(),
        }
        units = END_TO_END
    else:
        metrics = layers
        units = per_layer()
        tracer.dump(host.WORK / f"spans-{run_id}.jsonl")
    return {
        "schema": 1,
        "run_id": run_id,
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "commit": host.commit(),
        "source": host.source_digest(),
        "host": host.host_stamp(),
        **described,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "problems": verdict.problems[:20],
        "details": details,
        "metrics": {key: {"value": metrics.get(key, 0.0), "unit": unit}
                    for key, unit in units.items()},
    }


def layer_metrics(workload, phases, tracer: Tracer) -> dict[str, float]:
    """The workload's per-layer numbers plus tracing overhead and self times."""
    untraced, traced = phases
    metrics = workload.layer_metrics(untraced, traced, tracer)
    metrics["tracing.overhead_share"] = (
        (untraced.events_per_s - traced.events_per_s) / untraced.events_per_s
    )
    self_times = tracer.self_times()
    for layer in LAYERS:
        metrics[f"self_s.{layer}"] = self_times.get(layer, 0.0)
    return metrics


def report(record: dict) -> list[str]:
    """Human-readable lines for one record."""
    stamp = record["host"]
    lines = [
        f"perfbench {record['workload']} seed={record['seed']} seconds={record['seconds']} "
        f"trace={record['trace']} run={record['run_id']}",
        f"  commit {record['commit'][:12]} source {record['source']} host {stamp['fingerprint']} "
        f"({stamp['cpu_model']}, nproc={stamp['nproc']}, python {stamp['python']}, "
        f"numpy {stamp['numpy']})",
    ]
    for name, size in record["trace_sizes"].items():
        lines.append(
            f"  trace {name:14s} {size:7d} events  {record['trace_fingerprints'][name][:16]}"
        )
    for name, metric in record["metrics"].items():
        lines.append(f"  {name:36s} {metric['value']:14.6g} {metric['unit']}")
    details = record["details"]
    lines.append(
        f"  {'failed_share':36s} {details['failed_share']:14.6g} share "
        f"({record['failed']} of {record['attempted']} operations)"
    )
    if not record["trace"]:
        lines.append(
            f"  op_tail_ms is p{details['op_tail_pct']:g} of {details['op_samples']} samples"
        )
        for key in sorted(details):
            if key.startswith("batch_p50_ms."):
                cls = key.split(".", 1)[1]
                lines.append(
                    f"  {'batch_p50_ms.' + cls:36s} {details[key]:14.6g} ms"
                )
                lines.append(
                    f"  {'batch_tail_ms.' + cls:36s} {details['batch_tail_ms.' + cls]:14.6g} ms"
                    f"  (p{details['batch_tail_pct.' + cls]:g} of "
                    f"{details['batch_samples.' + cls]} samples)"
                )
    for problem in record["problems"]:
        lines.append(f"  MISMATCH {problem}")
    verdict = "every output matches the scalar oracle" if record["correct"] else "CHECK FAILED"
    lines.append(f"  {verdict}")
    return lines


def result_line(record: dict) -> str:
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        host.use_source_tree()
    except host.SourceTreeMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for name in names:
        started = time.perf_counter()
        try:
            record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except Exception:
            traceback.print_exc()
            print(f"perfbench: {name} did not complete", file=sys.stderr)
            return 1
        host.WORK.mkdir(parents=True, exist_ok=True)
        with (host.WORK / "records.ndjson").open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        for line in report(record):
            print(line)
        print(f"  run took {time.perf_counter() - started:.1f} s")
        print(result_line(record), flush=True)
        if not record["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
