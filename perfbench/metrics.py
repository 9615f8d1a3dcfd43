"""Names and units of every metric the benchmark prints.

``BENCHMARK.json`` declares the same names; ``perfbench/tests/test_metrics.py``
keeps the two in step.  A traced run prints every per-layer metric; a
layer that the workload does not exercise reads 0.
"""

from __future__ import annotations

#: End-to-end metrics, printed by every untraced run.
END_TO_END = {
    "setup_s": "s",
    "events_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Predictors the oracle replays on some workload.
SCALAR_CONFIGS = (
    "bf-tage10", "tage10", "isl-tage10", "bf-neural", "oh-snap",
    "bimodal", "gshare", "perceptron",
)
#: Predictors with a vectorized kernel.
KERNEL_CONFIGS = ("bimodal", "gshare", "perceptron", "bf-neural")
#: Predictor classes the serving workload streams.
SERVE_CLASSES = ("gshare", "tage10", "bf-neural")
#: Span layers whose self time the traced run reports.
LAYERS = (
    "bench", "workloads", "trace", "engine", "scheduler", "store",
    "sim", "kernel", "predictor", "client", "remote",
)


def per_layer() -> dict[str, str]:
    """Every per-layer metric, in print order, with its unit."""
    units = {
        "workloads.generate_s": "s",
        "trace.encode_s": "s",
        "trace.decode_s": "s",
        "trace.bytes_per_event": "B",
    }
    for cfg in SCALAR_CONFIGS:
        units[f"predictor.predict_s.{cfg}"] = "s"
        units[f"predictor.train_s.{cfg}"] = "s"
        units[f"sim.events_per_s.{cfg}"] = "1/s"
    for cfg in KERNEL_CONFIGS:
        units[f"kernel.plan_build_s.{cfg}"] = "s"
        units[f"kernel.replay_s.{cfg}"] = "s"
    units.update({
        "campaign.plan_s": "s",
        "campaign.task_s.max": "s",
        "campaign.busy_share": "share",
        "campaign.retries": "count",
        "store.write_s": "s",
    })
    for cls in SERVE_CLASSES:
        for name in ("batch_p50_ms", "batch_tail_ms", "send_ms", "turnaround_ms",
                     "offline_predict_ms"):
            units[f"serve.{name}.{cls}"] = "ms"
        units[f"predictor.state_hash_ms.{cls}"] = "ms"
    units.update({
        "serve.bytes_per_event": "B",
        "serve.open_ms.warm": "ms",
        "serve.open_ms.cold": "ms",
        "serve.close_ms": "ms",
        "pool.hydrations": "count",
        "pool.hit_ratio": "share",
        "tracing.overhead_share": "share",
    })
    for layer in LAYERS:
        units[f"self_s.{layer}"] = "s"
    return units
