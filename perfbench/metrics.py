"""Metric names and units, and the per-layer metrics of one traced pass.

``END_TO_END`` are measured with tracing off; ``PER_LAYER`` come from the
traced passes only.  BENCHMARK.json lists the same names.
"""

from __future__ import annotations

from tracer import ROOT

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

# Span keys whose call count and self time are reported as <key>_calls, <key>_s.
_TIMED = (
    "lattice.build", "operators.symbol", "operators.apply", "operators.dense",
    "fields.sample", "fields.sqrt", "posterior.map", "posterior.posterior",
    "posterior.cov", "posterior.pcg", "numpy.fft",
)

PER_LAYER = {
    **{f"{key}_{kind}": unit for key in _TIMED
       for kind, unit in (("calls", "count"), ("s", "s"))},
    "posterior.pcg_iters": "count",
    "posterior.pcg_iters_spread": "count",
    "posterior.solver_errors": "count",
    "experiments.self_s": "s",
    "experiments.dropped": "count",
    "config.load_s": "s",
    "cli.self_s": "s",
    "numpy.fft_points": "count",
    "numpy.fft_gflop": "Gflop",
    "numpy.fft_gb": "GB",
    "process.cpu_s": "s",
    "process.cpu_util": "ratio",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead": "ratio",
}

# The per-layer metrics computed from each span key.  When a target that feeds
# a key is not found (renamed or removed), these metrics are reported absent
# rather than as 0 calls and 0 s.
FED_BY = {key: (f"{key}_calls", f"{key}_s") for key in _TIMED}
FED_BY["posterior.pcg"] += ("posterior.pcg_iters", "posterior.pcg_iters_spread")
FED_BY["posterior.map"] += ("posterior.solver_errors",)
FED_BY["numpy.fft"] += ("numpy.fft_points", "numpy.fft_gflop", "numpy.fft_gb")
FED_BY["experiments"] = ("experiments.self_s", "experiments.dropped")
FED_BY["config.load"] = ("config.load_s",)
FED_BY["cli"] = ("cli.self_s",)

# Per-layer metrics that are better when higher; every other one is better lower.
HIGHER_IS_BETTER = ("process.cpu_util",)


def layer_metrics(summary: dict, wall_s: float, cpu_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass from :func:`tracer.summarize` output."""

    def get(key, field):
        return summary.get(key, {}).get(field, 0)

    out = {}
    for key in _TIMED:
        out[f"{key}_calls"] = get(key, "calls")
        out[f"{key}_s"] = get(key, "self_s")
    out.update({
        "posterior.pcg_iters": get("posterior.pcg", "iters"),
        "posterior.solver_errors": get("posterior.map", "errors"),
        "experiments.self_s": get("experiments", "self_s"),
        "experiments.dropped": get("experiments", "dropped"),
        "config.load_s": get("config.load", "self_s"),
        "cli.self_s": get("cli", "self_s"),
        "numpy.fft_points": get("numpy.fft", "points"),
        "numpy.fft_gflop": get("numpy.fft", "flop") / 1e9,
        "numpy.fft_gb": get("numpy.fft", "bytes") / 1e9,
        "process.cpu_s": cpu_s,
        "process.cpu_util": cpu_s / wall_s,
        "trace.wall_s": wall_s,
        "trace.unattributed_s": get(ROOT, "self_s"),
    })
    return out
