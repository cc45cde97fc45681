"""Per-layer numbers for the traced run.

Two sources, neither of which changes the simulator's code:

* the public ``cluster.metrics_snapshot()`` registry (simulated counts,
  utilizations and stage means), and
* a ``cProfile`` pass around the timed drive, whose self time is
  summed per layer (``repro`` subpackage or module) and whose call
  counts of named entry points give host-independent work counts.

Every profiled function falls in exactly one layer, so the
``*.self_share`` metrics sum to 1.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Tuple

#: modules that form a layer of their own inside a larger subpackage
MODULE_LAYERS = {
    "sim/network.py": "sim.network",
    "core/switch.py": "core.switch",
    "core/client.py": "core.client",
    "core/offload.py": "core.client",
    "core/accelerator.py": "core.accelerator",
    "core/scheduling.py": "core.accelerator",
    "core/workspace.py": "core.accelerator",
    "isa/batchmachine.py": "isa.batch",
}

#: every other module of a subpackage falls in the subpackage's layer
PACKAGE_LAYERS = {
    "sim": "sim",
    "core": "core.other",
    "isa": "isa.scalar",
    "mem": "mem",
    "placement": "placement",
    "index": "index",
    "durability": "durability",
    "transport": "transport",
    "obs": "obs",
    "structures": "structures",
    "bench": "bench",
}

#: ``builtins`` is C code called from Python (heapq, dict, numpy ufuncs);
#: ``lib`` is Python code outside ``repro`` (stdlib, numpy wrappers);
#: ``other`` is the rest of ``repro`` (workloads, params, shard, ...)
LAYERS = ("sim", "sim.network", "core.switch", "core.client",
          "core.accelerator", "core.other", "isa.scalar", "isa.batch",
          "mem", "placement", "index", "durability", "transport", "obs",
          "structures", "bench", "builtins", "lib", "other")

#: compiled ISA kernels are exec'd under this pseudo-filename prefix
KERNEL_FILE_PREFIX = "<pulse-kernel:"

#: named public entry points whose call counts are work counts:
#: metric stem -> [(module path under repro/, function name)]
ENTRY_POINTS = {
    "sim.events": [("sim/engine.py", "step")],
    "sim.resource_requests": [("sim/resources.py", "request")],
    "sim.network.sends": [("sim/network.py", "send")],
    "isa.scalar.iterations": [("isa/interpreter.py", "run_iteration")],
    "placement.samples": [("placement/hotness.py", "sample"),
                          ("placement/hotness.py", "sample_many")],
    "obs.calls": [("obs/metrics.py", "inc"), ("obs/metrics.py", "record"),
                  ("obs/metrics.py", "set")],
}

#: accelerator pipeline stages with a ``mem<i>.acc.span.<stage>``
#: histogram
SPAN_STAGES = ("netstack", "scheduler", "memory", "logic")

ProfileKey = Tuple[str, int, str]


def _module_path(filename: str, package_dir: str):
    """``filename`` relative to the ``repro`` package, or None."""
    prefix = package_dir + os.sep
    if not filename.startswith(prefix):
        return None
    return filename[len(prefix):].replace(os.sep, "/")


def layer_of(filename: str, package_dir: str) -> str:
    if filename == "~":
        return "builtins"
    if filename.startswith(KERNEL_FILE_PREFIX):
        return "isa.scalar"
    module = _module_path(filename, package_dir)
    if module is None:
        return "lib"
    if module in MODULE_LAYERS:
        return MODULE_LAYERS[module]
    return PACKAGE_LAYERS.get(module.split("/", 1)[0], "other")


def self_time_by_layer(profiles: Iterable[Dict[ProfileKey, tuple]],
                       package_dir: str) -> Dict[str, float]:
    """Sum profiled self time (``tottime``) per layer over ``profiles``."""
    totals = {layer: 0.0 for layer in LAYERS}
    for stats in profiles:
        for (filename, _line, _name), row in stats.items():
            totals[layer_of(filename, package_dir)] += row[2]
    return totals


def entry_point_calls(stats: Dict[ProfileKey, tuple],
                      package_dir: str) -> Dict[str, int]:
    """Total call counts of each :data:`ENTRY_POINTS` group."""
    wanted = {}
    for stem, points in ENTRY_POINTS.items():
        for point in points:
            wanted[point] = stem
    calls = {stem: 0 for stem in ENTRY_POINTS}
    for (filename, _line, name), row in stats.items():
        module = _module_path(filename, package_dir)
        stem = wanted.get((module, name))
        if stem is not None:
            calls[stem] += row[1]
    return calls


def _sum_matching(section: Dict[str, float], prefix: str,
                  suffix: str) -> float:
    return sum(value for name, value in section.items()
               if name.startswith(prefix) and name.endswith(suffix))


def _node_histograms(histograms: Dict[str, dict], suffix: str
                     ) -> List[dict]:
    return [h for name, h in histograms.items()
            if name.startswith("mem") and name.endswith(suffix)]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def snapshot_metrics(snapshot: dict, requests: int,
                     batch_lanes: int) -> Dict[str, float]:
    """Simulated per-layer numbers from one drive's metrics snapshot."""
    counters = snapshot["counters"]
    gauges = snapshot["gauges"]
    histograms = snapshot["histograms"]

    def acc_counter(suffix: str) -> float:
        return _sum_matching(counters, "mem", f".acc.{suffix}")

    metrics = {
        "core.switch.reroutes_per_req": _ratio(
            counters.get("switch.rerouted_node_to_node", 0), requests),
        "core.client.batch_flushes_per_req": _ratio(
            _sum_matching(counters, "client", ".client.batch_flushes"),
            requests),
        "core.accelerator.iterations_per_req": _ratio(
            acc_counter("iterations"), requests),
        "core.accelerator.admission_nacks": acc_counter("admission_nacks"),
        "isa.batch.steps_per_req": _ratio(acc_counter("batch.steps"),
                                          requests),
        "isa.batch.demotions": acc_counter("batch.demotions"),
        "mem.tlb_hit_ratio": _ratio(
            acc_counter("tlb.hits"),
            acc_counter("tlb.hits") + acc_counter("tlb.misses")),
        "index.hit_ratio": _ratio(
            counters.get("index.hits", 0),
            counters.get("index.hits", 0)
            + counters.get("index.misses", 0)),
        "durability.records_per_req": _ratio(
            _sum_matching(counters, "mem", ".dur.records"), requests),
        "durability.records_per_flush": _ratio(
            _sum_matching(counters, "mem", ".dur.records"),
            _sum_matching(counters, "mem", ".dur.flushes")),
        "transport.retransmits": (
            _sum_matching(counters, "", ".tp.retransmits")
            + _sum_matching(counters, "client", ".client.retransmissions")),
    }
    utilizations = [value for name, value in gauges.items()
                    if name.startswith("mem")
                    and name.endswith(".acc.memory_pipeline_utilization")]
    metrics["core.accelerator.mem_pipeline_util"] = _ratio(
        sum(utilizations), len(utilizations))
    lanes = _node_histograms(histograms, ".acc.batch.lanes_active")
    metrics["isa.batch.lane_fill"] = _ratio(
        sum(h["sum"] for h in lanes),
        sum(h["count"] for h in lanes) * batch_lanes)
    for stage in SPAN_STAGES:
        spans = _node_histograms(histograms, f".acc.span.{stage}")
        metrics[f"core.accelerator.span.{stage}_mean_ns"] = _ratio(
            sum(h["sum"] for h in spans), sum(h["count"] for h in spans))
    return metrics


def count_metrics(profile: Dict[ProfileKey, tuple], snapshot: dict,
                  requests: int, batch_lanes: int,
                  package_dir: str) -> Dict[str, float]:
    """Every host-independent per-layer number of one traced drive."""
    calls = entry_point_calls(profile, package_dir)
    metrics = {f"{stem}_per_req": calls[stem] / requests
               for stem in ENTRY_POINTS}
    metrics.update(snapshot_metrics(snapshot, requests, batch_lanes))
    return metrics
