"""Warm-up, timed repetitions, determinism check and the traced run.

One *repetition* builds a fresh rack from the seed (timed as set-up),
drives the whole operation stream open loop (timed as the drive), then
checks every returned value (untimed).  The reference kernel is timed
right before and right after each drive, so that each drive's time can
be read against the host's speed at that moment.  Repetitions at one
seed must produce bit-identical simulated output; any difference fails
the run.
"""

from __future__ import annotations

import cProfile
import gc
import json
import pstats
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from layers import LAYERS, count_metrics, self_time_by_layer
from reference import NOMINAL_S, kernel_seconds
from repro.bench.driver import WorkloadStats, run_open_loop
from rigs import OracleError, WorkloadSpec

#: the determinism check compares repetitions, so it needs two
MIN_REPS = 2
#: set-up is short and noisy: take the median of at least this many
MIN_SETUPS = 7
TRACED_REPS = 2
#: reference-kernel passes on each side of a drive
REFERENCE_PASSES = 3


@dataclass
class Rep:
    setup_s: float
    drive_s: float
    #: median time of the reference kernel's passes just before and
    #: just after the drive
    reference_s: float
    requests: int
    attempted: int
    failed: int
    #: False when a value disagreed with the oracle or could not be
    #: matched to its operation
    values_ok: bool
    p50_ns: float
    p99_ns: float
    #: the rack's ``metrics_snapshot()`` at the end of the drive
    snapshot: dict
    batch_lanes: int
    #: everything simulated, serialised exactly (floats by repr)
    signature: str
    profile: Optional[dict] = field(default=None, repr=False)


def _signature(stats: WorkloadStats) -> str:
    return json.dumps({
        "completed": stats.completed,
        "faults": stats.faults,
        "lost": stats.lost,
        "duration_ns": stats.duration_ns,
        "latencies_ns": stats.latencies_ns,
        "results": [(repr(r.value), r.iterations, r.hops, r.ok)
                    for r in stats.results],
        "metrics": stats.metrics,
    }, sort_keys=True)


def run_rep(spec: WorkloadSpec, seed: int, requests: int,
            traced: bool = False) -> Rep:
    """Build, drive and check once.

    Only summaries are kept, so the results of earlier repetitions do
    not grow the heap the next drive's garbage collector walks.
    """
    gc.collect()
    start = time.perf_counter()
    rig = spec.build(seed, requests)
    setup_s = time.perf_counter() - start
    # Garbage left by the build is collected here, not inside the drive.
    gc.collect()
    reference = _reference_passes()
    profiler = cProfile.Profile() if traced else None
    start = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    stats = run_open_loop(rig.cluster, rig.operations,
                          rig.offered_load_per_s, seed=rig.arrival_seed,
                          burst=rig.burst)
    if profiler is not None:
        profiler.disable()
    drive_s = time.perf_counter() - start
    reference_s = statistics.median(reference + _reference_passes())
    try:
        wrong, extra = rig.check(stats)
        values_ok = wrong == 0
    except OracleError:
        wrong, extra, values_ok = 0, 0, False
    return Rep(
        setup_s=setup_s, drive_s=drive_s, reference_s=reference_s,
        requests=len(rig.operations),
        attempted=len(rig.operations) + extra,
        failed=stats.faults + stats.lost + wrong, values_ok=values_ok,
        p50_ns=stats.percentile_latency_ns(50),
        p99_ns=stats.percentile_latency_ns(99),
        snapshot=stats.metrics,
        batch_lanes=rig.cluster.accelerators[0].batch_lanes,
        signature=_signature(stats),
        profile=(pstats.Stats(profiler).stats if traced else None))


def _reference_passes() -> List[float]:
    return [kernel_seconds() for _ in range(REFERENCE_PASSES)]


def in_reference_seconds(host_s: float, reference_s: float) -> float:
    """``host_s`` scaled to the host speed the reference kernel was
    calibrated at, given that the kernel took ``reference_s`` beside
    it."""
    return host_s * NOMINAL_S / reference_s


def req_per_ref_s(rep: Rep) -> float:
    """Requests per reference second of the drive."""
    return rep.requests / in_reference_seconds(rep.drive_s,
                                               rep.reference_s)


def setup_ref_s(spec: WorkloadSpec, seed: int) -> float:
    """One build alone, in reference seconds."""
    gc.collect()
    start = time.perf_counter()
    spec.build(seed, spec.requests)
    setup_s = time.perf_counter() - start
    return in_reference_seconds(setup_s,
                                statistics.median(_reference_passes()))


@dataclass
class Outcome:
    """What one benchmark run prints."""

    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, float]
    #: why ``correct`` is False (empty when it is True)
    problems: List[str]
    reps: List[Rep]


def _verdict(warmup: Rep, reps: List[Rep]) -> tuple:
    problems = []
    if not all(rep.values_ok for rep in [warmup] + reps):
        problems.append("returned values disagree with the oracle")
    if any(rep.signature != reps[0].signature for rep in reps):
        problems.append("simulated output differs between repetitions "
                        "at one seed")
    attempted = sum(rep.attempted for rep in [warmup] + reps)
    failed = sum(rep.failed for rep in [warmup] + reps)
    return problems, attempted, failed


def _repeat(spec: WorkloadSpec, seed: int, seconds: float,
            min_reps: int) -> List[Rep]:
    reps: List[Rep] = []
    start = time.perf_counter()
    while len(reps) < min_reps or time.perf_counter() - start < seconds:
        reps.append(run_rep(spec, seed, spec.requests))
    return reps


def measure_end_to_end(spec: WorkloadSpec, seed: int,
                       seconds: float) -> Outcome:
    """Untraced run: warm-up, then repetitions for ``seconds``."""
    warmup = run_rep(spec, seed, spec.latency_requests)
    reps = _repeat(spec, seed, seconds, MIN_REPS)
    setups = [in_reference_seconds(rep.setup_s, rep.reference_s)
              for rep in reps]
    while len(setups) < MIN_SETUPS:
        setups.append(setup_ref_s(spec, seed))
    problems, attempted, failed = _verdict(warmup, reps)
    metrics = {
        "req_per_ref_s": statistics.median(req_per_ref_s(rep)
                                           for rep in reps),
        "req_per_s": statistics.median(rep.requests / rep.drive_s
                                       for rep in reps),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_p50_us": warmup.p50_ns / 1e3,
        "sim_p99_us": warmup.p99_ns / 1e3,
        "error_rate": failed / attempted,
    }
    return Outcome(not problems, attempted, failed, metrics, problems,
                   reps)


def measure_layers(spec: WorkloadSpec, seed: int, seconds: float,
                   package_dir: str) -> Outcome:
    """Traced run: untraced repetitions for a quarter of ``seconds``
    give the reference drive time, then :data:`TRACED_REPS` repetitions
    run under ``cProfile`` (each several times slower)."""
    warmup = run_rep(spec, seed, spec.latency_requests)
    plain = _repeat(spec, seed, seconds / 4, 1)
    traced = [run_rep(spec, seed, spec.requests, traced=True)
              for _ in range(TRACED_REPS)]
    problems, attempted, failed = _verdict(warmup, plain + traced)
    counts = [count_metrics(rep.profile, rep.snapshot, rep.requests,
                            rep.batch_lanes, package_dir)
              for rep in traced]
    if any(c != counts[0] for c in counts):
        problems.append("per-layer counts differ between traced "
                        "repetitions at one seed")
    metrics = dict(counts[0])
    plain_s = statistics.median(in_reference_seconds(rep.drive_s,
                                                     rep.reference_s)
                                for rep in plain)
    traced_s = statistics.median(in_reference_seconds(rep.drive_s,
                                                      rep.reference_s)
                                 for rep in traced)
    events = metrics["sim.events_per_req"] * traced[0].requests
    metrics["sim.host_ns_per_event"] = plain_s / events * 1e9
    metrics["bench.tracing_overhead"] = traced_s / plain_s
    self_time = self_time_by_layer((rep.profile for rep in traced),
                                   package_dir)
    total = sum(self_time.values())
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = self_time[layer] / total
    return Outcome(not problems, attempted, failed, metrics, problems,
                   plain + traced)
