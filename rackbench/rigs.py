"""The three benchmark workloads and their output oracles.

Each workload builds a fresh simulated rack from a seed, hands the
simulator only the generated operation stream, and checks every value
the rack returns against an answer computed outside the simulator.

* ``tsv-rack`` -- the paper's TSV-7.5s windowed aggregation on a 4-node
  rack, interleaved B+Tree, burst 1: every request runs the scalar ISA
  tier and crosses memory nodes through the switch.
* ``batch-mix`` -- deep linked-list finds plus B+Tree lookups on one
  node, arriving in doorbell bursts of 64 that the accelerator steps in
  32-lane batch machines.
* ``kv-durable`` -- a 4-node partitioned hash table with a primed split
  index and replicated redo logging: mostly one-RTT direct reads beside
  journaled in-place updates.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

from repro.bench.driver import WorkloadStats, run_workload
from repro.core import PulseCluster
from repro.params import DurabilityParams, MemoryParams, SystemParams
from repro.structures import BPlusTree, HashTable, LinkedList
from repro.workloads import build_tsv


@dataclass
class Rig:
    """One built rack plus the operations to drive through it."""

    cluster: PulseCluster
    operations: List[Tuple[Any, tuple]]
    offered_load_per_s: float
    burst: int
    #: seed of the Poisson arrival schedule
    arrival_seed: int
    #: ``check(stats) -> (wrong_values, extra_requests)``: count the
    #: returned values that disagree with the oracle; ``extra_requests``
    #: counts any read-back traversals the check itself issued
    check: Callable[[WorkloadStats], Tuple[int, int]]


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    #: operations in one timed drive, sized so that a run holds a dozen
    #: or more drives to take the median of
    requests: int
    #: operations in the untimed warm-up drive, which also gives the
    #: simulated latency percentiles (>= 1000 so p99 has ten samples
    #: beyond it)
    latency_requests: int
    build: Callable[[int, int], Rig]


def _aligned(stats: WorkloadStats, expected_count: int) -> None:
    """Results are positional; a lost request would shift every index."""
    if len(stats.results) != expected_count:
        raise OracleError(
            f"{expected_count - len(stats.results)} requests returned no "
            "result; values cannot be matched to their operations")


class OracleError(Exception):
    """The returned values could not be checked against the oracle."""


#: simulated DRAM per memory node.  The structures use a few MB of it;
#: the default 64 MB per node made every build allocate and zero up to
#: 256 MB of host memory.  The simulated results are the same.
NODE_CAPACITY_BYTES = 8 << 20


def _params(**sections) -> SystemParams:
    return SystemParams().with_overrides(
        memory=MemoryParams(node_capacity_bytes=NODE_CAPACITY_BYTES),
        **sections)


def _prime(cluster: PulseCluster, *iterators) -> None:
    """Run each client's offload analysis of every program now.

    A client analyses a program on its first request and caches the
    verdict; a rack that serves for long pays that once.  Done here, it
    is timed as set-up, not as part of the first drive's requests.
    """
    for engine in cluster.engines:
        for iterator in iterators:
            engine.decide(iterator.program)


# ---------------------------------------------------------------------------
# tsv-rack
# ---------------------------------------------------------------------------
TSV_NODES = 4
TSV_WINDOW_S = 7.5
TSV_LOAD_PER_S = 1e6


def _tsv_matches(expected, value) -> bool:
    if expected is None:
        return value is None
    return value is not None and math.isclose(value, expected,
                                              rel_tol=1e-6, abs_tol=1e-12)


def build_tsv_rack(seed: int, requests: int) -> Rig:
    cluster = PulseCluster(node_count=TSV_NODES, params=_params(),
                           seed=seed)
    workload = build_tsv(cluster.memory, TSV_NODES, window_s=TSV_WINDOW_S,
                         requests=requests, seed=seed)
    _prime(cluster, *dict.fromkeys(it for it, _ in workload.operations))

    def check(stats: WorkloadStats) -> Tuple[int, int]:
        _aligned(stats, requests)
        wrong = sum(1 for index, result in enumerate(stats.results)
                    if result.ok and not _tsv_matches(
                        workload.expected_value(index), result.value))
        return wrong, 0

    return Rig(cluster, workload.operations, TSV_LOAD_PER_S, 1, seed,
               check)


# ---------------------------------------------------------------------------
# batch-mix
# ---------------------------------------------------------------------------
BATCH_BURST = 64
#: the accelerator's default batch-machine width
BATCH_LANES = 32
BATCH_CHAIN_NODES = 128
#: chain finds target the last few keys, so every lane walks nearly the
#: whole chain
BATCH_CHAIN_TAIL = 8
BATCH_TREE_KEYS = 1024
BATCH_LOAD_PER_S = 4e6
#: a drive holds only 32 bursts, so a schedule re-drawn per seed would
#: make the simulated p99 the extreme of a few dozen draws and swing it
#: by a quarter between seeds; the schedule is fixed and ``--seed``
#: draws the keys
BATCH_ARRIVAL_SEED = 7


def build_batch_mix(seed: int, requests: int) -> Rig:
    cluster = PulseCluster(node_count=1, params=_params(),
                           batch_size=BATCH_BURST, seed=seed)
    chain = LinkedList(cluster.memory)
    for key in range(BATCH_CHAIN_NODES):
        chain.append(key, key * 3)
    tree = BPlusTree(cluster.memory, fanout=8)
    for key in range(BATCH_TREE_KEYS):
        tree.insert(key, key * 5)
    finder = chain.find_iterator()
    lookup = tree.lookup_iterator()
    _prime(cluster, finder, lookup)
    rng = random.Random(seed)
    operations = []
    expected = []
    # Every burst holds exactly one chain group and one tree group of
    # BATCH_LANES each, shuffled, so each group fills a batch machine.
    for _ in range(requests // BATCH_BURST):
        burst = []
        for _ in range(BATCH_LANES):
            key = rng.randrange(BATCH_CHAIN_NODES - BATCH_CHAIN_TAIL,
                                BATCH_CHAIN_NODES)
            burst.append(((finder, (key,)), key * 3))
        for _ in range(BATCH_BURST - BATCH_LANES):
            key = rng.randrange(BATCH_TREE_KEYS)
            burst.append(((lookup, (key,)), key * 5))
        rng.shuffle(burst)
        for operation, want in burst:
            operations.append(operation)
            expected.append(want)

    def check(stats: WorkloadStats) -> Tuple[int, int]:
        _aligned(stats, len(operations))
        wrong = sum(1 for result, want in zip(stats.results, expected)
                    if result.ok and result.value != want)
        return wrong, 0

    return Rig(cluster, operations, BATCH_LOAD_PER_S, BATCH_BURST,
               BATCH_ARRIVAL_SEED, check)


# ---------------------------------------------------------------------------
# kv-durable
# ---------------------------------------------------------------------------
KV_NODES = 4
KV_KEYS = 4096
KV_CHAIN_LENGTH = 8
#: share of keys the split index is primed with (FIFO capacity)
KV_INDEX_SHARE = 0.9
KV_UPDATE_SHARE = 0.25
KV_BURST = 16
KV_LOAD_PER_S = 1e6
#: closed-loop workers for the post-drive read-back
KV_READBACK_CONCURRENCY = 16


def _initial(key: int) -> bytes:
    return (10_000 + key).to_bytes(8, "little")


def _written(key: int) -> int:
    return 20_000 + key


def build_kv_durable(seed: int, requests: int) -> Rig:
    params = _params(
        durability=DurabilityParams(enabled=True, replication_factor=2))
    cluster = PulseCluster(node_count=KV_NODES, params=params, seed=seed,
                           batch_size=KV_BURST, split_index=True,
                           split_index_capacity=int(KV_KEYS
                                                    * KV_INDEX_SHARE))
    table = HashTable(cluster.memory,
                      buckets=KV_KEYS // KV_CHAIN_LENGTH, value_bytes=8,
                      partition_nodes=KV_NODES)
    for key in range(KV_KEYS):
        table.insert(key, _initial(key))
    cluster.load_index(table)
    finder = table.find_iterator()
    updater = table.update_iterator()
    _prime(cluster, finder, updater)
    rng = random.Random(seed)
    # Each key is updated at most once, so every read has exactly two
    # admissible answers and the read-back has exactly one.
    update_order = list(range(KV_KEYS))
    rng.shuffle(update_order)
    operations = []
    updated: Dict[int, bytes] = {}
    for _ in range(requests):
        if rng.random() < KV_UPDATE_SHARE and update_order:
            key = update_order.pop()
            operations.append((updater, (key, _written(key))))
            updated[key] = _written(key).to_bytes(8, "little")
        else:
            operations.append((finder, (rng.randrange(KV_KEYS),)))

    def check(stats: WorkloadStats) -> Tuple[int, int]:
        _aligned(stats, requests)
        wrong = 0
        for (iterator, args), result in zip(operations, stats.results):
            if not result.ok:
                continue
            key = args[0]
            if iterator is updater:
                wrong += result.value is not True
            elif result.value != _initial(key) and (
                    key not in updated or result.value != updated[key]):
                wrong += 1
        keys = sorted(updated)
        readback = run_workload(cluster, [(finder, (k,)) for k in keys],
                                concurrency=KV_READBACK_CONCURRENCY)
        _aligned(readback, len(keys))
        wrong += sum(1 for key, result in zip(keys, readback.results)
                     if not result.ok or result.value != updated[key])
        return wrong, len(keys)

    return Rig(cluster, operations, KV_LOAD_PER_S, KV_BURST, seed, check)


WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec for spec in (
        WorkloadSpec("tsv-rack", requests=200, latency_requests=1000,
                     build=build_tsv_rack),
        WorkloadSpec("batch-mix", requests=1024, latency_requests=2048,
                     build=build_batch_mix),
        WorkloadSpec("kv-durable", requests=2000, latency_requests=2000,
                     build=build_kv_durable),
    )
}
