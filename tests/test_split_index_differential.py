"""Differential test: the split index must never change what reads see.

The same point-lookup stream runs against (a) a static cluster with no
split index and (b) an identically built cluster with the split index
enabled whose segments are live-migrated back and forth -- a migration
storm -- while lookups are in flight.  The index may only change *how*
a value is fetched (one direct READ vs an offloaded traversal), never
*which bytes* come back: every result must be byte-identical to the
static baseline and none may fault, even while cached hints go stale
mid-storm.

The moving cluster runs the directory in lazy mode (no eager
invalidation on migration) so stale hints actually reach a memory node
and are refused there: the run is only convincing if the NACK-and-
fall-back path demonstrably fired (``index.stale_nacks > 0``).
"""

import pytest

from repro.core import PulseCluster
from repro.core.client import RequestLost
from repro.params import PlacementParams, SystemParams
from repro.structures import BPlusTree, HashTable

KEYS = 48


def storm_params():
    return SystemParams().with_overrides(
        placement=PlacementParams(
            migration_bandwidth_bytes_per_ns=2.0,
        ))


def build_cluster(structure, indexed):
    cluster = PulseCluster(node_count=2, params=storm_params(), seed=7,
                           split_index=indexed,
                           split_index_invalidate=False)
    if structure == "hashtable":
        table = HashTable(cluster.memory, buckets=32)
        for k in range(KEYS):
            table.insert(k, bytes([k, k ^ 0xFF]) * 4)
        return cluster, table, table.find_iterator()
    # Spread leaves across both nodes explicitly: the arena allocator
    # would otherwise pack this small tree into one extent on one node,
    # and the storm would stale *every* hint at once -- the
    # epoch-refresh repair path (node still owns the address under a
    # newer placement version) needs survivors on the untouched node.
    tree = BPlusTree(cluster.memory, fanout=8, placement=lambda o: o % 2)
    for k in range(KEYS):
        tree.insert(k, k * 7 + 3)
    return cluster, tree, tree.lookup_iterator()


def run_stream(cluster, iterator, storm=False):
    """Submit all keys twice; optionally storm migrations meanwhile.

    The second wave starts only after the storm has finished an odd
    number of ping-pong legs, so on an indexed cluster every hint
    learned (or bulk-loaded) before the storm is guaranteed stale --
    the bytes now live on the other node -- and must NACK.
    """
    pending = [cluster.submit(iterator, k) for k in range(KEYS)]

    def migration_storm():
        for src, dst in ((0, 1), (1, 0), (0, 1)):   # odd leg count
            owned = cluster.memory.placement.rules_of(src)
            if not owned:
                continue
            start, end = owned[0]
            yield cluster.env.process(
                cluster.placement.engine.migrate(start, end, dst))
            yield cluster.env.timeout(5_000.0)

    if storm:
        storm_proc = cluster.env.process(migration_storm())
    for p in pending:
        if not p.done:
            cluster.env.run(until=p._process)
    if storm:
        cluster.env.run(until=storm_proc)

    # Post-storm wave: replay every key against the settled layout.
    second = [cluster.submit(iterator, k) for k in range(KEYS)]
    for p in second:
        if not p.done:
            cluster.env.run(until=p._process)
    return [p.result for p in pending] + [p.result for p in second]


@pytest.mark.parametrize("structure", ["hashtable", "btree"])
def test_split_index_storm_is_value_transparent(structure):
    static_cluster, _s, static_iter = build_cluster(structure,
                                                    indexed=False)
    moving_cluster, built, moving_iter = build_cluster(structure,
                                                       indexed=True)
    moving_cluster.load_index(built)     # prime so the storm stales it

    try:
        baseline = run_stream(static_cluster, static_iter, storm=False)
        stormed = run_stream(moving_cluster, moving_iter, storm=True)
    except RequestLost as exc:  # pragma: no cover - failure reporting
        pytest.fail(f"request lost during split-index storm: {exc}")

    assert all(r.ok for r in baseline)
    assert all(r.ok for r in stormed), [
        r.fault for r in stormed if not r.ok]
    # Byte-identical values, in order: zero wrong reads.
    assert [r.value for r in stormed] == [r.value for r in baseline]

    counters = moving_cluster.metrics_snapshot()["counters"]
    # The run must have exercised the interesting paths, or the test
    # is vacuous: hints served hits, went stale, NACKed, and repaired.
    assert moving_cluster.placement.engine.completed >= 2
    assert counters["index.hits"] > 0
    assert counters["index.stale_nacks"] > 0
    assert counters["index.repairs"] > 0


def test_post_storm_lookups_settle_back_to_direct_reads():
    """After the storm, repaired hints serve one-RTT hits again."""
    cluster, table, iterator = build_cluster("hashtable", indexed=True)
    cluster.load_index(table)

    run_stream(cluster, iterator, storm=True)
    cluster.registry.reset()

    results = [cluster.run_traversal(iterator, k) for k in range(KEYS)]
    assert all(r.ok for r in results)
    assert all(r.iterations == 1 for r in results)
    counters = cluster.metrics_snapshot()["counters"]
    assert counters["index.hits"] == KEYS
    assert counters["index.stale_nacks"] == 0
