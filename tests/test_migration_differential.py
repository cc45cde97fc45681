"""Differential test: a migrating cluster must be invisible to clients.

The same request stream runs against (a) a static cluster and (b) an
identically built cluster whose segments are live-migrated back and
forth -- a migration storm -- while the requests are in flight.  Every
traversal must return the identical value, none may fault, and none may
be lost: migration may change *where* bytes live and *how long* a
traversal takes, never *what it observes*.
"""

import pytest

from repro.core import PulseCluster
from repro.core.client import RequestLost
from repro.durability import CrashInjector
from repro.params import DurabilityParams, PlacementParams, SystemParams
from repro.sim.engine import AllOf
from repro.structures import HashTable, LinkedList

KEYS = 48


def storm_params():
    # Slow copies keep each migration in flight long enough that frames
    # race its fence -- the regime the protocol must survive: a
    # straggler reaching the old owner must be answered MOVED from the
    # live placement map.
    return SystemParams().with_overrides(
        placement=PlacementParams(
            migration_bandwidth_bytes_per_ns=2.0,
        ))


def build_cluster(structure, seed=7, **kwargs):
    cluster = PulseCluster(node_count=2, params=storm_params(), seed=seed,
                           **kwargs)
    if structure == "hashtable":
        table = HashTable(cluster.memory, buckets=32)
        for k in range(KEYS):
            table.insert(k, bytes([k, k ^ 0xFF]) * 4)
        iterator = table.find_iterator()
    else:
        lst = LinkedList(cluster.memory)
        lst.extend([(k, k * 3 + 1) for k in range(KEYS)])
        iterator = lst.find_iterator()
    return cluster, iterator


def run_stream(cluster, iterator, storm=False):
    """Submit all keys; optionally storm migrations; return results."""
    pending = [cluster.submit(iterator, k) for k in range(KEYS)]

    def migration_storm():
        # Ping-pong node 0's data to node 1 and back, repeatedly, while
        # the requests are being served.
        for _round in range(3):
            for src, dst in ((0, 1), (1, 0)):
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
    return [p.result for p in pending]


@pytest.mark.parametrize("structure", ["hashtable", "linkedlist"])
def test_migration_storm_is_value_transparent(structure):
    static_cluster, static_iter = build_cluster(structure)
    moving_cluster, moving_iter = build_cluster(structure)

    try:
        baseline = run_stream(static_cluster, static_iter, storm=False)
        stormed = run_stream(moving_cluster, moving_iter, storm=True)
    except RequestLost as exc:  # pragma: no cover - failure reporting
        pytest.fail(f"request lost during migration storm: {exc}")

    assert all(r.ok for r in baseline)
    assert all(r.ok for r in stormed), [
        r.fault for r in stormed if not r.ok]
    assert [r.value for r in stormed] == [r.value for r in baseline]
    # The storm actually moved data -- otherwise this test is vacuous.
    assert moving_cluster.placement.engine.completed >= 2


def test_arena_chain_storm_is_value_transparent():
    """Storm whole chain-arena extents: byte-identical, zero losses.

    Structures now allocate through per-chain traversal arenas, and the
    rebalancer's cut phase ships those extents as a unit -- so the
    transparency guarantee must hold when the migration unit is an
    arena extent (many live nodes per move), not a placement rule.
    """
    static_cluster, static_iter = build_cluster("linkedlist")
    moving_cluster, moving_iter = build_cluster("linkedlist")
    baseline = run_stream(static_cluster, static_iter, storm=False)

    extents = moving_cluster.memory.allocator.arena_extents()
    assert extents, "linked list no longer allocates through an arena"

    pending = [moving_cluster.submit(moving_iter, k) for k in range(KEYS)]

    def arena_storm():
        for _round in range(3):
            for start, end in extents:
                home = moving_cluster.memory.placement.node_of(start)
                if home is None:
                    continue
                yield moving_cluster.env.process(
                    moving_cluster.placement.engine.migrate(
                        start, end, 1 - home))
                yield moving_cluster.env.timeout(5_000.0)

    storm_proc = moving_cluster.env.process(arena_storm())
    for p in pending:
        if not p.done:
            moving_cluster.env.run(until=p._process)
    moving_cluster.env.run(until=storm_proc)
    stormed = [p.result for p in pending]

    assert all(r.ok for r in stormed), [
        r.fault for r in stormed if not r.ok]
    assert [r.value for r in stormed] == [r.value for r in baseline]
    assert moving_cluster.placement.engine.completed >= 2 * len(extents)


def _build_durable_rack(seed=7):
    params = SystemParams().with_overrides(
        durability=DurabilityParams(enabled=True,
                                    group_commit_ns=2_000.0,
                                    failure_detect_ns=20_000.0))
    cluster = PulseCluster(node_count=4, params=params, seed=seed)
    table = HashTable(cluster.memory, buckets=64, partition_nodes=4)
    for k in range(KEYS):
        table.insert(k, (1_000 + k).to_bytes(8, "little"))
    return cluster, table


def _run_update_then_read(cluster, table, crash=False):
    """One update wave, then a read-back wave; optional mid-wave crash."""
    if crash:
        cluster.env.process(CrashInjector(1, 6_000.0)(cluster))
    updates = [cluster.submit(table.update_iterator(), k, 7_000 + k)
               for k in range(0, KEYS, 2)]
    cluster.env.run(until=AllOf(cluster.env,
                                [p._process for p in updates]))
    reads = [cluster.submit(table.find_iterator(), k)
             for k in range(KEYS)]
    cluster.env.run(until=AllOf(cluster.env,
                                [p._process for p in reads]))
    return ([p.result for p in updates], [p.result for p in reads])


def test_crash_recovery_schedule_is_value_transparent():
    """Migrate, then crash under load: values identical to a quiet run.

    A segment is live-migrated off the to-be-killed node *before* any
    update, so recovery runs against a placement that no longer matches
    the arithmetic partition -- the dead node owns a partial rule set
    and a live node owns a segment homed on the dead node.  The crashed
    run must still return byte-identical values, zero faults, and zero
    lost acknowledged writes.
    """
    def prepared():
        cluster, table = _build_durable_rack()
        owned = cluster.memory.placement.rules_of(1)
        start, end = owned[0]
        mid = start + (end - start) // 2
        cluster.env.run(until=cluster.env.process(
            cluster.placement.engine.migrate(mid, end, 3)))
        return cluster, table

    quiet_updates, quiet_reads = _run_update_then_read(*prepared())
    cluster, table = prepared()
    crash_updates, crash_reads = _run_update_then_read(cluster, table,
                                                       crash=True)

    assert all(r.ok for r in crash_updates + crash_reads), [
        r.fault for r in crash_updates + crash_reads if not r.ok]
    assert [r.value for r in crash_reads] == [r.value for r in
                                              quiet_reads]
    # Every acknowledged update survived the crash of whichever node
    # acknowledged it: the read wave ran strictly after the update wave.
    assert [int.from_bytes(r.value[:8], "little")
            for r in crash_reads] == \
        [7_000 + k if k % 2 == 0 else 1_000 + k for k in range(KEYS)]
    snap = cluster.metrics_snapshot()["counters"]
    assert snap["recovery.completed"] == 1
    assert snap["recovery.ranges_rehomed"] >= 1


def test_storm_with_drain_and_scale_out():
    """Scale-out then drain under load: values still identical."""
    cluster, iterator = build_cluster("hashtable")
    expected = {k: bytes([k, k ^ 0xFF]) * 4 for k in range(KEYS)}

    pending = [cluster.submit(iterator, k) for k in range(KEYS)]
    cluster.add_node()
    drain = cluster.drain_node(0)
    cluster.env.run(until=drain)
    for p in pending:
        if not p.done:
            cluster.env.run(until=p._process)

    results = [p.result for p in pending]
    assert all(r.ok for r in results), [
        r.fault for r in results if not r.ok]
    # Results pad values to the scratch width; compare the stored bytes.
    assert [r.value[:8] for r in results] == [expected[k]
                                              for k in range(KEYS)]
    assert cluster.memory.placement.owned_bytes(0) == 0
    # And a fresh pass over the drained layout still reads every key.
    for k in (0, KEYS // 2, KEYS - 1):
        assert cluster.run_traversal(iterator, k).value[:8] == expected[k]


def test_batch_demotion_races_migration():
    """Mid-batch MOVED demotions resume bit-exact on the new owner.

    The doorbell batcher coalesces the stream into multi-request frames
    whose lanes execute in lockstep on the accelerator; a racing
    migration flips ownership mid-batch, so lanes hit
    ``RequestStatus.MOVED``, demote out of the batch, and retry at the
    live owner.  The stormed run must return the quiet run's values.
    With the batch tier stepped aside (``PULSE_INTERP=1`` or
    ``PULSE_BATCH=0``) there are no lanes to demote, but the storm must
    still bounce requests through MOVED.
    """
    def build():
        return build_cluster("linkedlist", batch_lanes=16, batch_size=32)

    baseline = run_stream(*build())
    cluster, iterator = build()
    stormed = run_stream(cluster, iterator, storm=True)
    assert all(r.ok for r in stormed), [r.fault for r in stormed
                                        if not r.ok]
    assert [r.value for r in stormed] == [r.value for r in baseline]
    counters = cluster.metrics_snapshot()["counters"]
    demotions = sum(v for k, v in counters.items()
                    if k.endswith(".acc.batch.demotions"))
    moved = sum(v for k, v in counters.items()
                if k.endswith(".acc.moved_replies"))
    batched = cluster.accelerators[0].batch_lanes > 1
    assert demotions > 0 or not batched, "storm never demoted a batch lane"
    assert moved > 0, "storm never produced a MOVED reply"
    assert counters.get("switch.moved_redirects", 0) > 0
