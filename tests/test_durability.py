"""Durability subsystem: redo logging, replication, crash recovery.

Three layers of coverage: pure-unit tests over the log and the
arithmetic replica placement, white-box tests over one node's
group-commit flusher, and whole-rack kill/recover scenarios asserting
the headline guarantee -- an acknowledged write survives the crash of
the node that acknowledged it, and clients observe elevated latency,
never faults.
"""

import pytest

from repro.core import PulseCluster
from repro.durability import (CrashInjector, DurabilityError, RecoveryError,
                              RedoLog, elect_owner, replica_targets)
from repro.params import DurabilityParams, SystemParams, TransportParams
from repro.sim.engine import AllOf
from repro.structures import HashTable

KEYS = 48


def durable_params(**overrides):
    defaults = dict(enabled=True,
                    group_commit_ns=4_000.0,
                    failure_detect_ns=20_000.0)
    defaults.update(overrides)
    return SystemParams().with_overrides(
        durability=DurabilityParams(**defaults))


def build_rack(params=None, node_count=4, seed=11):
    cluster = PulseCluster(node_count=node_count,
                           params=params or durable_params(), seed=seed)
    table = HashTable(cluster.memory, buckets=64,
                      partition_nodes=node_count)
    for k in range(KEYS):
        table.insert(k, (1_000 + k).to_bytes(8, "little"))
    return cluster, table


def drain(cluster, pending):
    cluster.env.run(until=AllOf(cluster.env,
                                [p._process for p in pending]))
    return [p.result for p in pending]


# -- unit: the log ----------------------------------------------------------
def test_redo_log_assigns_monotone_lsns_and_charges_headers():
    log = RedoLog(record_header_bytes=32)
    first = log.append(0x1000, b"\x01" * 8)
    second = log.append(0x2000, b"\x02" * 24)
    assert (first.lsn, second.lsn) == (1, 2)
    assert first.wire_bytes == 32 + 8
    assert log.buffer_bytes == (32 + 8) + (32 + 24)
    taken = log.take_buffer()
    assert [r.lsn for r in taken] == [1, 2]
    assert log.buffer == [] and log.buffer_bytes == 0
    assert log.append(0x3000, b"x").lsn == 3


# -- unit: arithmetic replica placement ------------------------------------
def test_replica_targets_skip_writer_and_dead_nodes():
    live = {0, 1, 2, 3}
    # Steady state: the writer is the home, replicas go to the next peers.
    assert replica_targets(1, 1, 4, live, 2) == (2,)
    assert replica_targets(1, 1, 4, live, 3) == (2, 3)
    # A write from a non-home node may land on the home's successor even
    # when that successor is the writer -- it is skipped, never doubled.
    assert replica_targets(1, 2, 4, live, 2) == (3,)
    # Dead nodes are not eligible targets.
    assert replica_targets(1, 1, 4, {0, 1, 3}, 2) == (3,)
    # k=1 means no replication traffic at all.
    assert replica_targets(1, 1, 4, live, 1) == ()


def test_elect_owner_matches_first_replica_target():
    live = {0, 2, 3}
    # Node 1 died: its segments go to the first live successor -- which
    # is exactly the first replica target of steady-state writes, so the
    # winner already holds the replicated bytes.
    assert elect_owner(1, 1, 4, live) == 2
    assert elect_owner(1, 1, 4, {0, 3}) == 3
    assert replica_targets(1, 1, 4, {0, 1, 2, 3}, 2) == (2,)
    # Nobody left to elect.
    assert elect_owner(0, 0, 1, set()) is None


# -- white-box: one node's flusher -----------------------------------------
def test_group_commit_batches_records_into_one_flush():
    cluster, _table = build_rack()
    state = cluster.durability.nodes[0]
    vaddr = cluster.memory.addrspace.range_of(0)[0]
    lsns = [state.journal(vaddr + 64 * i, bytes(8)) for i in range(5)]
    assert lsns == [1, 2, 3, 4, 5]
    assert state.durable_lsn == 0
    # One group-commit window later the whole batch is durable at once.
    cluster.env.run(until=cluster.env.timeout(200_000.0))
    assert state.durable_lsn == 5
    snap = cluster.registry.snapshot()["counters"]
    assert snap["mem0.dur.flushes"] == 1
    assert snap["mem0.dur.records"] == 5


def test_wait_durable_blocks_until_commit_then_passes_through():
    cluster, _table = build_rack()
    state = cluster.durability.nodes[0]
    vaddr = cluster.memory.addrspace.range_of(0)[0]
    lsn = state.journal(vaddr, bytes(8))
    event = state.wait_durable(lsn)
    assert event is not None and not event.triggered
    cluster.env.run(until=cluster.env.timeout(200_000.0))
    assert event.triggered
    # Already-durable LSNs do not wait at all.
    assert state.wait_durable(lsn) is None


def test_peer_death_degrades_commit_instead_of_hanging_it():
    cluster, _table = build_rack()
    state = cluster.durability.nodes[0]
    vaddr = cluster.memory.addrspace.range_of(0)[0]
    lsn = state.journal(vaddr, bytes(8))
    event = state.wait_durable(lsn)

    def schedule():
        # Node 0's replica target (home 0 -> target 1) dies while the
        # flush is in flight: the commit must degrade, not deadlock.
        yield cluster.env.timeout(state.params.group_commit_ns + 100.0)
        cluster.kill_node(1)

    cluster.env.process(schedule())
    cluster.env.run(until=cluster.env.timeout(500_000.0))
    assert event.triggered
    assert state.durable_lsn >= lsn
    snap = cluster.metrics_snapshot()["counters"]
    assert snap["mem0.dur.degraded_commits"] == 1


# -- whole rack: crashes ----------------------------------------------------
def test_kill_node_requires_durability():
    cluster = PulseCluster(node_count=2)
    with pytest.raises(DurabilityError):
        cluster.kill_node(0)


def test_acknowledged_writes_survive_the_acknowledging_node():
    cluster, table = build_rack()
    updated = list(range(0, KEYS, 2))
    pending = [cluster.submit(table.update_iterator(), k, 7_000 + k)
               for k in updated]
    results = drain(cluster, pending)
    assert all(r.ok for r in results), [r.fault for r in results
                                        if not r.ok]

    cluster.kill_node(1)
    cluster.env.run(until=cluster.env.timeout(2_000_000.0))
    snap = cluster.metrics_snapshot()
    assert snap["counters"]["recovery.completed"] == 1
    assert snap["gauges"]["recovery.time_to_recover_ns"] > 0

    # Every acknowledged update -- and every never-written key homed on
    # the dead node (bootstrap content) -- reads back exactly.
    for k in range(KEYS):
        expect = 7_000 + k if k % 2 == 0 else 1_000 + k
        result = cluster.run_traversal(table.find_iterator(), k)
        assert result.ok, (k, result.fault)
        assert int.from_bytes(result.value[:8], "little") == expect


def test_mid_traversal_failover_reinjects_in_flight_frames():
    # mode="always" arms per-hop reliability on every link, so the
    # switch's reliable layer still holds each frame it sent into the
    # dead node -- the takeover path reclaims and re-injects them.
    params = durable_params().with_overrides(
        transport=TransportParams(mode="always"))
    cluster, table = build_rack(params=params)
    pending = [cluster.submit(table.find_iterator(), k % KEYS)
               for k in range(4 * KEYS)]

    def schedule():
        yield cluster.env.timeout(6_000.0)
        cluster.kill_node(1)

    cluster.env.process(schedule())
    results = drain(cluster, pending)
    assert all(r.ok for r in results), [r.fault for r in results
                                        if not r.ok]
    expected = [1_000 + (k % KEYS) for k in range(4 * KEYS)]
    assert [int.from_bytes(r.value[:8], "little")
            for r in results] == expected
    snap = cluster.metrics_snapshot()["counters"]
    assert snap["recovery.completed"] == 1
    assert snap["switch.reinjected_frames"] > 0


def test_scale_out_then_crash_recovers_onto_any_live_node():
    cluster, table = build_rack(node_count=2)
    new_node = cluster.add_node()
    assert new_node in cluster.durability.live
    pending = [cluster.submit(table.update_iterator(), k, 7_000 + k)
               for k in range(0, KEYS, 3)]
    results = drain(cluster, pending)
    assert all(r.ok for r in results)

    cluster.kill_node(1)
    cluster.env.run(until=cluster.env.timeout(2_000_000.0))
    for k in range(KEYS):
        expect = 7_000 + k if k % 3 == 0 else 1_000 + k
        result = cluster.run_traversal(table.find_iterator(), k)
        assert result.ok, (k, result.fault)
        assert int.from_bytes(result.value[:8], "little") == expect


def test_kill_is_idempotent_and_counts_one_crash():
    cluster, _table = build_rack()
    cluster.kill_node(1)
    cluster.kill_node(1)
    cluster.env.run(until=cluster.env.timeout(2_000_000.0))
    snap = cluster.metrics_snapshot()["counters"]
    assert snap["recovery.crashes"] == 1
    assert snap["recovery.completed"] == 1


@pytest.mark.parametrize("shortage", ["space", "tcam"])
def test_recovery_fence_failure_leaves_rack_unchanged(shortage):
    # The elected owner cannot adopt the dead node's range: recovery
    # raises RecoveryError, and the fence it shares with migration
    # mutates nothing -- rules, both TCAMs and allocator accounting stay
    # exactly as they were.
    cluster, _table = build_rack()
    memory = cluster.memory
    allocator = memory.allocator
    dead = 1
    owner = elect_owner(dead, dead, cluster.node_count, {0, 2, 3})
    assert memory.placement.rules_of(dead) != []
    mapped = sum(e.virt_end - e.virt_start
                 for e in memory.nodes[dead].table.entries)
    if shortage == "space":
        memory.alloc(allocator.phys_available(owner) - mapped // 2,
                     preferred_node=owner)
        assert allocator.phys_available(owner) < mapped
    else:
        owner_table = memory.nodes[owner].table
        owner_table.capacity = len(owner_table)

    def state():
        tables = [(memory.nodes[n].table.version,
                   [(e.virt_start, e.virt_end, e.phys_start, e.perms)
                    for e in memory.nodes[n].table.entries])
                  for n in (dead, owner)]
        accounting = [(allocator.allocated_bytes(n),
                       allocator.fragmentation_bytes(n),
                       allocator.phys_available(n))
                      for n in (dead, owner)]
        return memory.placement.rules(), tables, accounting

    before = state()
    cluster.kill_node(dead)
    with pytest.raises(RecoveryError):
        cluster.env.run(until=cluster.env.timeout(2_000_000.0))
    assert state() == before
    counters = cluster.metrics_snapshot()["counters"]
    assert counters.get("recovery.ranges_rehomed", 0) == 0


@pytest.mark.xfail(strict=True, reason=(
    "replica sets key off the arithmetic home, not the live placement "
    "map: a segment migrated after its writes were acknowledged strands "
    "their replicas, and a later crash reads back pre-update values "
    "with ok=True (ROADMAP: acknowledged writes that really survive)"))
def test_migrate_then_crash_keeps_acked_writes():
    cluster, table = build_rack()
    results = drain(cluster, [
        cluster.submit(table.update_iterator(), k, 7_000 + k)
        for k in range(KEYS)])
    assert all(r.ok for r in results)
    cluster.env.run(until=cluster.env.timeout(100_000.0))  # commits settle
    for start, end in cluster.memory.placement.rules_of(0):
        cluster.env.run(until=cluster.migrate(start, end, 1))
    cluster.kill_node(1)
    cluster.env.run(until=cluster.env.timeout(2_000_000.0))
    values = []
    for k in range(KEYS):
        result = cluster.run_traversal(table.find_iterator(), k)
        assert result.ok, (k, result.fault)
        values.append(int.from_bytes(result.value[:8], "little"))
    assert values == [7_000 + k for k in range(KEYS)]


UPDATED = tuple(range(0, KEYS, 3))
READ_ONLY = tuple(k for k in range(KEYS) if k % 3)


def run_crash_stream(cluster, table, crash=False):
    """Two request waves around a (possible) node-1 crash.

    Wave 1 updates each ``UPDATED`` key exactly once (absolute values,
    so replay order cannot matter) while finding the disjoint
    ``READ_ONLY`` keys; the crash lands mid-wave.  Wave 2 then re-reads
    every updated key strictly after every update was acknowledged --
    zero lost acknowledged writes, observed through the recovered
    routing.  Returns (results, snapshot).
    """
    if crash:
        cluster.env.process(CrashInjector(1, 6_000.0)(cluster))
    wave1 = drain(cluster,
                  [cluster.submit(table.update_iterator(), k, 7_000 + k)
                   for k in UPDATED]
                  + [cluster.submit(table.find_iterator(), k)
                     for k in READ_ONLY])
    wave2 = drain(cluster, [cluster.submit(table.find_iterator(), k)
                            for k in UPDATED])
    return wave1 + wave2, cluster.metrics_snapshot()


def test_crash_recovery_is_value_transparent():
    """Quiet vs crashed/recovered: values identical, no lost acks."""
    def rack():
        return build_rack(params=durable_params(group_commit_ns=2_000.0),
                          seed=7)

    quiet = run_crash_stream(*rack())
    crashed = run_crash_stream(*rack(), crash=True)
    assert all(r.ok for r in crashed[0]), [
        r.fault for r in crashed[0] if not r.ok]
    assert [r.value for r in crashed[0]] == [r.value for r in quiet[0]]
    # Wave 2 read every acknowledged update back through the recovered
    # routing -- cross-check the payloads, not just quiet-equality.
    wave2 = crashed[0][-len(UPDATED):]
    assert [int.from_bytes(r.value[:8], "little") for r in wave2] == \
        [7_000 + k for k in UPDATED]
    assert crashed[1]["counters"]["recovery.completed"] == 1
    assert quiet[1]["counters"].get("recovery.crashes", 0) == 0
