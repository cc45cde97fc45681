"""Replica placement and the replica byte store.

Placement is purely arithmetic.  A record's *home* is the arithmetic
owner of its vaddr (``addrspace.node_of``), not its live owner in the
placement map.  Its replica targets are the first ``k - 1`` live nodes
cyclically after the home (skipping the writer itself), and the owner
elected for a dead node's home segment is the first live node
cyclically after the home.  When the writer *is* the arithmetic home --
the steady state -- the elected owner is exactly the first replica
target, so the node that wins the election already holds the
replicated content.  Once a migration moves a range away from its
arithmetic home, that agreement breaks; see the known limitations in
:mod:`repro.durability.recovery`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple


def replica_targets(home: int, writer: int, node_count: int,
                    live: Set[int], replication_factor: int
                    ) -> Tuple[int, ...]:
    """The ``k - 1`` live peers a record flushed by ``writer`` goes to."""
    targets: List[int] = []
    candidate = (home + 1) % node_count
    for _ in range(node_count):
        if len(targets) >= replication_factor - 1:
            break
        if candidate in live and candidate != writer:
            targets.append(candidate)
        candidate = (candidate + 1) % node_count
    return tuple(targets)


def elect_owner(home: int, dead: int, node_count: int,
                live: Set[int]) -> Optional[int]:
    """The live node adopting a dead node's segment homed at ``home``."""
    candidate = (home + 1) % node_count
    for _ in range(node_count):
        if candidate in live and candidate != dead:
            return candidate
        candidate = (candidate + 1) % node_count
    return None


class ReplicaStore:
    """Latest byte image per (vaddr, length), ordered by arrival.

    One store exists per node (everything replicated *onto* it) plus
    one cluster-wide bootstrap store capturing functional builds.
    ``overlapping`` returns records in apply order (arrival sequence),
    which recovery replays onto the re-homed range -- later images of
    the same address win, exactly the redo-log semantics.
    """

    def __init__(self):
        self._records: Dict[Tuple[int, int], Tuple[int, bytes]] = {}
        self._next_seq = 0

    def __len__(self) -> int:
        return len(self._records)

    def apply(self, vaddr: int, data: bytes) -> None:
        self._records[(vaddr, len(data))] = (self._next_seq, bytes(data))
        self._next_seq += 1

    def overlapping(self, virt_start: int, virt_end: int
                    ) -> List[Tuple[int, int, bytes]]:
        """``(seq, vaddr, data)`` for records touching the range."""
        out = []
        for (vaddr, size), (seq, data) in self._records.items():
            if vaddr < virt_end and virt_start < vaddr + size:
                out.append((seq, vaddr, data))
        out.sort()
        return out
