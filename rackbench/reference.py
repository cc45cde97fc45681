"""A fixed reference kernel: the host's speed, measured beside each drive.

The benchmark runs on shared hosts whose speed drifts.  On the 2-vCPU
host it was written on (Intel Xeon at 2.1 GHz, Python 3.11.7), a fixed
loop slows by up to 2x for tens of seconds at a time, longer than one
benchmark run, so no statistic over a run's drives can hide it.  This
kernel is timed right before and right after every drive.  Its code is
the benchmark's own and never changes with the simulator, so the ratio
drive time / kernel time moves only when the simulator does.

The kernel mixes the operations the simulator spends its time on: a
heap-ordered event loop resuming generators, dictionary lookups over a
working set larger than the CPU caches, byte-slice loads and stores,
and integer arithmetic.
"""

from __future__ import annotations

import heapq
import random
import time

#: about the kernel's median time on the host above.  Host time times
#: NOMINAL_S / (the kernel's time beside it) gives reference seconds.
NOMINAL_S = 0.030

_rng = random.Random(20240)
_TABLE = {key: (key, key & 0xFF, str(key)) for key in range(50_000)}
_PROBES = [_rng.randrange(50_000) for _ in range(16_000)]
_MEMORY = bytearray(4 << 20)
_ADDRESSES = [_rng.randrange(0, (4 << 20) - 64) for _ in range(6_000)]


class _Event:
    __slots__ = ("at", "key")

    def __init__(self, at: int, key: int):
        self.at = at
        self.key = key


def _process(steps: int, totals: dict, slot: int):
    for _ in range(steps):
        event = yield
        totals[slot] = totals.get(slot, 0) + event.at


def _event_loop() -> int:
    totals: dict = {}
    processes = [_process(240, totals, key & 15) for key in range(48)]
    queue = []
    for key, process in enumerate(processes):
        next(process)
        heapq.heappush(queue, (key % 7, key, _Event(0, key)))
    while queue:
        now, key, event = heapq.heappop(queue)
        try:
            processes[key].send(event)
        except StopIteration:
            continue
        heapq.heappush(queue, (now + (key * 13 + now) % 29 + 1, key,
                               _Event(now, key)))
    return sum(totals.values())


def _lookups() -> int:
    total = 0
    for key in _PROBES:
        entry = _TABLE[key]
        total += entry[1] + len(entry[2])
    return total


def _loads_and_stores() -> int:
    total = 0
    memory = _MEMORY
    for index, address in enumerate(_ADDRESSES):
        word = bytes(memory[address:address + 32])
        total += int.from_bytes(word[:8], "little")
        memory[address:address + 8] = index.to_bytes(8, "little")
    return total


def _arithmetic() -> int:
    total = 0
    for value in range(40_000):
        total += value * value % 7
    return total


def kernel_seconds() -> float:
    """Host seconds one pass of the reference kernel takes now."""
    start = time.perf_counter()
    _event_loop()
    _lookups()
    _loads_and_stores()
    _arithmetic()
    return time.perf_counter() - start
