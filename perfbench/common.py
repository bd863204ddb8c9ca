"""Shared pieces of the repository benchmark: the program import, the
deployment every workload builds, the simulated pace, statistics and the
result line.

The benchmark drives the reproduction through its public API only.  All
timing is taken here, around the benchmark's own calls into the
program; ``repro.obs`` stays disabled in every run.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import os
import random
import resource
import sys
import time

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def import_program():
    """Put the checkout's ``src/`` first on the path and import the
    program.  Raises ``ImportError`` when the checkout holds no program."""
    if not os.path.isdir(os.path.join(_SRC, "repro")):
        raise ImportError(f"no program sources under {_SRC}")
    if _SRC not in sys.path:
        sys.path.insert(0, _SRC)
    import repro  # noqa: F401

    return repro


import_program()

from repro.constants import EER_LIFETIME  # noqa: E402
from repro.crypto import native  # noqa: E402
from repro.sim.scenario import ColibriNetwork  # noqa: E402
from repro.topology import build_two_isd_topology  # noqa: E402
from repro.topology.addresses import HostAddr, IsdAs  # noqa: E402
from repro.util.units import gbps, mbps  # noqa: E402

BASE = 0xFF00_0000_0000

#: The two-ISD topology's ASes used by the workloads.  The honest data
#: path is the 6-AS inter-ISD path up → core → down, with a transfer AS
#: at each core (1-1 and 2-1).
HONEST_SRC = IsdAs(1, BASE + 101)
HONEST_DST = IsdAs(2, BASE + 101)
#: Second leaf of ISD 1: the malicious source AS flooding renewals in
#: ``attack``.
SECOND_SRC = IsdAs(1, BASE + 111)
#: Non-leaf customer of core 1-1: the overusing source AS in ``attack``.
OVERUSER_AS = IsdAs(1, BASE + 12)

#: Bandwidth of every SegR the workloads reserve (the topology's links
#: carry 40 Gbps).
SEGR_BANDWIDTH = gbps(10)

#: Simulated spacing between consecutive EER setups or renewals of one
#: initiator: 2000/s, under the transit CServs' 1000/s per-source
#: limiter only thanks to its 1000-request burst, which refills between
#: passes.
CONTROL_SPACING = 0.0005


def build_native() -> None:
    """Load (building on first use) the optional native HVF kernel, so
    its one-time compile is never timed as set-up."""
    native.backend()


def new_network() -> ColibriNetwork:
    return ColibriNetwork(build_two_isd_topology())


def rng_for(label: str, seed: int) -> random.Random:
    """An independent seeded stream per input family, so adding one
    family never shifts another's draws."""
    return random.Random(f"{label}:{seed}")


def clock() -> float:
    """The benchmark's clock: this thread's CPU time.

    A workload runs in one thread and never blocks or sleeps (the
    simulated clock and the in-process message bus never wait), so its
    CPU time is its wall time minus the spells in which the guest's
    scheduler gives the CPU to another process.  Slowdowns the guest
    cannot see still count; ``SpeedReference`` scales them out."""
    return time.thread_time()


#: Clock seconds one ``SpeedReference.chunk`` takes on the reference
#: host: about its median on the shared 2-vCPU x86-64 VM the benchmark
#: was tuned on (CPython 3.11), whose own speed drifts around it.
#: Reported times are scaled to that speed.
REFERENCE_CHUNK_S = 0.0003
_SLOTS = 1 << 18


class _Slot:
    __slots__ = ("key", "count")

    def __init__(self):
        self.key = b""
        self.count = 0


class SpeedReference:
    """The host's speed, sampled between the program's calls.

    The shared host's speed drifts by more than twofold over minutes,
    and the per-thread CPU clock does not see it (time the hypervisor
    takes from the virtual CPU, and contention on shared cores, still
    count as the thread's).  So the benchmark runs a fixed piece of work
    of its own, which uses no program code, in small chunks interleaved
    with the workload, and scales each phase's times by the reference
    time of its chunks over their measured time: a phase on a host half
    as fast reads as on the reference host.  The work mixes what the
    program does most: BLAKE2s hashes of short messages, dictionary
    updates, and attribute writes at random over 256 Ki objects (about
    25 MB, beyond the host's caches, as the program's heap of 100 MB or
    more is)."""

    def __init__(self):
        self.slots = [_Slot() for _ in range(_SLOTS)]
        self.table = {}
        self.state = 1
        self.busy_s = 0.0
        self.chunks = 0

    def chunk(self) -> None:
        start = clock()
        slots = self.slots
        table = self.table
        state = self.state
        blake = hashlib.blake2s
        for _ in range(192):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            slot = slots[state & (_SLOTS - 1)]
            slot.key = blake(state.to_bytes(4, "little"), digest_size=16).digest()
            slot.count += 1
            table[state >> 15] = slot
        self.state = state
        self.busy_s += clock() - start
        self.chunks += 1

    def mark(self) -> tuple:
        return self.busy_s, self.chunks

    def scale(self, mark: tuple) -> float:
        """The factor taking times measured since ``mark`` to the
        reference host's speed."""
        busy_s, chunks = mark
        return REFERENCE_CHUNK_S * (self.chunks - chunks) / (self.busy_s - busy_s)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def settle() -> None:
    """Collect garbage, so each set-up starts from the same state."""
    gc.collect()


@contextlib.contextmanager
def collector_off():
    """Keep the cyclic garbage collector off for one timed phase and
    collect, untimed, when it ends.

    With the collector on, a collection lands inside every few hundred
    calls, at a period set by allocation counts, and makes up about 1 %
    of them: right on the p99 of the control-plane latencies, which then
    jumps between runs.  Reference counting still frees all acyclic
    garbage at once.  Everything the phase allocated is still in the
    young generations, so collecting those finds all of its cycles
    without walking the whole heap each time."""
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.collect(1)


def freeze() -> None:
    """After set-up: collect, then move the surviving set-up heap out of
    the collector's reach, so collections during the timed part scan only
    what the timed part allocated, not the deployment of nine ASes."""
    gc.collect()
    gc.freeze()


def quantile(sorted_values, q: float) -> float:
    """Linear-interpolated quantile of an already sorted sequence."""
    if not sorted_values:
        raise ValueError("quantile of no samples")
    position = q * (len(sorted_values) - 1)
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    fraction = position - low
    return sorted_values[low] * (1 - fraction) + sorted_values[high] * fraction


def median(values) -> float:
    return quantile(sorted(values), 0.5)


def renew_segments_due(net: ColibriNetwork, segments: list, horizon: float) -> list:
    """Renew and activate every SegR that would expire before
    ``horizon``; returns the (possibly unchanged) SegR records.

    Runs only when a run's simulated span approaches the 300 s SegR
    lifetime, which keeps long runs on a faster program valid.
    """
    for reservation in segments:
        if reservation.expiry > horizon:
            continue
        initiator = net.cserv(reservation.segment.first_as)
        version = initiator.renew_segment(
            reservation.reservation_id, reservation.bandwidth
        )
        initiator.activate_segment(reservation.reservation_id, version)
    return [
        net.cserv(r.segment.first_as).store.get_segment(r.reservation_id)
        for r in segments
    ]


class Result:
    """Operation counts, correctness and metrics of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.violations: list = []
        self.failures: list = []
        self.metrics: dict = {}

    def violation(self, message: str) -> None:
        """An output check failed: the run is not correct."""
        if len(self.violations) < 50:
            self.violations.append(message)

    def failure(self, message: str) -> None:
        """An operation failed; the first few reasons are reported."""
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(message)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    @property
    def correct(self) -> bool:
        return not self.violations


def eer_hosts(index: int) -> tuple:
    """Source and destination host of the ``index``-th EER of a pair."""
    return HostAddr(1 + index % 250), HostAddr(1 + (index * 7) % 250)


__all__ = [
    "BASE",
    "CONTROL_SPACING",
    "EER_LIFETIME",
    "freeze",
    "HONEST_DST",
    "HONEST_SRC",
    "OVERUSER_AS",
    "Result",
    "SECOND_SRC",
    "SEGR_BANDWIDTH",
    "SpeedReference",
    "build_native",
    "clock",
    "collector_off",
    "eer_hosts",
    "mbps",
    "median",
    "new_network",
    "peak_rss_mb",
    "quantile",
    "renew_segments_due",
    "rng_for",
    "settle",
]
