"""``dp-honest`` and ``attack``: bursts through the gateway and every
border router of the 6-AS inter-ISD path.

A run is a sequence of whole rounds.  One round is ``ROUND_BURSTS``
bursts of ``BURST`` honest packets, one burst every ``DT`` simulated
seconds, so a round spans 14.96 s: a dozen 1.2 s duplicate-filter
windows but less than the 16 s EER lifetime.  After each burst, outside
the data-plane timing, the benchmark refreshes that burst's share of
the EER population: in every round, a quarter of the EERs are replaced
by fresh setups and the rest renewed (those latencies feed the
control-plane metrics).  Between rounds the CServs sweep.  After the
run, every EER expires and no AS may keep any state.  The sparse simulated
pace keeps each router's Bloom filter under 1,000 insertions per window,
so a false positive on an honest packet stays improbable (about 1e-4 per
run); any that happens is counted as failed and shown to be one.

``attack`` sends the same honest bursts (same seed, same simulated
times, hence byte-identical honest packets) and adds, per burst:

* ``FORGED`` forged-HVF copies of honest packets, injected at hops 2
  and 4;
* ``REPLAYS`` replays of honest packets captured at hops 1 and 3, half
  one burst old (inside the duplicate window), half 16 bursts old
  (outside the freshness window);
* ``OVERUSE_PACKETS`` packets of an overusing source AS whose own
  gateway does not police it, entering the path at core 1-1;
* ``FLOOD_RENEWALS`` renewals of one EER of a malicious source AS that
  skips its own CServ's 1/s per-EER interval.
"""

from __future__ import annotations

import hashlib

from repro.constants import (
    DEFAULT_BURST_SECONDS,
    DUPLICATE_WINDOW,
    MAX_CLOCK_SKEW,
    OFD_DEFAULT_WINDOW,
    OFD_OVERUSE_FACTOR,
)
from repro.control.auth import AuthenticatedRequest
from repro.dataplane.monitor import DeterministicMonitor
from repro.dataplane.router import Verdict
from repro.packets.colibri import ColibriPacket
from repro.packets.control import EerRenewalRequest
from repro.util.units import gbps

from common import (
    CONTROL_SPACING,
    EER_LIFETIME,
    HONEST_DST,
    HONEST_SRC,
    OVERUSER_AS,
    SECOND_SRC,
    SEGR_BANDWIDTH,
    Result,
    SpeedReference,
    clock,
    collector_off,
    eer_hosts,
    freeze,
    mbps,
    median,
    new_network,
    quantile,
    renew_segments_due,
    rng_for,
    settle,
)

EERS = 1000
EER_BANDWIDTH = mbps(2)
BURST = 64
MAX_PAYLOAD = 1000
DT = 0.085
ROUND_BURSTS = 176
#: A run holds at least this many rounds whatever its length: 1,408
#: bursts, 15 of them beyond the p99.
MIN_ROUNDS = 8
#: Timed seconds of one round on the reference host (see
#: ``common.SpeedReference``): ``--seconds`` fixes a run's work as the
#: whole rounds that take that long there, so every run of a workload
#: does the same work on any host.
ROUND_REFERENCE_S = {False: 4.4, True: 5.0}
#: Set-up samples the host's speed once per this many EERs.
SETUP_CHUNK_EVERY = 10
REPLACE_EVERY = 4  # each refresh sets up anew one EER in four, renews the rest
SETUP_REPEATS = 5

FORGE_HOPS = (2, 4)  # two forged packets at each
REPLAY_HOPS = (1, 3)  # one fresh and one stale replay at each
CAPTURE_HOPS = REPLAY_HOPS + FORGE_HOPS
REPLAY_STALE_AGE = 16  # bursts: 1.36 s, past the 1.2 s freshness window
OVERUSE_PACKETS = 8
OVERUSE_PAYLOAD = 1000
OVERUSE_BANDWIDTH = mbps(0.4)  # 8 x 1.1 KB every 85 ms is about twice this
FLOOD_RENEWALS = 2
ADVERSARY_SEGR_BANDWIDTH = gbps(1)

#: §4.8: what the transit detector lets through before it flags a flow
#: (one OFD window at 105 %) plus the deterministic monitor's token-bucket
#: depth, in seconds of the reservation's rate.
OVERUSE_ALLOWANCE_S = OFD_DEFAULT_WINDOW * OFD_OVERUSE_FACTOR + DEFAULT_BURST_SECONDS

#: Identifiers must be unique over this many simulated seconds: both
#: Bloom filters of a router together cover at most two duplicate windows.
REUSE_WINDOW = 2 * DUPLICATE_WINDOW

PAYLOADS = [bytes(size) for size in range(MAX_PAYLOAD + 1)]

FORWARD = Verdict.FORWARD
DELIVER = Verdict.DELIVER_HOST
REPLAY_DROPS = (Verdict.DROP_DUPLICATE, Verdict.DROP_STALE)


class LaxMonitor(DeterministicMonitor):
    """The overusing AS's gateway monitor: it arms every flow at a
    thousand times its reservation, so it never drops."""

    def watch(self, flow_label: bytes, bandwidth: float, now: float) -> None:
        super().watch(flow_label, bandwidth * 1000.0, now)


class Deployment:
    """One set-up: the network, the honest EER population and, for
    ``attack``, the adversaries' reservations."""

    def __init__(self, adversaries: bool, eers: int = None, net=None, segments=None,
                 pause=None):
        eers = EERS if eers is None else eers
        if net is None:
            net = new_network()
            segments = net.reserve_segments(HONEST_SRC, HONEST_DST, SEGR_BANDWIDTH)
        self.net = net
        self.segments = list(segments)
        self.cserv = net.cserv(HONEST_SRC)
        self.gateway = net.gateway(HONEST_SRC)
        self.handles = []
        for index in range(eers):
            self.handles.append(
                self.cserv.setup_eer(HONEST_DST, *eer_hosts(index), EER_BANDWIDTH)
            )
            net.advance(CONTROL_SPACING)
            if pause is not None and index % SETUP_CHUNK_EVERY == 0:
                pause()
        self.res_ids = [handle.reservation_id for handle in self.handles]
        self.path = [hop.isd_as for hop in self.handles[0].hops]
        self.routers = [net.router(isd_as) for isd_as in self.path]
        self.overuse = None
        self.flood = None
        self.adversary_setup_at = net.clock.now()
        if adversaries:
            # At the same simulated instant as the end of the honest
            # population, so the honest timeline equals dp-honest's.
            net.gateway(OVERUSER_AS).monitor = LaxMonitor()
            # The overuser's AS is blocked within the first round, after
            # which core 1-1 refuses to renew its SegR: it is left to lapse.
            self.overuse = self._adversary_eer(OVERUSER_AS, OVERUSE_BANDWIDTH, renew=False)
            self.flood = self._adversary_eer(SECOND_SRC, mbps(1))

    def _adversary_eer(self, source, bandwidth: float, renew: bool = True):
        """An EER from ``source`` over its own up-SegR and the honest core
        and down SegRs, so honest setups never pick an adversary's SegR.
        With ``renew``, the up-SegR is kept alive with the honest ones."""
        net = self.net
        up = net.path_lookup.paths(source, HONEST_DST, limit=1)[0].segments[0]
        segment = net.cserv(up.first_as).setup_segment(up, ADVERSARY_SEGR_BANDWIDTH)
        if renew:
            self.segments.append(segment)
        return net.cserv(source).setup_eer(HONEST_DST, *eer_hosts(0), bandwidth)


class Adversary:
    """Per-burst adversarial inputs and the checks on their outcomes."""

    def __init__(self, dep: Deployment, seed: int, result: Result):
        self.dep = dep
        self.rng = rng_for("adversary", seed)
        self.result = result
        self.captured = {hop: [] for hop in CAPTURE_HOPS}
        self.over_gateway = dep.net.gateway(OVERUSER_AS)
        self.over_id = dep.overuse.reservation_id
        self.over_bytes = 0
        self.over_delivered = 0
        self.over_since = dep.adversary_setup_at
        self.flood_cserv = dep.net.cserv(SECOND_SRC)
        self.flood_id = dep.flood.reservation_id
        self.flood_bandwidth = dep.flood.res_info.bandwidth
        self.flood_path = [hop.isd_as for hop in dep.flood.hops]
        self.flood_last = dep.adversary_setup_at
        self.flood_admitted = 0
        self.injected = 0

    def start_round(self) -> None:
        self.captured = {hop: [] for hop in CAPTURE_HOPS}

    # -- inputs -------------------------------------------------------------

    def prepare(self, burst: int) -> dict:
        """Before burst ``burst``, untimed: the replayed and forged packets
        to inject, by hop, made from wire copies of earlier bursts."""
        captured = self.captured
        inject = {}
        for hop in REPLAY_HOPS:
            out = []
            if burst >= 1:
                out.append(ColibriPacket.from_bytes(captured[hop][burst - 1][0]))
            if burst >= REPLAY_STALE_AGE:
                out.append(
                    ColibriPacket.from_bytes(captured[hop][burst - REPLAY_STALE_AGE][1])
                )
            inject[hop] = out
        for hop in FORGE_HOPS:
            forged = []
            if burst >= 1:
                for wire in captured[hop][burst - 1]:
                    packet = ColibriPacket.from_bytes(wire)
                    packet.hvfs[hop] = self.rng.randbytes(4)
                    forged.append(packet)
            inject[hop] = forged
        return inject

    def capture(self, delivered: list) -> None:
        """After a burst, untimed: the wire form two delivered honest
        packets had in front of each capture hop (a router only moves the
        hop pointer, so resetting it restores those bytes)."""
        for hop in CAPTURE_HOPS:
            wires = []
            for index in self.rng.sample(range(len(delivered)), 2):
                packet = delivered[index]
                position = packet.hop_index
                packet.hop_index = hop
                wires.append(packet.to_bytes())
                packet.hop_index = position
            self.captured[hop].append(wires)

    def overuse_packets(self) -> list:
        """Stamp the overuser's packets at its own, non-policing gateway.
        Its border router does not police them either: they enter the
        path at core 1-1."""
        requests = [(self.over_id, PAYLOADS[OVERUSE_PAYLOAD])] * OVERUSE_PACKETS
        packets = []
        for outcome in self.over_gateway.send_batch(requests):
            if isinstance(outcome, ColibriPacket):
                outcome.advance_hop()
                packets.append(outcome)
        return packets

    def flood(self, now: float) -> None:
        """Renew the flooded EER ``FLOOD_RENEWALS`` times through its own
        CServ's handler, which has no per-EER interval check, and so on
        through every transit CServ."""
        cserv = self.flood_cserv
        for _ in range(FLOOD_RENEWALS):
            reservation = cserv.store.get_eer(self.flood_id)
            request = EerRenewalRequest(
                reservation=self.flood_id,
                new_bandwidth=self.flood_bandwidth,
                new_expiry=now + EER_LIFETIME,
                new_version=reservation.next_version_number(),
            )
            auth = AuthenticatedRequest.create(
                cserv.directory, cserv.isd_as, self.flood_path, request, now
            )
            response = cserv.handle_eer_renewal(request, auth, 0)
            self.result.attempted += 1
            if response.success:
                # A hop commits only on a successful downstream response,
                # so success means every transit CServ admitted it.
                self.flood_admitted += 1
                if now - self.flood_last < 1.0:
                    self.result.failed += 1
                self.flood_last = now

    # -- checks -------------------------------------------------------------

    def check_injected(self, kind: str, outcomes, now: float) -> None:
        """Each injected packet must be dropped by the first router it
        reaches: replays as duplicate or stale (or as expired, when the
        copied packet's EER version has expired since it was captured),
        forgeries at all."""
        result = self.result
        result.attempted += len(outcomes)
        self.injected += len(outcomes)
        for outcome in outcomes:
            verdict = outcome.verdict
            expired = now > outcome.packet.res_info.expiry + MAX_CLOCK_SKEW
            if verdict is Verdict.DROP_EXPIRED and expired:
                continue
            if kind == "replay" and verdict not in REPLAY_DROPS:
                result.failed += 1
                result.violation(f"a replay got past its first router: {verdict.value}")
            elif kind == "forged" and not verdict.is_drop:
                result.failed += 1
                result.violation(f"a forgery got past its first router: {verdict.value}")

    def account_overuse(self, sent: int, delivered: list, now: float) -> None:
        """The overuser's delivered bytes stay within its reservation
        times the simulated time since set-up, plus the §4.8 allowance."""
        self.result.attempted += sent
        for packet in delivered:
            self.over_bytes += packet.total_size
        self.over_delivered += len(delivered)
        allowed = OVERUSE_BANDWIDTH / 8 * (now - self.over_since + OVERUSE_ALLOWANCE_S)
        if self.over_bytes > allowed and delivered:
            self.result.failed += len(delivered)
            self.result.violation(
                f"the overuser delivered {self.over_bytes} bytes, "
                f"over its allowance of {allowed:.0f}"
            )

    def flood_live_versions(self) -> int:
        """Check that every transit CServ holds the source's newest flood
        version; return the live versions at core 1-1."""
        net = self.dep.net
        newest = self.flood_cserv.store.get_eer(self.flood_id).latest_version().version
        for isd_as in self.flood_path[1:]:
            stored = net.cserv(isd_as).store.get_eer(self.flood_id)
            if stored.latest_version().version != newest:
                self.result.violation(
                    f"AS {isd_as} holds flood version "
                    f"{stored.latest_version().version}, the source {newest}"
                )
        core = net.cserv(self.flood_path[2]).store.get_eer(self.flood_id)
        return len(core.live_versions(net.clock.now()))


class DataPlaneRun:
    """One run of ``dp-honest`` (``adversaries=False``) or ``attack``."""

    def __init__(self, seed: int, adversaries: bool, result: Result, burst: int = BURST):
        self.seed = seed
        self.adversaries = adversaries
        self.result = result
        self.burst = burst
        self.speed = SpeedReference()
        self.factors = []  # per round: reference speed over measured
        self.honest_rng = rng_for("honest", seed)
        # Timed-part accumulators.
        self.timed_s = 0.0
        self.gateway_s = 0.0
        self.router_s = 0.0
        self.stamped = 0
        self.packet_hops = 0
        self.delivered = 0
        self.false_positives = 0
        self.rotations = 0
        self.bursts = []
        self.rounds = 0
        self.digest = hashlib.blake2b(digest_size=16)
        # Stamping time of every identifier of the last two generations
        # of REUSE_WINDOW simulated seconds each.
        self.recent = ({}, {})
        self.recent_since = None
        # Set-up durations, and the control-plane work between rounds.
        self.setup_durations = []
        self.setup_latencies = []
        self.renew_latencies = []
        self.control_s = 0.0
        # Traced and untraced halves of a traced run.
        self.split = {True: [0.0, 0], False: [0.0, 0]}

    # -- set-up -------------------------------------------------------------

    def set_up(self) -> None:
        """Build ``SETUP_REPEATS`` deployments, timing each at the
        reference host's speed; keep the last."""
        speed = self.speed
        for _ in range(SETUP_REPEATS):
            self.dep = None
            settle()
            mark = speed.mark()
            start = clock()
            dep = Deployment(self.adversaries, pause=speed.chunk)
            elapsed = clock() - start - (speed.busy_s - mark[0])
            self.setup_durations.append(elapsed * speed.scale(mark))
            self.dep = dep
        self.adversary = (
            Adversary(self.dep, self.seed, self.result) if self.adversaries else None
        )
        freeze()

    # -- timed part ---------------------------------------------------------

    def run(self, seconds: float, trace=None, rounds=None) -> None:
        """The whole rounds that take ``seconds`` of timed time on the
        reference host, at least ``MIN_ROUNDS``, or exactly ``rounds``.
        With a trace session, every second round is traced."""
        if rounds is None:
            per_round = ROUND_REFERENCE_S[self.adversaries]
            rounds = max(MIN_ROUNDS, round(seconds / per_round))
        while self.rounds < rounds:
            traced = trace is not None and self.rounds % 2 == 1
            if traced:
                trace.begin()
            mark = self.speed.mark()
            before = self._marks()
            with collector_off():
                elapsed = self._round()
            if traced:
                trace.end()
            factor = self.speed.scale(mark)
            self.factors.append(factor)
            self._rescale(before, factor)
            self.split[traced][0] += elapsed
            self.split[traced][1] += ROUND_BURSTS + len(self.dep.handles)
            self.rounds += 1
            self._after_round()

    def _marks(self) -> tuple:
        return (self.timed_s, self.gateway_s, self.router_s, self.control_s,
                len(self.bursts), len(self.setup_latencies), len(self.renew_latencies))

    def _rescale(self, before: tuple, factor: float) -> None:
        """Take what the round just measured to the reference host's
        speed, by the round's own samples of the host."""
        timed, gateway, router, control, bursts, setups, renewals = before
        self.timed_s = timed + (self.timed_s - timed) * factor
        self.gateway_s = gateway + (self.gateway_s - gateway) * factor
        self.router_s = router + (self.router_s - router) * factor
        self.control_s = control + (self.control_s - control) * factor
        for samples, start in ((self.bursts, bursts), (self.setup_latencies, setups),
                               (self.renew_latencies, renewals)):
            samples[start:] = [value * factor for value in samples[start:]]

    def _burst_inputs(self) -> list:
        """One honest burst: random reservations, so the σ-cache gets no
        locality, and payloads of 0 to 1,000 bytes."""
        rng = self.honest_rng
        res_ids = self.dep.res_ids
        count = len(res_ids)
        return [
            (res_ids[rng.randrange(count)], PAYLOADS[rng.randrange(MAX_PAYLOAD + 1)])
            for _ in range(self.burst)
        ]

    def _round(self) -> float:
        """Run one round; returns its timed CPU time: over bursts, the span
        from the first adversary call (or the gateway call) to the last
        verdict at the last hop, plus the refresh requests' calls."""
        control_before = self.control_s
        dep = self.dep
        net = dep.net
        gateway = dep.gateway
        routers = dep.routers
        last = len(routers) - 1
        filter0 = routers[0].duplicates
        adversary = self.adversary
        timed = 0.0
        inject = {}
        if adversary is not None:
            adversary.start_round()
        for burst_index in range(ROUND_BURSTS):
            requests = self._burst_inputs()
            now = net.advance(DT)
            rotated_at = filter0._rotated_at
            if adversary is not None:
                inject = adversary.prepare(burst_index)
            window_start = clock()
            over_packets = []
            if adversary is not None:
                adversary.flood(now)
                over_packets = adversary.overuse_packets()
                inject[2] = inject[2] + over_packets
            refused = gateway.packets_dropped
            start = clock()
            honest = gateway.send_batch(requests)
            stamped_at = clock()
            batch = honest
            if gateway.packets_dropped != refused:
                batch = [packet for packet in honest if isinstance(packet, ColibriPacket)]
            drops = []
            delivered = []
            injected = []
            router_s = 0.0
            for hop, router in enumerate(routers):
                extra = inject.get(hop)
                if extra:
                    batch = batch + extra
                hop_start = clock()
                results = router.process_batch(batch)
                router_s += clock() - hop_start
                self.packet_hops += len(batch)
                if len(results) != len(batch):
                    self.result.violation(
                        f"hop {hop}: {len(batch)} packets in, {len(results)} verdicts out"
                    )
                if extra:
                    injected.append((hop, results[len(results) - len(extra):]))
                forward = []
                for outcome in results:
                    verdict = outcome.verdict
                    if verdict is FORWARD:
                        forward.append(outcome.packet)
                    elif verdict is DELIVER and hop == last:
                        delivered.append(outcome.packet)
                    else:
                        drops.append((hop, outcome))
                batch = forward
            end = clock()
            timed += end - window_start
            self.timed_s += end - window_start
            self.bursts.append(end - start)
            self.gateway_s += stamped_at - start
            self.router_s += router_s
            if filter0._rotated_at != rotated_at:
                self.rotations += 1
            self._account(honest, delivered, drops, injected, over_packets, now)
            self._refresh_slice(burst_index)
            self.speed.chunk()
        return timed + self.control_s - control_before

    def _account(self, honest, delivered, drops, injected, over_packets, now) -> None:
        """Output checks of one burst, after its timing ended."""
        result = self.result
        if self.recent_since is None or now - self.recent_since >= REUSE_WINDOW:
            self.recent = ({}, self.recent[0])
            self.recent_since = now
        current, previous = self.recent
        honest_ids = set()
        for packet in honest:
            result.attempted += 1
            if not isinstance(packet, ColibriPacket):
                result.failed += 1
                result.violation(f"the gateway refused an honest packet: {packet!r}")
                continue
            identifier = packet.res_info.reservation.packed + packet.timestamp.packed
            stamped = current.get(identifier, previous.get(identifier))
            if stamped is not None and now - stamped < REUSE_WINDOW:
                result.violation(
                    "the gateway reused a (ResId, Ts) identifier within the duplicate window"
                )
            current[identifier] = now
            self.digest.update(identifier)
            honest_ids.add(id(packet))
        self.stamped += len(honest_ids)
        over_delivered = []
        honest_delivered = []
        for packet in delivered:
            if id(packet) in honest_ids:
                honest_delivered.append(packet)
            elif packet.res_info.src_as == OVERUSER_AS:
                over_delivered.append(packet)
            else:
                result.violation("a forged or replayed packet was delivered")
        self.delivered += len(honest_delivered)
        for hop, outcome in drops:
            if id(outcome.packet) not in honest_ids:
                continue
            result.failed += 1
            if outcome.verdict is Verdict.DROP_DUPLICATE:
                # The identifier was stamped once within the window (checked
                # above): the duplicate verdict is a Bloom-filter false
                # positive.
                self.false_positives += 1
            else:
                result.violation(
                    f"honest packet dropped at hop {hop}: {outcome.verdict.value}"
                )
        adversary = self.adversary
        if adversary is not None:
            for hop, outcomes in injected:
                count = len(outcomes)
                if hop == 2:
                    count -= len(over_packets)
                    outcomes = outcomes[:count]
                kind = "replay" if hop in REPLAY_HOPS else "forged"
                adversary.check_injected(kind, outcomes, now)
            adversary.account_overuse(OVERUSE_PACKETS, over_delivered, now)
            adversary.capture(honest_delivered)

    # -- refresh and drain --------------------------------------------------

    def _refresh_slice(self, burst_index: int) -> None:
        """After burst ``burst_index``, untimed for the data plane: refresh
        this burst's share of the honest population, one request every
        0.5 ms of simulated time.  Each EER is refreshed at the same point
        of every round, one round (15.46 s) after its previous version:
        in one round in ``REPLACE_EVERY`` by a fresh setup, otherwise by
        a renewal.  The replaced EERs simply expire.  Spread over the
        round, the requests sample the host as evenly as the bursts."""
        count = len(self.dep.handles)
        replace = self.rounds % REPLACE_EVERY
        first = burst_index * count // ROUND_BURSTS
        for index in range(first, (burst_index + 1) * count // ROUND_BURSTS):
            self._refresh_one(index, self.dep.handles[index], index % REPLACE_EVERY == replace)

    def _after_round(self) -> None:
        """Untimed: renew the overuser's EER while its AS is still
        admitted, sweep, and renew any SegR due within two rounds."""
        dep = self.dep
        net = dep.net
        if dep.overuse is not None:
            try:
                dep.overuse = net.cserv(OVERUSER_AS).renew_eer(dep.overuse)
            except Exception:  # denied once its overuse was confirmed
                dep.overuse = None
        net.housekeeping()
        dep.segments = renew_segments_due(
            net, dep.segments, net.clock.now() + 2 * ROUND_BURSTS * DT + 5.0
        )

    def drain(self) -> None:
        """Untimed, after the run: let every EER expire, sweep, and check
        that every AS holds no EER and no SegR allocation."""
        net = self.dep.net
        net.advance(EER_LIFETIME + 1.0)
        net.housekeeping()
        for isd_as in net.ases():
            store = net.cserv(isd_as).store
            if store.eer_count():
                self.result.violation(
                    f"AS {isd_as} holds {store.eer_count()} EERs after the drain"
                )
            for segment in store.segments():
                left = store.allocated_on_segment(segment.reservation_id)
                if left != 0:
                    self.result.violation(
                        f"AS {isd_as} SegR {segment.reservation_id} keeps {left} allocated"
                    )
        for problem in net.audit():
            self.result.violation(f"audit: {problem}")

    def _refresh_one(self, index: int, handle, fresh: bool) -> None:
        """Set up anew (``fresh``) or renew the ``index``-th honest EER,
        timing the call and checking what it returns."""
        dep = self.dep
        net = dep.net
        result = self.result
        now = net.clock.now()
        start = clock()
        try:
            if fresh:
                renewed = dep.cserv.setup_eer(HONEST_DST, *eer_hosts(index), EER_BANDWIDTH)
            else:
                renewed = dep.cserv.renew_eer(handle)
        except Exception as error:  # a refused request is a failed operation
            renewed = None
            result.failure(f"honest request failed: {type(error).__name__}: {error}")
        elapsed = clock() - start
        self.control_s += elapsed
        (self.setup_latencies if fresh else self.renew_latencies).append(elapsed)
        result.attempted += 1
        if renewed is not None:
            version = 1 if fresh else handle.res_info.version + 1
            if renewed.res_info.version != version:
                result.violation("a setup or renewal returned the wrong version")
            if renewed.res_info.expiry != now + EER_LIFETIME:
                result.violation("a setup or renewal's expiry is not call time + 16 s")
            if renewed.granted != EER_BANDWIDTH:
                result.violation("a setup or renewal granted less than requested")
            dep.handles[index] = renewed
            dep.res_ids[index] = renewed.reservation_id
        net.advance(CONTROL_SPACING)

    # -- results ------------------------------------------------------------

    def dataplane_metrics(self) -> None:
        result = self.result
        if self.false_positives:
            print(f"honest packets lost to duplicate-filter false positives: "
                  f"{self.false_positives}")
        bursts = sorted(self.bursts)
        result.metric("delivered_pps", self.delivered / self.timed_s, "pkt/s")
        result.metric("gateway_pps", self.stamped / self.gateway_s, "pkt/s")
        result.metric("router_pps", self.packet_hops / self.router_s, "pkt/s")
        result.metric("burst_p50_us", quantile(bursts, 0.5) * 1e6, "us")
        result.metric("burst_p99_us", quantile(bursts, 0.99) * 1e6, "us")

    def control_metrics(self) -> None:
        """Setups of the set-up phase and renewals between rounds."""
        result = self.result
        setups = sorted(self.setup_latencies)
        renewals = sorted(self.renew_latencies)
        requests = len(setups) + len(renewals)
        result.metric("req_per_s", requests / self.control_s, "req/s")
        result.metric("eer_setup_p50_ms", quantile(setups, 0.5) * 1e3, "ms")
        result.metric("eer_setup_p99_ms", quantile(setups, 0.99) * 1e3, "ms")
        result.metric("eer_renew_p50_ms", quantile(renewals, 0.5) * 1e3, "ms")
        result.metric("eer_renew_p99_ms", quantile(renewals, 0.99) * 1e3, "ms")

    def summary(self) -> str:
        tail = len(self.bursts) - int(0.99 * (len(self.bursts) - 1)) - 1
        text = (
            f"rounds {self.rounds}, bursts {len(self.bursts)} ({tail} beyond p99), "
            f"rotating bursts {self.rotations}, setups {len(self.setup_latencies)}, "
            f"renewals {len(self.renew_latencies)}, honest digest {self.digest.hexdigest()}, "
            f"host speed against the reference {median(self.factors):.3f} "
            f"(rounds {min(self.factors):.3f} to {max(self.factors):.3f})"
        )
        adversary = self.adversary
        if adversary is not None:
            text += (
                f"; injected {adversary.injected}, overuse delivered "
                f"{adversary.over_delivered}, flood renewals admitted "
                f"{adversary.flood_admitted}"
            )
        return text

    def setup_s(self) -> float:
        return median(self.setup_durations)
