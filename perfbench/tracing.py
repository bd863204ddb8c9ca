"""Spans around the program's public calls, installed from the
benchmark's side.

The traced run wraps the calls listed in ``LAYER_CALLS`` on the live
objects of one deployment (instance attributes, or the class / module
attribute for constructors and free functions).  Each call records a
span: name, start, end and parent, by nesting on one stack, since the
program runs in one thread.  Per name the tracer keeps

* ``calls``: completed calls;
* ``busy_s``: time inside the call (on the benchmark's clock, CPU time),
  counting nested calls of the same name once;
* ``self_s``: busy time minus the time its child spans cover.

Spans are kept in memory for every ``SAMPLE_EVERY``-th root span, up to
``SPAN_CAP`` records, and written out as JSON when the run ends; the
aggregates above cover every call.  ``uninstall`` restores the original
attributes, so untraced rounds of a traced run execute the program
exactly as an untraced run does.
"""

from __future__ import annotations

import json
import os

from common import clock as _clock

SAMPLE_EVERY = 64
SPAN_CAP = 200_000

#: Timed calls, in reporting order.  The router entries are per hop
#: position on the 6-AS path; the CServ handlers also keep a per-hop
#: self time (``HOP_SELF``).
LAYER_CALLS = (
    "dataplane.gateway.send_batch",
    "dataplane.gateway.install",
    *(f"dataplane.router.process_batch.hop{i}" for i in range(6)),
    "dataplane.duplicate.check_and_insert",
    "dataplane.sigma_cache.lookup",
    "dataplane.ofd.observe",
    "dataplane.monitor.check",
    "control.cserv.setup_eer",
    "control.cserv.renew_eer",
    "control.cserv.handle_eer_setup",
    "control.cserv.handle_eer_renewal",
    "control.cserv.housekeeping",
    "control.rpc.call",
    "control.retry.call",
    "admission.eer_admission.decide",
    "admission.eer_admission.renew_delta",
    "admission.eer_admission.commit_renewal",
    "reservation.store.add_eer",
    "reservation.store.get_eer",
    "reservation.store.sweep_expired_details",
    "reservation.e2e.prune",
    "crypto.auth.create",
    "crypto.auth.verify_at",
    "crypto.auth.add_grant_mac",
    "crypto.aead.seal",
    "crypto.aead.open",
)
HOP_SELF = tuple(
    f"control.cserv.{handler}.hop{i}"
    for handler in ("handle_eer_setup", "handle_eer_renewal")
    for i in range(6)
)


class Tracer:
    """Nesting span recorder with per-name aggregates."""

    def __init__(self):
        self._stack: list = []
        #: name -> [calls, busy_s, self_s, active depth]
        self.stats: dict = {}
        self.spans: list = []
        #: Time inside root spans: the part of the traced time some layer
        #: accounts for.
        self.root_s = 0.0
        self._roots = 0
        self._recording = False
        self._next_id = 0
        self._patches: list = []

    # -- recording ------------------------------------------------------------

    def _entry(self, name: str) -> list:
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0, 0.0, 0.0, 0]
        return entry

    def wrap(self, fn, *names):
        """``fn`` wrapped in a span counted under each of ``names``."""
        entries = [self._entry(name) for name in names]
        label = names[-1]
        stack = self._stack
        clock = _clock
        tracer = self

        def traced(*args, **kwargs):
            if not stack:
                tracer._roots += 1
                tracer._recording = (
                    tracer._roots % SAMPLE_EVERY == 1
                    and len(tracer.spans) < SPAN_CAP
                )
            frame = [0.0, tracer._next_id]
            tracer._next_id += 1
            parent = stack[-1][1] if stack else None
            stack.append(frame)
            for entry in entries:
                entry[3] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                own = duration - frame[0]
                for entry in entries:
                    entry[0] += 1
                    entry[3] -= 1
                    if entry[3] == 0:
                        entry[1] += duration
                    entry[2] += own
                if stack:
                    stack[-1][0] += duration
                else:
                    tracer.root_s += duration
                if tracer._recording:
                    tracer.spans.append((frame[1], parent, label, start, end))

        traced.__wrapped__ = fn
        return traced

    # -- installation ---------------------------------------------------------

    def patch(self, target, attribute: str, *names) -> None:
        """Replace ``target.attribute`` by its traced form."""
        had_own = attribute in getattr(target, "__dict__", {})
        original = getattr(target, attribute)
        if isinstance(target, type) and isinstance(
            target.__dict__.get(attribute), classmethod
        ):
            raw = target.__dict__[attribute]
            wrapped = classmethod(self.wrap(raw.__func__, *names))
            setattr(target, attribute, wrapped)
            self._patches.append((target, attribute, raw, True))
            return
        if isinstance(target, type):
            original = target.__dict__[attribute]
        setattr(target, attribute, self.wrap(original, *names))
        self._patches.append((target, attribute, original, had_own))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        for target, attribute, original, had_own in reversed(self._patches):
            if had_own or isinstance(target, type) or not hasattr(target, "__dict__"):
                setattr(target, attribute, original)
            else:
                delattr(target, attribute)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def value(self, name: str, field: str) -> float:
        entry = self.stats.get(name)
        if entry is None:
            return 0
        return {"calls": entry[0], "busy_s": entry[1], "self_s": entry[2]}[field]

    def self_total(self, names) -> float:
        return sum(self.value(name, "self_s") for name in names)

    def dump(self, path: str) -> None:
        """Write the aggregates and the sampled spans as JSON."""
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "sample_every_root": SAMPLE_EVERY,
                    "layers": {
                        name: {"calls": e[0], "busy_s": e[1], "self_s": e[2]}
                        for name, e in sorted(self.stats.items())
                    },
                    "spans": [
                        {"id": s[0], "parent": s[1], "name": s[2],
                         "start": s[3], "end": s[4]}
                        for s in self.spans
                    ],
                },
                handle,
            )


def install(tracer: Tracer, net, hop_routers: list) -> None:
    """Wrap every call of ``LAYER_CALLS`` on the deployment ``net``.

    ``hop_routers`` lists the routers of the 6-AS path in hop order; a
    router on another path keeps its plain ``process_batch``.
    """
    from repro.control import auth, cserv
    from repro.reservation.e2e import E2EReservation

    tracer.patch(auth.AuthenticatedRequest, "create", "crypto.auth.create")
    tracer.patch(auth.AuthenticatedRequest, "verify_at", "crypto.auth.verify_at")
    tracer.patch(
        auth.AuthenticatedRequest, "add_grant_mac", "crypto.auth.add_grant_mac"
    )
    tracer.patch(cserv, "aead_seal", "crypto.aead.seal")
    tracer.patch(cserv, "aead_open", "crypto.aead.open")
    tracer.patch(E2EReservation, "prune", "reservation.e2e.prune")
    tracer.patch(net.bus, "call", "control.rpc.call")
    for position, router in enumerate(hop_routers):
        tracer.patch(
            router, "process_batch", f"dataplane.router.process_batch.hop{position}"
        )
    for isd_as in net.ases():
        stack = net.stack(isd_as)
        router = stack.router
        tracer.patch(
            router.duplicates, "check_and_insert",
            "dataplane.duplicate.check_and_insert",
        )
        if router.sigma_cache is not None:
            tracer.patch(router.sigma_cache, "lookup", "dataplane.sigma_cache.lookup")
        tracer.patch(router.ofd, "observe", "dataplane.ofd.observe")
        tracer.patch(router.monitor, "check", "dataplane.monitor.check")
        gateway = stack.gateway
        tracer.patch(gateway, "send_batch", "dataplane.gateway.send_batch")
        tracer.patch(gateway, "install", "dataplane.gateway.install")
        service = stack.cserv
        tracer.patch(service, "setup_eer", "control.cserv.setup_eer")
        tracer.patch(service, "renew_eer", "control.cserv.renew_eer")
        tracer.patch(service, "housekeeping", "control.cserv.housekeeping")
        tracer.patch(service.caller, "call", "control.retry.call")
        admission = service.eer_admission
        tracer.patch(admission, "decide", "admission.eer_admission.decide")
        tracer.patch(admission, "renew_delta", "admission.eer_admission.renew_delta")
        tracer.patch(
            admission, "commit_renewal", "admission.eer_admission.commit_renewal"
        )
        store = service.store
        tracer.patch(store, "add_eer", "reservation.store.add_eer")
        tracer.patch(store, "get_eer", "reservation.store.get_eer")
        tracer.patch(
            store, "sweep_expired_details", "reservation.store.sweep_expired_details"
        )
        _patch_handlers(tracer, service)


def _patch_handlers(tracer: Tracer, service) -> None:
    """Handlers are counted in aggregate and, by the hop position of the
    call, per AS on the path."""
    for handler in ("handle_eer_setup", "handle_eer_renewal"):
        original = getattr(service, handler)
        per_hop = {
            i: tracer.wrap(original, f"control.cserv.{handler}", f"control.cserv.{handler}.hop{i}")
            for i in range(6)
        }
        aggregate = tracer.wrap(original, f"control.cserv.{handler}")

        def dispatch(request, auth, hop_index, _per_hop=per_hop, _aggregate=aggregate):
            return _per_hop.get(hop_index, _aggregate)(request, auth, hop_index)

        setattr(service, handler, dispatch)
        tracer._patches.append((service, handler, original, False))


def layer_table(tracer: Tracer, wall_s: float) -> str:
    """Human-readable per-layer self-time table, largest first."""
    rows = []
    for name in LAYER_CALLS + HOP_SELF:
        entry = tracer.stats.get(name)
        if entry is None or entry[0] == 0:
            continue
        rows.append((entry[2], name, entry[0], entry[1]))
    rows.sort(reverse=True)
    lines = [f"{'layer':<48} {'calls':>9} {'busy_s':>9} {'self_s':>9} {'self%':>6}"]
    for self_s, name, calls, busy_s in rows:
        share = 100.0 * self_s / wall_s if wall_s > 0 else 0.0
        lines.append(f"{name:<48} {calls:>9} {busy_s:>9.3f} {self_s:>9.3f} {share:>6.1f}")
    return "\n".join(lines)
