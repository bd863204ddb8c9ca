"""Small-scale self-tests of the benchmark's output checks.

    python3 perfbench/selftest.py

Each check is shown to pass on the unmodified program and to fail when
its output is planted wrong: a router that loses a verdict, drops an
honest packet or lets a replay through, a gateway that reuses an
identifier, a detector that never flags, a CServ that returns the wrong
version or grant, a sweep that leaves state behind.  Workload sizes are
shrunk so the whole file runs in well under a minute.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import Result  # noqa: E402  (first: puts the program on the path)
import dataplane  # noqa: E402
import layers  # noqa: E402
from repro.dataplane.router import RouterResult, Verdict  # noqa: E402
from repro.packets.colibri import ColibriPacket  # noqa: E402

dataplane.EERS = 40
# Rounds must span more than the 2.4 s both Bloom filters cover: with
# renewals closer together than that, packets of two EER versions can
# carry the same (ResId, Ts) identifier (Ts counts down to ExpT), and the
# identifier-reuse check rightly fires.
dataplane.ROUND_BURSTS = 40
dataplane.SETUP_REPEATS = 1
BURST = 16
ROUNDS = 2


def dataplane_run(adversaries: bool, seed: int = 7, plant=None, drain_plant=None) -> tuple:
    result = Result()
    run = dataplane.DataPlaneRun(seed, adversaries, result, burst=BURST)
    run.set_up()
    if plant is not None:
        plant(run)
    run.run(0.0, rounds=ROUNDS)
    if drain_plant is not None:
        drain_plant(run)
    run.drain()
    return run, result


def flood_failures(run) -> int:
    return run.adversary.flood_admitted if run.adversary is not None else 0


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def wrap_router(run, hop: int, change) -> None:
    router = run.dep.routers[hop]
    original = router.process_batch

    def planted(batch):
        return change(original(batch))

    router.process_batch = planted


# -- dp-honest ------------------------------------------------------------------


def test_clean_dataplane_passes():
    run, result = dataplane_run(False)
    expect(result.correct, f"clean dp-honest failed its checks: {result.violations}")
    expect(result.failed == 0, f"clean dp-honest failed {result.failed} operations")
    expect(run.delivered == run.stamped == ROUNDS * dataplane.ROUND_BURSTS * BURST,
           "clean dp-honest did not deliver every honest packet")


def test_lost_verdict_is_caught():
    run, result = dataplane_run(False, plant=lambda r: wrap_router(r, 3, lambda out: out[:-1]))
    expect(any("verdicts out" in v for v in result.violations),
           "a router returning fewer verdicts than packets went unnoticed")


def test_honest_drop_must_be_a_false_positive():
    def stale(out):
        out[0] = RouterResult(verdict=Verdict.DROP_STALE, packet=out[0].packet)
        return out

    run, result = dataplane_run(False, plant=lambda r: wrap_router(r, 2, stale))
    expect(any("honest packet dropped" in v for v in result.violations),
           "an honest packet dropped as stale was not flagged")

    def duplicate(out):
        out[0] = RouterResult(verdict=Verdict.DROP_DUPLICATE, packet=out[0].packet)
        return out

    run, result = dataplane_run(False, plant=lambda r: wrap_router(r, 2, duplicate))
    expect(result.correct and run.false_positives == result.failed > 0,
           "a duplicate verdict on a unique honest packet was not counted "
           "as a failed operation and a Bloom-filter false positive")


def test_identifier_reuse_is_caught():
    def plant(run):
        gateway = run.dep.gateway
        original = gateway.send_batch

        def reuse(requests):
            out = original(requests)
            out[1] = ColibriPacket.from_bytes(out[0].to_bytes())
            return out

        gateway.send_batch = reuse

    _, result = dataplane_run(False, plant=plant)
    expect(any("reused" in v for v in result.violations),
           "a gateway stamping one identifier twice went unnoticed")


# -- attack ---------------------------------------------------------------------


def test_clean_attack_passes_and_matches_dp_honest():
    honest, _ = dataplane_run(False)
    run, result = dataplane_run(True)
    expect(result.correct, f"clean attack failed its checks: {result.violations}")
    flood = ROUNDS * dataplane.ROUND_BURSTS * dataplane.FLOOD_RENEWALS
    expect(run.adversary.flood_admitted == flood,
           "transit CServs refused flood renewals (the interval fault is mended?)")
    expect(result.failed == flood,
           f"attack failed {result.failed} operations, expected the {flood} flood renewals")
    expect(run.adversary.over_delivered > 0, "the overuser never got a packet through")
    expect(run.digest.hexdigest() == honest.digest.hexdigest()
           and run.delivered == honest.delivered,
           "attack's honest traffic differs from dp-honest's on the same seed")
    other, _ = dataplane_run(True, seed=8)
    expect(other.digest.hexdigest() != honest.digest.hexdigest(),
           "the honest-traffic comparison cannot tell two seeds apart")


def test_replay_let_through_is_caught():
    def forward_replays(out):
        return [
            RouterResult(verdict=Verdict.FORWARD, packet=o.packet, egress=None)
            if o.verdict in dataplane.REPLAY_DROPS else o
            for o in out
        ]

    def plant(run):
        wrap_router(run, 1, forward_replays)

        # The next router would catch what hop 1 let through; make it
        # equally blind so the replay reaches the destination.
        def forward_all_drops(out):
            return [
                RouterResult(verdict=Verdict.FORWARD, packet=o.packet, egress=None)
                if o.verdict in dataplane.REPLAY_DROPS else o
                for o in out
            ]

        for hop in range(2, 5):
            wrap_router(run, hop, forward_all_drops)

    run, result = dataplane_run(True, plant=plant)
    expect(result.failed > flood_failures(run), "replays let through were not counted failed")
    expect(not result.correct and any("got past its first router" in v for v in result.violations),
           "replays let through did not fail the run's checks")


def test_forgery_let_through_is_caught():
    def forward_bad_hvf(out):
        return [
            RouterResult(verdict=Verdict.FORWARD, packet=o.packet, egress=None)
            if o.verdict is Verdict.DROP_BAD_HVF else o
            for o in out
        ]

    def plant(run):
        wrap_router(run, 2, forward_bad_hvf)

    run, result = dataplane_run(True, plant=plant)
    expect(not result.correct and any("forgery got past" in v for v in result.violations),
           "a forgery forwarded by its first router did not fail the run's checks")


def test_undetected_overuse_is_caught():
    def plant(run):
        for router in run.dep.routers:
            router.ofd.observe = lambda *args: False

    run, result = dataplane_run(True, plant=plant)
    expect(result.failed > flood_failures(run),
           "an overuser delivering beyond its reservation was not counted failed")
    expect(not result.correct and any("over its allowance" in v for v in result.violations),
           "an overuser delivering beyond its reservation did not fail the run's checks")


def test_flood_failures_follow_the_interval_fault():
    def plant(run):
        # Mend the fault by hand: every transit CServ refuses a renewal
        # of one EER less than 1 s after the previous one.
        flood_id = run.adversary.flood_id
        path = run.adversary.flood_path
        last = {(isd_as, flood_id): run.dep.adversary_setup_at for isd_as in path}
        for isd_as in path[1:-1]:
            cserv = run.dep.net.cserv(isd_as)
            original = cserv.handle_eer_renewal

            def enforce(request, auth, hop_index, _original=original, _cserv=cserv):
                now = _cserv.clock.now()
                key = (_cserv.isd_as, request.reservation)
                if now - last.get(key, -10.0) < 1.0:
                    request = type(request)(
                        reservation=request.reservation, new_bandwidth=0.0,
                        new_expiry=request.new_expiry, new_version=request.new_version,
                        grants=request.grants,
                    )
                else:
                    last[key] = now
                return _original(request, auth, hop_index)

            cserv.handle_eer_renewal = enforce

    run, result = dataplane_run(True, plant=plant)
    expect(result.failed == 0,
           f"with the interval enforced at transit, {result.failed} operations still failed")


# -- control plane and drain ----------------------------------------------------


def test_wrong_version_is_caught():
    def plant(run):
        cserv = run.dep.cserv
        original = cserv.renew_eer

        def renew(handle):
            renewed = original(handle)
            renewed.res_info = type(renewed.res_info)(
                reservation=renewed.res_info.reservation,
                bandwidth=renewed.res_info.bandwidth,
                expiry=renewed.res_info.expiry,
                version=renewed.res_info.version + 1,
            )
            return renewed

        cserv.renew_eer = renew

    _, result = dataplane_run(False, plant=plant)
    expect(any("wrong version" in v for v in result.violations),
           "a renewal returning the wrong version went unnoticed")


def test_short_grant_is_caught():
    def plant(run):
        cserv = run.dep.cserv
        original = cserv.setup_eer

        def setup(*args, **kwargs):
            handle = original(*args, **kwargs)
            handle.granted /= 2
            return handle

        cserv.setup_eer = setup

    _, result = dataplane_run(False, plant=plant)
    expect(any("granted less than requested" in v for v in result.violations),
           "a setup granting less than requested went unnoticed")


def test_leftover_state_is_caught():
    def plant(run):
        # One transit CServ stops sweeping before the final drain.
        run.dep.net.cserv(run.dep.path[2]).housekeeping = lambda: {}

    _, result = dataplane_run(False, drain_plant=plant)
    expect(any("after the drain" in v for v in result.violations),
           "EERs left behind after the final sweep went unnoticed")


# -- the metric names -----------------------------------------------------------


def test_benchmark_json_lists_the_reported_metrics():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(layers.END_TO_END),
           "BENCHMARK.json end_to_end differs from layers.END_TO_END")
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.per_layer_names(),
           "BENCHMARK.json per_layer differs from layers.per_layer_names()")


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failures = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError as error:
            failures += 1
            print(f"FAIL {name}: {error}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failures}/{len(tests)} self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
