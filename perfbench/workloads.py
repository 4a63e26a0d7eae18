"""The three workloads: two campaigns and an upload replay.

Everything runs in this one process with one ingest worker; nothing is
started besides.  A *world* is the paper city with its cell towers,
traffic field, fingerprint survey and backend server
(``repro.sim.world.World``); building one is the set-up whose time is
``setup_s``.  Every time is taken with a :class:`~perfbench.hostspeed.SpeedMeter`
and reported at the reference host speed.

``campaign_fast`` / ``campaign_dsp``
    One operation builds a world with its own seed, derived from the
    run's seed, and runs one campaign (``World.run``) on it, as a user of
    ``repro simulate`` does.  A run makes at least :data:`SETUP_REPEATS`
    operations and goes on until the run length is spent; ``setup_s`` is
    the median world build.  Each of the first :data:`SETUP_REPEATS`
    operations then replays its delivered uploads (store-less passes, a
    journaled pass and a recovery, without a fingerprint rebuild, so the
    recovered state must equal the live one) and counts towards the
    accuracy figures, which therefore depend on the seed alone.

``upload_replay``
    Set-up builds the world :data:`SETUP_REPEATS` times, runs one
    campaign for its uploads and re-surveys a second fingerprint
    database.  One operation is one replay round:
    :data:`STORELESS_PASSES` store-less passes, one pass journaling to
    an append-log store, and one ``recover()`` from that store.  Every
    pass adopts the second database halfway.  The rebuild is not
    journaled, so recovery replays the second half against the first
    database; each round counts that recovery as one failed operation.

Throughputs pool every timed operation of a run: work done over the
time it took.
"""

from __future__ import annotations

import gc
import math
import os
import shutil
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from perfbench import checks, hostspeed

_clock = time.perf_counter

#: World builds per run, and the least number of campaign operations.
SETUP_REPEATS = 3
#: Store-less passes per replay round of ``upload_replay``.
STORELESS_PASSES = 3
#: receive_trip calls a run times at least.
MIN_TIMED_TRIPS = 1000
#: Samples per run whose match verdicts are compared with the oracle.
ORACLE_SAMPLES = 60
#: Append-log fsync policy of the journaled pass (the CLI default).
FSYNC = "batch"


@dataclass(frozen=True)
class Spec:
    """The make-up of one workload's inputs."""

    start: str
    end: str
    full_dsp: bool = False
    #: Route ids, or None for all 16 directed routes.
    routes: Optional[Tuple[str, ...]] = None
    #: Whether the timed operation is a replay round (else a campaign).
    replay: bool = False


WORKLOADS: Dict[str, Spec] = {
    "campaign_fast": Spec("08:00", "08:10"),
    "campaign_dsp": Spec(
        "08:00", "08:05", full_dsp=True, routes=("179-0", "240-0", "252-0", "282-0")
    ),
    "upload_replay": Spec("08:00", "08:15", replay=True),
}


def op_seed(seed: int, k: int) -> int:
    """World seed of operation ``k`` of a run with ``seed``."""
    if k == 0:
        return seed
    import numpy as np

    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


@dataclass
class Timeline:
    """A campaign's delivered uploads with their arrival times."""

    uploads: List
    arrivals: List[float]
    start_s: float
    end_s: float


@dataclass
class Tally:
    """Operations, timings and check figures gathered over one run."""

    attempted: int = 0
    failed: int = 0
    setup_s: List[float] = field(default_factory=list)
    campaign_s: List[float] = field(default_factory=list)
    campaign_samples: int = 0
    storeless_trips: int = 0
    storeless_s: float = 0.0
    journaled_trips: int = 0
    journaled_s: float = 0.0
    recovered_trips: int = 0
    recover_s: float = 0.0
    speed_errors: List[float] = field(default_factory=list)
    figures: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    def count(self, **figures: float) -> None:
        for name, value in figures.items():
            self.figures[name] = self.figures.get(name, 0) + value


class Bench:
    """One run of one workload."""

    def __init__(self, spec: Spec, seed: int, tmp_dir: str, tracer=None, meter=None):
        self.spec = spec
        self.seed = seed
        self.tmp_dir = tmp_dir
        self.tracer = tracer
        self.meter = meter if meter is not None else hostspeed.SpeedMeter()
        self.tally = Tally()
        self._stores = 0
        self._reference: Optional[Tuple[Timeline, Dict]] = None

    # -- tracing helpers -----------------------------------------------------

    def _phase(self, name: str):
        return self.tracer.phase(name) if self.tracer else nullcontext()

    def _note_server(self, server) -> None:
        if self.tracer:
            self.tracer.add("server.legs_estimated", server.stats.legs_estimated)
            self.tracer.add("server.legs_rejected", server.stats.legs_rejected)

    # -- worlds and campaigns ------------------------------------------------

    def build_world(self, seed: int):
        """Build the paper city and its world; the time is a set-up sample."""
        from repro.city import builder
        from repro.sim.world import World

        gc.collect()
        with self._phase("setup"), self.meter.measure() as took:
            world = World(city=builder.build_city(), seed=seed)
        self.tally.setup_s.append(took.seconds)
        return world

    @staticmethod
    def fresh_server(world, store=None):
        """A new backend server over ``world``'s city and survey."""
        from repro.core.server import BackendServer

        server = BackendServer(
            world.city.network, world.city.route_network, world.database,
            world.config, store=store,
        )
        if server.analytics is not None:
            server.analytics.bind_schedule(world.config.bus.headway_s)
        return server

    def campaign(self, world):
        """One ``World.run`` over the workload's window.

        Returns (result, timeline, wall seconds).  The delivered uploads
        and their arrival times are taken from the uplink layer's entry
        point, which ``World.run`` does not return.
        """
        from repro.phone.app import DspMode
        from repro.sim.uplink import UplinkChannel
        from repro.util.units import parse_hhmm

        original = UplinkChannel.transmit_all
        delivered: List = []

        def capture(channel, ready):
            delivered.extend(original(channel, ready))
            return delivered

        gc.collect()
        UplinkChannel.transmit_all = capture
        try:
            with self.meter.measure() as took:
                result = world.run(
                    parse_hhmm(self.spec.start),
                    parse_hhmm(self.spec.end),
                    route_ids=self.spec.routes,
                    dsp_mode=DspMode.FULL if self.spec.full_dsp else DspMode.FAST,
                    with_official_feed=False,
                )
        finally:
            UplinkChannel.transmit_all = original
        timeline = Timeline(
            uploads=[u for _, u in delivered],
            arrivals=[max(a, result.start_s) for a, _ in delivered],
            start_s=result.start_s,
            end_s=result.end_s,
        )
        self._note_server(result.server)
        return result, timeline, took.seconds

    def check_outputs(self, world, server, reports, uploads, traces) -> int:
        """Check one server's outputs; returns its trips_mapped."""
        tally = self.tally
        stats = server.stats.as_dict()
        tally.problems += checks.conservation_errors(stats, uploads)
        mapped = [
            (r.trip_key, r.mapped.stops)
            for r in reports
            if r.mapped is not None and len(r.mapped.stops) >= 2
        ]
        if len(mapped) != stats["trips_mapped"]:
            tally.problems.append(
                f"{len(mapped)} reports map two or more stops, trips_mapped "
                f"says {stats['trips_mapped']}"
            )
        errors, total = checks.stop_identification(mapped, traces)
        violations, transfers = checks.route_order_violations(
            [[s.station_id for s in stops] for _, stops in mapped],
            world.city.route_network.routes,
            world.config.trip_mapping.allow_transfers,
        )
        tally.count(
            stop_errors=errors, stops_checked=total,
            route_order_violations=violations, transfer_pairs=transfers,
        )
        if self.spec.full_dsp:
            taps, detected, stray = checks.beep_recall(
                uploads, traces, world.config.beep.window_ms / 1000.0
            )
            tally.count(taps=taps, taps_detected=detected, stray_detections=stray)
            tally.figures["min_recall"] = world.config.riders.beep_detect_probability
        return stats["trips_mapped"]

    # -- replay --------------------------------------------------------------

    def replay(self, world, timeline: Timeline, rebuild=None, store=None, timed=False):
        """Feed the uploads to a fresh server in delivery order.

        Publishes every fusion period, as the campaign's event engine
        does.  Halfway through, snapshots when ``store`` is attached and
        adopts the ``rebuild`` fingerprint database when given.  With
        ``timed``, each ``receive_trip`` call is timed.  Returns
        (server, reports).
        """
        meter = self.meter
        server = self.fresh_server(world, store)
        period = world.config.fusion.update_period_s
        horizon = max([timeline.end_s] + timeline.arrivals) + 1.0
        tick = timeline.start_s + period
        half = len(timeline.uploads) // 2
        reports = []
        for i, (arrival, upload) in enumerate(zip(timeline.arrivals, timeline.uploads)):
            while tick <= arrival:
                server.publish(tick)
                tick += period
            if i == half:
                if store is not None:
                    server.maybe_snapshot(force=True)
                if rebuild is not None:
                    server.rebuild_fingerprints(rebuild)
            # Each trip sits between two probes of its own.
            meter.tick(force=True)
            if timed:
                t0 = _clock()
                reports.append(server.receive_trip(upload, now_s=arrival))
                meter.add_latency(_clock() - t0)
            else:
                reports.append(server.receive_trip(upload, now_s=arrival))
        while tick <= horizon:
            server.publish(tick)
            tick += period
        self._note_server(server)
        return server, reports

    def replay_round(self, world, timeline: Timeline, passes: int, rebuild=None):
        """Store-less passes, a journaled pass and a recovery.

        Returns the first store-less pass's (server, reports).  The
        recovery counts as failed when its state differs from the live
        journaled server's; that is an accepted outcome only with a
        rebuild, and only as the known unjournaled-rebuild fault.
        """
        from repro.store import open_store

        tally = self.tally
        n = len(timeline.uploads)
        first = None
        for _ in range(passes):
            gc.collect()
            with self.meter.measure() as took:
                outcome = self.replay(world, timeline, rebuild, timed=True)
            tally.storeless_s += took.seconds
            tally.storeless_trips += n
            tally.attempted += 1
            tally.problems += checks.conservation_errors(
                outcome[0].stats.as_dict(), timeline.uploads
            )
            first = first or outcome

        self._stores += 1
        path = os.path.join(self.tmp_dir, f"store-{self._stores}")
        try:
            gc.collect()
            with self.meter.measure() as took, open_store(
                path, backend="appendlog", fsync=FSYNC
            ) as store:
                live, _ = self.replay(world, timeline, rebuild, store=store)
            tally.journaled_trips += n
            tally.journaled_s += took.seconds
            tally.attempted += 1
            if self.tracer:
                for name in ("wal", "snapshot"):
                    self.tracer.add(f"store.{name}_bytes", sum(
                        os.path.getsize(os.path.join(path, f))
                        for f in os.listdir(path) if f.startswith(name)
                    ))

            gc.collect()
            with self.meter.measure() as took, open_store(
                path, backend="appendlog", fsync=FSYNC
            ) as store:
                recovered = self.fresh_server(world, store)
                recovered.recover()
            tally.recovered_trips += n
            tally.recover_s += took.seconds
            tally.attempted += 1
        finally:
            shutil.rmtree(path, ignore_errors=True)

        live_state = live.state_dict()
        if checks.without_seq(live_state) != checks.without_seq(first[0].state_dict()):
            tally.problems.append("journaled server state differs from the store-less one")
        outcome = checks.recovery_outcome(
            live_state, recovered.state_dict(),
            lambda: self._never_rebuilt(world, timeline),
        )
        if outcome != "equal":
            tally.failed += 1
            if rebuild is None or outcome != "known_fault":
                tally.problems.append(f"recovered state {outcome} from the live state")
        return first

    def _never_rebuilt(self, world, timeline: Timeline) -> Dict:
        """State of a store-less replay without the rebuild (made once)."""
        if self._reference is None or self._reference[0] is not timeline:
            self._reference = (timeline, self.replay(world, timeline)[0].state_dict())
        return self._reference[1]

    def check_oracle(self, world, timeline: Timeline, rebuild) -> None:
        """Compare match verdicts on a seeded subset of samples with the
        oracle's, against both fingerprint databases."""
        import numpy as np

        from repro.testkit.oracles import OracleMatcher

        samples = [s.tower_ids for u in timeline.uploads for s in u.samples]
        rng = np.random.default_rng([self.seed, 0xBE4C])
        picked = [samples[i] for i in rng.choice(len(samples), ORACLE_SAMPLES, replace=False)]
        server = self.fresh_server(world)
        for database in (world.database, rebuild):
            server.rebuild_fingerprints(database)
            oracle = OracleMatcher(database.as_dict(), world.config.matching)
            self.tally.count(
                verdict_mismatches=checks.verdict_mismatches(server.matcher, oracle, picked)
            )

    # -- the run -------------------------------------------------------------

    def run(self, seconds: float) -> Dict:
        """Set up, measure for ``seconds``, check; returns the report."""
        import resource

        tally = self.tally
        if self.spec.replay:
            self._run_replay(seconds)
        else:
            self._run_campaigns(seconds)
        figures = tally.figures
        figures["campaign_s"] = statistics.median(tally.campaign_s)
        figures["speed_err_p50_kmh"] = checks.median(tally.speed_errors)
        tally.problems += checks.failures(figures)
        latencies_ms = sorted(1000.0 * s for s in self.meter.latencies())
        metrics = {
            "setup_s": self._setup_s,
            "campaign_samples_per_s": tally.campaign_samples / sum(tally.campaign_s),
            "trips_mapped_share": figures["trips_mapped"] / figures["trips_received"],
            "speed_err_p50_kmh": figures["speed_err_p50_kmh"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ingest_trips_per_s": tally.storeless_trips / tally.storeless_s,
            "ingest_trip_p50_ms": statistics.median(latencies_ms),
            "ingest_trip_p90_ms": statistics.quantiles(latencies_ms, n=10)[8],
            "journaled_trips_per_s": tally.journaled_trips / tally.journaled_s,
            "recover_trips_per_s": tally.recovered_trips / tally.recover_s,
        }
        return {
            "metrics": metrics,
            "figures": figures,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "problems": tally.problems,
            "timed_trips": len(latencies_ms),
        }

    def _run_campaigns(self, seconds: float) -> None:
        deadline = _clock() + seconds
        k = 0
        while k < SETUP_REPEATS or _clock() < deadline:
            self._campaign_op(k)
            k += 1
        self._setup_s = statistics.median(self.tally.setup_s)

    def _campaign_op(self, k: int) -> None:
        """Operation ``k``: a world and its campaign, checked.  The first
        :data:`SETUP_REPEATS` also replay their uploads and count towards
        the accuracy figures."""
        tally = self.tally
        world = self.build_world(op_seed(self.seed, k))
        with self._phase("op"):
            result, timeline, elapsed = self.campaign(world)
        tally.campaign_s.append(elapsed)
        tally.campaign_samples += sum(len(u.samples) for u in timeline.uploads)
        tally.attempted += 1
        mapped = self.check_outputs(
            world, result.server, result.reports, timeline.uploads, result.traces
        )
        if k >= SETUP_REPEATS:
            return
        tally.count(trips_mapped=mapped, trips_received=result.server.stats.trips_received)
        tally.speed_errors += checks.speed_errors(result.server.traffic_map, world.traffic)
        passes = math.ceil(MIN_TIMED_TRIPS / (SETUP_REPEATS * len(timeline.uploads)))
        gc.freeze()
        try:
            with self._phase("replay"):
                server, _ = self.replay_round(world, timeline, passes)
        finally:
            gc.unfreeze()
        if server.stats.trips_mapped != mapped:
            tally.problems.append("replayed trips_mapped differs from the campaign's")

    def _run_replay(self, seconds: float) -> None:
        from repro.core.fingerprint import FingerprintDatabase
        from repro.util.rng import derive_rng

        tally = self.tally
        world = None
        for _ in range(SETUP_REPEATS):
            world = None                # the previous world goes first
            world = self.build_world(self.seed)
        with self._phase("inputs"):
            result, timeline, elapsed = self.campaign(world)
            with self.meter.measure() as took:
                rebuild = FingerprintDatabase.survey(
                    world.city.registry, world.scanner,
                    config=world.config.matching,
                    rng=derive_rng(self.seed, "resurvey"),
                )
        self._setup_s = statistics.median(tally.setup_s) + elapsed + took.seconds
        tally.campaign_s.append(elapsed)
        tally.campaign_samples += sum(len(u.samples) for u in timeline.uploads)

        first = None
        gc.freeze()
        try:
            deadline = _clock() + seconds
            while first is None or _clock() < deadline or tally.storeless_trips < MIN_TIMED_TRIPS:
                with self._phase("op"):
                    outcome = self.replay_round(world, timeline, STORELESS_PASSES, rebuild)
                first = first or outcome
        finally:
            gc.unfreeze()
        server, reports = first
        tally.count(
            trips_mapped=self.check_outputs(
                world, server, reports, timeline.uploads, result.traces
            ),
            trips_received=server.stats.trips_received,
        )
        tally.speed_errors += checks.speed_errors(server.traffic_map, world.traffic)
        self.check_oracle(world, timeline, rebuild)
