"""Per-layer tracing from outside the program.

The traced run wraps each layer's public entry points (module functions
and class methods of :mod:`repro`) with timing shims, so no span lives
inside ``src/``.  Each wrapped call is a span of one *layer* (the
``repro`` module the entry point belongs to):

* *busy* time is wall time inside the layer's outermost calls;
* *self* time is busy time minus the time spent inside wrapped calls of
  other (or the same) layers nested below it.

Spans accumulate into *phases* (``setup``, ``inputs``, ``op``, ...).
Every figure is reported as the sum over phases of the phase total
divided by the number of times the phase ran, i.e. the cost of one
set-up plus one of each timed operation.  That makes the counts repeat
exactly for a given seed, however many operations fit in a run.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

_clock = time.perf_counter


class LayerTracer:
    """Times wrapped entry points and keeps per-phase span totals."""

    def __init__(self) -> None:
        # phase -> name -> value, where name is "<span>.self_s",
        # "<span>.busy_s" or any counter a hook adds.
        self._totals: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self._phase_runs: Dict[str, int] = defaultdict(int)
        self._phase = "setup"
        # Open frames: [span, layer, start, child_time].
        self._stack: List[list] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- phases ----------------------------------------------------------------

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Attribute spans to ``name``; each entry counts one run of it."""
        previous, self._phase = self._phase, name
        self._phase_runs[name] += 1
        try:
            yield
        finally:
            self._phase = previous

    def pause(self, seconds: float) -> None:
        """Leave the last ``seconds`` out of every open span (a probe of
        the host speed ran there)."""
        for frame in self._stack:
            frame[2] += seconds

    def add(self, name: str, value: float = 1.0) -> None:
        """Add to a counter of the current phase."""
        self._totals[self._phase][name] += value

    @property
    def parent_layer(self) -> Optional[str]:
        """Layer of the innermost open span (None outside any span)."""
        return self._stack[-1][1] if self._stack else None

    def totals(self) -> Dict[str, float]:
        """Per-phase totals, each divided by its phase's run count."""
        merged: Dict[str, float] = defaultdict(float)
        for phase, values in self._totals.items():
            runs = max(self._phase_runs.get(phase, 1), 1)
            for name, value in values.items():
                merged[name] += value / runs
        return dict(merged)

    # -- spans -----------------------------------------------------------------

    def _enter(self, span: str, layer: str) -> list:
        frame = [span, layer, _clock(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        duration = _clock() - frame[2]
        self._stack.pop()
        span, layer = frame[0], frame[1]
        totals = self._totals[self._phase]
        totals[f"{span}.self_s"] += duration - frame[3]
        if not any(open_[1] == layer for open_ in self._stack):
            totals[f"{span}.busy_s"] += duration
        if self._stack:
            self._stack[-1][3] += duration

    # -- patching --------------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        span: str,
        hook: Optional[Callable[..., None]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a timed shim recording ``span``.

        ``span`` is ``"<layer>.<entry>"``.  ``hook(tracer, args, kwargs,
        result)`` runs after the call, outside the timed interval, to add
        counters.  Class methods and static methods keep their kind.
        """
        raw = owner.__dict__[attr]
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if kind is not None else raw
        layer = span.split(".", 1)[0]
        tracer = self

        def shim(*args, **kwargs):
            frame = tracer._enter(span, layer)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        shim.__wrapped__ = func
        setattr(owner, attr, kind(shim) if kind is not None else shim)
        self._patches.append((owner, attr, raw))

    def count_calls(
        self, owner: Any, attr: str, hook: Callable[..., None]
    ) -> None:
        """Replace ``owner.attr`` by an untimed shim that only runs ``hook``."""
        raw = owner.__dict__[attr]
        tracer = self

        def shim(*args, **kwargs):
            result = raw(*args, **kwargs)
            hook(tracer, args, kwargs, result)
            return result

        setattr(owner, attr, shim)
        self._patches.append((owner, attr, raw))

    def unpatch(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)


# -- the layers of repro ----------------------------------------------------

def install(tracer: LayerTracer, beep_window_s: float) -> None:
    """Wrap the public entry point of every traced layer."""
    from repro.analysis.fleet.pipeline import FleetHealthAnalytics
    from repro.city import builder
    from repro.core import ingest
    from repro.core.fingerprint import FingerprintDatabase
    from repro.core.match_index import MatchCache
    from repro.core.matching import SampleMatcher
    from repro.core.server import BackendServer
    from repro.phone import app
    from repro.phone.accel import TransitModeFilter
    from repro.phone.beep import BeepDetector
    from repro.radio.scanner import CellularScanner
    from repro.sim import world
    from repro.sim.uplink import UplinkChannel
    from repro.store.base import StateStore

    from perfbench.checks import match_detections

    injected: Dict[int, List[float]] = {}   # id(audio buffer) -> tap offsets

    def on_scan(t, args, kwargs, result):
        t.add("radio.scans")
        if t.parent_layer == "fingerprint":
            t.add("fingerprint.survey_scans")

    def on_ride(t, args, kwargs, uploads):
        t.add("phone.rides")
        t.add("phone.uploads", len(uploads))
        t.add("phone.samples", sum(len(u.samples) for u in uploads))

    def on_audio(t, args, kwargs, audio):
        t.add("audio.seconds_synth", kwargs.get("duration_s", args[0] if args else 0.0))
        injected[id(audio)] = list(kwargs.get("beep_times_s", args[1] if len(args) > 1 else ()))

    def on_motion(t, args, kwargs, trace):
        t.add("audio.seconds_synth", len(trace.samples) / trace.sample_rate_hz)

    def on_beep(t, args, kwargs, events):
        detector, chunk = args[0], args[1]
        t.add("beep.seconds_processed", len(chunk) / detector.config.sample_rate_hz)
        taps = injected.pop(id(chunk), None)
        if taps is not None:
            detected, _stray = match_detections(
                taps, [e.time_s for e in events], beep_window_s
            )
            t.add("beep.taps", len(taps))
            t.add("beep.taps_detected", detected)

    def on_match(t, args, kwargs, results):
        t.add("matching.samples", len(results))
        t.add("matching.accepted", sum(1 for r in results if r.accepted))

    def on_peek(t, args, kwargs, entry):
        t.add("matching.memo_lookups")
        t.add("matching.memo_hits", entry is not None)

    def on_map(t, args, kwargs, mapped):
        t.add("trip_mapping.calls")
        t.add("trip_mapping.mapped", mapped is not None and len(mapped.stops) >= 2)

    def on_replay(t, args, kwargs, applied):
        t.add("store.replay_records", bool(applied))

    def counter(name):
        return lambda t, args, kwargs, result: t.add(name)

    tracer.wrap(builder, "build_city", "city.build")
    tracer.wrap(FingerprintDatabase, "survey", "fingerprint.survey")
    tracer.wrap(CellularScanner, "scan", "radio.scan", on_scan)
    tracer.wrap(world, "simulate_bus_trip", "bus.simulate", counter("bus.trips"))
    tracer.wrap(world.World, "run", "world.run")
    tracer.wrap(app.PhoneAgent, "ride_and_record", "phone.ride", on_ride)
    tracer.wrap(app, "synthesize_cabin_audio", "audio.cabin", on_audio)
    tracer.wrap(app, "synthesize_motion", "audio.motion", on_motion)
    tracer.wrap(BeepDetector, "process", "beep.process", on_beep)
    tracer.wrap(TransitModeFilter, "is_bus", "accel.is_bus", counter("accel.calls"))
    tracer.wrap(
        UplinkChannel, "transmit_all", "uplink.transmit",
        lambda t, args, kwargs, out: t.add("uplink.delivered", len(out)),
    )
    tracer.wrap(SampleMatcher, "match_many", "matching.match_many", on_match)
    tracer.count_calls(MatchCache, "peek", on_peek)
    tracer.wrap(
        ingest, "cluster_trip_samples", "clustering.cluster",
        lambda t, args, kwargs, out: t.add("clustering.clusters", len(out)),
    )
    tracer.wrap(ingest, "map_trip", "trip_mapping.map", on_map)
    tracer.wrap(BackendServer, "receive_trip", "server.receive")
    tracer.wrap(BackendServer, "apply_prepared", "server.apply")
    tracer.wrap(
        BackendServer, "publish", "traffic_map.publish",
        counter("traffic_map.publishes"),
    )
    tracer.wrap(FleetHealthAnalytics, "observe_trip", "fleet.observe_trip")
    tracer.wrap(FleetHealthAnalytics, "observe_publish", "fleet.observe_publish")
    tracer.wrap(StateStore, "append_wal", "store.append", counter("store.appends"))
    tracer.wrap(StateStore, "write_snapshot", "store.snapshot")
    tracer.wrap(BackendServer, "recover", "store.recover")
    tracer.wrap(BackendServer, "replay_record", "store.replay", on_replay)


def layer_metrics(totals: Mapping[str, float]) -> Dict[str, float]:
    """The per-layer metrics (BENCHMARK.json ``per_layer``) from span totals."""
    g = lambda name: float(totals.get(name, 0.0))   # noqa: E731

    def ratio(num: str, den: str) -> float:
        return g(num) / g(den) if g(den) else 0.0

    world_busy = g("world.run.busy_s")
    out = {
        "city.build_s": g("city.build.busy_s"),
        "fingerprint.survey_s": g("fingerprint.survey.busy_s"),
        "fingerprint.survey_scans": g("fingerprint.survey_scans"),
        "radio.scans": g("radio.scans"),
        "radio.self_s": g("radio.scan.self_s"),
        "radio.us_per_scan": 1e6 * ratio("radio.scan.self_s", "radio.scans"),
        "bus.trips": g("bus.trips"),
        "bus.self_s": g("bus.simulate.self_s"),
        "phone.rides": g("phone.rides"),
        "phone.uploads": g("phone.uploads"),
        "phone.samples": g("phone.samples"),
        "phone.self_s": g("phone.ride.self_s"),
        "audio.seconds_synth": g("audio.seconds_synth"),
        "audio.self_s": g("audio.cabin.self_s") + g("audio.motion.self_s"),
        "beep.seconds_processed": g("beep.seconds_processed"),
        "beep.self_s": g("beep.process.self_s"),
        "beep.recall": ratio("beep.taps_detected", "beep.taps"),
        "accel.calls": g("accel.calls"),
        "accel.self_s": g("accel.is_bus.self_s"),
        "uplink.delivered": g("uplink.delivered"),
        "uplink.self_s": g("uplink.transmit.self_s"),
        "matching.samples": g("matching.samples"),
        "matching.self_s": g("matching.match_many.self_s"),
        "matching.accept_ratio": ratio("matching.accepted", "matching.samples"),
        "matching.memo_hit_ratio": ratio("matching.memo_hits", "matching.memo_lookups"),
        "clustering.clusters": g("clustering.clusters"),
        "clustering.self_s": g("clustering.cluster.self_s"),
        "trip_mapping.self_s": g("trip_mapping.map.self_s"),
        "trip_mapping.mapped_ratio": ratio("trip_mapping.mapped", "trip_mapping.calls"),
        "server.receive_self_s": g("server.receive.self_s"),
        "server.apply_self_s": g("server.apply.self_s"),
        "server.legs_estimated": g("server.legs_estimated"),
        "server.leg_accept_ratio": g("server.legs_estimated")
        / max(g("server.legs_estimated") + g("server.legs_rejected"), 1.0),
        "traffic_map.publishes": g("traffic_map.publishes"),
        "traffic_map.publish_self_s": g("traffic_map.publish.self_s"),
        "fleet.self_s": g("fleet.observe_trip.self_s") + g("fleet.observe_publish.self_s"),
        "store.appends": g("store.appends"),
        "store.append_self_s": g("store.append.self_s"),
        "store.wal_bytes": g("store.wal_bytes"),
        "store.snapshot_self_s": g("store.snapshot.self_s"),
        "store.snapshot_bytes": g("store.snapshot_bytes"),
        "store.replay_records": g("store.replay_records"),
        "store.replay_self_s": g("store.recover.self_s") + g("store.replay.self_s"),
        "world.self_s": g("world.run.self_s"),
        "world.attributed_ratio": (
            1.0 - g("world.run.self_s") / world_busy if world_busy else 0.0
        ),
    }
    return out
