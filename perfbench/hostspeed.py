"""Host speed reference: rescales measured times to a fixed host speed.

The benchmark runs on shared machines whose speed is not constant:
on the 2-core VM the README figures come from, a fixed piece of Python
runs at one of two speeds, about 2x apart, switching every few tens of
milliseconds as neighbours come and go, and the share of slow time
drifts over minutes.  Raw wall times of the same run then differ by a
quarter between runs.

A :class:`SpeedMeter` therefore interleaves short runs of a fixed
reference load (*probes*) with the work: the benchmark probes between
every two trips it feeds the server, and :meth:`SpeedMeter.install`
adds a tick at the entry of the program's frequently called layer
entry points, which probes once :data:`INTERVAL_S` of work has passed
since the last probe.  Each stretch of
work between two probes is rescaled by ``REFERENCE_S / r``, with ``r``
the mean of the two probes: seconds on a host that runs the reference
load in :data:`REFERENCE_S`.  Probe time itself is left out.  A change
to the program changes the work and not the probes, so gains and
losses show; a slower host slows both, so drift cancels.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional

import numpy as np

_clock = time.perf_counter

#: Seconds one reference load takes on the README host, at its fast speed.
REFERENCE_S = 0.0011
#: Work between two probes, at most; probes add a tenth to a fifth.
INTERVAL_S = 0.02

#: (module, attribute path, probe on every call) of the entry points
#: that tick the meter.  Recovery probes around every replayed record,
#: as the benchmark does around every ingested trip.
TICK_POINTS = (
    ("repro.radio.scanner", "CellularScanner.scan", False),
    ("repro.sim.world", "simulate_bus_trip", False),
    ("repro.phone.app", "PhoneAgent.ride_and_record", False),
    ("repro.phone.beep", "BeepDetector.process", False),
    ("repro.core.server", "BackendServer.publish", False),
    ("repro.core.server", "BackendServer.replay_record", True),
)

_XS = np.arange(64, dtype=float)


def reference_load() -> float:
    """A fixed mix of interpreted dict/float work and small numpy calls."""
    table = {}
    acc = 0.0
    for i in range(1, 3000):
        key = i % 61
        table[key] = table.get(key, 0.0) + math.log10(i) * 0.5
        acc += math.hypot(i, key)
    for i in range(200):
        acc += float(np.hypot(_XS, i).max())
    return acc + sum(table.values())


class Measurement:
    """One measured interval, rescaled, without probe time."""

    seconds = math.nan


class SpeedMeter:
    """Accumulates work time rescaled by the adjacent probes."""

    def __init__(self, on_probe: Optional[Callable[[float], None]] = None):
        #: Called with each probe's duration (a tracer leaves it out).
        self.on_probe = on_probe
        self.scaled_s = 0.0
        self.raw_s = 0.0
        self.probes = 0
        self._pending: List[float] = []
        self._latencies: List[float] = []
        self._patches: List = []
        self._speed = self._probe()
        self._mark = _clock()

    def _probe(self) -> float:
        t0 = _clock()
        reference_load()
        self.probes += 1
        return _clock() - t0

    def tick(self, force: bool = False) -> None:
        """Probe when :data:`INTERVAL_S` of work has passed (or ``force``)."""
        now = _clock()
        work = now - self._mark
        if work < INTERVAL_S and not force:
            return
        speed = self._probe()
        factor = 2.0 * REFERENCE_S / (self._speed + speed)
        self.raw_s += work
        self.scaled_s += work * factor
        self._latencies.extend(x * factor for x in self._pending)
        self._pending.clear()
        self._speed = speed
        self._mark = _clock()
        if self.on_probe is not None:
            self.on_probe(self._mark - now)

    @contextmanager
    def measure(self) -> Iterator[Measurement]:
        """Measure the work of the ``with`` body, bracketed by probes."""
        result = Measurement()
        self.tick(force=True)
        start = self.scaled_s
        yield result
        self.tick(force=True)
        result.seconds = self.scaled_s - start

    def add_latency(self, raw_s: float) -> None:
        """A short timing, rescaled when its stretch of work closes."""
        self._pending.append(raw_s)

    def latencies(self) -> List[float]:
        """Rescaled :meth:`add_latency` timings of closed stretches."""
        return list(self._latencies)

    # -- tick points ---------------------------------------------------------

    def install(self) -> None:
        """Tick at the entry of every :data:`TICK_POINTS` entry point."""
        import importlib

        for module_name, path, force in TICK_POINTS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for name in parents:
                owner = getattr(owner, name)
            raw = owner.__dict__[attr]
            setattr(owner, attr, self._ticking(raw, force))
            self._patches.append((owner, attr, raw))

    def _ticking(self, func, force: bool):
        meter = self

        def shim(*args, **kwargs):
            meter.tick(force)
            return func(*args, **kwargs)

        shim.__wrapped__ = func
        return shim

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)
