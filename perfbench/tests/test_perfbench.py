"""Tests of the benchmark itself: tiny workloads, failing checks, cleanup.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import checks, workloads
from perfbench.workloads import WORKLOADS, Bench

ROOT = Path(__file__).resolve().parents[2]

#: Tiny versions of the workloads: one or two routes, five minutes.
TINY = {
    "campaign_fast": dict(routes=("179-0", "179-1")),
    "campaign_dsp": dict(routes=("179-0",)),
    "upload_replay": dict(routes=("179-0", "179-1", "240-0")),
}


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """Each workload run once at a tiny size; keyed by workload name."""
    patch = pytest.MonkeyPatch()
    patch.setattr(workloads, "SETUP_REPEATS", 1)
    patch.setattr(workloads, "MIN_TIMED_TRIPS", 100)
    patch.setattr(workloads, "ORACLE_SAMPLES", 20)
    runs = {}
    try:
        for name, changes in TINY.items():
            spec = dataclasses.replace(WORKLOADS[name], **changes)
            bench = Bench(spec, 7, str(tmp_path_factory.mktemp(name)))
            runs[name] = (bench, bench.run(0.01))
    finally:
        patch.undo()
    return runs


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_passes_its_checks(tiny_runs, name):
    bench, report = tiny_runs[name]
    assert report["problems"] == []
    assert report["attempted"] >= 1
    assert all(v > 0 for v in report["metrics"].values()), report["metrics"]
    assert not os.listdir(bench.tmp_dir)        # store directories removed


def test_benchmark_json_lists_the_computed_metrics(tiny_runs):
    from perfbench.layers import layer_metrics

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _bench, report = tiny_runs["campaign_fast"]
    assert [m["name"] for m in spec["end_to_end"]] == list(report["metrics"])
    assert [m["name"] for m in spec["per_layer"]] == list(layer_metrics({}))


def test_upload_replay_counts_only_the_known_recovery_fault(tiny_runs):
    _bench, report = tiny_runs["upload_replay"]
    rounds = report["attempted"] // (workloads.STORELESS_PASSES + 2)
    assert report["attempted"] == rounds * (workloads.STORELESS_PASSES + 2)
    assert report["failed"] == rounds


def test_campaign_dsp_checks_beep_recall(tiny_runs):
    _bench, report = tiny_runs["campaign_dsp"]
    figures = report["figures"]
    assert figures["taps"] > 0
    assert figures["taps_detected"] / figures["taps"] >= figures["min_recall"]


# -- each check can fail ------------------------------------------------------


@pytest.fixture(scope="module")
def campaign(tiny_runs):
    """(bench, world, result, timeline) of one tiny campaign."""
    bench, _ = tiny_runs["campaign_fast"]
    world = bench.build_world(7)
    result, timeline, _ = bench.campaign(world)
    return bench, world, result, timeline


def test_swapped_mapped_station_shows_in_identification_and_order(campaign):
    _bench, world, result, _timeline = campaign
    routes = world.city.route_network.routes

    def order(stations):
        return checks.route_order_violations([stations], routes, allow_transfers=True)

    key, stops = next(
        (r.trip_key, r.mapped.stops) for r in result.reports
        if r.mapped is not None and len(r.mapped.stops) >= 2
    )
    first = stops[0].station_id
    # A station no bus reaches from the first one, not even with a change.
    stray = next(
        y for y in sorted(world.city.route_network.station_ids)
        if order([first, y])[0] == 1
    )
    swapped = [stops[0], dataclasses.replace(stops[1], station_id=stray), *stops[2:]]
    assert checks.stop_identification([(key, swapped[1:2])], result.traces) == (1, 1)
    assert order([s.station_id for s in stops])[0] == 0
    assert order([s.station_id for s in swapped])[0] >= 1


def test_perturbed_published_speed_fails_speed_check(campaign):
    _bench, world, result, _timeline = campaign
    traffic_map = result.server.traffic_map
    ok = checks.median(checks.speed_errors(traffic_map, world.traffic))
    assert ok <= checks.MAX_SPEED_ERR_P50_KMH
    state = traffic_map.state_dict()
    for _at, entries in state["history"]:
        for entry in entries:
            entry[1] += 25.0
    traffic_map.restore_state(state)
    bad = checks.median(checks.speed_errors(traffic_map, world.traffic))
    figures = {
        "stop_errors": 0, "stops_checked": 1, "route_order_violations": 0,
        "speed_err_p50_kmh": bad,
    }
    assert any("speed error" in m for m in checks.failures(figures))


def test_counter_conservation_fails_on_a_lost_count(campaign):
    bench, world, _result, timeline = campaign
    server, _ = bench.replay(world, timeline)
    stats = server.stats.as_dict()
    assert checks.conservation_errors(stats, timeline.uploads) == []
    stats["trips_received"] -= 1
    stats["samples_received"] += 1
    assert len(checks.conservation_errors(stats, timeline.uploads)) == 2


def test_dropped_journal_record_fails_recovery(campaign, tmp_path):
    from repro.store import open_store

    bench, world, _result, timeline = campaign
    with open_store(str(tmp_path / "full"), backend="appendlog") as store:
        live, _ = bench.replay(world, timeline, store=store)
        records = list(store.wal_records())
    dropped = next(i for i, r in enumerate(records) if r["kind"] == "trip")
    with open_store(str(tmp_path / "gap"), backend="appendlog") as store:
        for i, record in enumerate(records):
            if i != dropped:
                store.append_wal(record)
        recovered = bench.fresh_server(world, store)
        recovered.recover()

    def never_rebuilt():
        return bench.replay(world, timeline)[0].state_dict()

    live_state = live.state_dict()
    assert checks.recovery_outcome(live_state, live_state, never_rebuilt) == "equal"
    assert checks.recovery_outcome(
        live_state, recovered.state_dict(), never_rebuilt
    ) == "diverged"


def test_flipped_oracle_verdict_is_a_mismatch(campaign):
    from repro.core.matching import MatchResult
    from repro.testkit.oracles import OracleMatcher

    bench, world, _result, timeline = campaign
    samples = [s.tower_ids for u in timeline.uploads[:5] for s in u.samples]
    server = bench.fresh_server(world)
    oracle = OracleMatcher(world.database.as_dict(), world.config.matching)
    assert checks.verdict_mismatches(server.matcher, oracle, samples) == 0

    class Flipped:
        def match_many(self, batch):
            results = server.matcher.match_many(batch)
            first = results[0]
            results[0] = (
                MatchResult(station_id=None, score=0.0, common_ids=0)
                if first.accepted
                else MatchResult(station_id=1, score=9.0, common_ids=3)
            )
            return results

    assert checks.verdict_mismatches(Flipped(), oracle, samples) == 1


def test_missed_and_stray_beeps_fail_the_recall_check():
    assert checks.match_detections([1.0, 3.0], [1.1, 3.2], 0.3) == (2, 0)
    assert checks.match_detections([1.0, 3.0], [1.1], 0.3) == (1, 0)
    assert checks.match_detections([1.0, 3.0], [1.1, 2.0, 3.1], 0.3) == (2, 1)
    figures = {
        "stop_errors": 0, "stops_checked": 1, "route_order_violations": 0,
        "speed_err_p50_kmh": 1.0, "taps": 100, "taps_detected": 98,
        "stray_detections": 1, "min_recall": 0.985,
    }
    messages = checks.failures(figures)
    assert any("recall" in m for m in messages)
    assert any("farther than one window" in m for m in messages)


# -- the command ---------------------------------------------------------------


def _tree(root: Path):
    return {
        str(p.relative_to(root))
        for p in root.rglob("*")
        if ".git" not in p.relative_to(root).parts
    }


def _shm():
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


@pytest.mark.slow
def test_command_leaves_nothing_behind():
    before, shm_before = _tree(ROOT), _shm()
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "campaign_dsp",
         "--seed", "3", "--seconds", "0.1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    out, _ = proc.communicate(timeout=170)
    assert proc.returncode == 0
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)                  # no process of its group is left
    assert _tree(ROOT) == before
    assert _shm() == shm_before


def test_interrupted_command_removes_its_files():
    before = _tree(ROOT)
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "upload_replay",
         "--seconds", "30"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    deadline = time.monotonic() + 60
    while not (ROOT / ".perfbench_tmp").exists() and time.monotonic() < deadline:
        time.sleep(0.05)
    time.sleep(0.5)
    proc.send_signal(signal.SIGTERM)
    out, _err = proc.communicate(timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in out
    assert _tree(ROOT) == before


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign_fast",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
