"""End-to-end campaign benchmark with an optional per-layer trace.

Run from the repository root::

    python3 perfbench/run.py --workload campaign_fast --seed 7 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones (from a separate, traced run).  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are for
people.  Everything runs in this one process; temporary stores live
under ``.perfbench_tmp/`` in the checkout and are removed on exit,
also on an error or an interrupt.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import tempfile
from pathlib import Path

# Nothing is left behind, compiled bytecode included.
sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent

DEFAULT_SEED = 7
DEFAULT_SECONDS = 10


def _parse(argv):
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def run(argv=None) -> dict:
    """Run one workload; returns the result object printed last."""
    from perfbench import hostspeed, layers
    from perfbench.workloads import WORKLOADS, Bench

    args = _parse(argv)
    tracer = None
    if args.trace:
        from repro.config import BeepConfig

        tracer = layers.LayerTracer()
        layers.install(tracer, BeepConfig().window_ms / 1000.0)
    meter = hostspeed.SpeedMeter(on_probe=tracer.pause if tracer else None)
    meter.install()
    tmp_parent = ROOT / ".perfbench_tmp"
    tmp_parent.mkdir(exist_ok=True)
    tmp_dir = tempfile.mkdtemp(prefix="run-", dir=tmp_parent)
    try:
        report = Bench(
            WORKLOADS[args.workload], args.seed, tmp_dir, tracer, meter
        ).run(args.seconds)
    finally:
        meter.uninstall()
        if tracer is not None:
            tracer.unpatch()
        shutil.rmtree(tmp_dir, ignore_errors=True)
        try:
            tmp_parent.rmdir()
        except OSError:
            pass                    # another run still uses it

    for problem in report["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {report['attempted']} "
          f"operations, {report['failed']} failed, {report['timed_trips']} timed trips")
    print("figures " + json.dumps(report["figures"], sort_keys=True))
    print(f"host speed: {meter.probes} probes; {meter.raw_s:.2f} s of work "
          f"measured, {meter.scaled_s:.2f} s at the reference speed")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if tracer is None:
        listed, values = spec["end_to_end"], report["metrics"]
    else:
        print("traced end-to-end " + json.dumps(report["metrics"], sort_keys=True))
        listed, values = spec["per_layer"], layers.layer_metrics(tracer.totals())
    for metric in listed:
        print(f"  {metric['name']:<28} {values[metric['name']]:>14.6g} {metric['unit']}")
    return {
        "correct": not report["problems"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed
        },
    }


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    signal.signal(signal.SIGTERM, _on_sigterm)
    result = run(argv)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
