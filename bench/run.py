"""dpsqkd benchmark: time the ``dps-qkd`` CLI on three workloads.

    python3 bench/run.py --workload sessions --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``sessions`` (Monte Carlo sessions of
10^6 key bins, one in four attacked), ``certify`` (``verify-povm --cutoff 3
--json``) and ``eb_witness`` (``eb-compare`` with 10^6 trials, then
``witness-demo``).  Each is a closed loop with one client in one
single-threaded worker process that calls ``dpsqkd.cli.main`` in process,
the same path a ``dps-qkd`` user takes, and checks every output.

``--trace 0`` reports the end-to-end metrics from an untraced worker, plus
set-up time over fresh interpreters.  ``--trace 1`` runs an untraced and a
traced worker on the same inputs, requires their outputs to be
byte-identical, and reports the per-layer breakdown and the tracing
overhead.  The report goes to stdout, metric by metric with unit and
sample count, then a JSON run record; the last line is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spans                                       # noqa: E402
import workloads                                   # noqa: E402

#: metrics gated between commits: (name, unit, better); every workload
#: reports each of them
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("op_s_p50", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: fresh interpreters timed for set-up besides the workload's own
SETUP_PROBES = 4

#: candidate tail percentiles, highest first
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
TAIL_WORKLOADS = ("sessions", "eb_witness")

#: the whole run ends within this many seconds
RUN_BUDGET_S = 170.0


class WorkerError(RuntimeError):
    pass


def run_worker(mode: str, args, deadline: float) -> dict:
    """Start one worker process, wait for it, return its JSON result."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(BENCH / "worker.py"), mode, args.workload,
           str(args.seed), str(args.seconds), repr(t0)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} worker overran the run budget") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker exited with status {proc.returncode}")
    return json.loads(lines[-1])


def tail(times):
    """``(percentile, value, ops beyond)`` at the highest candidate
    percentile with at least TAIL_BEYOND operations beyond it (nearest
    rank), or None when the run is too short."""
    ordered = sorted(times)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100.0 * n)
        if rank >= 1 and n - rank >= TAIL_BEYOND:
            return p, ordered[rank - 1], n - rank
    return None


def identity_mismatches(reference, traced) -> list:
    """Indices of operations whose outputs differ between two runs."""
    return [i for i, (a, b) in enumerate(zip(reference, traced))
            if a["digest"] != b["digest"]]


def end_to_end(args, worker: dict, setups: list):
    """``(metrics, report lines, sample counts)`` of an untraced run."""
    ops = worker["ops"]
    times = [op["op_s"] for op in ops]
    n = len(ops)
    failed = sum(op["failure"] is not None for op in ops)
    values = {
        "setup_s": statistics.median(setups),
        "op_s_p50": statistics.median(times),
        "peak_rss_mb": worker["peak_rss_kb"] * 1024 / 1e6,
    }
    samples = {"setup_s": len(setups), "op_s_p50": n, "peak_rss_mb": 1,
               "fail_frac": n}
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "op_s_p50": f"median of {n} operations",
        "peak_rss_mb": "ru_maxrss of the workload process",
    }
    units = {name: unit for name, unit, _ in END_TO_END}
    lines = [f"{name:<12} {values[name]:<14.6g} {units[name]:<7} {notes[name]}"
             for name, _, _ in END_TO_END]
    if args.workload in TAIL_WORKLOADS:
        t = tail(times)
        if t is None:
            lines.append(f"{'op_s_tail':<12} {'omitted':<14} {'s':<7} "
                         f"{n} operations leave no percentile with "
                         f"{TAIL_BEYOND} beyond it")
        else:
            p, value, beyond = t
            lines.append(f"{'op_s_tail':<12} {value:<14.6g} {'s':<7} "
                         f"p{p:g} of {n} operations, {beyond} beyond it")
            samples["op_s_tail"] = n
    if args.workload == "sessions":
        rate = worker["bins"] / worker["loop_s"]
        lines.append(f"{'bins_per_s':<12} {rate:<14.6g} {'bins/s':<7} "
                     f"{worker['bins']} key bins in a "
                     f"{worker['loop_s']:.3f} s loop of {n} sessions")
        samples["bins_per_s"] = n
    lines.append(f"{'fail_frac':<12} {failed / n:<14.6g} {'ratio':<7} "
                 f"{failed} of {n} operations failed")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _ in END_TO_END}
    return metrics, lines, samples


def layers(reference: dict, traced: dict):
    """``(metrics, report lines, sample counts)`` of a traced run."""
    m = dict(traced["layers"])
    ref_p50 = statistics.median(op["op_s"] for op in reference["ops"])
    m["trace_overhead"] = statistics.median(
        op["op_s"] for op in traced["ops"]) / ref_p50 - 1.0
    n = len(traced["ops"])
    lines = [f"{name:<30} {m[name]:<14.6g} {unit}"
             for name, unit, _ in spans.LAYER_METRICS]
    common = min(n, len(reference["ops"]))
    lines.append(f"(times: mean per operation over {n} traced operations; "
                 f"counts: first round; outputs compared on {common} "
                 "operations run by both workers)")
    metrics = {name: {"value": m[name], "unit": unit}
               for name, unit, _ in spans.LAYER_METRICS}
    return metrics, lines, {"traced_ops": n,
                            "untraced_ops": len(reference["ops"])}


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "memory_mb": round(memory / 1e6)}


def commit():
    """Git commit of the checkout, or None when it is not a git work tree."""
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    out = proc.stdout.split()
    if proc.returncode == 0 and len(out) == 2 and Path(out[0]).resolve() == ROOT:
        return out[1]
    return None


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S
    # on SIGTERM, SystemExit interrupts subprocess.run, which kills and
    # reaps the running worker before the exit goes on
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    if not (ROOT / "src" / "dpsqkd" / "cli.py").is_file():
        print(f"error: no dpsqkd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.trace == 0:
            setups = [run_worker("setup", args, deadline)["setup_s"]
                      for _ in range(SETUP_PROBES)]
            worker = run_worker("plain", args, deadline)
            setups.append(worker["setup_s"])
            metrics, lines, samples = end_to_end(args, worker, setups)
            ops = worker["ops"]
        else:
            reference = run_worker("plain", args, deadline)
            worker = run_worker("traced", args, deadline)
            metrics, lines, samples = layers(reference, worker)
            for i in identity_mismatches(reference["ops"], worker["ops"]):
                worker["ops"][i]["failure"] = (
                    worker["ops"][i]["failure"]
                    or "traced output differs from the untraced run's")
            ops = reference["ops"] + worker["ops"]
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failures = [op["failure"] for op in ops if op["failure"] is not None]

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "commit": commit(), "environment": worker["environment"],
              "machine": machine(), "samples": samples,
              "failures": failures[:10]}
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}: closed loop, 1 client")
    print("\n".join(lines))
    print("record " + json.dumps(record))
    print(json.dumps({"correct": not failures, "attempted": len(ops),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
