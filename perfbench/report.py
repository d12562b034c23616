"""One-command report of the pipeline benchmark.

    python3 perfbench/report.py [--seed 1] [--seconds 20]

Runs every workload twice, each time in a fresh process — untraced for
the end-to-end metrics, traced for the per-layer metrics — and prints
every metric by name with its unit, the tracing overhead, and where the
traced wall time went by layer. The host (cores, Python, commit, load
average at start) is recorded with the results in
``.perfbench/report.json``; a run started on a busy host is flagged,
because contention inflates tail latencies several-fold.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

from core import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("encode-churn", "ingest-hot", "ingest-cold", "profile-app")
#: 1-minute load average per core above which the host counts as busy.
BUSY_LOAD_PER_CORE = 0.5


def host() -> dict:
    cores = os.cpu_count() or 1
    load = os.getloadavg()
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": cores,
        "python": platform.python_version(),
        "commit": commit,
        "loadavg": list(load),
        "busy": load[0] > BUSY_LOAD_PER_CORE * cores,
    }


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} (trace {trace}) failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args(argv)

    env = host()
    print(f"host: {env['nproc']} cores, Python {env['python']}, commit {env['commit']}, "
          f"load average {env['loadavg'][0]:.2f}")
    if env["busy"]:
        print("WARNING: the host was busy at start; timings (tails most) are inflated")

    report = {"host": env, "seed": args.seed, "seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in WORKLOADS:
        plain = run(workload, args.seed, args.seconds, 0)
        traced = run(workload, args.seed, args.seconds, 1)
        ok &= plain["correct"] and traced["correct"]
        e2e, layers = plain["metrics"], traced["metrics"]
        overhead = layers["bench.round_ms_p50"]["value"] / e2e["round_ms_p50"]["value"] - 1
        report["workloads"][workload] = {
            "untraced": plain, "traced": traced, "tracing_overhead": overhead,
            "trace_file": os.path.join(".perfbench", "traces", f"{workload}-seed{args.seed}.json"),
        }
        print(f"\n== {workload}: correct={plain['correct'] and traced['correct']} "
              f"attempted={plain['attempted']} failed={plain['failed']}")
        print("-- end-to-end (untraced)")
        for name, metric in e2e.items():
            print(f"   {name:34s} {metric['value']:>14.4f} {metric['unit']}")
        print("-- per layer (traced)")
        for name, metric in layers.items():
            print(f"   {name:34s} {metric['value']:>14.4f} {metric['unit']}")
        wall = layers["trace.wall_s"]["value"]
        shares = ", ".join(
            f"{layer} {layers[f'self_s.{layer}']['value'] / wall:.0%}"
            for layer in LAYERS + ("bench",)
        )
        print(f"-- traced wall {wall:.2f} s by layer self time: {shares}")
        print(f"-- tracing overhead on round_ms_p50: {overhead:+.1%}")

    out = os.path.join(ROOT, ".perfbench", "report.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2)
    print(f"\nreport written to {os.path.relpath(out, ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
