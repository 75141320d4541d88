#!/usr/bin/env python3
"""The repository benchmark.

Builds ``repro`` from source, drives it from outside with one of its
workloads, checks every output against the benchmark's own reference, and
prints every metric by name with its unit. The last stdout line is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all                  # every workload, end-to-end metrics
    python3 perfbench/run.py --workload campaign --trace 1   # per-layer metrics
    python3 perfbench/run.py --write-spec           # regenerate BENCHMARK.json
    python3 perfbench/run.py --write-reference      # re-take the output oracle

Run from the repository root. ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer ones (a separate, traced run). The
exit code is 1 when any output check failed or the program faulted (a
crash, a closed connection, a malformed or out-of-order answer, a hang),
2 when the benchmark itself could not run (for example, the program does
not build).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from pb import campaign, session, spec, stats, traced  # noqa: E402

WORKLOADS = [name for name, _ in spec.WORKLOADS]


def source_digest():
    """SHA-256 over the program's sources, for checkouts without git."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, p) for p in ("Cargo.toml", "Cargo.lock")]
    for base, dirs, files in os.walk(os.path.join(ROOT, "crates")):
        dirs.sort()
        paths += [os.path.join(base, f) for f in sorted(files)]
    for p in paths:
        if os.path.isfile(p):
            h.update(os.path.relpath(p, ROOT).encode() + b"\0")
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def command_output(args):
    try:
        return subprocess.run(args, cwd=ROOT, capture_output=True, text=True,
                              timeout=30).stdout.strip() or None
    except OSError:
        return None


def environment():
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m_start": os.getloadavg()[0],
        "rustc": command_output(["rustc", "--version"]),
        "commit": command_output(["git", "rev-parse", "HEAD"]) if os.path.isdir(
            os.path.join(ROOT, ".git")) else None,
        "source_sha256": source_digest(),
    }


def run_one(workload, seed, seconds, trace):
    env = environment()
    run = session.Run(ROOT, workload, seed, seconds, trace)
    steal0, total0 = stats.machine_ticks()
    started = time.time()
    try:
        if trace:
            traced.run(run)
        else:
            run.end_to_end()
    except session.Failure as e:
        run.fail(e.count, str(e))
    names = [m[0] for m in (spec.PER_LAYER if trace else spec.END_TO_END)]
    shown = names if trace else names + [m[0] for m in spec.TAILS]
    missing = [n for n in names if n not in run.metrics]
    env["loadavg_1m_end"] = os.getloadavg()[0]
    env["speed_gauge_table2_s"] = run.speed_gauge_s
    steal1, total1 = stats.machine_ticks()
    # CPU time the hypervisor gave to other guests while this run measured.
    env["steal_frac"] = (steal1 - steal0) / max(total1 - total0, 1)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "wall_s": time.time() - started, "env": env, "metrics": run.metrics,
        "detail": run.detail, "problems": run.problems, "missing": missing,
        "phase_s": run.phase_s,
    }
    with open(run.path("record.json"), "w") as f:
        json.dump(record, f, indent=1)
    print(f"== {workload} seed={seed} trace={int(trace)} nproc={env['nproc']} "
          f"load={env['loadavg_1m_start']:.2f}->{env['loadavg_1m_end']:.2f} "
          f"steal={env['steal_frac']:.3f} "
          f"rustc={env['rustc']} commit={env['commit'] or 'n/a'} "
          f"src={env['source_sha256'][:12]}")
    for n in shown:
        note = run.detail.get(n, "") if n in names else "(no bound) " + run.detail.get(n, "")
        if n in run.metrics:
            m = run.metrics[n]
            print(f"  {n:<30} {m['value']:>14.6g} {m['unit']:<6} {note}")
        else:
            why = run.detail.get(n, "the run stopped early")
            print(f"  {n:<30} {'not taken':>14}        {why}")
    print(f"  {'failed_frac':<30} {run.failed}/{run.attempted} operations")
    for p in run.problems[:20]:
        print(f"  problem: {p}")
    print(f"  record: {os.path.relpath(run.path('record.json'), ROOT)}")
    correct = run.failed == 0 and not missing
    result = {
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {n: run.metrics[n] for n in names if n in run.metrics},
    }
    return correct, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-spec", action="store_true", help="regenerate BENCHMARK.json")
    ap.add_argument("--write-reference", action="store_true",
                    help="re-take the campaign output oracle from the current program")
    args = ap.parse_args()
    if args.write_spec:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            f.write(spec.render())
        return 0
    try:
        if args.write_reference:
            repro, probe = session.build(ROOT)
            out = os.path.join(ROOT, ".bench_runs", "reference")
            os.makedirs(out, exist_ok=True)
            campaign.write_reference(probe, repro, session.child_env(), out,
                                     os.path.join(ROOT, session.REFERENCE))
            return 0
        if not (args.all or args.workload):
            ap.error("--workload or --all is required")
        results = {w: run_one(w, args.seed, args.seconds, args.trace)[1]
                   for w in (WORKLOADS if args.all else [args.workload])}
    except (OSError, subprocess.CalledProcessError, RuntimeError, ValueError) as e:
        print(f"benchmark could not run: {e}", file=sys.stderr)
        return 2
    if args.all:
        # One line for the whole set: totals, and each workload's metrics.
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {w: r["metrics"] for w, r in results.items()},
        }
    else:
        result = results[args.workload]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
