"""Running ``repro`` campaigns and checking their output against the
benchmark's own reference digests and simulated counters."""

import hashlib
import json
import os
import re
import subprocess

from .serve import child_setup

TARGETS = (
    "table2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
    "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig21", "fig22",
    "fig23", "fig24", "fig25",
)
# The run metadata's simulated counters the oracle pins.
COUNTERS = ("acts", "bitflips", "timing_violations", "comra_copies", "simra_groups",
            "hcfirst_searches")
_HEADING = re.compile(r"^== .* ==$")


def split_targets(stdout):
    """Splits ``repro all`` stdout into its per-target sections and the
    trailing run-metadata line. Each section starts at a ``== title ==``
    heading and runs to the next one."""
    lines = stdout.split("\n")
    meta = None
    if lines and lines[-1] == "":
        lines.pop()
    if lines and lines[-1].startswith("{"):
        try:
            meta = json.loads(lines[-1])
            lines.pop()
        except ValueError:
            pass  # not metadata: it stays in the last section
    sections, current = [], None
    for line in lines:
        # Text before the first heading becomes a section of its own, so
        # it shifts every later section off its reference digest.
        if current is None or _HEADING.match(line):
            current = [line]
            sections.append(current)
        else:
            current.append(line)
    return ["\n".join(s) + "\n" for s in sections], meta


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def check_output(stdout, reference, counters_allowed):
    """Returns ``(failed_targets, meta, problems)``.

    A target fails when its section is missing or its digest differs from
    the reference. When the metadata line is missing, or its simulated
    counters match none of ``counters_allowed``, every target fails."""
    sections, meta = split_targets(stdout)
    problems = []
    failed = []
    for i, ref in enumerate(reference["targets"]):
        got = digest(sections[i]) if i < len(sections) else None
        if got != ref["sha256"]:
            failed.append(ref["target"])
            problems.append(f"{ref['target']}: digest {got} != reference {ref['sha256']}")
    if len(sections) != len(reference["targets"]):
        problems.append(f"{len(sections)} sections, reference has {len(reference['targets'])}")
    if meta is None:
        problems.append("no run-metadata line")
        return list(TARGETS), meta, problems
    counters = {k: meta.get(k) for k in COUNTERS}
    if counters not in counters_allowed:
        problems.append(f"simulated counters {counters} match no reference")
        return list(TARGETS), meta, problems
    return failed, meta, problems


def allowed_counters(reference, sharded):
    """A single-process run must reproduce the reference counters. A
    sharded coordinator replays from the merged checkpoint and simulates
    nothing itself, so its counters are all zero — or, should workers ever
    ship their counters back, the single-process reference."""
    ref = reference["counters"]
    return [ref, {k: 0 for k in COUNTERS}] if sharded else [ref]


def run(probe, repro, args, env, out_dir, name, watch_threads=False):
    """Runs ``repro <args>`` to completion through ``probe spawn``.

    Returns wall time, user+system CPU and peak RSS of the whole process
    tree (``wait4`` reports the child together with every descendant it
    waited for), its stdout, and — with ``watch_threads`` — the time from
    spawn until the process started its second thread (a shard
    coordinator starts supervising its workers there)."""
    out_path = os.path.join(out_dir, f"{name}.out")
    err_path = os.path.join(out_dir, f"{name}.err")
    cmd = [probe, "spawn", "--out", out_path, "--err", err_path]
    cmd += ["--watch-threads"] if watch_threads else []
    proc = subprocess.run(cmd + ["--", repro] + args, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, preexec_fn=child_setup)
    if proc.returncode != 0:
        raise RuntimeError(f"probe spawn exited {proc.returncode}: {proc.stderr[-300:]}")
    code, wall, cpu, maxrss, first_thread = proc.stdout.split()
    with open(out_path, encoding="utf-8", errors="replace") as f:
        stdout = f.read()
    with open(err_path, encoding="utf-8", errors="replace") as f:
        stderr = f.read()
    return {
        "args": args,
        "exit": int(code),
        "wall_s": float(wall),
        "cpu_s": float(cpu),
        "maxrss_kb": int(maxrss),
        "stdout": stdout,
        "stderr": stderr,
        "first_thread_s": None if first_thread == "-" else float(first_thread),
    }


def write_reference(probe, repro, env, out_dir, path):
    """Takes the oracle from the current program: ``repro all`` at quick
    scale and one sweep thread."""
    r = run(probe, repro, ["all", "--threads", "1"], env, out_dir, "reference")
    if r["exit"] != 0:
        raise RuntimeError(f"repro all exited {r['exit']}")
    sections, meta = split_targets(r["stdout"])
    if len(sections) != len(TARGETS) or meta is None:
        raise RuntimeError(f"expected {len(TARGETS)} sections and metadata")
    ref = {
        "about": "Per-target stdout digests and run-metadata simulated counters of "
                 "`repro all --threads 1` at quick scale.",
        "targets": [{"target": t, "heading": s.split("\n", 1)[0], "sha256": digest(s)}
                    for t, s in zip(TARGETS, sections)],
        "counters": {k: meta[k] for k in COUNTERS},
    }
    with open(path, "w") as f:
        json.dump(ref, f, indent=1)
        f.write("\n")
    return ref
