"""The traced run: every per-layer metric, with its base.

The same suite runs for every workload (the seed drives its key streams):
untraced and traced ``repro all`` runs in alternating pairs (their
difference is the tracing overhead), a sharded campaign, two server
sessions, and the layer probe, which times calls into each layer's public
functions from the benchmark's own code. Counters the program already keeps are read from its
``--metrics`` table; self times come from its ``--profile-out`` tree.
"""

import json
import os
import re
import subprocess

from . import keys, serve, stats

# Registry counters reported as they are: simulator statistics must repeat
# exactly across runs, so a change is a behaviour change, not a speed-up.
SIMULATED = ("bender.acts", "bender.flips", "bender.timing_violations", "bender.refs",
             "bender.trr_interventions", "trr.victim_refreshes", "trr.capable_refs",
             "hcfirst.searches", "memsim.requests_scheduled", "memsim.rfm_issued",
             "memsim.abo_backoffs")


def parse_metrics(text):
    """The ``--metrics`` table: counters as ints, histograms as dicts."""
    counters, hists = {}, {}
    for line in text.splitlines():
        cells = [c.strip() for c in line.split("|")]
        if len(cells) != 4 or not cells[1] or cells[1] == "metric":
            continue
        name, value = cells[1], cells[2]
        if value.isdigit():
            counters[name] = int(value)
        elif value.startswith("n="):
            hists[name] = {k: float(v) for k, v in re.findall(r"(\w+)=([0-9.]+)", value)}
    return counters, hists


def parse_profile(text):
    """Folded profile: ``{path: self_ns}`` from its ``path self_ns`` lines."""
    out = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            path, ns = line.rsplit(" ", 1)
            out[path] = out.get(path, 0) + int(ns)
    return out


def self_times(profile):
    """Self time per span name, summed over every path ending in it."""
    out = {}
    for path, ns in profile.items():
        leaf = path.rsplit(";", 1)[-1]
        out[leaf] = out.get(leaf, 0) + ns
    return out


def hist_sum(hist):
    return hist["n"] * hist["mean"]


def file_rows(path):
    """Row count and mean line length of a checkpoint file (header excluded)."""
    with open(path, "rb") as f:
        lines = f.read().splitlines()[1:]
    return len(lines), (sum(len(l) + 1 for l in lines) / len(lines) if lines else 0)


def run(r):
    # Server sessions first: campaign checkpoint commits leave the file
    # system busy for a while, and the server appends on the request path.
    r.warm_up()
    sessions = serve_sessions(r)
    campaigns(r)
    probe(r, sessions)


# Untraced (U) and traced (T) campaigns, paired in the order UT TU UT: a
# drift of the machine's speed moves neighbouring pairs' ratios in
# opposite directions, and a slow spell spoils one pair of three, which
# the median drops.
OVERHEAD_ORDER = "UTTUUT"
# ROADMAP item 2's budget for the cost of tracing.
OVERHEAD_BUDGET = 0.02


def trace_overhead(untraced, traced):
    """``(median ratio - 1, detail)`` over the U/T pairs, by wall and by
    CPU time; the figure is unresolved when the pairs differ by more than
    the budget."""
    pairs = list(zip(untraced, traced))
    wall = [t["wall_s"] / u["wall_s"] - 1 for u, t in pairs]
    cpu = [t["cpu_s"] / u["cpu_s"] - 1 for u, t in pairs]
    spread = max(wall) - min(wall)
    verdict = (f"unresolved: the pairs differ by {spread:.1%}, more than the "
               f"{OVERHEAD_BUDGET:.0%} budget" if spread > OVERHEAD_BUDGET else
               f"pairs within {spread:.1%}")
    detail = (f"median over {len(pairs)} pairs ({OVERHEAD_ORDER}) of traced / untraced "
              f"wall - 1: " + ", ".join(f"{x:+.2%}" for x in wall) +
              f"; by CPU time: " + ", ".join(f"{x:+.2%}" for x in cpu) + f"; {verdict}")
    return stats.median(wall), detail


def campaigns(r):
    untraced, traced = [], []
    for i, kind in enumerate(OVERHEAD_ORDER):
        if kind == "U":
            untraced.append(r.campaign(["all", "--threads", "2"], f"untraced{i}"))
        else:
            traced.append(r.campaign(["all", "--threads", "2", "--metrics", "--profile-out",
                                      r.path(f"profile{len(traced)}.folded")], f"traced{i}"))
    # The first traced campaign's metrics and profile are the ones read.
    tr = traced[0]
    prof_path = r.path("profile0.folded")
    counters, hists = parse_metrics(tr["stderr"])
    profile = {}
    if os.path.exists(prof_path):
        with open(prof_path) as f:
            profile = parse_profile(f.read())
    selfs = self_times(profile)
    for name in SIMULATED:
        if name in counters:
            r.put(name, counters[name], "count", "registry counter, traced repro all")
    acts = counters.get("bender.acts")
    if acts:
        r.put("bender.host_ns_per_kact", tr["cpu_s"] * 1e9 / (acts / 1000), "ns",
              f"traced campaign CPU {tr['cpu_s']:.3f} s / {acts} ACTs x 1000")
    search = hists.get("hcfirst.search_ns")
    if search:
        r.put("hcfirst.search_s", hist_sum(search) / 1e9, "s",
              f"sum of {int(search['n'])} searches (thread-summed); self "
              f"{selfs.get('hcfirst.search_ns', 0) / 1e9:.3f} s")
    iters = hists.get("hcfirst.iterations")
    if iters:
        r.put("hcfirst.iterations_mean", iters["mean"], "count",
              f"mean over {int(iters['n'])} searches")
    hits, misses = counters.get("hcfirst.warm.hits"), counters.get("hcfirst.warm.misses")
    if hits is not None and misses is not None:
        r.put("hcfirst.warm_hit_rate", hits / max(hits + misses, 1), "ratio",
              f"{hits} hits / {hits + misses} warm-start lookups")
    chip = hists.get("sweep.chip_ns")
    meta = tr.get("meta")
    if chip and meta:
        chip_s = hist_sum(chip) / 1e9
        r.put("sweep.chip_s", chip_s, "s",
              f"sum of {int(chip['n'])} chip units (thread-summed); self "
              f"{selfs.get('sweep.chip_ns', 0) / 1e9:.3f} s excluding hcfirst.search_ns")
        # Swept targets: those whose experiment span has sweep.chip_ns children.
        swept = {p.split(";")[0].split(".", 1)[1] for p in profile if ";sweep.chip_ns" in p}
        wall = sum(ph["elapsed_ns"] for ph in meta["phases"] if ph["target"] in swept) / 1e9
        r.put("sweep.busy_frac", chip_s / (wall * meta["threads"]), "ratio",
              f"{chip_s:.3f} s / ({wall:.3f} s wall of {len(swept)} swept targets x "
              f"{meta['threads']} threads)")
    overhead, detail = trace_overhead(untraced, traced)
    r.put("observe.trace_overhead_frac", overhead, "ratio", detail)

    ckpt = r.path("sharded.jsonl")
    sh = r.campaign(["all", "--shards", "2", "--threads", "1", "--checkpoint", ckpt,
                     "--mem-stats"], "sharded", sharded=True)
    if sh.get("meta"):
        elapsed = sh["meta"]["elapsed_s"]
        r.put("shard.worker_phase_s", sh["wall_s"] - elapsed, "s",
              f"campaign_s {sh['wall_s']:.3f} s - replay {elapsed:.3f} s")
        r.put("shard.replay_s", elapsed, "s", "coordinator run metadata elapsed_s")
    peaks = [int(kb) for _, kb in re.findall(r"mem: shard (\d+) peak_rss_kb=(\d+)", sh["stderr"])]
    if peaks:
        r.put("shard.worker_peak_rss_mb", max(peaks) / 1024, "MB", f"worker peaks {peaks} kB")
        r.put("shard.rss_skew", max(peaks) / max(min(peaks), 1), "ratio",
              f"max / min of {len(peaks)} worker peaks")
    files = [p for p in (ckpt, ckpt + ".shard0of2", ckpt + ".shard1of2") if os.path.exists(p)]
    ckpt_bytes = sum(os.path.getsize(p) for p in files)
    # The serve store's size follows how long the serve phases ran, which
    # depends on the host's noise: it is reported beside, per row.
    store = r.path("serve.store.jsonl")
    rows, _ = file_rows(store)
    store_bytes = os.path.getsize(store)
    r.put("checkpoint.bytes", ckpt_bytes, "B",
          f"sharded campaign checkpoint files ({len(files)}); serve-mixed store "
          f"{store_bytes} B over {rows} rows, {store_bytes / max(rows, 1):.1f} B per row")
    r.ckpt_rows = file_rows(ckpt) if os.path.exists(ckpt) else (0, 0)


def serve_sessions(r):
    """Session A: a fresh store, the full serve session (warm-up, hot and
    nominal windows, ladder). Session B: reopens A's store with
    ``--metrics`` and runs hot windows only, so the server's request
    histogram holds cache hits alone."""
    store = r.path("serve.store.jsonl")
    a = r.session(4, store=store, name="serve-a")
    r.serve_metrics(a)
    r.put("serve.drain_ms", a["server"].drain_ms, "ms", "SIGTERM to exit, session A")
    nominal = a["nominal"]
    by_rate = [nominal] + a["tried"]
    for name in ("hit_frac", "shed_frac", "expired_frac"):
        r.put(f"serve.{name}", nominal.fractions()[name], "ratio",
              f"nominal {nominal.rate} q/s, {nominal.sent} queries; by rate tried: " +
              ", ".join(f"{g.rate}:{g.fractions()[name]:.3f}/{g.sent}" for g in by_rate))
    late = nominal.late
    r.put("gen.late_p99_ms", stats.percentile(late, 99) * 1e3, "ms",
          f"p99 of {len(late)} sends at {nominal.rate} q/s")
    r.put("gen.late_max_ms", max(late) * 1e3, "ms",
          f"max of {len(late)} sends at {nominal.rate} q/s")

    b = r.server("serve-b", store=store, metrics=True)
    hot_keys = keys.Supply(keys.hot_stream(r.seed, a["hot"], r.params["hot_zipf_s"]))
    try:
        hotp = r.hot_segments(b, hot_keys, a["answers"],
                              {"done": [], "rtts": [], "bytes": 0, "windows": []}, 4)
    finally:
        r.stop(b, "serve-b")
    with open(r.path("serve-b.log")) as f:
        _, hists = parse_metrics(f.read())
    req = hists.get("serve.request_ns")
    if req:
        r.put("serve.request_us", req["mean"] / 1e3, "us",
              f"mean of serve.request_ns over {int(req['n'])} cache hits")
    rtts = hotp["rtts"]
    r.put("wire.bytes_per_query", hotp["bytes"] / len(rtts), "B",
          f"request + response bytes over {len(rtts)} hot queries")
    misses = [q for q in nominal.records if q["new"] and q["status"] == "ok"]
    return {"answers": a["answers"], "stream": a["stream"], "hot_rtts": rtts,
            "miss_latency": [q["done"] - q["due"] for q in misses],
            "store_rows": file_rows(store)}


def probe(r, sessions):
    (ck_rows, ck_len), (st_rows, st_len) = r.ckpt_rows, sessions["store_rows"]
    proc = subprocess.run(
        [r.probe, "layers", "--work-dir", r.path("probe"),
         "--record-bytes", f"{int(ck_len)},{int(st_len)}",
         "--store-rows", f"{ck_rows},{st_rows}"],
        capture_output=True, text=True, env=r.env, timeout=170)
    if proc.returncode != 0:
        r.problems.append(f"layer probe failed: {proc.stderr[-300:]}")
        return
    for name, m in json.loads(proc.stdout).items():
        r.put(name, m["value"], m["unit"], f"{m['detail']}; n={m['samples']}")
    # Served values of a seeded sample of miss keys against in-process
    # resolve_with_retry, timed: the compute share of a miss.
    answers, stream = sessions["answers"], sessions["stream"]
    new_keys = [k for k in stream.order if k in answers.values]
    compute = r.verify_sample(answers, r.sample(new_keys, 48, "compute"), "compute")
    if compute:
        c = stats.median(compute)
        r.put("serve.compute_ms", c, "ms", f"median of {len(compute)} in-process resolutions")
        lat = stats.median(sessions["miss_latency"]) * 1e3
        r.put("serve.queue_wait_ms", lat - c, "ms",
              f"estimate: nominal miss latency p50 {lat:.3f} ms - compute {c:.3f} ms")
    enc, dec = r.metrics.get("wire.encode_ns"), r.metrics.get("wire.decode_ns")
    rtts = sessions["hot_rtts"]
    if enc and dec:
        p50 = stats.median(rtts) * 1e6
        r.put("serve.server_us", p50 - (enc["value"] + dec["value"]) / 1e3, "us",
              f"hot round trip p50 {p50:.2f} us - encode - decode")
