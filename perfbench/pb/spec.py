"""What the benchmark measures: workloads, metrics, and the fixed serve
parameters, each with the reason it was chosen. ``BENCHMARK.json`` is
generated from this module (``python3 perfbench/run.py --write-spec``)."""

import json

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
# Scales a run: its number of campaigns, and with it of serve rounds; see
# ``session.Run.end_to_end``.
RUN_SECONDS = 10

WORKLOADS = [
    ("campaign",
     "serve-hot and serve-mixed phases against repro serve, then repro all at quick scale in 1 "
     "process with 2 threads (regenerates all 21 tables and figures)"),
    ("campaign-sharded",
     "the same serve phases, then repro all --shards 2 --threads 1 --checkpoint: same output "
     "from 2 worker processes with durable checkpoints (the shard layer)"),
]

# (name, unit, better, bound, meaning). The reference machine is a 2-vCPU
# guest on a shared host: over one afternoon its speed for the same binary
# moved by up to 2x and other guests took 0-20% of its CPU time. Timing
# bounds are therefore at the 0.25 maximum a BENCHMARK.json bound may take.
END_TO_END = [
    ("campaign_s", "s", "lower", 0.25, "wall time of the campaign from spawn to exit"),
    ("campaign_cpu_s", "s", "lower", 0.25,
     "user+sys CPU of the campaign's whole process tree (wait4)"),
    ("peak_rss_mb", "MB", "lower", 0.2,
     "peak resident memory of any process of a campaign (process, coordinator or worker), "
     "median over the run's campaigns, spawned from a small launcher so no process starts "
     "from the Python process's size; the server's, which grows with how long the serve phases "
     "ran, is in the run record"),
    ("setup_s", "s", "lower", 0.25,
     "median over 12 set-ups: single process, wall minus metadata elapsed_s; sharded, "
     "coordinator spawn to its first supervision thread"),
    ("hot_qps", "1/s", "higher", 0.25, "serve-hot: cache hits answered per second"),
    ("hot_p50_us", "us", "lower", 0.25, "serve-hot: cache-hit round trip, median"),
    ("mixed_p50_ms", "ms", "lower", 0.25,
     "serve-mixed: latency at the nominal rate from each query's due time, median"),
    ("mixed_max_qps", "1/s", "higher", 0.25,
     "serve-mixed: highest ladder rate with p99 <= 50 ms, no failures, no growing backlog"),
    ("server_cpu_us_per_query", "us", "lower", 0.25,
     "server CPU / queries answered in the serve-hot windows used for its latencies (the "
     "serve-mixed nominal phase's is in the run record: it swung by a third between runs)"),
]

# The 99th percentiles of both serve phases are taken and printed in every
# run, but carry no bound: over ten seeds on the reference machine their
# interquartile spread was 0.3-0.7 of the median, more than the largest
# bound (0.25) allows.
TAILS = [
    ("hot_p99_us", "us", "serve", "serve-hot: cache-hit round trip, 99th percentile",
     "reported beside hot_p50_us"),
    ("mixed_p99_ms", "ms", "serve", "serve-mixed: nominal-rate latency, 99th percentile",
     "reported beside mixed_p50_ms"),
]

# (name, unit, layer, measured by, the end-to-end metric it should move .
# on which workload or serve phase).
PER_LAYER = TAILS + [
    ("dram.fleet_build_ms", "ms", "dram", "Fleet::build(quick) + materialising every chip",
     "setup_s . campaign"),
    ("disturb.hammer_batched_ns", "ns", "disturb", "hammer_batched, 100-ACT DS event",
     "campaign_cpu_s . campaign; mixed_p50_ms . serve-mixed"),
    ("bender.replay_ds10k_us", "us", "bender", "Executor::run, 10k DS kernel (incl. lowering)",
     "campaign_cpu_s . campaign"),
    ("bender.replay_trr_evasion_ms", "ms", "bender/trr",
     "Executor::run, Fig. 24 SiMRA-16 evasion program, TRR on", "campaign_s . campaign"),
    ("bender.host_ns_per_kact", "ns", "bender", "traced campaign CPU / (bender.acts / 1000)",
     "campaign_cpu_s . campaign"),
    ("bender.acts", "count", "bender (simulated)", "registry counter", "none: identical"),
    ("bender.flips", "count", "bender (simulated)", "registry counter", "none: identical"),
    ("bender.timing_violations", "count", "bender (simulated)", "registry counter",
     "none: identical"),
    ("bender.refs", "count", "bender (simulated)", "registry counter", "none: identical"),
    ("bender.trr_interventions", "count", "bender (simulated)", "registry counter",
     "none: identical"),
    ("trr.fig24_s", "s", "trr", "span around trr_eval::fig24_ckpt",
     "campaign_s . campaign, campaign-sharded"),
    ("trr.victim_refreshes", "count", "trr (simulated)", "registry counter", "none: identical"),
    ("trr.capable_refs", "count", "trr (simulated)", "registry counter", "none: identical"),
    ("hcfirst.search_s", "s", "hcfirst", "sum of hcfirst.search_ns",
     "campaign_cpu_s . campaign; mixed_p50_ms . serve-mixed"),
    ("hcfirst.searches", "count", "hcfirst (simulated)", "registry counter", "none: identical"),
    ("hcfirst.iterations_mean", "count", "hcfirst (simulated)", "hcfirst.iterations histogram",
     "none: identical"),
    ("hcfirst.warm_hit_rate", "ratio", "hcfirst", "warm.hits / (hits + misses)",
     "campaign_cpu_s . campaign"),
    ("hcfirst.bisection_us", "us", "hcfirst", "measure_hc_first, first table2 victim and kernel",
     "mixed_p50_ms . serve-mixed; campaign_cpu_s . campaign"),
    ("sweep.chip_s", "s", "sweep", "sum of sweep.chip_ns", "campaign_cpu_s . campaign"),
    ("sweep.busy_frac", "ratio", "sweep", "sweep.chip_s / (swept targets' wall x threads)",
     "campaign_s . campaign, not campaign_cpu_s"),
    ("memsim.fig25_s", "s", "memsim", "span around fig25(&Fig25Config::quick())",
     "campaign_s . campaign, campaign-sharded"),
    ("memsim.slice20k_ms", "ms", "memsim", "fig25::run_single, one mix, 20k instructions",
     "campaign_s . campaign"),
    ("memsim.host_ns_per_request", "ns", "memsim", "memsim.fig25_s / requests scheduled",
     "campaign_s . campaign"),
    ("memsim.requests_scheduled", "count", "memsim (simulated)", "registry counter",
     "none: identical"),
    ("memsim.rfm_issued", "count", "memsim (simulated)", "registry counter", "none: identical"),
    ("memsim.abo_backoffs", "count", "memsim (simulated)", "registry counter", "none: identical"),
    ("checkpoint.append_us", "us", "checkpoint", "CheckpointStore::record, workload-sized rows",
     "mixed_p50_ms . serve-mixed; campaign_s . campaign-sharded"),
    ("checkpoint.commit_ms", "ms", "checkpoint", "CheckpointStore::commit at workload end sizes",
     "campaign_s . campaign-sharded"),
    ("checkpoint.bytes", "B", "checkpoint",
     "sharded campaign checkpoint files + serve-mixed store at end", "peak_rss_mb / setup_s"),
    ("shard.worker_phase_s", "s", "shard", "sharded campaign_s - metadata elapsed_s",
     "campaign_s . campaign-sharded"),
    ("shard.replay_s", "s", "shard", "sharded run metadata elapsed_s",
     "campaign_s . campaign-sharded"),
    ("shard.worker_peak_rss_mb", "MB", "shard", "--mem-stats: max worker peak",
     "peak_rss_mb . campaign-sharded"),
    ("shard.rss_skew", "ratio", "shard", "--mem-stats: max / min worker peak",
     "peak_rss_mb . campaign-sharded"),
    ("wire.encode_ns", "ns", "wire", "Frame::write_to, Query into memory",
     "hot_p50_us, hot_qps . serve-hot"),
    ("wire.decode_ns", "ns", "wire", "FrameReader::next_frame, in-memory Response",
     "hot_p50_us, hot_qps . serve-hot"),
    ("wire.bytes_per_query", "B", "wire", "request + response bytes on the hot path",
     "hot_qps . serve-hot"),
    ("serve.server_us", "us", "serve", "hot round trip p50 - wire.encode_ns - wire.decode_ns",
     "hot_p50_us . serve-hot"),
    ("serve.request_us", "us", "serve", "server's serve.request_ns histogram (--metrics), hits",
     "hot_p50_us . serve-hot"),
    ("serve.compute_ms", "ms", "serve", "resolve_with_retry on a sample of miss keys, median",
     "mixed_p50_ms . serve-mixed"),
    ("serve.queue_wait_ms", "ms", "serve", "estimate: miss latency p50 - serve.compute_ms",
     "mixed_p99_ms, mixed_max_qps . serve-mixed"),
    ("serve.hit_frac", "ratio", "serve", "cached ok answers / queries at the nominal rate",
     "failed_frac, mixed_max_qps . serve-mixed"),
    ("serve.shed_frac", "ratio", "serve", "overloaded answers / queries at the nominal rate",
     "failed_frac, mixed_max_qps . serve-mixed"),
    ("serve.expired_frac", "ratio", "serve", "expired answers / queries at the nominal rate",
     "failed_frac, mixed_max_qps . serve-mixed"),
    ("serve.drain_ms", "ms", "serve/checkpoint", "SIGTERM to exit incl. store commit",
     "none (reported)"),
    ("gen.late_p99_ms", "ms", "benchmark", "open-loop generator lateness, nominal rate",
     "validity of serve-mixed"),
    ("gen.late_max_ms", "ms", "benchmark", "the same, maximum", "validity of serve-mixed"),
    ("observe.trace_overhead_frac", "ratio", "observe", "traced campaign_s / untraced - 1",
     "all (ROADMAP item 2 allows <= 2%)"),
]

# The serve workloads' fixed parameters, each with its reason.
SERVE = {
    "chips": (32, "chip index range of generated keys; a miss builds one fresh chip whatever "
                  "its index, so the range only widens the key space"),
    "temps_cc": (list(range(5000, 8001, 100)),
                 "temperature spread 50-80 C in 1 C steps, the paper's test range; keeps new "
                 "keys distinct without changing what a miss costs"),
    "wcdp_share": (0.03, "WCDP keys run the four-pattern search (warm-started: 1-2 misses' "
                         "worth; RowHammer/CoMRA classes only, so each costs about the same); a "
                         "small share puts that path in the tail without owning the median"),
    "new_share": (0.7, "share of new keys in serve-mixed; above one half so the nominal-rate "
                       "median falls among misses and tracks simulation cost"),
    "revisit_zipf_s": (1.0, "revisits pick earlier keys with Zipf(1) popularity by first "
                            "appearance: a few keys stay hot, most are revisited rarely"),
    "revisit_gap": (32, "a revisit names a key first sent at least 32 new keys earlier, so its "
                        "answer is already in the store (a hit)"),
    "hot_set_size": (64, "serve-hot working set; warms in 0.1-0.2 s and is more than a single "
                         "hot store entry"),
    "hot_zipf_s": (0.9, "serve-hot popularity skew over the hot set"),
    "mixed_deadline_ms": (1000, "per-query deadline budget of serve-mixed queries; far above "
                                "any single miss, so only a stalled server expires"),
    "nominal_qps": (200, "about a sixth of the knee on the 2-core reference box (1000-1300 "
                         "q/s): misses rarely queue, so the median tracks what one miss costs; "
                         "at 500 q/s, taking one core's worth of CPU away from the server "
                         "moved the median by half, at 200 q/s by a quarter"),
    "ladder_qps": ([200, 210, 220, 240, 250, 270, 280, 300, 320, 340, 360, 380, 400, 430, 450,
                    480, 510, 540, 570, 610, 640, 680, 720, 760, 810, 860, 910, 960, 1020,
                    1080, 1150, 1220, 1290, 1370, 1450, 1540, 1630, 1730, 1830, 1940, 2060,
                    2180, 2310, 2450, 2600, 2750, 2920, 3090, 3280, 3480],
                   "fixed ladder from the nominal rate past the knee in steps of 6%, a quarter "
                   "of the 25% bound of mixed_max_qps, so that a run that lands one rung off "
                   "moves the metric by far less than the bound; searched by bisection"),
    "p99_limit_ms": (50, "latency limit a ladder rung must meet"),
}


def serve_params():
    return {k: v for k, (v, _) in SERVE.items()}


def benchmark_json():
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound, _ in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": _better(n)}
                      for n, u, *_ in PER_LAYER],
    }


def _better(name):
    if name in ("hcfirst.warm_hit_rate", "sweep.busy_frac", "serve.hit_frac"):
        return "higher"
    return "lower"


def render():
    return json.dumps(benchmark_json(), indent=2) + "\n"
