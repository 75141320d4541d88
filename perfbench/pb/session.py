"""One benchmark run: build, drive the workload, check every output, and
collect the metrics."""

import json
import os
import random
import shutil
import subprocess
import time

from . import campaign, keys, serve, spec, stats

REFERENCE = os.path.join("perfbench", "reference", "campaign.json")
# The serve phases of a run are spread over it in rounds, one before each
# campaign and one after the last (see ``Run.end_to_end``): other guests'
# load on the shared host changes within seconds, and a phase measured in
# one stretch of a few seconds showed that as a difference between runs
# of up to a factor of two. Each round holds:
# - HOT_SEGMENTS closed-loop segments of HOT_SEGMENT_S, each on two fresh
#   connections (where the scheduler places a connection's server threads
#   moves the hot-loop p99 by a third);
# - NOMINAL_SEGMENT open-loop queries at the nominal rate;
# - up to LADDER_STEPS steps of the ladder search.
HOT_SEGMENTS = 2
HOT_SEGMENT_S = 0.5
NOMINAL_SEGMENT = 300
LADDER_STEPS = 2
# Latency windows: a quarter second of the hot loop and of the open loop.
# Latencies pool the windows in which the hypervisor gave no CPU time to
# other guests (no steal tick), at least HOT_WINDOWS of the hot loop: on
# the reference VM a single steal tick in a window moves its hot-loop p99
# by a fifth, six by a factor of eight.
HOT_WINDOW_S = 0.25
HOT_WINDOWS = 12
# Keys handed to one hot segment: more than it can send in HOT_SEGMENT_S.
HOT_CHUNK = 40000
RUNG_RUNS = 2
RUNG_S = 1.0
NOMINAL_WINDOW_S = 0.25
# Campaigns per second of a run: the same binary's campaign time moves by
# up to a third from one campaign to the next on the reference VM (its CPU
# time too: the host's speed changes), so a run reports the median of three.
CAMPAIGNS_PER_S = 0.3
# Set-up probes per run besides the campaigns: one set-up takes a few
# milliseconds, and its median over a dozen moves far less than one.
SETUP_PROBES = 9


Failure = serve.Failure


def build(root):
    """Builds ``repro`` and ``perfbench-probe`` (layer timings, the serve
    load generator and the launcher that measures each campaign) from
    source in the checkout; returns their paths. ``CARGO_TARGET_DIR``
    defaults to ``.bench_build``."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for extra in (["-p", "pud-repro"],
                  ["--manifest-path", os.path.join("perfbench", "probe", "Cargo.toml")]):
        subprocess.run(["cargo", "build", "--release", "--offline", "--quiet"] + extra,
                       cwd=root, env=env, check=True)
    release = os.path.join(root, target, "release")
    return os.path.join(release, "repro"), os.path.join(release, "perfbench-probe")


def child_env():
    """The environment for the program: none of its ``PUD_*`` switches
    (fault seeds, thread counts, interpreter mode, progress) leak in."""
    return {k: v for k, v in os.environ.items() if not k.startswith("PUD_")}


class Tally:
    """Operations attempted and failed, with the problems found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, count, problem):
        self.failed += count
        self.problems.append(problem)

    def tally(self, seg, failed, name):
        """Counts a closed-loop segment's queries and its bad answers; a
        fault of the server (see ``serve.fault``) stops the run."""
        self.attempted += seg.sent
        if failed:
            self.fail(failed, f"{name}: {failed} answers not ok, not cached or wrong")
        if seg.error:
            raise serve.fault(seg, name)

    def account(self, r, cpu, windows, nominal):
        """Records an open-loop run's CPU, windows and failures. At the
        nominal rate every failed answer counts against the run: lost, not
        ``ok``, or a value that differs from an earlier answer. On a ladder
        rung, answers shed or expired count against that rung only."""
        r.cpu = cpu
        r.windows = windows
        r.steal = sum(w[2] for w in windows)
        r.span = windows[-1][1] - windows[0][0]
        self.attempted += r.sent
        charged = r.failed if nominal else r.failed - r.shed - r.expired
        if charged:
            self.fail(charged, f"mixed: {charged} failed answers at {r.rate} q/s: {r.lost} "
                               f"lost, {r.sent - r.lost - r.ok} not ok, {r.wrong} wrong")
        if r.error:
            raise Failure(f"mixed at {r.rate} q/s: {r.error}", 0 if charged else 1)
        if r.lost:
            raise Failure(f"mixed: answers lost at {r.rate} q/s", 0)
        return r


class Run(Tally):
    """State of one benchmark run."""

    def __init__(self, root, workload, seed, seconds, trace):
        super().__init__()
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.dir = os.path.join(root, ".bench_runs", f"{workload}-s{seed}-t{int(trace)}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.repro, self.probe = build(root)
        self.env = child_env()
        with open(os.path.join(root, REFERENCE)) as f:
            self.reference = json.load(f)
        self.params = spec.serve_params()
        self.setups = []
        self.rss_kb = []
        self.metrics = {}
        self.detail = {}
        self.speed_gauge_s = None
        self.phase_s = {}

    def path(self, name):
        return os.path.join(self.dir, name)

    def put(self, name, value, unit, detail=""):
        self.metrics[name] = {"value": value, "unit": unit}
        if detail:
            self.detail[name] = detail

    # -- campaigns ---------------------------------------------------------

    def run_repro(self, args, name, watch_threads=False):
        return campaign.run(self.probe, self.repro, args, self.env, self.dir, name,
                            watch_threads)

    def campaign(self, args, name, sharded=False, watch_threads=False):
        """Runs one full campaign and checks all 21 targets."""
        r = self.run_repro(args, name, watch_threads)
        self.rss_kb.append(r["maxrss_kb"])
        self.attempted += len(campaign.TARGETS)
        if r["exit"] != 0:
            self.fail(len(campaign.TARGETS), f"{name}: exit {r['exit']}: {r['stderr'][-300:]}")
            return r
        failed, meta, problems = campaign.check_output(
            r["stdout"], self.reference, campaign.allowed_counters(self.reference, sharded))
        r["meta"] = meta
        if failed:
            self.fail(len(failed), f"{name}: " + "; ".join(problems[:4]))
        return r

    def target_run(self, target, args, name, watch_threads=False):
        """Runs one target and checks it against its reference section."""
        r = self.run_repro([target] + args, name, watch_threads)
        self.rss_kb.append(r["maxrss_kb"])
        self.attempted += 1
        ref = next(t for t in self.reference["targets"] if t["target"] == target)
        sections, _ = campaign.split_targets(r["stdout"])
        if r["exit"] != 0 or len(sections) != 1 or campaign.digest(sections[0]) != ref["sha256"]:
            self.fail(1, f"{name}: exit {r['exit']}, output differs from reference {target}")
        return r

    def setup_probes(self, sharded):
        """``SETUP_PROBES`` set-ups, so set-up time is a median."""
        for i in range(SETUP_PROBES):
            if sharded:
                # A small sharded target: the coordinator's set-up path is
                # the same as for `all`.
                ckpt = self.path(f"setup{i}.jsonl")
                r = self.target_run("fig11", ["--shards", "2", "--threads", "1",
                                              "--checkpoint", ckpt], f"setup{i}",
                                    watch_threads=True)
                if r["first_thread_s"] is not None:
                    self.setups.append(r["first_thread_s"])
            else:
                # Cancelled after one unit: the same process set-up and
                # teardown around a campaign, measured the same way.
                r = self.run_repro(["all", "--threads", "2", "--quiet", "--deadline-units", "1"],
                                   f"setup{i}")
                self.rss_kb.append(r["maxrss_kb"])
                _, meta = campaign.split_targets(r["stdout"])
                self.attempted += 1
                if r["exit"] != 0 or meta is None:
                    self.fail(1, f"setup{i}: exit {r['exit']}, metadata {meta is not None}")
                else:
                    self.setups.append(r["wall_s"] - meta["elapsed_s"])

    def workload_campaign(self, i, sharded):
        """Campaign ``i`` of the workload: `repro all --threads 2`, or
        sharded over two worker processes with checkpoints."""
        if sharded:
            ckpt = self.path(f"campaign{i}.jsonl")
            args = ["all", "--shards", "2", "--threads", "1", "--checkpoint", ckpt,
                    "--mem-stats"]
            r = self.campaign(args, f"campaign{i}", sharded=True, watch_threads=True)
            if r["first_thread_s"] is not None:
                self.setups.append(r["first_thread_s"])
        else:
            r = self.campaign(["all", "--threads", "2"], f"campaign{i}")
            if r.get("meta"):
                self.setups.append(r["wall_s"] - r["meta"]["elapsed_s"])
        return r

    def campaign_metrics(self, runs):
        for name, key in (("campaign_s", "wall_s"), ("campaign_cpu_s", "cpu_s")):
            xs = [r[key] for r in runs]
            self.put(name, stats.median(xs), "s",
                     f"median of {len(xs)}: " + ", ".join(f"{x:.3f}" for x in xs))

    # -- serving -----------------------------------------------------------

    def server(self, name, store=None, metrics=False):
        store = store or self.path(f"{name}.store.jsonl")
        return serve.Server(self.repro, store, self.path(f"{name}.log"), self.env, metrics)

    def stop(self, srv, name):
        status = srv.stop()
        if status != 0:
            self.fail(1, f"{name}: server exited {status}")
        return status

    def client(self, srv, window_s):
        return serve.Client(self.probe, srv, self.dir, window_s, self.env)

    def warm(self, srv, hot, answers):
        seg, failed = serve.closed_loop(self.client(srv, HOT_WINDOW_S), hot, answers, 60.0)
        self.tally(seg, failed, "warm")

    def hot_segments(self, srv, supply, answers, h, count):
        """``count`` closed-loop segments over the warmed hot set, each on
        two fresh connections for ``HOT_SEGMENT_S``, gathered into ``h``;
        every answer must be a cache hit."""
        client = self.client(srv, HOT_WINDOW_S)
        for _ in range(count):
            chunk = supply.take(HOT_CHUNK)
            seg, failed = serve.closed_loop(client, chunk, answers, HOT_SEGMENT_S,
                                            want_cached=True)
            supply.give_back(chunk[seg.sent:])
            h["done"] += [r["done"] for r in seg.answered]
            h["rtts"] += [r["done"] - r["sent"] for r in seg.answered]
            h["bytes"] += seg.bytes_out + seg.bytes_in
            h["windows"] += seg.windows
            self.tally(seg, failed, "hot")
        return h

    def rung(self, srv, stream, answers, rate):
        """One open-loop run at ``rate``, at least 1000 queries long so its
        p99 has ten samples beyond it."""
        cpu0 = srv.cpu_s()
        r = serve.open_loop(self.client(srv, NOMINAL_WINDOW_S), stream, rate,
                            round(rate * max(RUNG_S, 1000.0 / rate)), answers,
                            self.params["mixed_deadline_ms"])
        return self.account(r, srv.cpu_s() - cpu0, r.segment.windows, nominal=False)

    def nominal_segment(self, srv, stream, answers, count):
        """``count`` open-loop queries at the nominal rate on two fresh
        connections; returns the part and the server CPU it took."""
        cpu0 = srv.cpu_s()
        part = serve.open_loop(self.client(srv, NOMINAL_WINDOW_S), stream,
                               self.params["nominal_qps"], count, answers,
                               self.params["mixed_deadline_ms"])
        cpu = srv.cpu_s() - cpu0
        if part.error:
            self.account(part, cpu, part.segment.windows, nominal=True)
        return part, cpu

    def verify_sample(self, answers, sample_keys, name):
        """Checks served values against in-process resolve_with_retry;
        returns the in-process compute time of each key, in ms."""
        proc = subprocess.run([self.probe, "resolve"], input="\n".join(sample_keys) + "\n",
                              capture_output=True, text=True, env=self.env, timeout=120)
        lines = proc.stdout.splitlines()
        self.attempted += len(sample_keys)
        if proc.returncode != 0 or len(lines) != len(sample_keys):
            self.fail(len(sample_keys), f"{name}: probe resolve failed: {proc.stderr[-300:]}")
            return []
        compute = []
        for key, line in zip(sample_keys, lines):
            status, ns, value = line.split("\t", 2)
            compute.append(int(ns) / 1e6)
            if status != "ok" or answers.values.get(key) != value:
                self.fail(1, f"{name}: served {answers.values.get(key)!r} for {key}, "
                             f"in-process {status} {value!r}")
        return compute

    def sample(self, population, k, tag):
        rng = random.Random(f"{tag}:{self.seed}")
        return rng.sample(population, min(k, len(population)))

    def session(self, rounds, store=None, metrics=False, name="serve"):
        """A server session whose ``rounds`` rounds run back to back."""
        with Session(self, name, store, metrics) as s:
            for _ in range(rounds):
                s.round()
            s.finish_ladder()
        return s.results()

    def serve_metrics(self, s):
        """End-to-end serve metrics of a session. Latencies pool the windows
        in which other guests took no CPU time (see ``stats.quietest``)."""
        p = self.params
        h = s["hotp"]
        # The hot loop answers thousands of queries per window: each picked
        # window gets its own rate, median and p99, and the medians over the
        # windows are reported, so a slow second weighs one window's worth.
        per, picked = stats.quietest(h["windows"], h["done"], h["rtts"], 1000, HOT_WINDOWS)
        per = [(xs, w) for xs, w in zip(per, picked) if stats.p99(xs) is not None]
        if not per:
            raise Failure("no hot-loop window held 1000 answers")
        note = _steal_note(h["windows"], [w for _, w in per])
        self.put("hot_qps", stats.median([len(xs) / (w[1] - w[0]) for xs, w in per]), "1/s",
                 f"median over windows; {note}")
        self.put("hot_p50_us", stats.median([stats.median(xs) for xs, _ in per]) * 1e6, "us",
                 "median over windows; pooled " + _tail_note(
                     [x for xs, _ in per for x in xs], 1e6, "us"))
        self.put("hot_p99_us", stats.median([stats.p99(xs) for xs, _ in per]) * 1e6, "us",
                 f"median over windows; {note}")
        nominal = s["nominal"]
        lat = nominal.quiet
        note = _steal_note(nominal.windows, nominal.quiet_windows)
        self.put("mixed_p50_ms", stats.median(lat) * 1e3, "ms",
                 f"at {nominal.rate} q/s; " + _tail_note(lat, 1e3, "ms"))
        self.put("mixed_p99_ms", _p99(lat) * 1e3, "ms", note)
        limit = p["p99_limit_ms"] / 1e3
        self.put("mixed_max_qps", s["max_qps"], "1/s", "rungs tried: " + ", ".join(
            f"{r.rate}:{'pass' if r.passes(limit) else 'fail'}"
            f"(p99 {r.p99 * 1e3:.1f} ms{', backlog' if r.growing else ''}, steal {r.steal})"
            for r in s["tried"]))
        hits = sum(len(xs) for xs, _ in per)
        self.put("server_cpu_us_per_query", sum(w[3] for _, w in per) / hits * 1e6, "us",
                 f"serve-hot phase, same windows, {hits} hits; serve-mixed nominal phase "
                 f"{nominal.cpu / nominal.sent * 1e6:.1f} us over {nominal.sent} queries")

    def check_sample(self, s):
        new_keys = [k for k in s["stream"].order if k in s["answers"].values]
        self.verify_sample(s["answers"], self.sample(s["hot"], 8, "hot-check")
                           + self.sample(new_keys, 16, "mixed-check"), "sample")

    # -- the end-to-end run ------------------------------------------------

    def warm_up(self, seconds=1.5):
        """Unmeasured small campaigns for ``seconds``: pages the binary in
        and brings both cores up to speed. On the reference machine the
        first second or so of work after an idle spell runs up to half
        again slower than the rest. Their median wall time goes into the
        run record as a gauge of how fast the machine was."""
        end, walls = time.perf_counter() + seconds, []
        while time.perf_counter() < end:
            walls.append(self.run_repro(["table2", "--threads", "2", "--quiet"],
                                        "warm-up")["wall_s"])
        self.speed_gauge_s = stats.median(walls)

    def end_to_end(self):
        """Set-up probes, then the campaigns (single-process or sharded)
        with one ``repro serve`` session running beside them: a round of
        its serve-hot and serve-mixed phases before each campaign and after
        the last, while the server idles during the campaigns."""
        sharded = self.workload == "campaign-sharded"
        t0 = time.perf_counter()
        self.warm_up()
        t1 = time.perf_counter()
        self.setup_probes(sharded)
        t2 = time.perf_counter()
        n = max(1, round(self.seconds * CAMPAIGNS_PER_S))
        runs, serve_s = [], 0.0
        with Session(self, "serve") as s:
            for i in range(n + 1):
                r0 = time.perf_counter()
                s.round()
                if i == n:
                    s.finish_ladder()
                serve_s += time.perf_counter() - r0
                if i < n:
                    runs.append(self.workload_campaign(i, sharded))
        t3 = time.perf_counter()
        res = s.results()
        self.serve_metrics(res)
        self.campaign_metrics(runs)
        self.check_sample(res)
        self.phase_s = {"warm_up": t1 - t0, "setup_probes": t2 - t1, "serve": serve_s,
                        "campaigns": t3 - t2 - serve_s, "check": time.perf_counter() - t3}
        self.put("setup_s", stats.median(self.setups), "s",
                 f"median of {len(self.setups)} campaign set-ups; server spawn to banner "
                 f"{res['setup_s'] * 1e3:.2f} ms, hot-set warm-up {res['warm_s'] * 1e3:.1f} ms")
        # A two-thread campaign's peak moves by a tenth from one campaign
        # to the next (how its threads' allocations overlap), so the median
        # campaign's counts. The server's peak grows with its store: it is
        # reported, not compared.
        peaks = [r["maxrss_kb"] / 1024.0 for r in runs]
        self.put("peak_rss_mb", stats.median(peaks), "MB",
                 f"median over {len(peaks)} campaigns of the process tree's peak: "
                 + ", ".join(f"{x:.1f}" for x in peaks) + f"; max over all "
                 f"{len(self.rss_kb)} process trees {max(self.rss_kb) / 1024.0:.1f} MB; server "
                 f"{res['server_rss_kb'] / 1024.0:.1f} MB at the end")


class Ladder:
    """Bisection over the fixed ladder of rates for the highest one that
    meets the limit, one step at a time. The bottom rung is the nominal
    rate, which the nominal phase stands for. A rung fails only after
    ``RUNG_RUNS`` failed runs: one slow spell of the shared host must not
    send the search down the ladder."""

    def __init__(self, rates, limit_s):
        self.rates = rates
        self.limit = limit_s
        self.lo, self.hi = 0, len(rates)
        self.tried = []

    def done(self):
        return self.hi - self.lo <= 1

    def step(self, run_rung):
        """Tests the middle rung with ``run_rung(rate)``."""
        mid = (self.lo + self.hi) // 2
        passed = False
        for _ in range(RUNG_RUNS):
            r = run_rung(self.rates[mid])
            self.tried.append(r)
            passed = r.passes(self.limit)
            if passed:
                break
        if passed:
            self.lo = mid
        else:
            self.hi = mid

    def best(self, nominal_ok):
        return self.rates[self.lo] if nominal_ok else 0


class Session:
    """One ``repro serve`` session of a run, on a fresh store (or
    ``store``): the hot set is warmed at the start, then each ``round()``
    adds to its serve-hot and serve-mixed phases and takes the ladder
    search further. Used as a context manager: the server is stopped (and
    its drain awaited) on the way out."""

    def __init__(self, run, name="serve", store=None, metrics=False):
        p = run.params
        self.run = run
        self.name = name
        self.hot = keys.hot_set(run.seed, p)
        self.answers = serve.Answers()
        self.srv = run.server(name, store=store, metrics=metrics)
        self.stopped = False
        try:
            t0 = time.perf_counter()
            run.warm(self.srv, self.hot, self.answers)
            self.warm_s = time.perf_counter() - t0
        except BaseException:
            self.close()
            raise
        self.hot_keys = keys.Supply(keys.hot_stream(run.seed, self.hot, p["hot_zipf_s"]))
        self.stream = keys.MixedStream(run.seed, p, exclude=self.hot)
        self.hotp = {"done": [], "rtts": [], "bytes": 0, "windows": []}
        self.parts, self.nominal_cpu = [], 0.0
        self.ladder = Ladder(p["ladder_qps"], p["p99_limit_ms"] / 1e3)
        self.server_rss_kb = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        if not self.stopped:
            self.stopped = True
            self.server_rss_kb = self.srv.peak_rss_kb() if self.srv.proc.poll() is None else 0
            self.run.stop(self.srv, self.name)

    def round(self):
        run = self.run
        run.hot_segments(self.srv, self.hot_keys, self.answers, self.hotp, HOT_SEGMENTS)
        part, cpu = run.nominal_segment(self.srv, self.stream, self.answers, NOMINAL_SEGMENT)
        self.parts.append(part)
        self.nominal_cpu += cpu
        for _ in range(LADDER_STEPS):
            if not self.ladder.done():
                self.ladder_step()

    def ladder_step(self):
        self.ladder.step(lambda rate: self.run.rung(self.srv, self.stream, self.answers, rate))

    def finish_ladder(self):
        while not self.ladder.done():
            self.ladder_step()

    def results(self):
        """The session's measurements; the nominal phase is checked here
        (every failed answer at the nominal rate counts)."""
        parts = self.parts
        nominal = serve.Rung(self.run.params["nominal_qps"],
                             [q for p in parts for q in p.records],
                             [x for p in parts for x in p.late], sum(p.lost for p in parts),
                             sum(p.wrong for p in parts))
        # Each round's part is checked for a growing backlog on its own:
        # the parts run tens of seconds apart.
        nominal.growing = any(p.growing for p in parts)
        windows = [w for p in parts for w in p.segment.windows]
        nominal = self.run.account(nominal, self.nominal_cpu, windows, nominal=True)
        per, nominal.quiet_windows = stats.quietest(
            nominal.windows, [q["due"] for q in nominal.records], nominal.latency, 1000)
        nominal.quiet = [x for xs in per for x in xs]
        nominal_ok = (nominal.failed == 0 and not nominal.growing
                      and _p99(nominal.quiet) <= self.ladder.limit)
        return {"hot": self.hot, "answers": self.answers, "stream": self.stream,
                "server": self.srv, "setup_s": self.srv.setup_s, "warm_s": self.warm_s,
                "hotp": self.hotp, "nominal": nominal,
                "max_qps": self.ladder.best(nominal_ok), "tried": self.ladder.tried,
                "server_rss_kb": self.server_rss_kb}


def _p99(values):
    p99 = stats.p99(values)
    if p99 is None:
        raise Failure(f"too few samples for a p99 (n={len(values)})")
    return p99


def _tail_note(values, scale, unit):
    """Median, the highest percentile with ten samples beyond it, and n."""
    s = stats.summary(values)
    return (f"p50 {s['p50'] * scale:.4g} {unit}, p{s['tail_p']} {s['tail'] * scale:.4g} {unit}, "
            f"n={s['n']}")


def _steal_note(windows, kept):
    """Which windows were used, by the steal ticks other guests took."""
    every = [w[2] for w in windows]
    return (f"{len(kept)} of {len(windows)} windows with <= {max(w[2] for w in kept)} steal "
            f"ticks ({every.count(0)} had none; {sum(every)} ticks in all)")
