"""Tests of the benchmark's own machinery. The load-generator tests need
the built ``perfbench-probe`` (any benchmark run builds it) and are
skipped without it; the rest need no build.

    python3 -m unittest discover -s perfbench/tests
"""

import itertools
import json
import os
import re
import socket
import struct
import sys
import tempfile
import threading
import types
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.dirname(HERE))

from pb import campaign, keys, serve, session, spec, stats  # noqa: E402


class KeyStreamTest(unittest.TestCase):
    def test_same_seed_gives_the_same_stream(self):
        p = spec.serve_params()
        a = keys.MixedStream(7, p).take(3000)
        b = keys.MixedStream(7, p).take(3000)
        c = keys.MixedStream(8, p).take(3000)
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)
        self.assertEqual(keys.hot_set(7, p), keys.hot_set(7, p))
        hot = keys.hot_set(7, p)
        self.assertEqual(list(itertools.islice(keys.hot_stream(7, hot, 0.9), 500)),
                         list(itertools.islice(keys.hot_stream(7, hot, 0.9), 500)))

    def test_a_supply_sends_the_stream_as_drawn(self):
        supply = keys.Supply(range(100))
        chunk = supply.take(10)
        supply.give_back(chunk[4:])
        self.assertEqual(chunk[:4] + supply.take(20), list(range(24)))

    def test_keys_are_valid_and_the_mix_is_exact(self):
        p = spec.serve_params()
        stream = keys.MixedStream(3, p, exclude=keys.hot_set(3, p))
        drawn = stream.take(2000)
        # Once revisits have keys to name, every block of 10 holds 7 new keys.
        for i in range(100, 2000, 10):
            self.assertEqual(sum(new for _, new in drawn[i:i + 10]), 7, "7 new keys per 10")
        new = [k for k, is_new in drawn if is_new]
        self.assertEqual(len(new), len(set(new)), "a new key is never repeated")
        self.assertFalse(set(new) & set(keys.hot_set(3, p)), "new keys avoid the hot set")
        self.assertEqual(sum("dp=wcdp" in k for k in new[:1400]), 42, "3 WCDP keys per 100")
        for key in new:
            fields = dict(f.split("=", 1) for f in key.split(";"))
            self.assertIn(fields["family"], keys.FAMILIES)
            if fields["pattern"].startswith("simra-"):
                self.assertIn(fields["family"], keys.SIMRA_FAMILIES)
                self.assertIn(fields["pattern"], keys.SIMRA_CLASSES)
                self.assertNotEqual(fields["dp"], "wcdp")
            self.assertIn(int(fields["temp_cc"]), p["temps_cc"])
        for key, is_new in drawn:
            if not is_new:
                self.assertLess(stream.order.index(key), len(stream.order) - p["revisit_gap"])


def fake_output():
    """A ``repro all`` stdout with 21 sections and a metadata line."""
    sections = [f"== Title {t} ==\n| a | {i} |\n" for i, t in enumerate(campaign.TARGETS)]
    meta = {"run": "repro-all", "elapsed_s": 1.0, "acts": 5, "bitflips": 4,
            "timing_violations": 3, "comra_copies": 2, "simra_groups": 1, "hcfirst_searches": 9}
    return "\n".join(sections) + "\n" + json.dumps(meta) + "\n"


def reference_of(stdout):
    sections, meta = campaign.split_targets(stdout)
    return {"targets": [{"target": t, "sha256": campaign.digest(s)}
                        for t, s in zip(campaign.TARGETS, sections)],
            "counters": {k: meta[k] for k in campaign.COUNTERS}}


class OracleTest(unittest.TestCase):
    def test_identical_output_passes(self):
        out = fake_output()
        ref = reference_of(out)
        failed, meta, problems = campaign.check_output(out, ref, [ref["counters"]])
        self.assertEqual((failed, problems), ([], []))
        self.assertEqual(meta["acts"], 5)

    def test_one_changed_byte_fails_exactly_its_target(self):
        out = fake_output()
        ref = reference_of(out)
        pos = out.index("| 7 |") + 2
        changed = out[:pos] + "8" + out[pos + 1:]
        failed, _, _ = campaign.check_output(changed, ref, [ref["counters"]])
        self.assertEqual(failed, [campaign.TARGETS[7]])

    def test_wrong_counters_fail_every_target(self):
        out = fake_output()
        ref = reference_of(out)
        changed = out.replace('"bitflips": 4', '"bitflips": 5')
        failed, _, _ = campaign.check_output(changed, ref, [ref["counters"]])
        self.assertEqual(failed, list(campaign.TARGETS))

    def test_sharded_runs_may_report_zero_counters(self):
        out = fake_output()
        ref = reference_of(out)
        zeroed = out
        for k in campaign.COUNTERS:
            zeroed = re.sub(rf'"{k}": \d+', f'"{k}": 0', zeroed)
        self.assertEqual(campaign.check_output(zeroed, ref, [ref["counters"]])[0],
                         list(campaign.TARGETS))
        allowed = campaign.allowed_counters(ref, sharded=True)
        self.assertEqual(campaign.check_output(zeroed, ref, allowed)[0], [])

    def test_text_before_the_first_heading_fails(self):
        out = fake_output()
        ref = reference_of(out)
        failed, _, _ = campaign.check_output("stray\n" + out, ref, [ref["counters"]])
        self.assertEqual(failed, list(campaign.TARGETS))

    def test_committed_reference_covers_every_target(self):
        with open(os.path.join(ROOT, "perfbench", "reference", "campaign.json")) as f:
            ref = json.load(f)
        self.assertEqual([t["target"] for t in ref["targets"]], list(campaign.TARGETS))
        self.assertEqual(sorted(ref["counters"]), sorted(campaign.COUNTERS))


def probe_binary():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    path = os.path.join(target, "release", "perfbench-probe")
    return path if os.path.exists(path) else None


class EchoServer:
    """Answers every query frame at once with an ``ok`` response whose
    value is the key. With ``change_on_revisit`` a key's second answer
    carries another value; with ``close_after`` the connections close
    after that many queries."""

    def __init__(self, change_on_revisit=False, close_after=None):
        self.change_on_revisit = change_on_revisit
        self.close_after = close_after
        self.seen = set()
        self.count = 0
        self.lock = threading.Lock()
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.addr = self.listener.getsockname()
        # What the load generator needs of a server: its address and a
        # process whose CPU time it samples.
        self.proc = types.SimpleNamespace(pid=os.getpid())
        threading.Thread(target=self.serve, daemon=True).start()

    def serve(self):
        self.listener.settimeout(5)
        for _ in range(2):
            conn, _ = self.listener.accept()
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            threading.Thread(target=self.answer, args=(conn,), daemon=True).start()

    def value(self, key):
        with self.lock:
            self.count += 1
            again = key in self.seen
            self.seen.add(key)
            if self.close_after is not None and self.count > self.close_after:
                return None
        return key + ("+again" if again and self.change_on_revisit else "")

    def answer(self, conn):
        buf = b""
        with conn:
            while True:
                data = conn.recv(65536)
                if not data:
                    return
                buf += data
                while len(buf) >= 5:
                    length, _ = struct.unpack_from("<IB", buf)
                    if len(buf) < 5 + length:
                        break
                    q = json.loads(buf[5:5 + length])
                    buf = buf[5 + length:]
                    value = self.value(q["key"])
                    if value is None:
                        return
                    body = json.dumps({"id": q["id"], "status": "ok", "cached": True,
                                       "value": value, "detail": ""}).encode()
                    conn.sendall(struct.pack("<IB", len(body), 5) + body)

    def close(self):
        self.listener.close()


class FixedStream:
    """A key stream of new keys, with the keys of ``revisits`` (indices of
    earlier draws) named again in their place."""

    def __init__(self, revisits=()):
        self.drawn = []
        self.revisits = dict(revisits)

    def take(self, count):
        out = []
        for _ in range(count):
            i = len(self.drawn)
            key = self.drawn[self.revisits[i]][0] if i in self.revisits else f"k{i}"
            self.drawn.append((key, i not in self.revisits))
            out.append(self.drawn[-1])
        return out


@unittest.skipUnless(probe_binary(), "needs the built load generator: run the benchmark once, "
                                     "or cargo build --release --manifest-path "
                                     "perfbench/probe/Cargo.toml with CARGO_TARGET_DIR")
class OpenLoopTest(unittest.TestCase):
    """The load generator against a fake server."""

    def open_loop(self, server, stream, rate, count, stall=None):
        with tempfile.TemporaryDirectory() as work:
            client = serve.Client(probe_binary(), server, work, 0.25, dict(os.environ))
            try:
                return serve.open_loop(client, stream, rate, count, serve.Answers(), 0, stall)
            finally:
                server.close()

    def test_a_generator_stall_counts_as_lateness_and_latency(self):
        rate, stall = 400, 0.08
        rung = self.open_loop(EchoServer(), FixedStream(), rate, 600, stall=(200, stall))
        self.assertEqual((rung.sent, rung.lost, rung.failed), (600, 0, 0))
        # The query due at the stall goes out late by the whole stall, and
        # its latency, timed from its due time, carries the same wait.
        self.assertGreaterEqual(rung.late[200], stall * 0.9)
        self.assertGreaterEqual(rung.records[200]["done"] - rung.records[200]["due"],
                                stall * 0.9)
        # Queries falling due during the stall are late by what was left of it.
        self.assertGreaterEqual(rung.late[210], stall - 10 / rate - 0.005)
        # Before the stall, and once the generator caught up, it keeps time.
        self.assertLess(stats.median(rung.late[:200]), 0.005)
        self.assertLess(stats.median(rung.late[400:]), 0.005)
        self.assertLess(stats.median(rung.latency), 0.005)

    def test_a_changed_value_on_a_revisit_fails_the_nominal_rate(self):
        server = EchoServer(change_on_revisit=True)
        rung = self.open_loop(server, FixedStream({50: 10, 90: 20}), 1000, 200)
        self.assertEqual((rung.sent, rung.ok, rung.wrong, rung.failed), (200, 200, 2, 2))
        tally = session.Tally()
        tally.account(rung, 0.0, rung.segment.windows, nominal=True)
        self.assertEqual((tally.attempted, tally.failed), (200, 2))
        rungs = session.Tally()
        rungs.account(rung, 0.0, rung.segment.windows, nominal=False)
        self.assertEqual(rungs.failed, 2, "a wrong value fails a ladder rung's run too")

    def test_a_closed_connection_fails_the_run(self):
        rung = self.open_loop(EchoServer(close_after=100), FixedStream(), 1000, 300)
        self.assertIn("closed", rung.error)
        tally = session.Tally()
        with self.assertRaises(session.Failure) as caught:
            tally.account(rung, 0.0, rung.segment.windows, nominal=True)
        self.assertGreaterEqual(tally.failed + caught.exception.count, 1)
        self.assertEqual(tally.attempted, rung.sent)
        self.assertLess(len(rung.records), rung.sent, "queries after the close are unanswered")


    def test_an_unreachable_server_fails_the_run(self):
        with socket.socket() as bound, tempfile.TemporaryDirectory() as work:
            bound.bind(("127.0.0.1", 0))  # a port taken, but nothing listens on it
            server = types.SimpleNamespace(addr=bound.getsockname(),
                                           proc=types.SimpleNamespace(pid=os.getpid()))
            client = serve.Client(probe_binary(), server, work, 0.25, dict(os.environ))
            seg, failed = serve.closed_loop(client, ["k0", "k1"], serve.Answers(), 1.0)
        self.assertIn("connect", seg.error)
        tally = session.Tally()
        with self.assertRaises(session.Failure) as caught:
            tally.tally(seg, failed, "hot")
        self.assertEqual(caught.exception.count, 1)


class BacklogTest(unittest.TestCase):
    def test_backlog_is_growing_lag_not_a_high_tail(self):
        flat = [{"due": i / 100, "done": i / 100 + (0.2 if i == 50 else 0.001)}
                for i in range(300)]
        rising = [{"due": i / 100, "done": i / 100 + i * 0.0005} for i in range(300)]
        self.assertFalse(serve.backlog_growing(flat))
        self.assertTrue(serve.backlog_growing(rising))

    def test_wrong_values_count_once_at_the_nominal_rate(self):
        records = [{"due": i / 100, "done": i / 100 + 0.001, "cached": False, "status": "ok"}
                   for i in range(100)]
        rung = serve.Rung(500, records, [0.0] * 100, 0, 3)
        tally = session.Tally()
        tally.account(rung, 0.0, [(0.0, 1.0, 0, 0.0)], nominal=True)
        self.assertEqual((tally.attempted, tally.failed), (100, 3))

    def test_shed_answers_count_against_a_rung_only(self):
        records = [{"due": i / 100, "done": i / 100 + 0.001, "cached": False,
                    "status": "overloaded" if i % 10 == 0 else "ok"} for i in range(100)]
        windows = [(0.0, 1.0, 0, 0.0)]
        rung = serve.Rung(1000, records, [0.0] * 100, 0, 0)
        self.assertFalse(rung.passes(0.05))
        tally = session.Tally()
        tally.account(rung, 0.0, windows, nominal=False)
        self.assertEqual(tally.failed, 0)
        tally.account(serve.Rung(1000, records, [0.0] * 100, 0, 0), 0.0, windows, nominal=True)
        self.assertEqual(tally.failed, 10)


class LadderTest(unittest.TestCase):
    @staticmethod
    def searched(knee, slow_at=()):
        """Runs the ladder search to its end against a synthetic server
        whose p99 passes at rates up to ``knee``; the first run at each
        rate in ``slow_at`` fails, as in a slow spell of the host."""
        ladder = session.Ladder(list(range(100, 2100, 100)), 0.05)
        runs = []

        def rung(rate):
            slow = rate in slow_at and rate not in runs
            runs.append(rate)
            return types.SimpleNamespace(rate=rate,
                                         passes=lambda limit: rate <= knee and not slow)

        while not ladder.done():
            ladder.step(rung)
        return ladder, runs

    def test_finds_the_highest_passing_rate(self):
        ladder, runs = self.searched(1300)
        self.assertEqual(ladder.best(True), 1300)
        self.assertEqual(ladder.best(False), 0, "a failed nominal phase fails the search")
        # A passing rung takes one run, a failing one two.
        self.assertEqual(len(runs), sum(1 if r <= 1300 else 2 for r in set(runs)))

    def test_one_failed_run_does_not_fail_a_rung(self):
        ladder, runs = self.searched(1300, slow_at=(1100,))
        self.assertEqual(ladder.best(True), 1300)
        self.assertEqual(runs.count(1100), 2, "the slow run is run again")


class StatsTest(unittest.TestCase):
    def test_tail_has_ten_samples_beyond(self):
        self.assertEqual(stats.tail(list(range(1000)))[0], 99.0)
        self.assertEqual(stats.tail(list(range(999)))[0], 95.0)
        self.assertEqual(stats.tail(list(range(10000)))[0], 99.9)
        self.assertIsNone(stats.p99(list(range(999))))

    def test_quietest_picks_windows_without_steal_first(self):
        windows = [(0, 1, 3, 0), (1, 2, 0, 0), (2, 3, 1, 0), (3, 4, 0, 0)]
        times = [0.5, 1.5, 2.5, 3.5, 3.6]
        values = ["a", "b", "c", "d", "e"]
        per, picked = stats.quietest(windows, times, values, 2)
        self.assertEqual((per, picked), ([["b"], ["d", "e"]], [windows[1], windows[3]]))
        per, picked = stats.quietest(windows, times, values, 4)
        self.assertEqual(per, [["b"], ["c"], ["d", "e"]])
        per, picked = stats.quietest(windows, times, values, 1, min_windows=4)
        self.assertEqual(per, [["a"], ["b"], ["c"], ["d", "e"]])

    def test_marks_cut_windows(self):
        marks = [(0.0, 0, 0.0), (1.0, 0, 10.0), (2.0, 2, 20.0), (3.0, 2, 30.0), (3.2, 2, 32.0)]
        windows = stats.windows(marks, 1.0)
        self.assertEqual([w[:3] for w in windows], [(0.0, 1.0, 0), (1.0, 2.0, 2), (2.0, 3.2, 0)])
        self.assertEqual([round(w[3], 9) for w in windows], [10, 10, 12])


class SpecTest(unittest.TestCase):
    def test_benchmark_json_is_generated_from_the_spec(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            self.assertEqual(json.load(f), spec.benchmark_json())

    def test_benchmark_json_keeps_the_format_limits(self):
        b = spec.benchmark_json()
        self.assertEqual(set(b), {"command", "paths", "run_seconds", "workloads", "end_to_end",
                                  "per_layer"})
        name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        self.assertTrue(1 <= b["run_seconds"] <= 60)
        every = [w["name"] for w in b["workloads"]]
        for w in b["workloads"]:
            self.assertTrue(name.match(w["name"]) and len(w["why"]) <= 200)
        for m in b["end_to_end"]:
            self.assertTrue(name.match(m["name"]) and unit.match(m["unit"]))
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in b["per_layer"]:
            self.assertTrue(name.match(m["name"]) and unit.match(m["unit"]))
        every += [m["name"] for m in b["end_to_end"] + b["per_layer"]]
        self.assertEqual(len(every), len(set(every)))
        setup = next(m for m in b["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in b["end_to_end"]))
        self.assertLessEqual(len(json.dumps(b)), 64 * 1024)


if __name__ == "__main__":
    unittest.main()
