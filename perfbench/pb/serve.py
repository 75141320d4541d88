"""Driving ``repro serve`` from outside: the server process, and the
closed- and open-loop clients.

All load comes from one process over two connections: the load generator
``perfbench-probe client`` (see ``probe/src/client.rs``), which speaks the
program's own frame codec. Every answer is checked: a query is good when
its status is ``ok`` and its value equals the first value the session saw
for that key (which is itself checked against in-process
``serve::resolve_with_retry`` on a seeded sample, see
``session.verify_sample``).
"""

import ctypes
import os
import select
import signal
import subprocess
import time

from . import stats

CLK_TCK = os.sysconf("SC_CLK_TCK")
_LIBC = ctypes.CDLL(None, use_errno=True)
_PR_SET_PDEATHSIG = 1


def child_setup(nice=0):
    """Runs in a child before exec: it gets SIGTERM if the benchmark dies,
    so no process outlives the run, and runs at ``nice``."""
    _LIBC.prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)
    if nice:
        os.nice(nice)

# The server runs at a lower scheduling priority than the load generator:
# on a two-core machine its two compute workers would otherwise keep the
# generator off the CPU for milliseconds at a time and put it behind its
# own schedule. The server still gets every cycle the generator leaves.
SERVER_NICE = 5


class Server:
    """One ``repro serve`` process on an ephemeral port."""

    def __init__(self, repro, store, log_path, env, metrics=False):
        args = [repro, "serve", "--store", store, "--listen", "127.0.0.1:0"]
        if metrics:
            args.append("--metrics")
        self.log = open(log_path, "wb")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=self.log, env=env,
                                     preexec_fn=lambda: child_setup(SERVER_NICE))
        line = _readline(self.proc.stdout, 30.0)
        self.setup_s = time.perf_counter() - t0
        prefix = b"serve: listening on "
        if not line.startswith(prefix):
            self.kill()
            raise Failure(f"repro serve did not print its banner (got {line!r})")
        host, port = line[len(prefix):].decode().strip().rsplit(":", 1)
        self.addr = (host, int(port))
        self.drain_ms = None
        self.rusage = None
        self.status = None

    def cpu_s(self):
        """User+system CPU the server has used so far."""
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLK_TCK

    def peak_rss_kb(self):
        """The server's peak resident set so far (``VmHWM``)."""
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        raise Failure(f"repro serve exited early (status {self.proc.poll()})")

    def stop(self):
        """SIGTERM, then wait for the drain to finish; returns the exit code."""
        t0 = time.perf_counter()
        self.proc.send_signal(signal.SIGTERM)
        _, status, self.rusage = os.wait4(self.proc.pid, 0)
        self.drain_ms = (time.perf_counter() - t0) * 1e3
        self.proc.returncode = self.status = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self.log.close()
        return self.status

    def kill(self):
        if self.proc.returncode is None:
            self.proc.kill()
            _, status, self.rusage = os.wait4(self.proc.pid, 0)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            self.proc.stdout.close()
        self.log.close()


def _readline(pipe, timeout):
    """One line from ``pipe``, or b"" if none arrives within ``timeout``."""
    buf = b""
    end = time.monotonic() + timeout
    fd = pipe.fileno()
    while not buf.endswith(b"\n"):
        left = end - time.monotonic()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            return buf
        chunk = os.read(fd, 1)
        if not chunk:
            return buf
        buf += chunk
    return buf


class Failure(Exception):
    """A fault of the program that stops the run (for example the server
    closed a connection or answered out of order). ``count`` operations
    are failed with it."""

    def __init__(self, problem, count=1):
        super().__init__(problem)
        self.count = count


class Answers:
    """The first value seen per key, and the count of bad answers."""

    def __init__(self):
        self.values = {}
        self.wrong = []

    def check(self, key, resp):
        """True when the answer is ``ok`` and consistent with earlier ones."""
        if resp["status"] != "ok":
            return False
        seen = self.values.setdefault(key, resp["value"])
        if seen != resp["value"]:
            self.wrong.append((key, seen, resp["value"]))
            return False
        return True


class Segment:
    """What one run of the load generator (``perfbench-probe client``)
    measured: one record per query sent, the window marks, the bytes."""

    def __init__(self, text, window_s, clk_tck=CLK_TCK):
        self.records, marks, self.error = [], [], None
        for line in text.splitlines():
            f = line.split("\t", 7)  # a value (the last field) may hold tabs
            if f[0] == "q":
                self.records.append({
                    "index": int(f[1]), "due": float(f[2]), "sent": float(f[3]),
                    "done": float(f[4]), "status": f[5], "cached": f[6] == "1",
                    "value": f[7]})
            elif f[0] == "p":
                self.records.append({"index": int(f[1]), "due": float(f[2]),
                                     "sent": float(f[3]), "status": "lost"})
            elif f[0] == "w":
                marks.append((float(f[1]), int(f[2]), int(f[3]) / clk_tck))
            elif f[0] == "end":
                self.sent, self.bytes_out, self.bytes_in = map(int, f[1:4])
            elif f[0] == "error":
                self.error = line.split("\t", 1)[1]
        self.records.sort(key=lambda r: r["index"])
        self.answered = [r for r in self.records if r["status"] != "lost"]
        self.windows = stats.windows(marks, window_s)


class Client:
    """Runs the load generator against one server: a segment of queries on
    two fresh connections."""

    def __init__(self, probe, srv, work_dir, window_s, env):
        self.probe = probe
        self.srv = srv
        self.keys_path = os.path.join(work_dir, "client.keys")
        self.out_path = os.path.join(work_dir, "client.out")
        self.window_s = window_s
        self.env = env

    def run(self, mode, keys, timeout):
        with open(self.keys_path, "w") as f:
            f.write("".join(k + "\n" for k in keys))
        args = [self.probe, "client", mode[0], "--addr", "%s:%d" % self.srv.addr,
                "--server-pid", str(self.srv.proc.pid), "--keys", self.keys_path,
                "--out", self.out_path, "--window", str(self.window_s)] + mode[1:]
        proc = subprocess.Popen(args, stderr=subprocess.PIPE, env=self.env,
                                preexec_fn=child_setup)
        try:
            _, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise Failure(f"load generator still running after {timeout:.0f} s", len(keys))
        if proc.returncode not in (0, 3):
            raise RuntimeError(f"load generator exited {proc.returncode}: {err.decode()[-300:]}")
        with open(self.out_path) as f:
            return Segment(f.read(), self.window_s)

    def closed(self, keys, seconds):
        return self.run(["closed", "--seconds", str(seconds)], keys, seconds + 60)

    def open(self, keys, rate, deadline_ms, stall=None):
        extra = ["--stall-at", str(stall[0]), "--stall-ms", str(stall[1] * 1e3)] if stall else []
        return self.run(["open", "--rate", str(rate), "--deadline-ms", str(deadline_ms)] + extra,
                        keys, len(keys) / rate + 60)


def fault(seg, name):
    """A ``Failure`` for a segment the load generator broke off, failing
    every query it sent that got no answer."""
    return Failure(f"{name}: {seg.error}", max(1, seg.sent - len(seg.answered)))


def closed_loop(client, keys, answers, seconds, want_cached=None):
    """Closed loop over ``keys`` for at most ``seconds``. Returns
    ``(segment, failed)``: ``failed`` counts the answers that are not
    ``ok``, not consistent with earlier ones, or (with ``want_cached``)
    not a cache hit as wanted."""
    seg = client.closed(keys, seconds)
    failed = 0
    for r in seg.answered:
        ok = answers.check(keys[r["index"]], r)
        if ok and want_cached is not None and r["cached"] != want_cached:
            ok = False
        failed += not ok
    return seg, failed


class Rung:
    """What one open-loop run at a fixed rate measured."""

    def __init__(self, rate, records, late, lost, wrong):
        self.rate = rate
        self.records = records
        self.late = late
        self.lost = lost
        self.wrong = wrong
        self.error = None
        n = len(records) + lost
        self.sent = n
        self.latency = [r["done"] - r["due"] for r in records]
        status = [r["status"] for r in records]
        self.ok = sum(s == "ok" for s in status)
        self.hits = sum(r["status"] == "ok" and r["cached"] for r in records)
        self.shed = sum(s == "overloaded" for s in status)
        self.expired = sum(s == "expired" for s in status)
        # Lost, not ok, or a value that differs from an earlier answer.
        self.failed = n - self.ok + wrong
        self.growing = backlog_growing(records)
        self.p50 = stats.median(self.latency) if self.latency else float("inf")
        self.p99 = stats.p99(self.latency)

    def passes(self, p99_limit_s):
        return (self.failed == 0 and not self.growing
                and self.p99 is not None and self.p99 <= p99_limit_s)

    def fractions(self):
        n = max(self.sent, 1)
        return {"hit_frac": self.hits / n, "shed_frac": self.shed / n,
                "expired_frac": self.expired / n}


# A backlog is growing when completion lag rises across a rung by more
# than this: below the knee lag fluctuates by a few milliseconds, above it
# it climbs by (1 - capacity/rate) of the elapsed time.
BACKLOG_RISE_S = 0.020


def backlog_growing(records):
    """Completion lag (done - due) of the last third of a rung's queries,
    compared with the first third, in send order."""
    if len(records) < 30:
        return False
    ordered = sorted(records, key=lambda r: r["due"])
    third = len(ordered) // 3
    first = stats.median([r["done"] - r["due"] for r in ordered[:third]])
    last = stats.median([r["done"] - r["due"] for r in ordered[-third:]])
    return last - first > BACKLOG_RISE_S


def open_loop(client, stream, rate, count, answers, deadline_ms, stall=None):
    """Open loop: ``count`` queries from ``stream``; query ``i`` is due at
    ``start + i / rate`` and is sent then (or as soon after as the
    generator can), whatever is still in flight. Latency counts from the
    due time; lateness is send time minus due time. ``stall=(i, s)`` makes
    the generator sleep ``s`` seconds before query ``i``."""
    drawn = stream.take(count)
    seg = client.open([k for k, _ in drawn], rate, deadline_ms, stall)
    wrong_before = len(answers.wrong)
    for r in seg.answered:
        key, r["new"] = drawn[r["index"]]
        answers.check(key, r)
    rung = Rung(rate, seg.answered, [r["sent"] - r["due"] for r in seg.records],
                seg.sent - len(seg.answered), len(answers.wrong) - wrong_before)
    rung.error = seg.error
    rung.segment = seg
    return rung
