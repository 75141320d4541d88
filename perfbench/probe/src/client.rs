//! Load generator of the serve workloads.
//!
//! ```text
//! perfbench-probe client --addr <host:port> --server-pid <pid> --keys <file> --out <file>
//!     --window <s> (closed --seconds <s> | open --rate <q/s> --deadline-ms <ms>)
//! ```
//!
//! Opens two connections to `repro serve` and sends the keys of `--keys`
//! (one per line, in order) as query frames, encoded and decoded with the
//! program's own `fleet::wire` codec. One thread, one process.
//!
//! - `closed`: each connection sends its next key when the previous one is
//!   answered, until the keys run out or `--seconds` have passed.
//! - `open`: key `i` is due at `start + i / rate` and goes out then (or as
//!   soon after as the client can), on connection `i % 2`, whatever is still
//!   in flight. Answers still missing 15 s after the last send are lost.
//!
//! Every `--window` seconds the client samples the machine's steal ticks
//! (`/proc/stat`) and the server's CPU ticks (`/proc/<pid>/stat`). All
//! times are `CLOCK_MONOTONIC` seconds. `--out` gets, tab-separated:
//!
//! ```text
//! q <index> <due> <sent> <done> <status> <cached 0|1> <value>   one per answer
//! p <index> <due> <sent>                                         one per query unanswered
//! w <time> <steal ticks> <server cpu ticks>                      window marks
//! end <sent> <bytes out> <bytes in>
//! error <message>                                                on a fault
//! ```
//!
//! A closed connection, a response whose id is not the oldest query in
//! flight, a frame that does not decode, or 30 s without an answer is a
//! fault: the client writes what it has and exits 3.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
use std::time::Duration;

use pudhammer::fleet::wire::{Frame, FrameReader, QueryStatus, WireError};

/// Longest wait for any answer before the server counts as hung.
const HANG_S: f64 = 30.0;
/// How long the open loop waits for answers after its last send.
const DRAIN_S: f64 = 15.0;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

extern "C" {
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        mask: *const c_void,
    ) -> c_int;
}

const CLOCK_MONOTONIC: c_int = 1;
const POLLIN: c_short = 1;

/// `CLOCK_MONOTONIC` in seconds: the clock of Python's `time.perf_counter`.
fn now() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec.
    unsafe { clock_gettime(CLOCK_MONOTONIC, &mut ts) };
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

struct Answer {
    index: usize,
    due: f64,
    sent: f64,
    done: f64,
    status: QueryStatus,
    cached: bool,
    value: String,
}

struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Queries in flight, oldest first: (id, key index, due, sent).
    pending: VecDeque<(u64, usize, f64, f64)>,
}

struct Client {
    conns: Vec<Conn>,
    keys: Vec<String>,
    deadline_ms: u64,
    answers: Vec<Answer>,
    sent: usize,
    bytes_out: u64,
    bytes_in: u64,
    frame: Vec<u8>,
    window_s: f64,
    server_stat: String,
    marks: Vec<(f64, u64, u64)>,
}

enum Mode {
    Closed {
        seconds: f64,
    },
    Open {
        rate: f64,
        stall: Option<(usize, f64)>,
    },
}

impl Client {
    fn connect(&mut self, addr: &str) -> Result<(), String> {
        for _ in 0..2 {
            let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
            stream
                .set_nodelay(true)
                .map_err(|e| format!("connect {addr}: {e}"))?;
            self.conns.push(Conn {
                stream,
                buf: Vec::new(),
                pending: VecDeque::new(),
            });
        }
        Ok(())
    }

    fn send(&mut self, c: usize, index: usize, due: f64) -> Result<(), String> {
        let id = self.sent as u64;
        self.frame.clear();
        Frame::Query {
            id,
            key: self.keys[index].clone(),
            deadline_ms: self.deadline_ms,
        }
        .write_to(&mut self.frame)
        .map_err(|e| e.to_string())?;
        let sent = now();
        let conn = &mut self.conns[c];
        // One write per frame: a frame split over several TCP segments
        // would reach the server in pieces.
        conn.stream
            .write_all(&self.frame)
            .map_err(|e| format!("send on connection {c}: {e}"))?;
        conn.pending.push_back((id, index, due, sent));
        self.sent += 1;
        self.bytes_out += self.frame.len() as u64;
        Ok(())
    }

    fn in_flight(&self) -> bool {
        self.conns.iter().any(|c| !c.pending.is_empty())
    }

    /// Waits up to `timeout` seconds for answers and takes in every one
    /// that arrived; returns the connections that got one.
    fn receive(&mut self, timeout: f64) -> Result<Vec<usize>, String> {
        let mut fds: Vec<PollFd> = self
            .conns
            .iter()
            .map(|c| PollFd {
                fd: c.stream.as_raw_fd(),
                events: if c.pending.is_empty() { 0 } else { POLLIN },
                revents: 0,
            })
            .collect();
        let t = timeout.max(0.0);
        let ts = Timespec {
            tv_sec: t.trunc() as c_long,
            tv_nsec: (t.fract() * 1e9) as c_long,
        };
        // SAFETY: `fds` holds `fds.len()` valid entries; no signal mask.
        let n = unsafe {
            ppoll(
                fds.as_mut_ptr(),
                fds.len() as c_ulong,
                &ts,
                std::ptr::null(),
            )
        };
        if n < 0 {
            let e = std::io::Error::last_os_error();
            if e.kind() == std::io::ErrorKind::Interrupted {
                return Ok(Vec::new());
            }
            return Err(format!("poll: {e}"));
        }
        let mut got = Vec::new();
        let mut chunk = [0u8; 1 << 16];
        for (c, fd) in fds.iter().enumerate() {
            if fd.revents == 0 {
                continue;
            }
            let read = self.conns[c]
                .stream
                .read(&mut chunk)
                .map_err(|e| format!("receive on connection {c}: {e}"))?;
            let done = now();
            if read == 0 {
                return Err(format!("the server closed connection {c}"));
            }
            self.bytes_in += read as u64;
            let conn = &mut self.conns[c];
            conn.buf.extend_from_slice(&chunk[..read]);
            loop {
                let mut reader = FrameReader::new(&conn.buf[..]);
                let frame = match reader.next_frame() {
                    Ok(Some(frame)) => frame,
                    Ok(None) | Err(WireError::Truncated) => break,
                    Err(e) => return Err(format!("connection {c}: {e}")),
                };
                let used = reader.offset() as usize;
                conn.buf.drain(..used);
                let Frame::Response {
                    id,
                    status,
                    cached,
                    value,
                    ..
                } = frame
                else {
                    return Err(format!("connection {c}: a frame that is not a response"));
                };
                let Some((want, index, due, sent)) = conn.pending.pop_front() else {
                    return Err(format!("connection {c}: response {id} with none in flight"));
                };
                if id != want {
                    return Err(format!("connection {c}: response {id} for query {want}"));
                }
                self.answers.push(Answer {
                    index,
                    due,
                    sent,
                    done,
                    status,
                    cached,
                    value,
                });
            }
            got.push(c);
        }
        Ok(got)
    }

    fn tick(&mut self, t: f64) {
        if t - self.marks.last().map_or(f64::NEG_INFINITY, |m| m.0) >= self.window_s {
            self.mark(t);
        }
    }

    fn mark(&mut self, t: f64) {
        let cpu = server_cpu_ticks(&self.server_stat);
        self.marks.push((t, steal_ticks(), cpu));
    }

    /// Fails when nothing at all was answered for [`HANG_S`].
    fn hung(&self, since: f64) -> Result<(), String> {
        if now() - since > HANG_S {
            return Err(format!("no answer within {HANG_S} s"));
        }
        Ok(())
    }

    fn closed(&mut self, seconds: f64) -> Result<(), String> {
        let end = now() + seconds;
        let mut next = 0;
        for c in 0..self.conns.len() {
            if next < self.keys.len() {
                self.send(c, next, now())?;
                next += 1;
            }
        }
        let mut last = now();
        while self.in_flight() {
            let got = self.receive(HANG_S)?;
            let t = now();
            if got.is_empty() {
                self.hung(last)?;
                continue;
            }
            last = t;
            self.tick(t);
            for c in got {
                if self.conns[c].pending.is_empty() && next < self.keys.len() && t < end {
                    self.send(c, next, now())?;
                    next += 1;
                }
            }
        }
        Ok(())
    }

    fn open(&mut self, rate: f64, stall: Option<(usize, f64)>) -> Result<(), String> {
        let start = now() + 0.005;
        let mut last = now();
        for i in 0..self.keys.len() {
            let due = start + i as f64 / rate;
            if let Some((at, secs)) = stall {
                if at == i {
                    std::thread::sleep(Duration::from_secs_f64(secs));
                }
            }
            let mut t = now();
            while t < due {
                if self.in_flight() {
                    if !self.receive(due - t)?.is_empty() {
                        last = now();
                    }
                    self.hung(last)?;
                } else {
                    std::thread::sleep(Duration::from_secs_f64(due - t));
                    last = now();
                }
                t = now();
            }
            self.tick(t);
            self.send(i % self.conns.len(), i, due)?;
        }
        let give_up = now() + DRAIN_S;
        while self.in_flight() && now() < give_up {
            self.receive(give_up - now())?;
        }
        Ok(())
    }

    fn write(&self, out: &mut impl Write, error: Option<&str>) -> std::io::Result<()> {
        for a in &self.answers {
            writeln!(
                out,
                "q\t{}\t{:.9}\t{:.9}\t{:.9}\t{}\t{}\t{}",
                a.index,
                a.due,
                a.sent,
                a.done,
                a.status.name(),
                u8::from(a.cached),
                a.value.replace('\n', "\\n")
            )?;
        }
        for (_, index, due, sent) in self.conns.iter().flat_map(|c| &c.pending) {
            writeln!(out, "p\t{index}\t{due:.9}\t{sent:.9}")?;
        }
        for (t, steal, cpu) in &self.marks {
            writeln!(out, "w\t{t:.9}\t{steal}\t{cpu}")?;
        }
        writeln!(
            out,
            "end\t{}\t{}\t{}",
            self.sent, self.bytes_out, self.bytes_in
        )?;
        if let Some(e) = error {
            writeln!(out, "error\t{}", e.replace('\n', " "))?;
        }
        out.flush()
    }
}

/// Steal ticks of the whole machine: time the hypervisor ran other guests
/// while this machine's virtual CPUs wanted to run.
fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()?
                .split_whitespace()
                .nth(8)
                .and_then(|x| x.parse().ok())
        })
        .unwrap_or(0)
}

/// User+system CPU ticks of the process whose `stat` file is `path`.
fn server_cpu_ticks(path: &str) -> u64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            let (_, rest) = s.rsplit_once(')')?;
            let mut fields = rest.split_whitespace().skip(11);
            let user: u64 = fields.next()?.parse().ok()?;
            let system: u64 = fields.next()?.parse().ok()?;
            Some(user + system)
        })
        .unwrap_or(0)
}

fn flag<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .ok_or_else(|| format!("missing {name}"))
}

fn number(args: &[String], name: &str) -> Result<f64, String> {
    flag(args, name)?
        .parse()
        .map_err(|e| format!("{name}: {e}"))
}

pub fn main(args: &[String]) -> i32 {
    match run(args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("probe client: {e}");
            2
        }
    }
}

/// Sets up the client; returns 2 on bad arguments or files, otherwise
/// the outcome of the connections and the loop (0, or 3 on a fault of the
/// server).
fn run(args: &[String]) -> Result<i32, String> {
    let addr = flag(args, "--addr")?;
    let keys_path = flag(args, "--keys")?;
    let out_path = flag(args, "--out")?;
    let pid = flag(args, "--server-pid")?;
    let window_s = number(args, "--window")?;
    let keys: Vec<String> = std::fs::read_to_string(keys_path)
        .map_err(|e| format!("{keys_path}: {e}"))?
        .lines()
        .map(str::to_string)
        .collect();
    let mut deadline_ms = 0;
    let mode = match args.first().map(String::as_str) {
        Some("closed") => Mode::Closed {
            seconds: number(args, "--seconds")?,
        },
        Some("open") => {
            deadline_ms = number(args, "--deadline-ms")? as u64;
            // Test hook: sleep before sending key `at`, as a stalled
            // generator would.
            let stall = match (flag(args, "--stall-at"), flag(args, "--stall-ms")) {
                (Ok(at), Ok(ms)) => Some((
                    at.parse().map_err(|e| format!("--stall-at: {e}"))?,
                    ms.parse::<f64>().map_err(|e| format!("--stall-ms: {e}"))? / 1e3,
                )),
                _ => None,
            };
            Mode::Open {
                rate: number(args, "--rate")?,
                stall,
            }
        }
        _ => return Err("the first argument must be closed or open".into()),
    };
    let mut out = std::io::BufWriter::new(
        std::fs::File::create(out_path).map_err(|e| format!("{out_path}: {e}"))?,
    );
    let mut client = Client {
        conns: Vec::new(),
        answers: Vec::with_capacity(keys.len()),
        keys,
        deadline_ms,
        sent: 0,
        bytes_out: 0,
        bytes_in: 0,
        frame: Vec::with_capacity(256),
        window_s,
        server_stat: format!("/proc/{pid}/stat"),
        marks: Vec::new(),
    };
    // A server that cannot be reached is a fault of the server, as is
    // anything that goes wrong from here on.
    client.mark(now());
    let outcome = client.connect(addr).and_then(|()| match mode {
        Mode::Closed { seconds } => client.closed(seconds),
        Mode::Open { rate, stall } => client.open(rate, stall),
    });
    // The closing mark, also after a fault: every run has a window.
    client.mark(now());
    let error = outcome.err();
    client
        .write(&mut out, error.as_deref())
        .map_err(|e| format!("{out_path}: {e}"))?;
    if let Some(e) = error {
        eprintln!("probe client: {e}");
        return Ok(3);
    }
    Ok(0)
}
