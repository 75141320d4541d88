//! Runs one program and measures it from outside.
//!
//! ```text
//! perfbench-probe spawn --out <file> --err <file> [--watch-threads] -- <program> <args...>
//! ```
//!
//! Prints one line, `<exit> <wall_s> <cpu_s> <maxrss_kb> <first_thread_s|->`:
//! the exit code (minus the signal number when a signal ended it), wall
//! time from spawn to exit, user+system CPU time and peak resident set of
//! the program and every descendant it waited for (`wait4`), and, with
//! `--watch-threads`, the time from spawn until the program started its
//! second thread.
//!
//! The benchmark spawns programs through this small process because a
//! child's peak resident set starts from its parent's at the fork: spawned
//! from the benchmark's Python process, every program would report at
//! least that process's size.

use std::os::raw::{c_int, c_long};
use std::os::unix::process::CommandExt;
use std::process::{Command, Stdio};
use std::time::Instant;

#[repr(C)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
    fn prctl(option: c_int, ...) -> c_int;
}

const PR_SET_PDEATHSIG: c_int = 1;
const SIGTERM: c_int = 15;

fn seconds(t: &Timeval) -> f64 {
    t.tv_sec as f64 + t.tv_usec as f64 * 1e-6
}

/// Threads of process `pid`, from `/proc/<pid>/stat`.
fn threads(pid: u32) -> Option<u32> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    stat.rsplit_once(')')?
        .1
        .split_whitespace()
        .nth(17)?
        .parse()
        .ok()
}

pub fn main(args: &[String]) -> i32 {
    match run(args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("probe spawn: {e}");
            2
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("missing -- <program>")?;
    let (opts, command) = (&args[..split], &args[split + 1..]);
    let path = |name: &str| {
        opts.iter()
            .position(|a| a == name)
            .and_then(|i| opts.get(i + 1))
            .ok_or_else(|| format!("missing {name}"))
    };
    let file = |name: &str| {
        let p = path(name)?;
        std::fs::File::create(p).map_err(|e| format!("{p}: {e}"))
    };
    let (out, err) = (file("--out")?, file("--err")?);
    let watch_threads = opts.iter().any(|a| a == "--watch-threads");
    let (program, rest) = command.split_first().ok_or("no program given")?;
    let mut cmd = Command::new(program);
    cmd.args(rest).stdin(Stdio::null()).stdout(out).stderr(err);
    // SAFETY: prctl is async-signal-safe; the program gets SIGTERM when
    // this process dies, so it never outlives the benchmark.
    unsafe {
        cmd.pre_exec(|| {
            prctl(PR_SET_PDEATHSIG, SIGTERM);
            Ok(())
        });
    }
    let start = Instant::now();
    let child = cmd.spawn().map_err(|e| format!("{program}: {e}"))?;
    let pid = child.id();
    let mut first_thread = None;
    if watch_threads {
        while first_thread.is_none() && start.elapsed().as_secs_f64() < 10.0 {
            match threads(pid) {
                Some(n) if n > 1 => first_thread = Some(start.elapsed().as_secs_f64()),
                Some(_) => {}
                None => break,
            }
        }
    }
    let mut status: c_int = 0;
    // SAFETY: an all-zero rusage is a valid value for wait4 to overwrite.
    let mut usage: Rusage = unsafe { std::mem::zeroed() };
    // SAFETY: `pid` is this process's unreaped child; both out-pointers
    // are valid for writes.
    let got = unsafe { wait4(pid as c_int, &mut status, 0, &mut usage) };
    let wall = start.elapsed().as_secs_f64();
    if got != pid as c_int {
        return Err(format!("wait4: {}", std::io::Error::last_os_error()));
    }
    let exit = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        -(status & 0x7f)
    };
    println!(
        "{exit} {wall:.9} {:.6} {} {}",
        seconds(&usage.ru_utime) + seconds(&usage.ru_stime),
        usage.ru_maxrss,
        first_thread.map_or("-".to_string(), |t| format!("{t:.9}"))
    );
    Ok(())
}
