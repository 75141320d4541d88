//! Per-layer probe of the repository benchmark.
//!
//! The benchmark drives the shipped `repro` binary from outside; this
//! probe is the one place it calls into the program's crates directly. It
//! times calls into each layer's public functions and prints one JSON
//! object per subcommand on stdout:
//!
//! ```text
//! perfbench-probe resolve                      # keys on stdin, one verdict line each
//! perfbench-probe layers --work-dir <dir> --record-bytes <a,b> --store-rows <a,b>
//! perfbench-probe client closed|open ...        # serve load generator, see client.rs
//! perfbench-probe spawn ... -- <program> ...    # run and measure a program, see spawn.rs
//! ```
//!
//! `resolve` answers each profile key with `serve::resolve_with_retry` at
//! quick scale (the same compute path `repro serve` uses) and prints
//! `<status>\t<compute_ns>\t<value>`; the benchmark compares those values
//! with what the server answered. `layers` prints every probe-measured
//! per-layer metric with its unit and sample count.

mod client;
mod spawn;

use std::hint::black_box;
use std::io::{BufRead, Write};
use std::time::Instant;

use pud_bender::{ops, Executor, TestEnv};
use pud_disturb::{AggressionKind, BatchState, DataSummary, DisturbEngine, HammerEvent};
use pud_dram::{profiles, BankId, ChipGeometry, DataPattern, RowAddr, RowData};
use pud_memsim::{Fig25Config, Mitigation};
use pud_observe::json::JsonObject;
use pud_trr::{patterns as trr_patterns, SamplingTrr, SamplingTrrConfig};
use pudhammer::experiments::Scale;
use pudhammer::fleet::checkpoint::{CheckpointHeader, CheckpointStore};
use pudhammer::fleet::wire::{Frame, FrameReader, QueryStatus};
use pudhammer::fleet::{Fleet, FleetConfig};
use pudhammer::hcfirst::measure_hc_first;
use pudhammer::patterns::{self, Kernel};
use pudhammer::serve::{self, ProfileKey};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("resolve") => resolve(),
        Some("layers") => layers(&args[1..]),
        Some("client") => client::main(&args[1..]),
        Some("spawn") => spawn::main(&args[1..]),
        _ => {
            eprintln!(
                "usage: perfbench-probe resolve | layers --work-dir <dir> ... | client ... | spawn ..."
            );
            2
        }
    };
    std::process::exit(code);
}

/// Answers every key on stdin through the server's compute path.
fn resolve() -> i32 {
    let scale = Scale::quick();
    let stdin = std::io::stdin();
    let mut out = std::io::BufWriter::new(std::io::stdout().lock());
    for line in stdin.lock().lines() {
        let Ok(text) = line else { return 1 };
        let text = text.trim();
        if text.is_empty() {
            continue;
        }
        let start = Instant::now();
        let verdict = match ProfileKey::parse(text) {
            Ok(key) => serve::resolve_with_retry(&scale, &key),
            Err(e) => {
                eprintln!("probe: bad key {text:?}: {e}");
                return 1;
            }
        };
        let ns = start.elapsed().as_nanos();
        let _ = writeln!(out, "{}\t{ns}\t{}", verdict.status, verdict.value);
    }
    let _ = out.flush();
    0
}

/// One measured quantity: median of `samples`, in `unit`.
struct Measured {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: usize,
    detail: String,
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Times `f` `reps` times; returns per-call seconds.
fn time_each(reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect()
}

/// Times `batches` batches of `per_batch` calls; returns per-call seconds.
fn time_batched(batches: usize, per_batch: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..batches)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per_batch {
                f();
            }
            t.elapsed().as_secs_f64() / per_batch as f64
        })
        .collect()
}

fn counter(name: &str) -> u64 {
    pud_observe::snapshot().counter(name).unwrap_or(0)
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn list(args: &[String], name: &str, default: &[usize]) -> Vec<usize> {
    flag(args, name).map_or_else(
        || default.to_vec(),
        |v| v.split(',').filter_map(|x| x.parse().ok()).collect(),
    )
}

fn layers(args: &[String]) -> i32 {
    let Some(dir) = flag(args, "--work-dir") else {
        eprintln!("probe: layers requires --work-dir <dir>");
        return 2;
    };
    let dir = std::path::PathBuf::from(dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("probe: cannot create {}: {e}", dir.display());
        return 1;
    }
    let record_bytes = list(args, "--record-bytes", &[700]);
    let store_rows = list(args, "--store-rows", &[550]);
    let mut out = vec![
        dram_fleet_build(),
        disturb_hammer_batched(),
        bender_replay_ds10k(),
        bender_replay_trr_evasion(),
        hcfirst_bisection(),
        memsim_slice20k(),
    ];
    out.extend(memsim_fig25());
    out.push(trr_fig24());
    match checkpoint_io(&dir, &record_bytes, &store_rows) {
        Ok(m) => out.extend(m),
        Err(e) => {
            eprintln!("probe: checkpoint measurement failed: {e}");
            return 1;
        }
    }
    out.extend(wire_codec());
    let mut obj = JsonObject::new();
    for m in &out {
        obj = obj.raw(
            m.name,
            &JsonObject::new()
                .f64("value", m.value)
                .str("unit", m.unit)
                .u64("samples", m.samples as u64)
                .str("detail", &m.detail)
                .finish(),
        );
    }
    println!("{}", obj.finish());
    0
}

/// `Fleet::build(FleetConfig::quick())` plus materialising every chip
/// (chips are bookkeeping-only until first use).
fn dram_fleet_build() -> Measured {
    let xs = time_each(7, || {
        let mut fleet = Fleet::build(FleetConfig::quick());
        for chip in &mut fleet.chips {
            black_box(chip.exec());
        }
        black_box(fleet);
    });
    Measured {
        name: "dram.fleet_build_ms",
        unit: "ms",
        value: median(xs.iter().map(|s| s * 1e3).collect()),
        samples: xs.len(),
        detail: "Fleet::build(quick) + materialise all 14 chips".into(),
    }
}

/// `DisturbEngine::hammer_batched` on one 100-ACT double-sided event.
fn disturb_hammer_batched() -> Measured {
    let profile = &profiles::TESTED_MODULES[1];
    let mut engine = DisturbEngine::new(profile, ChipGeometry::scaled_for_tests(), 0, 42);
    let mut batch = BatchState::new();
    let mut victim = RowData::filled(1024, DataPattern::CHECKER_AA);
    let mut flips = Vec::new();
    let ev = HammerEvent::reference(
        BankId(0),
        RowAddr(10),
        AggressionKind::RowHammerDouble,
        DataSummary::from_pattern(DataPattern::CHECKER_55),
        100,
    );
    let xs = time_batched(41, 2_000, || {
        engine.hammer_batched(black_box(&ev), &mut victim, &mut batch, &mut flips);
        engine.restore(BankId(0), RowAddr(10));
        flips.clear();
    });
    Measured {
        name: "disturb.hammer_batched_ns",
        unit: "ns",
        value: median(xs.iter().map(|s| s * 1e9).collect()),
        samples: xs.len(),
        detail: "per call incl. restore; median of 41 batches of 2000".into(),
    }
}

/// `Executor::run` on the 10k-iteration double-sided RowHammer kernel
/// (lowering included: `CompiledProgram::compile` is crate-private).
fn bender_replay_ds10k() -> Measured {
    let profile = &profiles::TESTED_MODULES[1];
    let mut exec = Executor::new(profile, ChipGeometry::scaled_for_tests(), 0, 42);
    let bank = BankId(0);
    let a = exec.chip().to_logical(RowAddr(20));
    let b = exec.chip().to_logical(RowAddr(22));
    let program = ops::double_sided_rowhammer(bank, a, b, ops::t_ras(), 10_000);
    let xs = time_each(201, || {
        exec.quiesce();
        black_box(exec.run(black_box(&program)));
    });
    Measured {
        name: "bender.replay_ds10k_us",
        unit: "us",
        value: median(xs.iter().map(|s| s * 1e6).collect()),
        samples: xs.len(),
        detail: "Executor::run, 10k DS iterations, compile included".into(),
    }
}

/// `Executor::run` on the Fig. 24 SiMRA-16 evasion program with the
/// sampling TRR observer on, set up as the experiment does.
fn bender_replay_trr_evasion() -> Measured {
    let scale = Scale::quick();
    let profile = profiles::most_simra_vulnerable();
    let geometry = scale.fleet.geometry;
    let bank = BankId(0);
    let probe = Executor::new(profile, geometry, 0, scale.fleet.seed);
    let (_, hero) = probe
        .engine()
        .model()
        .hero_row()
        .expect("chip 0 has a hero row");
    let sa = geometry.subarray_of(hero).expect("hero in range");
    let kernels = patterns::simra_ds_kernels(probe.chip(), sa, 16);
    let kernel = *kernels
        .iter()
        .find(|k| patterns::simra_victims(probe.chip(), k).0.contains(&hero))
        .or(kernels.first())
        .expect("a SiMRA-16 group exists");
    let Kernel::Simra { r1, r2, .. } = kernel else {
        unreachable!("SiMRA kernel")
    };
    let members = patterns::simra_members(probe.chip(), &kernel).unwrap_or_default();
    let dummy_phys = RowAddr(geometry.subarray_base(pud_dram::SubarrayId(0)).0 + 5);
    let program = trr_patterns::simra_evasion(bank, r1, r2, scale.trr_hammers);
    let mut xs = Vec::new();
    for rep in 0..5u32 {
        let mut exec = Executor::new(profile, geometry, 0, scale.fleet.seed);
        exec.take_trace_sink();
        exec.set_env(TestEnv::with_refresh());
        exec.set_observer(Box::new(SamplingTrr::new(
            SamplingTrrConfig::default(),
            profile.mapping(),
            0xC0FFEE ^ u64::from(rep),
        )));
        let lo = members
            .iter()
            .map(|r| r.0)
            .min()
            .unwrap_or(0)
            .saturating_sub(2);
        let hi = members.iter().map(|r| r.0).max().unwrap_or(0) + 2;
        for r in lo..=hi.min(geometry.rows_per_bank() - 1) {
            let logical = exec.chip().to_logical(RowAddr(r));
            let dp = if members.contains(&RowAddr(r)) {
                DataPattern::ZEROS
            } else {
                DataPattern::ONES
            };
            exec.write_row(bank, logical, dp);
        }
        let dummy = exec.chip().to_logical(dummy_phys);
        exec.write_row(bank, dummy, DataPattern::ZEROS);
        let t = Instant::now();
        black_box(exec.run(&program));
        xs.push(t.elapsed().as_secs_f64());
    }
    Measured {
        name: "bender.replay_trr_evasion_ms",
        unit: "ms",
        value: median(xs.iter().map(|s| s * 1e3).collect()),
        samples: xs.len(),
        detail: format!("SiMRA-16 evasion, {} ops, TRR on", scale.trr_hammers),
    }
}

/// `measure_hc_first` on the first Table 2 victim and kernel of the
/// quick fleet's first chip.
fn hcfirst_bisection() -> Measured {
    let scale = Scale::quick();
    let mut fleet = Fleet::build(scale.fleet);
    let chip = &mut fleet.chips[0];
    let bank = chip.bank();
    let (victim, kernel) = chip
        .victim_rows()
        .into_iter()
        .find_map(|v| patterns::rowhammer_ds_for(chip.exec().chip(), v).map(|k| (v, k)))
        .expect("a table2 victim admits double-sided RowHammer");
    let xs = time_each(31, || {
        black_box(measure_hc_first(
            chip.exec(),
            bank,
            &kernel,
            victim,
            DataPattern::CHECKER_55,
            DataPattern::CHECKER_AA,
            &scale.search,
        ));
    });
    Measured {
        name: "hcfirst.bisection_us",
        unit: "us",
        value: median(xs.iter().map(|s| s * 1e6).collect()),
        samples: xs.len(),
        detail: format!("{} victim {}", chip.label(), victim.0),
    }
}

/// `fig25::run_single` on one mix for 20k instructions.
fn memsim_slice20k() -> Measured {
    let mix = &pud_memsim::workload::build_mixes(1, 3)[0];
    let xs = time_each(7, || {
        black_box(pud_memsim::fig25::run_single(
            mix,
            1_000,
            Mitigation::PracPoWeighted,
            20_000,
            9,
        ));
    });
    Measured {
        name: "memsim.slice20k_ms",
        unit: "ms",
        value: median(xs.iter().map(|s| s * 1e3).collect()),
        samples: xs.len(),
        detail: "mix 0, PuD period 1000 ns, PRAC-PO weighted".into(),
    }
}

/// One span around the quick-scale Fig. 25 run, and its host cost per
/// scheduled memory request.
fn memsim_fig25() -> Vec<Measured> {
    let before = counter("memsim.requests_scheduled");
    let t = Instant::now();
    black_box(pud_memsim::fig25::fig25(&Fig25Config::quick()));
    let secs = t.elapsed().as_secs_f64();
    let requests = counter("memsim.requests_scheduled") - before;
    vec![
        Measured {
            name: "memsim.fig25_s",
            unit: "s",
            value: secs,
            samples: 1,
            detail: "fig25(&Fig25Config::quick())".into(),
        },
        Measured {
            name: "memsim.host_ns_per_request",
            unit: "ns",
            value: secs * 1e9 / requests.max(1) as f64,
            samples: 1,
            detail: format!("memsim.fig25_s / {requests} requests scheduled"),
        },
    ]
}

/// One span around the quick-scale Fig. 24 driver at two sweep threads.
fn trr_fig24() -> Measured {
    let scale = Scale {
        threads: 2,
        ..Scale::quick()
    };
    let t = Instant::now();
    black_box(pudhammer::experiments::trr_eval::fig24_ckpt(&scale, None));
    Measured {
        name: "trr.fig24_s",
        unit: "s",
        value: t.elapsed().as_secs_f64(),
        samples: 1,
        detail: "fig24_ckpt(quick, threads 2, no checkpoint)".into(),
    }
}

/// `CheckpointStore::record` with payloads of the sizes the workloads
/// write, and `CheckpointStore::commit` at the row counts they end with.
fn checkpoint_io(
    dir: &std::path::Path,
    record_bytes: &[usize],
    store_rows: &[usize],
) -> Result<Vec<Measured>, String> {
    let header = |name: &str| CheckpointHeader {
        target: name.to_string(),
        scale: "quick".to_string(),
        fingerprint: 0,
        fault_seed: None,
        shard: None,
    };
    let payload = |bytes: usize| format!("\"{}\"", "x".repeat(bytes.saturating_sub(2)));
    let fresh = |name: &str| -> Result<CheckpointStore, String> {
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        CheckpointStore::open(&path, header(name)).map_err(|e| e.to_string())
    };
    let mut appends = Vec::new();
    for (i, &bytes) in record_bytes.iter().enumerate() {
        let store = fresh(&format!("append{i}.jsonl"))?;
        let data = payload(bytes);
        for n in 0..400 {
            let chip = format!("row{n}");
            let t = Instant::now();
            store.record("bench", &chip, &data);
            appends.push(t.elapsed().as_secs_f64());
        }
        if let Some(e) = store.take_write_error() {
            return Err(e.to_string());
        }
    }
    let mut commits = Vec::new();
    let mut detail = Vec::new();
    for (i, (&rows, &bytes)) in store_rows.iter().zip(record_bytes).enumerate() {
        let store = fresh(&format!("commit{i}.jsonl"))?;
        let data = payload(bytes);
        for n in 0..rows {
            store.record("bench", &format!("row{n}"), &data);
        }
        let xs = time_each(5, || store.commit());
        if let Some(e) = store.take_write_error() {
            return Err(e.to_string());
        }
        let ms = median(xs.iter().map(|s| s * 1e3).collect());
        detail.push(format!("{rows} rows x {bytes} B: {ms:.3} ms"));
        commits.push(ms);
    }
    Ok(vec![
        Measured {
            name: "checkpoint.append_us",
            unit: "us",
            value: median(appends.iter().map(|s| s * 1e6).collect()),
            samples: appends.len(),
            detail: format!("record payloads of {record_bytes:?} B"),
        },
        Measured {
            name: "checkpoint.commit_ms",
            unit: "ms",
            value: commits.iter().sum::<f64>() / commits.len().max(1) as f64,
            samples: commits.len() * 5,
            detail: format!("mean of per-size medians: {}", detail.join("; ")),
        },
    ])
}

/// `Frame::write_to` of a Query into memory and `FrameReader::next_frame`
/// over an in-memory Response, for a typical profile key and value.
fn wire_codec() -> Vec<Measured> {
    let key = "family=SK Hynix-A-8Gb;chip=3;pattern=simra-8;dp=0x00;temp_cc=8000;aggon_ps=0";
    let query = Frame::Query {
        id: 123_456,
        key: key.to_string(),
        deadline_ms: 1_000,
    };
    let response = Frame::Response {
        id: 123_456,
        status: QueryStatus::Ok,
        cached: true,
        value: "victim=1025 hc_first=29".to_string(),
        detail: String::new(),
    };
    let mut buf = Vec::with_capacity(256);
    let enc = time_batched(41, 5_000, || {
        buf.clear();
        query.write_to(&mut buf).expect("in-memory write");
        black_box(&buf);
    });
    let mut bytes = Vec::new();
    response.write_to(&mut bytes).expect("in-memory write");
    let dec = time_batched(41, 5_000, || {
        let frame = FrameReader::new(black_box(&bytes[..])).next_frame();
        black_box(frame.expect("valid frame"));
    });
    vec![
        Measured {
            name: "wire.encode_ns",
            unit: "ns",
            value: median(enc.iter().map(|s| s * 1e9).collect()),
            samples: enc.len(),
            detail: format!("Query frame of {} B", buf.len()),
        },
        Measured {
            name: "wire.decode_ns",
            unit: "ns",
            value: median(dec.iter().map(|s| s * 1e9).collect()),
            samples: dec.len(),
            detail: format!("Response frame of {} B", bytes.len()),
        },
    ]
}
