//! Output oracle at test scale: rendered experiment output, trace streams,
//! checkpoint records, and fault-injection behavior must reproduce values
//! pinned when the executor still had a second (step-interpreter) path
//! that was verified byte-identical to the compiled replay. Any change to
//! an observable artifact — at any thread count — fails here.
//!
//! The full-campaign counterpart is `docs/repro_quick_output.txt`,
//! compared against `repro all` in CI.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use pudhammer_suite::bender::fault::FaultConfig;
use pudhammer_suite::hammer::experiments::{comra, simra, table2, Scale};
use pudhammer_suite::hammer::fleet::checkpoint::{CheckpointHeader, CheckpointStore};
use pudhammer_suite::hammer::fleet::FleetConfig;
use pudhammer_suite::observe::RingBufferSink;

/// Tests in this binary share process-global observability state (the
/// global trace sink, the metrics registry), so they must not overlap.
static GLOBAL_STATE: Mutex<()> = Mutex::new(());

// Each artifact is pinned as (length, FNV-1a-64 digest of its bytes); the
// length of a trace stream counts events.

/// `table2` rendering at [`tiny_scale`] (fault-free).
const TABLE2: (usize, u64) = (2407, 0xff76_8ca8_98e5_32bb);
/// JSONL trace stream of that `table2` run.
const TABLE2_TRACE: (usize, u64) = (56_274, 0x092c_65c1_da2e_3499);
const FIG10: (usize, u64) = (245, 0x0721_219a_19ea_929e);
const FIG14: (usize, u64) = (908, 0xa7b9_f9ce_7b3f_f26a);
/// Bytes of the `table2` checkpoint file.
const TABLE2_CHECKPOINT: (usize, u64) = (2811, 0x59df_1534_1400_822b);
/// `table2` rendering under fault seed 103.
const TABLE2_FAULT_103: (usize, u64) = (2569, 0xbca6_a782_29ae_dfff);
/// `FleetConfig::quick().fingerprint()`: checkpoints written before the
/// pin must keep resuming.
const QUICK_FINGERPRINT: u64 = 573_332_786_431_179_572;

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn pin(text: &str) -> (usize, u64) {
    (text.len(), fnv1a64(text.as_bytes()))
}

fn tiny_scale(threads: usize) -> Scale {
    let mut s = Scale::quick();
    s.fleet.victims_per_subarray = 1;
    s.threads = threads;
    s
}

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("pud-oracle-{name}-{}", std::process::id()));
    p
}

#[test]
fn table2_output_and_traces_match_pinned_values() {
    let _guard = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());
    // A global ring sink captures every command-stream event the
    // experiments' executors emit.
    let global = Arc::new(Mutex::new(RingBufferSink::new(1 << 20)));
    pudhammer_suite::observe::set_global_sink(global.clone());
    for threads in [1, 4] {
        let rendered = table2::table2(&tiny_scale(threads)).to_string();
        let mut ring = global.lock().unwrap();
        assert_eq!(ring.dropped(), 0, "ring must hold the full event stream");
        let events = ring.to_vec();
        ring.clear();
        drop(ring);
        let jsonl: String = events.iter().map(|e| e.to_json() + "\n").collect();
        assert_eq!(
            pin(&rendered),
            TABLE2,
            "table2 output changed (threads={threads}):\n{rendered}"
        );
        assert_eq!(
            (events.len(), fnv1a64(jsonl.as_bytes())),
            TABLE2_TRACE,
            "table2 trace stream changed (threads={threads})"
        );
    }
    pudhammer_suite::observe::clear_global_sink();
}

#[test]
fn fig10_and_fig14_match_pinned_output() {
    let _guard = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());
    for threads in [1, 4] {
        let fig10 = comra::fig10(&tiny_scale(threads)).to_string();
        assert_eq!(
            pin(&fig10),
            FIG10,
            "fig10 output changed (threads={threads}):\n{fig10}"
        );
        let fig14 = simra::fig14(&tiny_scale(threads)).to_string();
        assert_eq!(
            pin(&fig14),
            FIG14,
            "fig14 output changed (threads={threads}):\n{fig14}"
        );
    }
}

#[test]
fn table2_checkpoint_bytes_are_pinned_and_resume_byte_identically() {
    let _guard = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());
    assert_eq!(
        FleetConfig::quick().fingerprint(),
        QUICK_FINGERPRINT,
        "the quick campaign fingerprint must not change"
    );
    let scale = tiny_scale(1);
    let header = || CheckpointHeader {
        target: "table2".to_string(),
        scale: "quick".to_string(),
        fingerprint: scale.fleet.fingerprint(),
        fault_seed: None,
        shard: None,
    };
    let path = temp_path("ckpt-table2");
    let _ = std::fs::remove_file(&path);

    let store = CheckpointStore::open(&path, header()).expect("create");
    let reference = table2::table2_ckpt(&scale, Some(&store)).to_string();
    drop(store);
    assert_eq!(pin(&reference), TABLE2, "checkpointed run output");
    let bytes = std::fs::read(&path).expect("read checkpoint");
    assert_eq!(
        (bytes.len(), fnv1a64(&bytes)),
        TABLE2_CHECKPOINT,
        "checkpoint records changed"
    );

    // Resume: every row replays from the checkpoint without re-measuring.
    let store = CheckpointStore::open(&path, header()).expect("reopen");
    assert_eq!(store.recovered(), 14, "all rows recovered");
    let resumed = table2::table2_ckpt(&scale, Some(&store)).to_string();
    drop(store);
    assert_eq!(reference, resumed, "resume must be byte-identical");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn fault_seed_103_quarantines_one_chip_and_matches_pinned_output() {
    let _guard = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());
    // Seed 103 is the curated campaign (see examples/fault_seed_scan.rs):
    // one chip dies, three transient faults are retried. The fault plan
    // triggers on executed-command counts, so any change to how commands
    // are counted moves it.
    for threads in [1, 4] {
        let mut s = tiny_scale(threads);
        s.fleet.fault = Some(FaultConfig::from_seed(103));
        let t = table2::table2(&s);
        let quarantined: Vec<&str> = t
            .sweep
            .chips
            .iter()
            .filter(|c| c.quarantined.is_some())
            .map(|c| c.label.as_str())
            .collect();
        assert_eq!(quarantined, ["Micron-E-16Gb#0"], "threads={threads}");
        assert_eq!(
            t.sweep.retries(),
            3,
            "1 + 2 transient faults retried (threads={threads})"
        );
        let rendered = t.to_string();
        assert_eq!(
            pin(&rendered),
            TABLE2_FAULT_103,
            "fault-seeded table2 output changed (threads={threads}):\n{rendered}"
        );
    }
}
