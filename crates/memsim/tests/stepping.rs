//! Pins `run_mix` bit-exactly over a grid of mixes, PuD periods, and
//! mitigations. The values were taken from the per-nanosecond stepper;
//! the event-driven loop must reproduce every one of them (IPCs compared
//! via `f64::to_bits`), so how simulated time is advanced can never leak
//! into a result.

use std::sync::Mutex;

use pud_memsim::workload::build_mixes;
use pud_memsim::{run_mix, DramTiming, Mitigation, RunStats, SystemConfig};

/// Both tests read the process-global `memsim.requests_scheduled` counter
/// (directly or by bumping it), so they must not overlap.
static REGISTRY: Mutex<()> = Mutex::new(());

const SEED: u64 = 0xF1625;
const BUDGET: u64 = 50_000;
const MITIGATIONS: [Mitigation; 4] = [
    Mitigation::None,
    Mitigation::PracPoNaive,
    Mitigation::PracPoWeighted,
    Mitigation::PracAoWeighted,
];

/// One pinned run: mix index, PuD period, mitigation, then the `RunStats`
/// (`core_ipc` as bit patterns, `elapsed_ns`, `rfms`, `pud_ops`).
type Pinned = (usize, Option<u64>, Mitigation, [u64; 4], u64, u64, u64);

#[rustfmt::skip]
const PINNED: [Pinned; 25] = [
    (0, Some(125), Mitigation::None, [0x3ff7c17b7c082631, 0x3ff6e54f1ecefa3c, 0x3ffb22d8dcfaad4e, 0x4006e376e376e377], 34941, 0, 454),
    (0, Some(125), Mitigation::PracPoNaive, [0x3fd2ac9432ac9433, 0x3fd2a62bc5ef2426, 0x3fd6b8e6af0a9d31, 0x3fe43e62080013e6], 171590, 382, 472),
    (0, Some(125), Mitigation::PracPoWeighted, [0x3fd4060e1e7be807, 0x3fd5d2ed6e31f60b, 0x3fd8514d6d5ced9f, 0x3fe554d2db265163], 159811, 352, 480),
    (0, Some(125), Mitigation::PracAoWeighted, [0x3ff0f7dc563f5298, 0x3ff060daddf591fd, 0x3ff0a67e33a6981e, 0x3ff0dcf0e82a434a], 48845, 32, 74),
    (0, Some(1000), Mitigation::None, [0x3ff7e5447d8e9211, 0x3ff88c859be33786, 0x3ffc43fb67b80082, 0x400b0762ee0fbdda], 33479, 0, 66),
    (0, Some(1000), Mitigation::PracPoNaive, [0x3febe2ff713854c7, 0x3febc9164393070b, 0x3ff423505bc3bc00, 0x400b0762ee0fbdda], 57584, 70, 114),
    (0, Some(1000), Mitigation::PracPoWeighted, [0x3fecc0499a5605fb, 0x3fed5638d7ce651e, 0x3ff4a5920c02eef9, 0x400b0762ee0fbdda], 55650, 64, 110),
    (0, Some(1000), Mitigation::PracAoWeighted, [0x3ff14d295a0ce662, 0x3ff119a896cf7240, 0x3ffbff1aa7154700, 0x400b3417663b9cd5], 46783, 32, 72),
    (0, Some(16000), Mitigation::None, [0x3ff7e5447d8e9211, 0x3ff88c859be33786, 0x3ffc443cdb5492d3, 0x400b0762ee0fbdda], 33479, 0, 4),
    (0, Some(16000), Mitigation::PracPoNaive, [0x3ff78fde19d4db69, 0x3ff843e561cc6cfd, 0x3ffc443cdb5492d3, 0x400b0762ee0fbdda], 33953, 2, 4),
    (0, Some(16000), Mitigation::PracPoWeighted, [0x3ff7e5447d8e9211, 0x3ff88c859be33786, 0x3ffc443cdb5492d3, 0x400b0762ee0fbdda], 33479, 0, 4),
    (0, Some(16000), Mitigation::PracAoWeighted, [0x3ff7e5447d8e9211, 0x3ff88c859be33786, 0x3ffc443cdb5492d3, 0x400b0762ee0fbdda], 33479, 0, 4),
    (1, Some(125), Mitigation::None, [0x3febc3a7efa7031c, 0x3fe6874eea3052a5, 0x3ffad7ca9b2ea6a0, 0x3ff0132d3dc0dce7], 71021, 0, 850),
    (1, Some(125), Mitigation::PracPoNaive, [0x3fc6a1839d74b8dc, 0x3fc289bd38b567e8, 0x3fd6f73a9ad9fe95, 0x3fc818ca73b68897], 345236, 774, 918),
    (1, Some(125), Mitigation::PracPoWeighted, [0x3fc9ae6d8376c242, 0x3fc5a8ab72b7e5cb, 0x3fd801a0eb60a8c2, 0x3fcb36d0d6c97446], 295491, 642, 866),
    (1, Some(125), Mitigation::PracAoWeighted, [0x3fe7a31d8979497c, 0x3fdfb0d1a29f17a6, 0x3fefc3806aaf6fe9, 0x3fdf4c20b31230a6], 102245, 64, 124),
    (1, Some(1000), Mitigation::None, [0x3fed117471df73f4, 0x3fe9cf174c5a6b05, 0x3ffaa692b82ce47d, 0x3ff19402d0007333], 61994, 0, 122),
    (1, Some(1000), Mitigation::PracPoNaive, [0x3fd7e9ee315d9f9a, 0x3fd49de88e628094, 0x3fedc47711dc4771, 0x3fe03fa47ce4ad25], 155213, 258, 310),
    (1, Some(1000), Mitigation::PracPoWeighted, [0x3fe01d54c33dda03, 0x3fdae54e789200c0, 0x3fed9686558de3c9, 0x3fe43f3c47f17ca8], 118978, 160, 236),
    (1, Some(1000), Mitigation::PracAoWeighted, [0x3fe6b1c3a6acc493, 0x3fe028bf389bda19, 0x3ff0ba4775e580df, 0x3fe1a47c1725a0c2], 99015, 64, 120),
    (1, Some(16000), Mitigation::None, [0x3fed117471df73f4, 0x3fe9cf174c5a6b05, 0x3ffaa692b82ce47d, 0x3ff19402d0007333], 61994, 0, 6),
    (1, Some(16000), Mitigation::PracPoNaive, [0x3feb240687f90d4e, 0x3fe7fbd32de52b41, 0x3ffaa692b82ce47d, 0x3ff159f02a1c0d04], 66712, 15, 8),
    (1, Some(16000), Mitigation::PracPoWeighted, [0x3fed117471df73f4, 0x3fe9cf174c5a6b05, 0x3ffaa692b82ce47d, 0x3ff19402d0007333], 61994, 0, 6),
    (1, Some(16000), Mitigation::PracAoWeighted, [0x3fed117471df73f4, 0x3fe9cf174c5a6b05, 0x3ffaa692b82ce47d, 0x3ff19402d0007333], 61994, 0, 6),
    (0, None, Mitigation::None, [0x3ff7e5447d8e9211, 0x3ff88c859be33786, 0x3ffc443cdb5492d3, 0x400b0762ee0fbdda], 33479, 0, 0),
];

/// `memsim.requests_scheduled` delta of mix 0 at 125 ns under
/// PRAC-PO-Naive.
const REQUESTS_SCHEDULED: u64 = 1_918;

fn run(mix: usize, period: Option<u64>, mitigation: Mitigation) -> RunStats {
    let mixes = build_mixes(2, SEED);
    run_mix(
        &SystemConfig::default(),
        &DramTiming::default(),
        &mixes[mix],
        period,
        mitigation,
        BUDGET,
        SEED,
    )
}

fn grid() -> Vec<(usize, Option<u64>, Mitigation)> {
    let mut g = Vec::new();
    for mix in 0..2 {
        for period in [125, 1_000, 16_000] {
            for m in MITIGATIONS {
                g.push((mix, Some(period), m));
            }
        }
    }
    g.push((0, None, Mitigation::None));
    g
}

fn pin(mix: usize, period: Option<u64>, m: Mitigation, s: &RunStats) -> Pinned {
    let bits: Vec<u64> = s.core_ipc.iter().map(|x| x.to_bits()).collect();
    let bits: [u64; 4] = bits.try_into().expect("four benchmark cores");
    (mix, period, m, bits, s.elapsed_ns, s.rfms, s.pud_ops)
}

#[test]
fn run_stats_match_the_pinned_grid() {
    let _guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let actual: Vec<Pinned> = grid()
        .into_iter()
        .map(|(mix, period, m)| pin(mix, period, m, &run(mix, period, m)))
        .collect();
    if actual[..] != PINNED[..] {
        // Print the table in source form so a deliberate model change can
        // re-pin it in one step.
        for (mix, period, m, bits, elapsed, rfms, pud) in &actual {
            let bits: Vec<String> = bits.iter().map(|b| format!("0x{b:016x}")).collect();
            println!(
                "    ({mix}, {period:?}, Mitigation::{m:?}, [{}], {elapsed}, {rfms}, {pud}),",
                bits.join(", ")
            );
        }
        panic!("run_mix results differ from the pinned grid (actual table above)");
    }
}

#[test]
fn scheduled_request_count_is_pinned() {
    let _guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let counter = pud_observe::counter("memsim.requests_scheduled");
    let before = counter.get();
    run(0, Some(125), Mitigation::PracPoNaive);
    assert_eq!(counter.get() - before, REQUESTS_SCHEDULED);
}
