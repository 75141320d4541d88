//! `run_mix` reports itself to the observability registry: one
//! `memsim.run_mix` span per call, and its event wake-ups in the
//! `memsim.wakeups` counter. This binary holds a single test, so no other
//! run can bump the process-global metrics in between.

use pud_memsim::workload::build_mixes;
use pud_memsim::{run_mix, DramTiming, Mitigation, SystemConfig};

#[test]
fn run_mix_records_a_span_and_its_wakeups() {
    let wakeups = pud_observe::counter("memsim.wakeups");
    let spans = pud_observe::histogram("memsim.run_mix");
    let (woke, spanned) = (wakeups.get(), spans.count());
    let mix = &build_mixes(1, 3)[0];
    let stats = run_mix(
        &SystemConfig::default(),
        &DramTiming::default(),
        mix,
        Some(250),
        Mitigation::PracPoWeighted,
        20_000,
        9,
    );
    assert_eq!(spans.count() - spanned, 1, "one span per run");
    // The loop wakes only at events, far less often than once per
    // simulated nanosecond.
    let woke = wakeups.get() - woke;
    assert!(
        woke > 0 && woke * 5 < stats.elapsed_ns,
        "{woke} wake-ups over {} ns",
        stats.elapsed_ns
    );
}
