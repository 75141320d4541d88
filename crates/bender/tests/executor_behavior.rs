//! Behavioural tests of the command-stream executor: pattern detection,
//! loop batching, refresh bookkeeping, and device-state transitions.

use std::sync::{Arc, Mutex};

use pud_bender::{ops, DramCommand, ExecError, Executor, TestEnv, TestProgram};
use pud_disturb::FlipClass;
use pud_dram::{
    profiles::TESTED_MODULES, BankId, ChipGeometry, DataPattern, Picos, RowAddr, RowData,
};
use pud_observe::{RingBufferSink, TraceKind};

fn executor() -> Executor {
    Executor::new(&TESTED_MODULES[1], ChipGeometry::scaled_for_tests(), 0, 77)
}

fn executor_seeded(seed: u64) -> Executor {
    Executor::new(
        &TESTED_MODULES[1],
        ChipGeometry::scaled_for_tests(),
        0,
        seed,
    )
}

#[test]
fn loop_batching_matches_unrolled_execution() {
    // The same double-sided kernel executed as one 1000-iteration loop and
    // as 1000 separate runs must accumulate identical disturbance.
    let bank = BankId(0);
    let a = RowAddr(20);
    let b = RowAddr(22);
    let mut batched = executor();
    let mut unrolled = executor();
    let a_log = batched.chip().to_logical(a);
    let b_log = batched.chip().to_logical(b);
    for e in [&mut batched, &mut unrolled] {
        e.write_row(bank, a_log, DataPattern::CHECKER_55);
        e.write_row(bank, b_log, DataPattern::CHECKER_55);
    }
    batched.run(&ops::double_sided_rowhammer(
        bank,
        a_log,
        b_log,
        ops::t_ras(),
        1000,
    ));
    let single = ops::double_sided_rowhammer(bank, a_log, b_log, ops::t_ras(), 1);
    for _ in 0..1000 {
        unrolled.run(&single);
    }
    let victim = RowAddr(21);
    let (acc_b, _) = batched.engine().accumulated(bank, victim);
    let (acc_u, _) = unrolled.engine().accumulated(bank, victim);
    assert!(acc_b > 0.0);
    let rel = (acc_b - acc_u).abs() / acc_u;
    // The batched warm-up differs by at most a couple of boundary cycles.
    assert!(rel < 0.01, "batched {acc_b} vs unrolled {acc_u}");
}

#[test]
fn double_sided_weight_exceeds_single_sided() {
    let bank = BankId(0);
    let mut ds = executor();
    let mut ss = executor();
    let victim = RowAddr(21);
    let a = ds.chip().to_logical(RowAddr(20));
    let b = ds.chip().to_logical(RowAddr(22));
    ds.run(&ops::double_sided_rowhammer(bank, a, b, ops::t_ras(), 1000));
    ss.run(&ops::single_sided_rowhammer(bank, a, ops::t_ras(), 1000));
    let (acc_ds, _) = ds.engine().accumulated(bank, victim);
    let (acc_ss, _) = ss.engine().accumulated(bank, victim);
    // Per cycle, double-sided is ~1.0 and single-sided ~0.267 (calibrated
    // to Fig. 7); the ds pattern also uses twice the activations.
    let ratio = acc_ds / acc_ss;
    assert!(
        (3.0..5.0).contains(&ratio),
        "ds/ss accumulation ratio {ratio}"
    );
}

#[test]
fn far_aggressor_gap_is_detected() {
    // Alternating a far row with the aggressor doubles t_AggOFF: the victim
    // accumulates at the far-ds rate (0.371/cycle vs 0.267 for ss).
    let bank = BankId(0);
    let mut far = executor();
    let mut ss = executor();
    let victim = RowAddr(21);
    let a = far.chip().to_logical(RowAddr(20));
    let far_row = far.chip().to_logical(RowAddr(60));
    far.run(&ops::double_sided_rowhammer(
        bank,
        a,
        far_row,
        ops::t_ras(),
        1000,
    ));
    ss.run(&ops::single_sided_rowhammer(bank, a, ops::t_ras(), 1000));
    let (acc_far, _) = far.engine().accumulated(bank, victim);
    let (acc_ss, _) = ss.engine().accumulated(bank, victim);
    let ratio = acc_far / acc_ss;
    assert!(
        (1.2..1.6).contains(&ratio),
        "far/ss accumulation ratio {ratio} (expect ~1.39)"
    );
}

#[test]
fn activation_of_victim_restores_its_charge() {
    let bank = BankId(0);
    let mut exec = executor();
    let a = exec.chip().to_logical(RowAddr(20));
    let victim_phys = RowAddr(21);
    let victim_log = exec.chip().to_logical(victim_phys);
    exec.run(&ops::single_sided_rowhammer(bank, a, ops::t_ras(), 500));
    assert!(exec.engine().accumulated(bank, victim_phys).0 > 0.0);
    // Activating the victim itself restores it.
    let mut p = TestProgram::new();
    p.act(bank, victim_log, ops::t_ras()).pre(bank, ops::t_rp());
    exec.run(&p);
    assert_eq!(exec.engine().accumulated(bank, victim_phys).0, 0.0);
}

#[test]
fn periodic_refresh_sweeps_rows() {
    let bank = BankId(0);
    let mut exec = executor();
    exec.set_env(TestEnv::with_refresh());
    let a = exec.chip().to_logical(RowAddr(20));
    exec.run(&ops::single_sided_rowhammer(bank, a, ops::t_ras(), 500));
    let victim = RowAddr(21);
    assert!(exec.engine().accumulated(bank, victim).0 > 0.0);
    // One full refresh window's worth of REFs covers every row.
    let mut p = TestProgram::new();
    p.repeat(8192, |b| {
        b.refresh(Picos::from_ns(350.0));
    });
    exec.run(&p);
    assert_eq!(
        exec.engine().accumulated(bank, victim).0,
        0.0,
        "a full REF sweep restores every row"
    );
}

#[test]
fn refresh_disabled_preserves_disturbance() {
    let bank = BankId(0);
    let mut exec = executor(); // characterization env: refresh off
    let a = exec.chip().to_logical(RowAddr(20));
    exec.run(&ops::single_sided_rowhammer(bank, a, ops::t_ras(), 500));
    let before = exec.engine().accumulated(bank, RowAddr(21)).0;
    let mut p = TestProgram::new();
    p.repeat(8192, |b| {
        b.refresh(Picos::from_ns(350.0));
    });
    exec.run(&p);
    assert_eq!(exec.engine().accumulated(bank, RowAddr(21)).0, before);
}

#[test]
fn act_on_open_bank_implicitly_precharges() {
    let bank = BankId(0);
    let mut exec = executor();
    let mut p = TestProgram::new();
    // Two ACTs with no PRE in between (nominal gap, so no PuD semantics).
    p.act(bank, RowAddr(10), Picos::from_ns(50.0))
        .act(bank, RowAddr(30), Picos::from_ns(50.0))
        .pre(bank, ops::t_rp());
    let report = exec.run(&p);
    assert_eq!(report.acts, 2);
}

#[test]
fn rd_captures_open_row_and_wr_overwrites_group() {
    let bank = BankId(0);
    let mut exec = executor();
    exec.write_row(bank, RowAddr(8), DataPattern::CHECKER_55);
    let mut prog = TestProgram::new();
    prog.act(bank, RowAddr(8), Picos::from_ns(36.0))
        .rd(bank, Picos::from_ns(15.0))
        .wr(bank, DataPattern::ONES, Picos::from_ns(15.0))
        .pre(bank, ops::t_rp());
    let report = exec.run(&prog);
    assert_eq!(report.reads.len(), 1);
    assert!(report.reads[0].matches_pattern(DataPattern::CHECKER_55));
    assert!(exec
        .read_row(bank, RowAddr(8))
        .unwrap()
        .matches_pattern(DataPattern::ONES));
}

#[test]
fn simra_write_probe_overwrites_whole_group() {
    // §5.2 reverse-engineering primitive: ACT-PRE-ACT then WR overwrites
    // every simultaneously activated row.
    let bank = BankId(0);
    let mut exec = executor();
    let g = *exec.chip().geometry();
    for r in 0..32u32 {
        exec.write_row(bank, RowAddr(32 + r), DataPattern::ZEROS);
    }
    let d = Picos::from_ns(3.0);
    let (r1, r2) = pud_bender::simra_decode::pair_for_mask(RowAddr(40), 0b101);
    let mut prog = TestProgram::new();
    prog.act(bank, r1, d)
        .pre(bank, d)
        .act(bank, r2, ops::t_ras())
        .wr(bank, DataPattern::CHECKER_55, Picos::from_ns(10.0))
        .pre(bank, ops::t_rp());
    exec.run(&prog);
    let group = pud_bender::simra_decode::simra_group(&g, r1, r2).unwrap();
    assert_eq!(group.len(), 4);
    for row in group {
        assert!(
            exec.read_row(bank, row)
                .unwrap()
                .matches_pattern(DataPattern::CHECKER_55),
            "group member {row} not overwritten"
        );
    }
}

/// One bitflip as `(logical row, col, to)`.
type FlipAt = (u32, u32, bool);

/// Runs 200k cycles of the even 8-row SiMRA group {32, 34, …, 46},
/// opened by `ACT first – PRE – ACT other` for `first` 32 or 46, with
/// only some members written. Returns the pattern every member ends up
/// holding, the flips, and the bits of the RowHammer-class disturbance
/// accumulated on victims 31, 33 and 47.
fn even_simra_group_outcome(
    first: u32,
    written: &[(u32, u8)],
) -> (Option<u8>, Vec<FlipAt>, [u64; 3]) {
    let bank = BankId(0);
    let mut exec = executor();
    let (r1, r2) = pud_bender::simra_decode::pair_for_mask(RowAddr(40), 0b1110);
    let group = pud_bender::simra_decode::simra_group(exec.chip().geometry(), r1, r2).unwrap();
    assert_eq!((r1, r2, group.len()), (RowAddr(32), RowAddr(46), 8));
    let (a, b) = if first == r1.0 { (r1, r2) } else { (r2, r1) };
    for victim in (31..=47).step_by(2) {
        exec.write_row(bank, RowAddr(victim), DataPattern::CHECKER_AA);
    }
    for &(row, byte) in written {
        exec.write_row(bank, RowAddr(row), DataPattern(byte));
    }
    let d = Picos::from_ns(3.0);
    let report = exec.run(&ops::simra(bank, a, b, d, d, ops::t_ras(), 200_000));
    let shared = exec.read_row(bank, group[0]).expect("members are written");
    for &m in &group {
        assert_eq!(exec.read_row(bank, m).as_ref(), Some(&shared), "member {m}");
    }
    let pattern = (0..=255u8).find(|&b| shared.matches_pattern(DataPattern(b)));
    let flips = report
        .flips
        .iter()
        .map(|f| (f.logical_row.0, f.col, f.to))
        .collect();
    let acc = [31, 33, 47].map(|v| {
        let (rh, simra) = exec
            .engine()
            .accumulated(bank, exec.chip().to_physical(RowAddr(v)));
        assert_eq!(simra.to_bits(), 0);
        rh.to_bits()
    });
    (pattern, flips, acc)
}

#[test]
fn even_simra_group_with_unwritten_members_matches_pinned_outputs() {
    // Five members hold data and three (32, 34, 42) were never written, so
    // they read as zeros. Bit 0 has four ones among the eight members —
    // a tie the first-activated row breaks. Values pinned from the per-bit
    // majority vote.
    let written = [(36, 0x33), (38, 0x55), (40, 0xFF), (44, 0xF0), (46, 0x1F)];
    let flips = vec![(41, 983, false), (43, 86, true)];
    // Row 46 first: the tie resolves to its 1.
    assert_eq!(
        even_simra_group_outcome(46, &written),
        (
            Some(0x11),
            flips.clone(),
            [
                0x40e7_e189_1586_ef20,
                0x40e8_46d7_4006_1a75,
                0x40b3_1fc7_9e71_0da2
            ]
        )
    );
    // Never-written row 32 first: the same tie resolves to 0.
    assert_eq!(
        even_simra_group_outcome(32, &written),
        (
            Some(0x10),
            flips,
            [
                0x40e6_ee18_4a1a_fd87,
                0x40e6_a3b9_65eb_20b0,
                0x40b2_0a20_effc_5222
            ]
        )
    );
}

#[test]
fn elapsed_time_tracks_program_duration() {
    let bank = BankId(0);
    let mut exec = executor();
    let prog = ops::single_sided_rowhammer(bank, RowAddr(10), ops::t_ras(), 1000);
    let report = exec.run(&prog);
    assert_eq!(report.elapsed, prog.duration());
    assert_eq!(report.acts, 1000);
}

#[test]
fn quiesce_clears_pattern_history_but_keeps_data() {
    let bank = BankId(0);
    let mut exec = executor_seeded(3);
    exec.write_row(bank, RowAddr(8), DataPattern::CHECKER_55);
    let a = exec.chip().to_logical(RowAddr(20));
    exec.run(&ops::single_sided_rowhammer(bank, a, ops::t_ras(), 100));
    exec.quiesce();
    assert_eq!(exec.engine().accumulated(bank, RowAddr(21)).0, 0.0);
    assert!(exec
        .read_row(bank, RowAddr(8))
        .unwrap()
        .matches_pattern(DataPattern::CHECKER_55));
}

#[test]
fn reports_are_per_run() {
    let bank = BankId(0);
    let mut exec = executor();
    let prog = ops::single_sided_rowhammer(bank, RowAddr(10), ops::t_ras(), 10);
    let r1 = exec.run(&prog);
    let r2 = exec.run(&prog);
    assert_eq!(r1.acts, 10);
    assert_eq!(r2.acts, 10);
    assert_eq!(r2.elapsed, prog.duration());
}

#[test]
fn open_row_survives_until_precharge() {
    let mut exec = executor();
    let bank = BankId(0);
    let mut program = TestProgram::new();
    program.act(bank, RowAddr(4), Picos::from_ns(36.0)).wr(
        bank,
        DataPattern::ONES,
        Picos::from_ns(10.0),
    );
    exec.run(&program);
    // The bank was left open by the WR sequence (no PRE): a later RD in a
    // separate run still captures the open row.
    let mut after = TestProgram::new();
    after.rd(bank, Picos::from_ns(5.0)).pre(bank, ops::t_rp());
    let report = exec.run(&after);
    assert!(report.reads[0].matches_pattern(DataPattern::ONES));
    let _ = DramCommand::PreAll; // exported command surface stays usable
}

#[test]
fn strict_env_accepts_in_window_programs() {
    let mut exec = executor();
    let mut env = TestEnv::characterization_strict();
    env.refresh_enabled = false;
    exec.set_env(env);
    let prog = ops::single_sided_rowhammer(BankId(0), RowAddr(10), ops::t_ras(), 10_000);
    let report = exec.run(&prog);
    assert_eq!(report.acts, 10_000);
}

#[test]
fn strict_env_rejects_out_of_window_programs() {
    // ~1.3M double-sided cycles at ~102 ns each exceed the 64 ms window.
    let mut exec = executor();
    exec.set_env(TestEnv::characterization_strict());
    let prog =
        ops::double_sided_rowhammer(BankId(0), RowAddr(10), RowAddr(12), ops::t_ras(), 1_300_000);
    let err = exec.try_run(&prog).expect_err("out-of-window must fail");
    assert!(matches!(err, ExecError::RefreshWindowExceeded { .. }));
    assert!(!err.is_transient());
    assert!(err.to_string().contains("exceeds the refresh window"));
}

#[test]
fn out_of_geometry_programs_are_rejected_as_invalid() {
    let mut exec = executor();
    let geometry = *exec.chip().geometry();
    let mut prog = TestProgram::new();
    prog.act(BankId(geometry.banks), RowAddr(0), Picos::from_ns(36.0));
    let err = exec.try_run(&prog).expect_err("bad bank must fail");
    assert!(matches!(err, ExecError::InvalidProgram { .. }));
    assert!(err.to_string().contains("bank"));
    let mut prog = TestProgram::new();
    prog.repeat(2, |b| {
        b.act(
            BankId(0),
            RowAddr(geometry.rows_per_bank()),
            Picos::from_ns(36.0),
        );
    });
    let err = exec.try_run(&prog).expect_err("bad row must fail");
    assert!(err.to_string().contains("row"));
}

#[test]
fn run_raises_exec_errors_as_typed_panic_payloads() {
    let mut exec = executor();
    exec.set_env(TestEnv::characterization_strict());
    let prog =
        ops::double_sided_rowhammer(BankId(0), RowAddr(10), RowAddr(12), ops::t_ras(), 1_300_000);
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| exec.run(&prog)))
        .expect_err("run must unwind");
    let err = payload
        .downcast::<ExecError>()
        .expect("payload is the typed error");
    assert!(matches!(*err, ExecError::RefreshWindowExceeded { .. }));
}

/// Flips of [`composite_program_matches_pinned_outputs`], in order of
/// occurrence: (physical row, logical row, column). All are bank 0,
/// 0→1 RowHammer-class flips.
const COMPOSITE_FLIPS: [(u32, u32, u32); 20] = [
    (23, 23, 827),
    (23, 23, 118),
    (23, 23, 814),
    (19, 19, 679),
    (19, 19, 391),
    (19, 19, 526),
    (19, 19, 11),
    (19, 19, 800),
    (19, 19, 333),
    (19, 19, 966),
    (19, 19, 924),
    (19, 19, 372),
    (21, 22, 917),
    (21, 22, 52),
    (21, 22, 958),
    (21, 22, 519),
    (21, 22, 850),
    (21, 22, 931),
    (21, 22, 390),
    (21, 22, 492),
];

#[test]
fn composite_program_matches_pinned_outputs() {
    // One composite program touching every command kind the lowering pass
    // handles: writes, a batchable double-sided loop, CoMRA timing
    // violations, RD capture, and a nested loop. Every observable output
    // is pinned to values from before the step interpreter was removed,
    // when both execution paths were checked to agree on them.
    let bank = BankId(0);
    let mut exec = executor_seeded(9);
    // Aggressors at physical rows 20 and 22 sandwich physical row 21.
    let a = exec.chip().to_logical(RowAddr(20));
    let b_row = exec.chip().to_logical(RowAddr(22));
    let far = exec.chip().to_logical(RowAddr(40));
    let dst = exec.chip().to_logical(RowAddr(60));
    let mut program = TestProgram::new();
    // Seed the aggressors with a known pattern through WR commands so the
    // whole experiment, writes included, flows through one program.
    program
        .act(bank, a, ops::t_ras())
        .wr(bank, DataPattern::CHECKER_55, Picos::from_ns(15.0))
        .pre(bank, ops::t_rp())
        .act(bank, b_row, ops::t_ras())
        .wr(bank, DataPattern::CHECKER_55, Picos::from_ns(15.0))
        .pre(bank, ops::t_rp());
    program.repeat(500_000, |b| {
        b.act(bank, a, ops::t_ras())
            .pre(bank, ops::t_rp())
            .act(bank, b_row, ops::t_ras())
            .pre(bank, ops::t_rp());
    });
    program.repeat(3, |inner| {
        inner.repeat(500, |b| {
            b.act(bank, far, ops::t_ras()).pre(bank, ops::t_rp());
        });
        inner
            .act(bank, far, ops::t_ras())
            .rd(bank, Picos::from_ns(15.0))
            .pre(bank, ops::t_rp());
    });
    // RowClone-style copy: ACT src - tRAS - PRE - 7.5 ns - ACT dst.
    program
        .act(bank, a, ops::t_ras())
        .pre(bank, Picos::from_ns(7.5))
        .act(bank, dst, ops::t_ras())
        .pre(bank, ops::t_rp());

    let report = exec.run(&program);
    let flips: Vec<(u32, u32, u32)> = report
        .flips
        .iter()
        .map(|f| {
            assert_eq!(f.bank, bank);
            assert!(f.to, "RowHammer flips here are 0→1");
            assert_eq!(f.class, FlipClass::RowHammer);
            (f.phys_row.0, f.logical_row.0, f.col)
        })
        .collect();
    assert_eq!(flips, COMPOSITE_FLIPS);
    let cols = exec.chip().geometry().cols_per_row;
    let zeros = RowData::filled(cols, DataPattern::ZEROS);
    // The never-written far row reads back as zeros on every RD.
    assert_eq!(report.reads, vec![zeros.clone(); 3]);
    assert_eq!(report.elapsed, Picos(51_076_924_500));
    assert_eq!(report.acts, 1_001_507);
    // Rows 18–24 (logical): the two aggressors hold their pattern, the
    // hammered neighbours are zero rows (created on first disturbance)
    // carrying exactly the reported flips, and row 18 was never touched.
    for row in 18..=24 {
        let expected = match row {
            18 => None,
            20 | 21 => Some(RowData::filled(cols, DataPattern::CHECKER_55)),
            _ => {
                let mut data = zeros.clone();
                for &(_, logical, col) in &COMPOSITE_FLIPS {
                    if logical == row {
                        data.set_bit(col, true);
                    }
                }
                Some(data)
            }
        };
        assert_eq!(
            exec.read_row(bank, RowAddr(row)),
            expected,
            "row {row} data"
        );
    }
    let (acc_rh, acc_simra) = exec.engine().accumulated(bank, RowAddr(21));
    assert_eq!(acc_rh.to_bits(), 0x411e_783b_c936_ba14);
    assert_eq!(acc_simra.to_bits(), 0);
    assert!(
        exec.batch_stats().hits() > 0,
        "replay must serve lookups from the batch caches"
    );
}

#[test]
fn deep_loop_nests_run_like_the_flat_program() {
    // Lowering recurses without a depth cap: a 64-deep nest of
    // single-iteration loops is the same program as its innermost body.
    let bank = BankId(0);
    let body = |p: &mut TestProgram| {
        p.act(bank, RowAddr(10), ops::t_ras())
            .pre(bank, ops::t_rp());
    };
    let mut nested = TestProgram::new();
    body(&mut nested);
    for _ in 0..64 {
        let inner = nested;
        nested = TestProgram::new();
        nested.repeat(1, |b| {
            b.extend(&inner);
        });
    }
    let mut flat = TestProgram::new();
    body(&mut flat);
    let deep = executor().try_run(&nested).expect("deep nests run");
    let reference = executor().run(&flat);
    assert_eq!(deep.acts, 1);
    assert_eq!(deep.acts, reference.acts);
    assert_eq!(deep.elapsed, reference.elapsed);
}

#[test]
fn long_batchable_loops_replay_in_bulk() {
    // The 10k-iteration double-sided kernel: two iterations execute
    // command by command (warm-up, then recording), and the remaining
    // 9,998 replay as bulk hammer events behind one trace marker.
    let bank = BankId(0);
    let mut exec = executor_seeded(42);
    let a = exec.chip().to_logical(RowAddr(20));
    let b_row = exec.chip().to_logical(RowAddr(22));
    let program = ops::double_sided_rowhammer(bank, a, b_row, ops::t_ras(), 10_000);
    let ring = Arc::new(Mutex::new(RingBufferSink::new(1 << 16)));
    exec.set_trace_sink(ring.clone());
    let report = exec.run(&program);
    assert_eq!(report.acts, 20_000);
    let events = ring.lock().unwrap().to_vec();
    let batches: Vec<&TraceKind> = events
        .iter()
        .map(|e| &e.kind)
        .filter(|k| matches!(k, TraceKind::LoopBatch { .. }))
        .collect();
    assert_eq!(
        batches,
        [&TraceKind::LoopBatch {
            iterations: 9_998,
            acts: 19_996,
        }]
    );
    let acts = events
        .iter()
        .filter(|e| matches!(e.kind, TraceKind::Act { .. }))
        .count();
    assert_eq!(acts, 4, "only the two warm-up iterations issue ACTs");
    // A second run of the same kernel is served from the batch caches.
    let first_hits = exec.batch_stats().hits();
    exec.quiesce();
    exec.run(&program);
    assert!(exec.batch_stats().hits() > first_hits);
}

#[test]
fn strict_env_allows_long_programs_when_refresh_is_on() {
    let mut exec = executor();
    let mut env = TestEnv::with_refresh();
    env.enforce_refresh_window = true;
    exec.set_env(env);
    let mut prog = TestProgram::new();
    prog.repeat(1_300_000, |b| {
        b.act(BankId(0), RowAddr(10), ops::t_ras())
            .pre(BankId(0), ops::t_rp());
    });
    // With refresh enabled the window bound does not apply.
    let report = exec.run(&prog);
    assert_eq!(report.acts, 1_300_000);
}
