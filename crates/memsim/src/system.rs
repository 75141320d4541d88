//! The system model: five cores, an FR-FCFS+Cap memory controller,
//! refresh, and the PRAC mitigation hooks, advanced event to event at
//! 1 ns resolution.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use pud_observe::Counter;

use crate::prac::{ActKind, Mitigation, Prac};
use crate::timing::{DramTiming, SystemConfig};
use crate::workload::{Mix, WorkloadProfile};

/// Rows per SiMRA operation issued by the PuD workload (the paper's
/// synthetic workload performs SiMRA with 32-row activation, §8.2).
pub const PUD_SIMRA_ROWS: u32 = 32;

/// A memory request in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MemRequest {
    core: usize,
    bank: usize,
    row: u32,
    kind: ActKind,
}

#[derive(Debug, Clone, Copy, Default)]
struct BankSim {
    open_row: Option<u32>,
    busy_until: u64,
    consecutive_hits: u32,
}

#[derive(Debug)]
struct CoreSim {
    profile: WorkloadProfile,
    instr: f64,
    to_next_miss: f64,
    outstanding: usize,
    stalled_for_mlp: bool,
    pending: Option<MemRequest>,
    completions: BinaryHeap<Reverse<u64>>,
    last_bank: usize,
    last_row: u32,
    rng: u64,
    finish_ns: Option<u64>,
}

impl CoreSim {
    fn new(profile: WorkloadProfile, seed: u64) -> CoreSim {
        let mut c = CoreSim {
            profile,
            instr: 0.0,
            to_next_miss: 0.0,
            outstanding: 0,
            stalled_for_mlp: false,
            pending: None,
            completions: BinaryHeap::new(),
            last_bank: 0,
            last_row: 0,
            rng: seed | 1,
            finish_ns: None,
        };
        c.to_next_miss = c.sample_gap();
        c
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn sample_gap(&mut self) -> f64 {
        // Instructions between LLC misses: exponential with mean 1000/MPKI.
        let mean = 1000.0 / self.profile.mpki.max(1e-3);
        let u = self.unit().max(1e-12);
        -mean * u.ln()
    }

    fn gen_address(&mut self, index: usize, cfg: &crate::timing::SystemConfig) -> (usize, u32) {
        if self.unit() < self.profile.row_locality {
            (self.last_bank, self.last_row)
        } else {
            // Misses fall within a bounded per-core working set of hot
            // rows spread over a few banks.
            let nb = cfg.working_set_banks.clamp(1, cfg.banks);
            let bank = (index * 7 + (self.next_u64() % nb as u64) as usize) % cfg.banks;
            let ws = u64::from(cfg.working_set_rows.max(1));
            let base = (index as u32 * 512) % cfg.rows_per_bank.saturating_sub(64).max(1);
            let row = base + (self.next_u64() % ws) as u32;
            self.last_bank = bank;
            self.last_row = row;
            (bank, row)
        }
    }

    /// Earliest nanosecond after `now`, capped at `bound`, at which
    /// `step_core` can do more for this core than retire one quiet tick
    /// (`ipc_per_ns` instructions, no miss, budget not reached).
    fn next_event(
        &self,
        now: u64,
        bound: u64,
        queue_has_room: bool,
        cfg: &SystemConfig,
        budget: f64,
    ) -> u64 {
        if self.finish_ns.is_some() {
            return bound;
        }
        if self.pending.is_some() {
            return if queue_has_room { now + 1 } else { bound };
        }
        if self.stalled_for_mlp {
            return self
                .completions
                .peek()
                .map_or(bound, |&Reverse(t)| t.min(bound));
        }
        // Free-running: dry-run the tick recurrence of `step_core`.
        let slack = cfg.ipc_per_ns;
        let (mut to_next_miss, mut instr) = (self.to_next_miss, self.instr);
        let mut t = now + 1;
        while t < bound && to_next_miss > slack {
            to_next_miss -= slack;
            instr += slack;
            if instr >= budget {
                break;
            }
            t += 1;
        }
        t
    }

    /// Replays `ticks` quiet ticks of a free-running core one at a time,
    /// exactly as `step_core` would have retired them (a closed form
    /// would round differently).
    fn retire_quiet_ticks(&mut self, ticks: u64, cfg: &SystemConfig) {
        if self.finish_ns.is_some() || self.pending.is_some() || self.stalled_for_mlp {
            return;
        }
        for _ in 0..ticks {
            self.to_next_miss -= cfg.ipc_per_ns;
            self.instr += cfg.ipc_per_ns;
        }
    }
}

/// Outcome of one mix execution.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// Instructions-per-nanosecond of each benchmark core.
    pub core_ipc: Vec<f64>,
    /// Wall-clock nanoseconds simulated.
    pub elapsed_ns: u64,
    /// RFM commands serviced.
    pub rfms: u64,
    /// PuD operations issued by the synthetic workload.
    pub pud_ops: u64,
}

/// Runs one five-core mix to completion (each benchmark core retires
/// `instr_budget` instructions) under the given mitigation.
///
/// `pud_period_ns = None` disables the synthetic PuD workload; `Some(n)`
/// issues one SiMRA-32 plus one CoMRA operation every `n` nanoseconds
/// (§8.2's synthetic workload).
///
/// Time has 1 ns resolution but is advanced event to event: each event
/// nanosecond runs refresh, the PuD push, every core, and the scheduler,
/// then the loop jumps to the earliest nanosecond at which any of them
/// can act again. Free-running cores retire the skipped ticks one at a
/// time, so the result is bit-identical to stepping every nanosecond.
pub fn run_mix(
    cfg: &SystemConfig,
    timing: &DramTiming,
    mix: &Mix,
    pud_period_ns: Option<u64>,
    mitigation: Mitigation,
    instr_budget: u64,
    seed: u64,
) -> RunStats {
    let _span = pud_observe::span("memsim.run_mix");
    let mut cores: Vec<CoreSim> = mix
        .benchmarks
        .iter()
        .enumerate()
        .map(|(i, &p)| {
            CoreSim::new(
                p,
                seed.wrapping_add(i as u64 * 77)
                    .wrapping_add(u64::from(mix.id)),
            )
        })
        .collect();
    let mut banks: Vec<BankSim> = vec![BankSim::default(); cfg.banks];
    let mut prac = Prac::new(mitigation, cfg.banks, cfg.rows_per_bank);
    // Fetched once: `schedule` runs at every event, so the registry lock
    // must stay out of the hot loop.
    let scheduled_metric = pud_observe::counter("memsim.requests_scheduled");
    let mut queue: Vec<MemRequest> = Vec::with_capacity(cfg.queue_depth);
    let mut channel_busy_until = 0u64;
    let mut next_refresh = timing.t_refi;
    let mut next_pud = pud_period_ns.unwrap_or(u64::MAX);
    let mut pud_ops = 0u64;
    // Hard cap: generous multiple of the unloaded execution time.
    let unloaded = (instr_budget as f64 / cfg.ipc_per_ns) as u64;
    let cap_ns = unloaded.saturating_mul(400).max(2_000_000);
    let budget = instr_budget as f64;
    let mut wakeups = 0u64;
    let mut now = 0u64;
    while now < cap_ns {
        wakeups += 1;
        // Refresh.
        if now >= next_refresh {
            for b in &mut banks {
                b.busy_until = b.busy_until.max(now + timing.t_rfc);
                b.open_row = None;
            }
            next_refresh += timing.t_refi;
        }
        // Synthetic PuD workload: one SiMRA-32 and one CoMRA per period.
        if now >= next_pud && queue.len() + 2 <= cfg.queue_depth {
            let pud_bank = cfg.banks - 1;
            queue.push(MemRequest {
                core: usize::MAX,
                bank: pud_bank,
                row: 0,
                kind: ActKind::Simra,
            });
            queue.push(MemRequest {
                core: usize::MAX,
                bank: pud_bank,
                row: PUD_SIMRA_ROWS,
                kind: ActKind::Comra,
            });
            pud_ops += 2;
            next_pud += pud_period_ns.expect("pud enabled");
        }
        // Core progress.
        for (i, core) in cores.iter_mut().enumerate() {
            step_core(i, core, cfg, &mut queue, now, budget);
        }
        // Scheduling: FR-FCFS with a row-hit cap.
        let scheduler_wake = schedule(
            cfg,
            timing,
            &mut queue,
            &mut banks,
            &mut prac,
            &mut cores,
            &mut channel_busy_until,
            now,
            &scheduled_metric,
        );
        if cores.iter().all(|c| c.finish_ns.is_some()) {
            break;
        }
        // Jump to the next nanosecond at which any of the steps above can
        // do more than a free-running core's per-tick retirement.
        let mut next = cap_ns.min(next_refresh).min(scheduler_wake);
        if queue.len() + 2 <= cfg.queue_depth {
            next = next.min(next_pud.max(now + 1));
        }
        let queue_has_room = queue.len() < cfg.queue_depth;
        for core in &cores {
            next = core.next_event(now, next, queue_has_room, cfg, budget);
        }
        for core in &mut cores {
            core.retire_quiet_ticks(next - now - 1, cfg);
        }
        now = next;
    }
    pud_observe::counter("memsim.wakeups").add(wakeups);
    let core_ipc = cores
        .iter()
        .map(|c| {
            let t = c.finish_ns.unwrap_or(now).max(1);
            c.instr.min(budget) / t as f64
        })
        .collect();
    RunStats {
        core_ipc,
        elapsed_ns: now,
        rfms: prac.rfm_count(),
        pud_ops,
    }
}

fn step_core(
    index: usize,
    core: &mut CoreSim,
    cfg: &SystemConfig,
    queue: &mut Vec<MemRequest>,
    now: u64,
    budget: f64,
) {
    while let Some(&Reverse(t)) = core.completions.peek() {
        if t <= now {
            core.completions.pop();
            core.outstanding -= 1;
        } else {
            break;
        }
    }
    if core.finish_ns.is_some() {
        return;
    }
    if core.instr >= budget {
        core.finish_ns = Some(now);
        return;
    }
    // A request stalled on a full controller queue retries first.
    if let Some(req) = core.pending {
        if queue.len() < cfg.queue_depth {
            queue.push(req);
            core.pending = None;
        } else {
            return;
        }
    }
    if core.stalled_for_mlp {
        if core.outstanding >= cfg.mlp {
            return;
        }
        core.stalled_for_mlp = false;
    }
    let mut slack = cfg.ipc_per_ns;
    while slack > 0.0 && core.instr < budget {
        if core.to_next_miss > slack {
            core.to_next_miss -= slack;
            core.instr += slack;
            break;
        }
        core.instr += core.to_next_miss;
        slack -= core.to_next_miss;
        core.to_next_miss = core.sample_gap();
        if core.outstanding >= cfg.mlp {
            core.stalled_for_mlp = true;
            break;
        }
        let (bank, row) = core.gen_address(index, cfg);
        // Writes are posted: the core does not wait for them (no MLP slot,
        // no completion), but they still consume bank and channel time.
        let write = core.unit() < core.profile.write_frac;
        let req = MemRequest {
            core: if write { usize::MAX } else { index },
            bank,
            row,
            kind: ActKind::Normal,
        };
        if !write {
            core.outstanding += 1;
        }
        if queue.len() < cfg.queue_depth {
            queue.push(req);
        } else {
            core.pending = Some(req);
            break;
        }
    }
    if core.instr >= budget {
        core.finish_ns = Some(now);
    }
}

/// Issues at most one request at `now` and returns the earliest later
/// nanosecond at which the scheduler can issue again, provided the queue
/// and the bank state do not change before then.
#[allow(clippy::too_many_arguments)]
fn schedule(
    cfg: &SystemConfig,
    timing: &DramTiming,
    queue: &mut Vec<MemRequest>,
    banks: &mut [BankSim],
    prac: &mut Prac,
    cores: &mut [CoreSim],
    channel_busy_until: &mut u64,
    now: u64,
    scheduled_metric: &Arc<Counter>,
) -> u64 {
    let (pick, next_ready) = pick_request(cfg, queue, banks, now);
    let Some(idx) = pick else { return next_ready };
    // Column transfers need the shared data channel.
    let req = queue[idx];
    if req.kind == ActKind::Normal && *channel_busy_until > now {
        // The pick stays this request until another bank frees up.
        return next_ready.min(*channel_busy_until);
    }
    queue.remove(idx);
    scheduled_metric.incr();
    let bank = &mut banks[req.bank];
    let completion;
    match req.kind {
        ActKind::Normal => {
            let is_hit = bank.open_row == Some(req.row);
            let mut alert = false;
            let ready = if is_hit {
                bank.consecutive_hits += 1;
                now + timing.t_cl
            } else {
                bank.consecutive_hits = 0;
                let pre = if bank.open_row.is_some() {
                    timing.t_rp
                } else {
                    0
                };
                let outcome =
                    prac.on_activation(req.bank, &[req.row], ActKind::Normal, timing.t_rc);
                alert = outcome.alert;
                now + pre + timing.t_rcd + timing.t_cl
            };
            bank.open_row = Some(req.row);
            bank.busy_until = ready.max(now + timing.t_ccd);
            *channel_busy_until = ready + 2;
            completion = ready + 2;
            if alert {
                back_off(
                    req.bank,
                    completion,
                    timing,
                    banks,
                    prac,
                    channel_busy_until,
                );
            }
        }
        ActKind::Simra => {
            let rows: [u32; PUD_SIMRA_ROWS as usize] = std::array::from_fn(|i| req.row + i as u32);
            let outcome = prac.on_activation(req.bank, &rows, ActKind::Simra, timing.t_rc);
            let busy = timing.t_simra_op + outcome.extra_latency_ns;
            bank.open_row = None;
            bank.consecutive_hits = 0;
            bank.busy_until = now + busy;
            completion = now + busy;
            if outcome.alert {
                back_off(
                    req.bank,
                    completion,
                    timing,
                    banks,
                    prac,
                    channel_busy_until,
                );
            }
        }
        ActKind::Comra => {
            let rows = [req.row, req.row + 2];
            let outcome = prac.on_activation(req.bank, &rows, ActKind::Comra, timing.t_rc);
            let busy = timing.t_comra_op + outcome.extra_latency_ns;
            bank.open_row = None;
            bank.consecutive_hits = 0;
            bank.busy_until = now + busy;
            completion = now + busy;
            if outcome.alert {
                back_off(
                    req.bank,
                    completion,
                    timing,
                    banks,
                    prac,
                    channel_busy_until,
                );
            }
        }
    }
    if req.core != usize::MAX {
        // Benchmark request: notify its core.
        cores[req.core].completions.push(Reverse(completion));
    }
    // Issuing changed the bank and channel state: look at the next tick.
    let (pick, next_ready) = pick_request(cfg, queue, banks, now + 1);
    match pick.map(|i| queue[i].kind) {
        None => next_ready,
        Some(ActKind::Normal) => next_ready.min((*channel_busy_until).max(now + 1)),
        Some(_) => now + 1,
    }
}

/// The request FR-FCFS+Cap picks at `at` (the first ready row hit under
/// the cap, else the oldest ready request), and the earliest nanosecond
/// after `at` at which the bank of a request scanned before the pick was
/// settled frees up (the only way the pick can change).
fn pick_request(
    cfg: &SystemConfig,
    queue: &[MemRequest],
    banks: &[BankSim],
    at: u64,
) -> (Option<usize>, u64) {
    let mut pick: Option<usize> = None;
    let mut next_ready = u64::MAX;
    for (i, req) in queue.iter().enumerate() {
        let bank = &banks[req.bank];
        if bank.busy_until > at {
            next_ready = next_ready.min(bank.busy_until);
            continue;
        }
        let is_hit = req.kind == ActKind::Normal
            && bank.open_row == Some(req.row)
            && bank.consecutive_hits < cfg.cap;
        if is_hit {
            pick = Some(i);
            break;
        }
        if pick.is_none() {
            pick = Some(i);
        }
    }
    (pick, next_ready)
}

/// DDR5 back-off (ABO): the chip asserts alert, the controller drains and
/// issues one RFM per saturated row; the whole channel is blocked while the
/// alert is serviced.
fn back_off(
    bank: usize,
    from: u64,
    timing: &DramTiming,
    banks: &mut [BankSim],
    prac: &mut Prac,
    channel_busy_until: &mut u64,
) {
    let rfms = prac.service_alert(bank);
    if rfms == 0 {
        return;
    }
    let until = from + rfms * timing.t_rfm;
    for b in banks.iter_mut() {
        b.busy_until = b.busy_until.max(until);
    }
    *channel_busy_until = (*channel_busy_until).max(until);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::build_mixes;

    fn quick_run(mitigation: Mitigation, pud: Option<u64>) -> RunStats {
        let cfg = SystemConfig::default();
        let timing = DramTiming::default();
        let mix = &build_mixes(1, 3)[0];
        run_mix(&cfg, &timing, mix, pud, mitigation, 20_000, 9)
    }

    #[test]
    fn baseline_run_completes_and_reports_ipc() {
        let s = quick_run(Mitigation::None, None);
        assert_eq!(s.core_ipc.len(), 4);
        for &ipc in &s.core_ipc {
            assert!(ipc > 0.0 && ipc <= SystemConfig::default().ipc_per_ns);
        }
        assert_eq!(s.rfms, 0);
        assert_eq!(s.pud_ops, 0);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = quick_run(Mitigation::PracPoWeighted, Some(1_000));
        let b = quick_run(Mitigation::PracPoWeighted, Some(1_000));
        assert_eq!(a, b);
    }

    #[test]
    fn pud_workload_issues_operations() {
        let s = quick_run(Mitigation::None, Some(500));
        assert!(s.pud_ops > 10, "{}", s.pud_ops);
    }

    #[test]
    fn naive_prac_triggers_many_rfms_under_pud_load() {
        let naive = quick_run(Mitigation::PracPoNaive, Some(500));
        let weighted = quick_run(Mitigation::PracPoWeighted, Some(500));
        assert!(naive.rfms > 0);
        assert!(
            naive.rfms > weighted.rfms,
            "naive {} vs weighted {}",
            naive.rfms,
            weighted.rfms
        );
    }

    #[test]
    fn mitigation_slows_the_system_down() {
        let base = quick_run(Mitigation::None, Some(250));
        let naive = quick_run(Mitigation::PracPoNaive, Some(250));
        let sum = |s: &RunStats| s.core_ipc.iter().sum::<f64>();
        assert!(
            sum(&naive) < sum(&base),
            "naive {} vs base {}",
            sum(&naive),
            sum(&base)
        );
    }
}
