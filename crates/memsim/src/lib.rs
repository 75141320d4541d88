//! Event-driven memory-system simulator (1 ns resolution) for the
//! PuDHammer mitigation evaluation (§8.2 of the paper).
//!
//! This crate plays the role of Ramulator 2.0 in the paper: a DDR5 memory
//! system with an FR-FCFS+Cap-4 scheduler, periodic refresh, and the
//! PRAC read-disturbance mitigation — extended with SiMRA/CoMRA operations
//! that update multiple activation counters at once, as required to adapt
//! PRAC to Processing-using-DRAM (§8.2 "Key Challenge").
//!
//! The headline reproduction is Fig. 25: the performance cost of
//! PRAC-PO-Naive (RDT lowered to SiMRA's HC_first of ≈20) vs PRAC-PO with
//! weighted counting (SiMRA = 200, CoMRA = 10, ACT = 1 against RDT = 4000)
//! across PuD operation intensities.
//!
//! # Example
//!
//! ```
//! use pud_memsim::{fig25, Fig25Config};
//!
//! let mut config = Fig25Config::quick();
//! config.mixes = 1;
//! config.instr_budget = 5_000;
//! let result = fig25::fig25(&config);
//! let p = result.at_period(4_000).unwrap();
//! assert!(p.weighted >= p.naive, "weighted counting outperforms naive");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fig25;
mod prac;
mod system;
mod timing;
pub mod workload;

pub use fig25::{Fig25, Fig25Config, Fig25Point};
pub use prac::{ActKind, Mitigation, Prac, PracOutcome};
pub use system::{run_mix, RunStats, PUD_SIMRA_ROWS};
pub use timing::{DramTiming, SystemConfig};
