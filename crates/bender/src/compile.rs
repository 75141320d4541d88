//! Lowering pass: turns a [`TestProgram`] tree into the flat,
//! branch-light op buffer the executor replays.
//!
//! Every program runs this way. The pass resolves every logical row
//! address to its physical address once (rather than applying the
//! row-decoder scramble on every ACT of every loop iteration), keeps
//! counted loops as counted blocks with their per-iteration aggregates
//! (duration, ACT count, whether the body is bulk-replayable)
//! precomputed, and checks every referenced bank and row against the
//! chip geometry. An out-of-geometry reference is reported as
//! [`ExecError::InvalidProgram`] before anything executes. Lowering
//! recurses through loop nests without a depth cap, as
//! [`TestProgram::duration`] does, so every valid program lowers.

use pud_dram::{BankId, Chip, DataPattern, Picos, RowAddr};

use crate::command::DramCommand;
use crate::error::ExecError;
use crate::program::{Step, TestProgram};

/// One DDR4 command with its row address pre-resolved through the chip's
/// row-decoder scramble. Mirrors [`DramCommand`] except that `Act` carries
/// both the logical address (what the bus — and thus the TRR observer and
/// the SiMRA group decode — sees) and the physical address (what the
/// device model touches).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ResolvedCmd {
    /// Activate: logical address for the observer, physical for the model.
    Act {
        bank: BankId,
        logical: RowAddr,
        phys: RowAddr,
    },
    /// Precharge one bank.
    Pre { bank: BankId },
    /// Precharge all banks.
    PreAll,
    /// Read the open row.
    Rd { bank: BankId },
    /// Overwrite the open row(s).
    Wr { bank: BankId, pattern: DataPattern },
    /// Refresh.
    Ref,
    /// Pure delay.
    Nop,
}

/// One slot of the flat op buffer.
///
/// A `Block` header is immediately followed by the `len` slots of its
/// body (nested blocks included), so replay walks the buffer with an
/// index and a slice — no tree pointers, no per-iteration dispatch on
/// step shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum CompiledOp {
    /// A single timed command.
    Cmd {
        cmd: ResolvedCmd,
        delay_after: Picos,
    },
    /// A counted block over the following `len` slots.
    Block {
        /// Iteration count.
        count: u64,
        /// Flat slots occupied by the body (nested blocks included). A
        /// `u32` keeps a slot at 32 bytes; some kernels lower to op
        /// buffers large enough that a `usize` here raises the peak RSS
        /// of `repro all`.
        len: u32,
        /// Whether the body qualifies for warm-up-then-bulk replay: it
        /// holds only ACT/PRE/PREA/NOP commands, which have no
        /// per-iteration observable output.
        batchable: bool,
        /// Wall-clock duration of one body iteration (batchable only).
        body_time: Picos,
        /// ACT commands per body iteration (batchable only).
        body_acts: u64,
    },
}

const _: () = assert!(std::mem::size_of::<CompiledOp>() == 32);

/// Lowers `program` against `chip`'s geometry and row mapping.
pub(crate) fn lower(program: &TestProgram, chip: &Chip) -> Result<Vec<CompiledOp>, ExecError> {
    let mut ops = Vec::with_capacity(program.steps().len());
    lower_steps(program.steps(), chip, &mut ops)?;
    Ok(ops)
}

fn check_bank(chip: &Chip, bank: BankId) -> Result<BankId, ExecError> {
    let banks = chip.geometry().banks;
    if bank.0 >= banks {
        return Err(ExecError::InvalidProgram {
            reason: format!("bank {} out of range (chip has {banks})", bank.0),
        });
    }
    Ok(bank)
}

/// Recursively appends the lowered form of `steps` to `ops`.
fn lower_steps(steps: &[Step], chip: &Chip, ops: &mut Vec<CompiledOp>) -> Result<(), ExecError> {
    for step in steps {
        match step {
            Step::Cmd(tc) => {
                let cmd = match tc.cmd {
                    DramCommand::Act { bank, row } => {
                        check_bank(chip, bank)?;
                        let rows = chip.geometry().rows_per_bank();
                        if row.0 >= rows {
                            return Err(ExecError::InvalidProgram {
                                reason: format!(
                                    "row {} out of range (bank has {rows} rows)",
                                    row.0
                                ),
                            });
                        }
                        ResolvedCmd::Act {
                            bank,
                            logical: row,
                            phys: chip.to_physical(row),
                        }
                    }
                    DramCommand::Pre { bank } => ResolvedCmd::Pre {
                        bank: check_bank(chip, bank)?,
                    },
                    DramCommand::Rd { bank } => ResolvedCmd::Rd {
                        bank: check_bank(chip, bank)?,
                    },
                    DramCommand::Wr { bank, pattern } => ResolvedCmd::Wr {
                        bank: check_bank(chip, bank)?,
                        pattern,
                    },
                    DramCommand::PreAll => ResolvedCmd::PreAll,
                    DramCommand::Ref => ResolvedCmd::Ref,
                    DramCommand::Nop => ResolvedCmd::Nop,
                };
                ops.push(CompiledOp::Cmd {
                    cmd,
                    delay_after: tc.delay_after,
                });
            }
            Step::Loop { count, body } => {
                // Reserve the header slot, lower the body behind it, then
                // patch the header with the measured flat length and the
                // per-iteration aggregates.
                let header = ops.len();
                ops.push(CompiledOp::Block {
                    count: *count,
                    len: 0,
                    batchable: false,
                    body_time: Picos::ZERO,
                    body_acts: 0,
                });
                lower_steps(body, chip, ops)?;
                let body = &ops[header + 1..];
                // Flat form: no nested blocks, no RD/WR/REF slots.
                let batchable = body.iter().all(|op| {
                    matches!(
                        op,
                        CompiledOp::Cmd {
                            cmd: ResolvedCmd::Act { .. }
                                | ResolvedCmd::Pre { .. }
                                | ResolvedCmd::PreAll
                                | ResolvedCmd::Nop,
                            ..
                        }
                    )
                });
                let (mut body_time, mut body_acts) = (Picos::ZERO, 0u64);
                if batchable {
                    for op in body {
                        if let CompiledOp::Cmd { cmd, delay_after } = op {
                            body_time = body_time.saturating_add(*delay_after);
                            body_acts += matches!(cmd, ResolvedCmd::Act { .. }) as u64;
                        }
                    }
                }
                ops[header] = CompiledOp::Block {
                    count: *count,
                    // A body of 2^32 slots would need over 128 GiB of op
                    // buffer; allocation fails long before this can.
                    len: u32::try_from(body.len()).expect("op buffer below 2^32 slots"),
                    batchable,
                    body_time,
                    body_acts,
                };
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pud_dram::profiles::TESTED_MODULES;
    use pud_dram::ChipGeometry;

    fn chip() -> Chip {
        let p = &TESTED_MODULES[1];
        Chip::new(
            ChipGeometry::scaled_for_tests(),
            p.mapping(),
            p.cell_layout(),
        )
    }

    fn hammer_program(row: u32, count: u64) -> TestProgram {
        let mut p = TestProgram::new();
        p.repeat(count, |b| {
            b.act(BankId(0), RowAddr(row), Picos::from_ns(36.0))
                .pre(BankId(0), Picos::from_ns(15.0));
        });
        p
    }

    #[test]
    fn lowering_preserves_aggregates_and_resolves_rows() {
        let chip = chip();
        let p = hammer_program(10, 1000);
        let ops = lower(&p, &chip).expect("valid program");
        assert_eq!(ops.len(), 3, "one block header + two command slots");
        match ops[0] {
            CompiledOp::Block {
                count,
                len,
                batchable,
                body_time,
                body_acts,
            } => {
                assert_eq!(count, 1000);
                assert_eq!(len, 2);
                assert!(batchable);
                assert_eq!(body_acts * count, p.act_count());
                assert_eq!(body_time.saturating_mul(count), p.duration());
            }
            ref other => panic!("expected block header, got {other:?}"),
        }
        match ops[1] {
            CompiledOp::Cmd {
                cmd: ResolvedCmd::Act { logical, phys, .. },
                ..
            } => {
                assert_eq!(logical, RowAddr(10));
                assert_eq!(phys, chip.to_physical(RowAddr(10)));
            }
            ref other => panic!("expected resolved ACT, got {other:?}"),
        }
    }

    #[test]
    fn loops_with_side_effects_are_not_batchable() {
        let chip = chip();
        let mut p = TestProgram::new();
        p.repeat(100, |b| {
            b.act(BankId(0), RowAddr(1), Picos::from_ns(36.0))
                .rd(BankId(0), Picos::from_ns(15.0));
        });
        let ops = lower(&p, &chip).expect("valid program");
        assert!(matches!(
            ops[0],
            CompiledOp::Block {
                batchable: false,
                ..
            }
        ));
    }

    #[test]
    fn out_of_geometry_programs_are_typed_errors() {
        let chip = chip();
        let mut p = TestProgram::new();
        p.act(BankId(200), RowAddr(0), Picos::from_ns(36.0));
        let err = lower(&p, &chip).expect_err("bad bank");
        assert!(matches!(err, ExecError::InvalidProgram { .. }));
        assert!(err.to_string().contains("bank 200 out of range"));
        let mut p = TestProgram::new();
        p.repeat(2, |b| {
            b.pre(BankId(0), Picos::from_ns(15.0)).act(
                BankId(0),
                RowAddr(u32::MAX),
                Picos::from_ns(36.0),
            );
        });
        let err = lower(&p, &chip).expect_err("bad row");
        assert!(err.to_string().contains("row 4294967295 out of range"));
    }

    #[test]
    fn nested_batchable_inner_loops_keep_their_aggregates() {
        let chip = chip();
        let mut p = TestProgram::new();
        p.repeat(10, |outer| {
            outer.repeat(50, |inner| {
                inner
                    .act(BankId(0), RowAddr(2), Picos::from_ns(36.0))
                    .pre(BankId(0), Picos::from_ns(15.0));
            });
            outer.refresh(Picos::from_ns(350.0));
        });
        let ops = lower(&p, &chip).expect("valid program");
        // Outer block: 4 slots (inner header, 2 cmds, REF); not batchable.
        match ops[0] {
            CompiledOp::Block {
                count,
                len,
                batchable,
                ..
            } => {
                assert_eq!(count, 10);
                assert_eq!(len, 4);
                assert!(!batchable);
            }
            ref other => panic!("expected outer block, got {other:?}"),
        }
        assert!(matches!(
            ops[1],
            CompiledOp::Block {
                count: 50,
                len: 2,
                batchable: true,
                ..
            }
        ));
    }
}
