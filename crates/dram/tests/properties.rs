//! Property-based tests of the DRAM device model's invariants.
//!
//! Cases are generated by deterministic seeded loops over
//! `pud_disturb::rng` (SplitMix64), so every run covers the same inputs
//! and failures reproduce exactly.

use pud_disturb::rng;
use pud_dram::{
    BankId, CellLayout, Chip, ChipGeometry, DataPattern, Manufacturer, RowAddr, RowData,
    RowMapping, SubarrayRegion,
};

fn gen_u64(seed: u64, case: u64, tag: u64, lo: u64, hi: u64) -> u64 {
    lo + rng::mix_all(&[seed, case, tag]) % (hi - lo)
}

fn gen_u32(seed: u64, case: u64, tag: u64, lo: u32, hi: u32) -> u32 {
    gen_u64(seed, case, tag, lo as u64, hi as u64) as u32
}

fn gen_byte(seed: u64, case: u64, tag: u64) -> u8 {
    gen_u32(seed, case, tag, 0, 256) as u8
}

#[test]
fn majority3_is_symmetric() {
    for case in 0..256u64 {
        let a = gen_byte(0xD0, case, 0);
        let b = gen_byte(0xD0, case, 1);
        let c = gen_byte(0xD0, case, 2);
        let ra = RowData::filled(64, DataPattern(a));
        let rb = RowData::filled(64, DataPattern(b));
        let rc = RowData::filled(64, DataPattern(c));
        let m1 = RowData::majority3(&ra, &rb, &rc);
        let m2 = RowData::majority3(&rc, &ra, &rb);
        let m3 = RowData::majority3(&rb, &rc, &ra);
        assert_eq!(&m1, &m2);
        assert_eq!(&m2, &m3);
    }
}

#[test]
fn majority3_is_bounded_by_and_or() {
    for case in 0..256u64 {
        let a = gen_byte(0xD1, case, 0);
        let b = gen_byte(0xD1, case, 1);
        let c = gen_byte(0xD1, case, 2);
        // AND(a,b,c) <= MAJ3(a,b,c) <= OR(a,b,c) bitwise.
        let maj = RowData::majority3(
            &RowData::filled(64, DataPattern(a)),
            &RowData::filled(64, DataPattern(b)),
            &RowData::filled(64, DataPattern(c)),
        );
        let and = a & b & c;
        let or = a | b | c;
        for col in 0..8u32 {
            let bit = maj.bit(col);
            let and_bit = (and >> col) & 1 == 1;
            let or_bit = (or >> col) & 1 == 1;
            assert!(!and_bit || bit, "AND implies MAJ");
            assert!(!bit || or_bit, "MAJ implies OR");
        }
    }
}

#[test]
fn diff_count_is_a_metric() {
    for case in 0..256u64 {
        let a = gen_byte(0xD2, case, 0);
        let b = gen_byte(0xD2, case, 1);
        let c = gen_byte(0xD2, case, 2);
        let ra = RowData::filled(128, DataPattern(a));
        let rb = RowData::filled(128, DataPattern(b));
        let rc = RowData::filled(128, DataPattern(c));
        // Symmetry and identity.
        assert_eq!(ra.diff_count(&rb), rb.diff_count(&ra));
        assert_eq!(ra.diff_count(&ra), 0);
        // Triangle inequality (Hamming distance).
        assert!(ra.diff_count(&rc) <= ra.diff_count(&rb) + rb.diff_count(&rc));
    }
}

#[test]
fn neighbors_are_symmetric() {
    for case in 0..256u64 {
        let row = gen_u32(0xD3, case, 0, 8, 1000);
        let mfr_idx = gen_u64(0xD3, case, 1, 0, 4) as usize;
        let mapping = RowMapping::for_manufacturer(Manufacturer::ALL[mfr_idx]);
        let (below, above) = mapping.neighbors_of(RowAddr(row), 1);
        // The neighbour relation is symmetric: if b is below r, then r is
        // above b.
        if let Some(b) = below {
            let (_, b_above) = mapping.neighbors_of(b, 1);
            assert_eq!(b_above, Some(RowAddr(row)));
        }
        if let Some(a) = above {
            let (a_below, _) = mapping.neighbors_of(a, 1);
            assert_eq!(a_below, Some(RowAddr(row)));
        }
    }
}

#[test]
fn charge_encoding_roundtrips_for_all_layouts() {
    for case in 0..256u64 {
        let row = gen_u32(0xD4, case, 0, 0, 64);
        let col = gen_u32(0xD4, case, 1, 0, 64);
        let bit = gen_u64(0xD4, case, 2, 0, 2) == 1;
        let block = gen_u32(0xD4, case, 3, 1, 4);
        for layout in [
            CellLayout::AllTrue,
            CellLayout::RowBlocks { block },
            CellLayout::Interleaved,
        ] {
            let charge = layout.charge_for(RowAddr(row), col, bit);
            assert_eq!(layout.bit_for(RowAddr(row), col, charge), bit);
        }
    }
}

#[test]
fn chip_logical_access_roundtrips() {
    let geometry = ChipGeometry::scaled_for_tests();
    for case in 0..64u64 {
        let row = gen_u32(0xD5, case, 0, 0, 1000);
        let byte = gen_byte(0xD5, case, 1);
        if row >= geometry.rows_per_bank() {
            continue;
        }
        let mut chip = Chip::new(
            geometry,
            RowMapping::for_manufacturer(Manufacturer::SkHynix),
            CellLayout::AllTrue,
        );
        chip.fill_logical_row(BankId(0), RowAddr(row), DataPattern(byte))
            .unwrap();
        let read = chip
            .read_logical_row(BankId(0), RowAddr(row))
            .unwrap()
            .unwrap();
        assert!(read.matches_pattern(DataPattern(byte)));
    }
}

#[test]
fn region_banding_is_stable_under_scaling() {
    for case in 0..256u64 {
        let index = gen_u32(0xD6, case, 0, 0, 500);
        let scale = gen_u32(0xD6, case, 1, 1, 8);
        // Scaling both the index and the total by the same factor preserves
        // the region.
        let total = 500u32;
        let a = SubarrayRegion::classify(index, total);
        let b = SubarrayRegion::classify(index * scale, total * scale);
        assert_eq!(a, b);
    }
}

/// Per-column vote, one bit at a time: the reference the bit-sliced
/// `RowData::majority` must match.
fn naive_majority(rows: &[RowData]) -> RowData {
    let cols = rows[0].cols();
    let mut out = RowData::filled(cols, DataPattern::ZEROS);
    for col in 0..cols {
        let ones = rows.iter().filter(|r| r.bit(col)).count();
        out.set_bit(col, ones > rows.len() / 2);
    }
    out
}

/// A row of `cols` random bits; `density` 0/1/2 biases them sparse
/// (AND of two draws), uniform, or dense (OR of two draws).
fn random_row(seed: u64, case: u64, tag: u64, cols: u32, density: u64) -> RowData {
    let mut row = RowData::filled(cols, DataPattern::ZEROS);
    for w in 0..cols.div_ceil(64) {
        let a = rng::mix_all(&[seed, case, tag, u64::from(w), 0]);
        let b = rng::mix_all(&[seed, case, tag, u64::from(w), 1]);
        let word = match density {
            0 => a & b,
            1 => a,
            _ => a | b,
        };
        for bit in 0..64.min(cols - w * 64) {
            row.set_bit(w * 64 + bit, (word >> bit) & 1 == 1);
        }
    }
    row
}

fn majority_of(rows: &[RowData]) -> RowData {
    let refs: Vec<&RowData> = rows.iter().collect();
    RowData::majority(&refs)
}

const MAJORITY_WIDTHS: [u32; 6] = [1, 63, 64, 65, 1000, 1024];

#[test]
fn majority_matches_per_column_vote_on_random_rows() {
    for n in (1..=65u64).step_by(2) {
        for (wi, &cols) in MAJORITY_WIDTHS.iter().enumerate() {
            for density in 0..3u64 {
                let case = (n * 8 + wi as u64) * 4 + density;
                let rows: Vec<RowData> = (0..n)
                    .map(|i| random_row(0xD7, case, i, cols, density))
                    .collect();
                assert_eq!(
                    majority_of(&rows),
                    naive_majority(&rows),
                    "N={n} cols={cols} density={density}"
                );
            }
        }
    }
}

#[test]
fn majority_decides_every_vote_count_exactly() {
    // Column c gets exactly c mod (N+1) ones, so every count from 0 to N —
    // in particular N/2 and N/2+1 — is decided at every width.
    for n in (1..=65u32).step_by(2) {
        for &cols in &MAJORITY_WIDTHS {
            let mut rows = vec![RowData::filled(cols, DataPattern::ZEROS); n as usize];
            for col in 0..cols {
                for row in rows.iter_mut().take((col % (n + 1)) as usize) {
                    row.set_bit(col, true);
                }
            }
            let out = majority_of(&rows);
            assert_eq!(out, naive_majority(&rows), "N={n} cols={cols}");
            for col in 0..cols {
                assert_eq!(out.bit(col), col % (n + 1) > n / 2, "N={n} col={col}");
            }
        }
    }
}

#[test]
fn majority_of_equal_rows_is_that_row() {
    // N = 33 is the SiMRA-32 group plus its first-activated tie-break row.
    for n in [1usize, 3, 33, 65] {
        for (wi, &cols) in MAJORITY_WIDTHS.iter().enumerate() {
            for row in [
                RowData::filled(cols, DataPattern::ZEROS),
                RowData::filled(cols, DataPattern::ONES),
                random_row(0xD8, (n * 8 + wi) as u64, 0, cols, 1),
            ] {
                assert_eq!(majority_of(&vec![row.clone(); n]), row, "N={n} cols={cols}");
            }
        }
    }
}

#[test]
fn copy_from_overwrites_in_place() {
    for (case, &cols) in MAJORITY_WIDTHS.iter().enumerate() {
        let src = random_row(0xD9, case as u64, 0, cols, 1);
        let mut dst = RowData::filled(cols, DataPattern::ONES);
        dst.copy_from(&src);
        assert_eq!(dst, src);
    }
}
