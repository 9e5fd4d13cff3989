//! Packed per-planner lookup tables for 4-row tiles.
//!
//! Paper §3.2: "although the cases for small 4×4, 4×8 matrices can be
//! enumerated exhaustively, especially if offline, the above algorithm is
//! scalable to larger sizes." This module does the enumeration: for
//! `p = 4` tiles with rows up to 16 non-zeros (compaction factor ≤ 4),
//! every SUDS planner's result depends only on the row-length 4-tuple, so
//! one 17⁴-entry table per [`Planner`] answers in O(1), indexed directly
//! by the four row popcounts.
//!
//! Each entry is one `u16` packing `(k, displaced, base_row)`; 0 marks an
//! entry not computed yet. Entries fill lazily and lock-free: a reader
//! that finds 0 runs the planner and stores the packed result. Two
//! threads racing on one entry compute and store the same value, and an
//! entry publishes nothing but its own bits, so `Relaxed` atomics suffice.
//! A planner's table is allocated on its first lookup.

use super::greedy::greedy;
use super::multistep;
use super::optimal::optimize;
use super::DisplacementPlan;
use std::sync::atomic::{AtomicU16, Ordering};
use std::sync::OnceLock;

/// Maximum row length covered by the tables (compaction factor 4 on a
/// 4-wide sub-array).
pub const MAX_LEN: usize = 16;
const DIM: usize = MAX_LEN + 1;
const ENTRIES: usize = DIM * DIM * DIM * DIM;

/// Largest reach with a table of its own: at `p = 4` a reach of 3 lets
/// every row feed every other row, and larger reaches clamp to it.
const MAX_REACH: usize = 3;

/// A SUDS work-assignment planner.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Planner {
    /// Optimal single-step displacement ([`optimize`]).
    Optimal,
    /// The greedy single-pass strawman ([`greedy`]).
    Greedy,
    /// Reach-R displacement ([`multistep::optimal_k`]); R is clamped to
    /// `p - 1`.
    Reach(usize),
}

/// What a planner decides for one tile: everything the tile timer
/// reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Plan {
    /// The achieved longest-row bound.
    pub k: usize,
    /// Elements moved off their own row.
    pub displaced: usize,
    /// The single-step plan's base row; `None` for reach-R planners.
    pub base_row: Option<usize>,
}

impl Plan {
    fn of(plan: &DisplacementPlan) -> Plan {
        Plan {
            k: plan.k,
            displaced: plan.displaced_count(),
            base_row: Some(plan.base_row),
        }
    }
}

impl Planner {
    /// Plans `lens` directly, without a table: the computation every
    /// table entry is filled from, and the path for tiles outside the
    /// tables' domain.
    #[must_use]
    pub fn plan(self, lens: &[usize]) -> Plan {
        match self {
            Planner::Optimal => Plan::of(&optimize(lens)),
            Planner::Greedy => Plan::of(&greedy(lens)),
            Planner::Reach(reach) => {
                let reach = reach.min(lens.len().saturating_sub(1));
                let k = multistep::optimal_k(lens, reach);
                // Displaced work: at least each row's overflow must move.
                let displaced = lens.iter().map(|&l| l.saturating_sub(k)).sum();
                Plan {
                    k,
                    displaced,
                    base_row: None,
                }
            }
        }
    }

    /// Index of this planner's table in [`TABLES`].
    fn table(self) -> usize {
        match self {
            Planner::Optimal => 0,
            Planner::Greedy => 1,
            Planner::Reach(reach) => 2 + reach.min(MAX_REACH),
        }
    }
}

/// One table per planner: optimal, greedy, and reach 0..=3.
static TABLES: [OnceLock<Box<[AtomicU16]>>; 3 + MAX_REACH] =
    [const { OnceLock::new() }; 3 + MAX_REACH];

/// Marks a filled entry, so that 0 can mean "not computed yet".
const FILLED: u16 = 1 << 15;
/// Marks an entry whose plan has a base row.
const HAS_BASE: u16 = 1 << 14;

/// Packs `plan` as `FILLED | HAS_BASE? | base_row:2 | displaced:7 | k:5`.
fn pack(plan: Plan) -> u16 {
    // Four rows of at most 16 elements: k ≤ 16, and no element moves
    // twice, so displaced ≤ 64.
    assert!(
        plan.k <= MAX_LEN && plan.displaced < 1 << 7 && plan.base_row.is_none_or(|b| b < 4),
        "plan {plan:?} does not fit a table entry"
    );
    let base = plan.base_row.map_or(0, |b| HAS_BASE | (b as u16) << 12);
    FILLED | base | (plan.displaced as u16) << 5 | plan.k as u16
}

fn unpack(entry: u16) -> Plan {
    Plan {
        k: usize::from(entry & 0x1F),
        displaced: usize::from(entry >> 5 & 0x7F),
        base_row: (entry & HAS_BASE != 0).then_some(usize::from(entry >> 12 & 0x3)),
    }
}

/// `planner`'s plan for a 4-row tile with row lengths `lens`, read from
/// (or filled into) the planner's table.
///
/// # Panics
///
/// Panics if any row is longer than [`MAX_LEN`].
///
/// # Examples
///
/// ```
/// use eureka_core::suds::lut::{lookup, Planner};
/// let plan = lookup(Planner::Optimal, [4, 1, 0, 1]);
/// assert_eq!(plan.k, 2); // Figure 7's optimum
/// assert_eq!(plan, Planner::Optimal.plan(&[4, 1, 0, 1]));
/// ```
#[must_use]
pub fn lookup(planner: Planner, lens: [usize; 4]) -> Plan {
    assert!(
        lens.iter().all(|&l| l <= MAX_LEN),
        "row lengths {lens:?} exceed the table's {MAX_LEN}"
    );
    let [a, b, c, d] = lens;
    let table =
        TABLES[planner.table()].get_or_init(|| (0..ENTRIES).map(|_| AtomicU16::new(0)).collect());
    let entry = &table[((a * DIM + b) * DIM + c) * DIM + d];
    match entry.load(Ordering::Relaxed) {
        0 => {
            let plan = planner.plan(&lens);
            entry.store(pack(plan), Ordering::Relaxed);
            plan
        }
        packed => unpack(packed),
    }
}

/// Optimal critical path for a 4-row tile, via the lookup table.
///
/// Falls back to the polynomial algorithm when any row exceeds
/// [`MAX_LEN`] or the tile is not 4 rows tall.
///
/// # Examples
///
/// ```
/// use eureka_core::suds::lut::optimal_k;
/// assert_eq!(optimal_k(&[4, 1, 0, 1]), 2); // Figure 7's optimum
/// ```
#[must_use]
pub fn optimal_k(lens: &[usize]) -> usize {
    match <[usize; 4]>::try_from(lens) {
        Ok(four) if four.iter().all(|&l| l <= MAX_LEN) => lookup(Planner::Optimal, four).k,
        _ => optimize(lens).k,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_roundtrips_every_field_extreme() {
        for plan in [
            Plan {
                k: 0,
                displaced: 0,
                base_row: None,
            },
            Plan {
                k: 0,
                displaced: 0,
                base_row: Some(0),
            },
            Plan {
                k: MAX_LEN,
                displaced: 64,
                base_row: Some(3),
            },
            Plan {
                k: 7,
                displaced: 127,
                base_row: None,
            },
        ] {
            let packed = pack(plan);
            assert_ne!(packed, 0, "a filled entry is never empty");
            assert_eq!(unpack(packed), plan);
        }
    }

    #[test]
    fn reach_tables_clamp_like_the_planner() {
        let lens = [16, 0, 3, 9];
        for reach in [3, 4, 100] {
            assert_eq!(Planner::Reach(reach).table(), Planner::Reach(3).table());
            assert_eq!(
                lookup(Planner::Reach(reach), lens),
                Planner::Reach(3).plan(&lens)
            );
        }
    }

    #[test]
    fn falls_back_outside_table_domain() {
        // Too-long rows and non-4-row tiles use the algorithm directly.
        assert_eq!(optimal_k(&[17, 0, 0, 0]), optimize(&[17, 0, 0, 0]).k);
        assert_eq!(optimal_k(&[3, 3, 3]), optimize(&[3, 3, 3]).k);
        assert_eq!(optimal_k(&[2; 8]), optimize(&[2; 8]).k);
    }

    #[test]
    #[should_panic(expected = "exceed the table")]
    fn lookup_rejects_rows_outside_the_table() {
        let _ = lookup(Planner::Greedy, [0, 0, 0, 17]);
    }
}
