//! The tile-store congruence: equal canonical keys imply identical
//! simulated tile outcomes, for the timer behind every registry
//! architecture.
//!
//! The content-addressed store (`eureka_sim::store`) deduplicates tile
//! timings across layers, runs and architectures on the strength of one
//! claim: `TileTimer::key` is a *congruence* for `TileTimer::outcome` —
//! any two tiles the canonicalization maps to the same key must receive
//! bit-identical outcomes from the timer. If that ever breaks, the store
//! silently serves wrong cycle counts. These properties attack the claim
//! from the mutations canonicalization is supposed to collapse: column
//! placement (all sampled timers), row permutation (the sorted max-row
//! key), and tile width `q` (excluded from keys by design).
//!
//! The signature-level half of this argument (what `canonical_lens`
//! collapses and preserves) lives in `crates/sparse/tests/properties.rs`.
//!
//! Tiles of `p = 4` rows and width `q ≤ 16` never reach the store: the
//! timer reads their plan from the packed per-planner tables in
//! `eureka_core::suds::lut`. The last tests here check every entry of
//! every table against the planners themselves, and the timer's outcome
//! on random tiles of the tabled widths.

use eureka::offline::suds::{self, lut, multistep};
use eureka::sim::arch::{self, OneSided, TileTimer};
use eureka::sim::TileOutcome;
use eureka::sparse::rng::DetRng;
use eureka::sparse::TilePattern;
use proptest::prelude::*;

/// The one-sided configurations the registry exposes, by constructor —
/// mirrors `arch::REGISTRY` (the non-one-sided entries there do not
/// time tiles through `TileTimer` and have no store keys to verify).
fn registry_onesided() -> Vec<OneSided> {
    vec![
        arch::dense(),
        arch::ampere(),
        arch::cnvlutin_like(),
        arch::eureka_p2(),
        arch::eureka_p4(),
        arch::eureka_unopt(),
        arch::compaction_only(4),
        arch::greedy_suds_p4(),
        arch::optimal_suds_p4(),
        arch::eureka_no_suds_p4(),
        arch::eureka_multistep(2),
    ]
}

/// Every distinct timer the registry simulates with.
fn registry_timers() -> Vec<TileTimer> {
    let mut timers: Vec<TileTimer> = registry_onesided().iter().map(OneSided::timer).collect();
    timers.dedup();
    timers
}

/// A mask of `len` contiguous bits shifted to `pos` inside width `q`.
fn placed_row(len: usize, pos: usize, q: usize) -> u64 {
    if len == 0 {
        return 0;
    }
    let bits = if len == 64 {
        u64::MAX
    } else {
        (1u64 << len) - 1
    };
    bits << pos.min(q - len)
}

/// A tile of width `q` whose rows have exactly the given lengths, with
/// column placements chosen by `pos`.
fn tile_with_lens(lens: &[usize], pos: &[usize], q: usize) -> TilePattern {
    let masks: Vec<u64> = lens
        .iter()
        .zip(pos)
        .map(|(&l, &p)| placed_row(l.min(q), p, q))
        .collect();
    TilePattern::from_rows(&masks, q).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Column placement — and even the tile width `q` — never reach a
    /// sampled timer: tiles with equal row-length signatures share a key,
    /// and tiles sharing a key receive bit-identical outcomes.
    #[test]
    fn equal_keys_imply_equal_outcomes(
        lens in prop::collection::vec(0usize..=8, 4),
        pos_a in prop::collection::vec(0usize..32, 4),
        pos_b in prop::collection::vec(0usize..32, 4),
        qa_exp in 3u32..=5,
        qb_exp in 3u32..=5,
    ) {
        let a = tile_with_lens(&lens, &pos_a, 1 << qa_exp);
        let b = tile_with_lens(&lens, &pos_b, 1 << qb_exp);
        for timer in registry_timers() {
            let (ka, kb) = (timer.key(&a), timer.key(&b));
            prop_assert_eq!(&ka, &kb, "{:?}: equal signatures, equal keys", timer);
            match ka {
                // Uniform-latency timers are never keyed; their outcome
                // legitimately depends on `q` and bypasses the store.
                None => prop_assert!(
                    matches!(timer, TileTimer::Dense | TileTimer::TwoFour)
                ),
                Some(_) => prop_assert_eq!(
                    timer.outcome(&a),
                    timer.outcome(&b),
                    "{:?}: shared key must mean shared outcome",
                    timer
                ),
            }
        }
    }

    /// The max-row timer's key is sorted, so any row permutation lands on
    /// the same store record — and the timer really is permutation
    /// invariant, so that sharing is sound.
    #[test]
    fn maxrow_key_collapses_row_permutations_soundly(
        lens in prop::collection::vec(0usize..=16, 4),
        pos in prop::collection::vec(0usize..16, 4),
        rot in 0usize..4,
        swap in any::<bool>(),
    ) {
        let mut permuted: Vec<usize> =
            (0..4).map(|r| lens[(r + rot) % 4]).collect();
        if swap {
            permuted.swap(0, 1);
        }
        let a = tile_with_lens(&lens, &pos, 16);
        let b = tile_with_lens(&permuted, &pos, 16);
        let timer = TileTimer::MaxRow;
        prop_assert_eq!(timer.key(&a), timer.key(&b));
        prop_assert_eq!(timer.outcome(&a), timer.outcome(&b));
    }

    /// The SUDS planners are order-sensitive, and their exact-order keys
    /// are exactly as fine as the timing function: two row sequences get
    /// one key precisely when they are the same sequence. (Coarser would
    /// be unsound; finer would forfeit reuse.)
    #[test]
    fn suds_keys_are_exactly_order_sensitive(
        lens_a in prop::collection::vec(0usize..=16, 4),
        lens_b in prop::collection::vec(0usize..=16, 4),
        pos in prop::collection::vec(0usize..16, 4),
    ) {
        let a = tile_with_lens(&lens_a, &pos, 16);
        let b = tile_with_lens(&lens_b, &pos, 16);
        for timer in [
            TileTimer::GreedySuds,
            TileTimer::OptimalSuds,
            TileTimer::MultiStepSuds(2),
        ] {
            prop_assert_eq!(
                timer.key(&a) == timer.key(&b),
                lens_a == lens_b,
                "{:?}: key equality must coincide with signature equality",
                timer
            );
        }
    }
}

/// Distinct timer disciplines never share a record even for identical
/// tiles: the key's discipline tag keeps e.g. greedy and optimal SUDS
/// results apart, and the reach parameter separates multi-step variants.
#[test]
fn keys_separate_timer_disciplines() {
    let tile = tile_with_lens(&[4, 3, 1, 0], &[0, 2, 5, 0], 16);
    let sampled = [
        TileTimer::MaxRow,
        TileTimer::GreedySuds,
        TileTimer::OptimalSuds,
        TileTimer::MultiStepSuds(1),
        TileTimer::MultiStepSuds(2),
        TileTimer::MultiStepSuds(3),
    ];
    let keys: Vec<_> = sampled
        .iter()
        .map(|t| t.key(&tile).expect("sampled timers are keyed"))
        .collect();
    for (i, ki) in keys.iter().enumerate() {
        for (j, kj) in keys.iter().enumerate() {
            assert_eq!(i == j, ki == kj, "{:?} vs {:?}", sampled[i], sampled[j]);
        }
    }
}

/// Every registry architecture's timer upholds the store contract on a
/// directed set of edge tiles: empty, full, single-row and staircase
/// patterns, compared against a column-shifted twin.
#[test]
fn registry_timers_uphold_the_congruence_on_edge_tiles() {
    let cases: [&[usize]; 5] = [
        &[0, 0, 0, 0],
        &[16, 16, 16, 16],
        &[16, 0, 0, 0],
        &[4, 3, 2, 1],
        &[1, 16, 1, 16],
    ];
    for lens in cases {
        let a = tile_with_lens(lens, &[0, 0, 0, 0], 16);
        let b = tile_with_lens(lens, &[7, 3, 11, 5], 16);
        for timer in registry_timers() {
            assert_eq!(timer.key(&a), timer.key(&b), "{timer:?} on {lens:?}");
            if timer.key(&a).is_some() {
                assert_eq!(
                    timer.outcome(&a),
                    timer.outcome(&b),
                    "{timer:?} on {lens:?}"
                );
            }
        }
    }
}

/// What a planner computes for `lens`, straight from `eureka_core::suds`:
/// the reference both the packed tables and `TileTimer::outcome` must
/// reproduce.
fn reference_plan(planner: lut::Planner, lens: &[usize]) -> lut::Plan {
    let single_step = |plan: suds::DisplacementPlan| lut::Plan {
        k: plan.k,
        displaced: plan.displaced_count(),
        base_row: Some(plan.base_row),
    };
    match planner {
        lut::Planner::Optimal => single_step(suds::optimize(lens)),
        lut::Planner::Greedy => single_step(suds::greedy(lens)),
        lut::Planner::Reach(reach) => {
            let k = multistep::optimal_k(lens, reach.min(lens.len() - 1));
            lut::Plan {
                k,
                displaced: lens.iter().map(|&l| l.saturating_sub(k)).sum(),
                base_row: None,
            }
        }
    }
}

/// Every tabled planner: optimal, greedy and reach 0..=3 (larger reaches
/// clamp to 3 at `p = 4`).
const TABLED: [lut::Planner; 6] = [
    lut::Planner::Optimal,
    lut::Planner::Greedy,
    lut::Planner::Reach(0),
    lut::Planner::Reach(1),
    lut::Planner::Reach(2),
    lut::Planner::Reach(3),
];

/// All 17⁴ row-length tuples of every table: the first lookup fills the
/// entry, the second reads it back from its packed form, and both must
/// equal the planner's own `k`, displaced count and base row.
#[test]
fn packed_tables_match_the_planners_exhaustively() {
    let range = 0..=lut::MAX_LEN;
    for a in range.clone() {
        for b in range.clone() {
            for c in range.clone() {
                for d in range.clone() {
                    let lens = [a, b, c, d];
                    for planner in TABLED {
                        let want = reference_plan(planner, &lens);
                        let filled = lut::lookup(planner, lens);
                        let read = lut::lookup(planner, lens);
                        assert_eq!(filled, want, "{planner:?} fill on {lens:?}");
                        assert_eq!(read, want, "{planner:?} packed read on {lens:?}");
                    }
                    assert_eq!(lut::optimal_k(&lens), suds::optimize(&lens).k);
                }
            }
        }
    }
}

/// The timer's outcome on a tile, computed from the planners directly.
fn reference_outcome(timer: TileTimer, tile: &TilePattern) -> TileOutcome {
    let lens = tile.row_lens();
    let nnz = lens.iter().sum::<usize>() as u64;
    let planner = match timer {
        TileTimer::MaxRow => {
            return TileOutcome {
                cycles: lens.iter().copied().max().unwrap_or(0).max(1) as u64,
                displaced: 0,
                base_row: None,
                nnz,
            }
        }
        TileTimer::GreedySuds => lut::Planner::Greedy,
        TileTimer::OptimalSuds => lut::Planner::Optimal,
        TileTimer::MultiStepSuds(reach) => lut::Planner::Reach(reach),
        TileTimer::Dense | TileTimer::TwoFour => unreachable!("uniform timers plan nothing"),
    };
    let plan = reference_plan(planner, &lens);
    TileOutcome {
        cycles: plan.k.max(1) as u64,
        displaced: plan.displaced as u64,
        base_row: plan.base_row,
        nnz,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `TileTimer::outcome` on random 4-row tiles of every tabled width —
    /// the table path — and on 32- and 64-wide tiles, which plan
    /// directly, equals the planners' own result.
    #[test]
    fn tabled_outcomes_match_the_planners(
        seed in any::<u64>(),
        q_exp in 2u32..=6,
        density_pct in 0usize..=100,
    ) {
        let q = 1usize << q_exp;
        let mut rng = DetRng::new(seed);
        let masks: Vec<u64> = (0..4)
            .map(|_| {
                (0..q).fold(0u64, |m, c| {
                    m | u64::from(rng.next_below(100) < density_pct) << c
                })
            })
            .collect();
        let tile = TilePattern::from_rows(&masks, q).unwrap();
        for timer in [
            TileTimer::MaxRow,
            TileTimer::GreedySuds,
            TileTimer::OptimalSuds,
            TileTimer::MultiStepSuds(1),
            TileTimer::MultiStepSuds(2),
            TileTimer::MultiStepSuds(3),
            TileTimer::MultiStepSuds(7),
        ] {
            prop_assert_eq!(
                timer.outcome(&tile),
                reference_outcome(timer, &tile),
                "{:?} at q = {}",
                timer,
                q
            );
        }
    }
}
