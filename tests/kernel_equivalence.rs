//! Bit-identity of the word-parallel / batched hot-path kernels against
//! their scalar references.
//!
//! The hot-path overhaul rewrote the sparse substrate (whole-word
//! popcount/ctz iteration, funnel-shift windowing) and the fp16 datapath
//! (operands classified once, folded through the adder in batches)
//! strictly as *performance* changes: every kernel must produce exactly
//! the bytes its scalar predecessor produced. These properties pin that
//! contract — each test drives an optimized kernel and the obvious
//! per-element reference over the same inputs and requires equality, at
//! densities from empty to full, at widths that leave partial final
//! words and chunks, and over the full binary16 bit space (subnormals,
//! NaN, ±Inf, ±0, rounding boundaries).
//!
//! The final test closes the loop end to end: every architecture in the
//! registry renders a byte-identical `eureka simulate` report across
//! repeated runs and reports the exact cycle count pinned for it (the
//! five one-sided archs of the committed `results/BENCH_2.json`, recorded
//! before the overhaul, among them), and the two-sided DSTC and SparTen
//! samplers are pinned on clustered BERT as well.

use eureka::fp16::arith::{self, Prepared};
use eureka::fp16::{csa, mac, MacUnit, F16};
use eureka::models::{Benchmark, PruningLevel, Workload};
use eureka::sim::{arch, engine, SimConfig, TileKey};
use eureka::sparse::bitmask::MaskedRow;
use eureka::sparse::canon::{self, RowOrder};
use eureka::sparse::rng::{self, Bernoulli, DetRng};
use eureka::sparse::{SparsityPattern, TilePattern};
use proptest::prelude::*;

/// A random pattern: `density` runs 0..=20 in 5% steps so the endpoints
/// hit exactly-empty and exactly-full masks.
fn pattern(rows: usize, cols: usize, density: u8, seed: u64) -> SparsityPattern {
    let mut rng = DetRng::new(seed);
    let d = f64::from(density) * 0.05;
    SparsityPattern::from_fn(rows, cols, |_, _| rng.bernoulli(d))
}

/// Scalar reference: the set columns of one row, by per-cell probing.
fn scalar_row_indices(p: &SparsityPattern, row: usize) -> Vec<usize> {
    (0..p.cols()).filter(|&c| p.get(row, c)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ------------------------------------------------------------------
    // Word-parallel sparsity kernels vs scalar references.
    // ------------------------------------------------------------------

    #[test]
    fn row_iteration_matches_scalar_scan(
        rows in 1usize..=8,
        cols in 1usize..=200, // crosses 64/128: partial final words
        density in 0u8..=20,
        seed in 0u64..1000,
    ) {
        let p = pattern(rows, cols, density, seed);
        for r in 0..rows {
            let reference = scalar_row_indices(&p, r);
            // The zero-allocation iterator...
            let iter = p.row_iter(r);
            prop_assert_eq!(iter.len(), reference.len(), "ExactSizeIterator len");
            prop_assert_eq!(iter.collect::<Vec<_>>(), reference.clone());
            // ...the internal-iteration form...
            let mut via_callback = Vec::new();
            p.for_each_set(r, |c| via_callback.push(c));
            prop_assert_eq!(via_callback, reference.clone());
            // ...the deprecated-in-spirit collect wrapper...
            prop_assert_eq!(p.row_indices(r), reference.clone());
            // ...and the raw words, bit by bit.
            let words = p.row_words(r);
            for c in 0..cols {
                prop_assert_eq!(
                    words[c / 64] >> (c % 64) & 1 == 1,
                    p.get(r, c),
                    "word bit {} of row {}", c, r
                );
            }
        }
    }

    #[test]
    fn window_matches_scalar_extraction(
        rows in 1usize..=8,
        cols in 1usize..=200,
        density in 0u8..=20,
        seed in 0u64..1000,
        origin_r in 0usize..8,
        origin_c in 0usize..200,
        out_rows in 1usize..=8,
        out_cols in 1usize..=70, // crosses 64: partial final word
    ) {
        let p = pattern(rows, cols, density, seed);
        let (r0, c0) = (origin_r % rows, origin_c % cols);
        let w = p.window(r0, c0, out_rows, out_cols).expect("origin in bounds");
        for r in 0..out_rows {
            for c in 0..out_cols {
                let expect =
                    r0 + r < rows && c0 + c < cols && p.get(r0 + r, c0 + c);
                prop_assert_eq!(w.get(r, c), expect, "window cell ({}, {})", r, c);
            }
        }
    }

    #[test]
    fn tile_extraction_matches_scalar(
        rows in 1usize..=12,
        cols in 1usize..=200,
        density in 0u8..=20,
        seed in 0u64..1000,
        origin_r in 0usize..12,
        origin_c in 0usize..200,
        p_dim in 1usize..=8,
        factor in 1usize..=8, // q = p·factor stays ≤ 64
    ) {
        let src = pattern(rows, cols, density, seed);
        let (r0, c0) = (origin_r % rows, origin_c % cols);
        let q = p_dim * factor;
        let tile = TilePattern::from_pattern(&src, r0, c0, p_dim, q)
            .expect("origin in bounds, q ≤ 64");
        for r in 0..p_dim {
            // Whole-row mask vs per-cell probing of the source.
            let mask = tile.row_mask(r);
            for c in 0..q {
                let expect =
                    r0 + r < rows && c0 + c < cols && src.get(r0 + r, c0 + c);
                prop_assert_eq!(mask >> c & 1 == 1, expect, "tile cell ({}, {})", r, c);
            }
            prop_assert_eq!(
                tile.row_iter(r).collect::<Vec<_>>(),
                tile.row_indices(r)
            );
        }
    }

    #[test]
    fn reset_from_rows_equals_from_rows(
        masks in prop::collection::vec(0u64..=u64::MAX, 1..=8),
        cols in 1usize..=64,
        density in 0u8..=20,
        seed in 0u64..1000,
    ) {
        let tail = if cols == 64 { u64::MAX } else { (1u64 << cols) - 1 };
        let masks: Vec<u64> = masks.iter().map(|m| m & tail).collect();
        let fresh = TilePattern::from_rows(&masks, cols).expect("masked to width");
        // Start the reused tile from unrelated content: stale state must
        // not leak through the in-place rebuild.
        let stale = pattern(4, 33, density, seed);
        let mut reused = TilePattern::from_pattern(&stale, 0, 0, 4, 33).expect("in bounds");
        reused.reset_from_rows(&masks, cols).expect("masked to width");
        prop_assert_eq!(&reused, &fresh);
    }

    #[test]
    fn masked_row_chunks_match_scalar_intersection(
        cols in 1usize..=200, // crosses 32/64: partial final chunks
        da in 0u8..=20,
        db in 0u8..=20,
        seed in 0u64..1000,
    ) {
        let a = pattern(1, cols, da, seed);
        let b = pattern(1, cols, db, seed.wrapping_add(0x9E37));
        let (ra, rb) = (MaskedRow::from_pattern(&a, 0), MaskedRow::from_pattern(&b, 0));
        let scalar: usize = (0..cols).filter(|&c| a.get(0, c) && b.get(0, c)).count();
        prop_assert_eq!(ra.total_matches(&rb), scalar, "whole-word popcount");
        prop_assert_eq!(
            ra.matches_per_chunk(&rb).iter().sum::<usize>(),
            scalar,
            "per-chunk counts sum to the total"
        );
        prop_assert_eq!(ra.nnz(), scalar_row_indices(&a, 0).len());
    }

    #[test]
    fn canon_into_matches_allocating_form(
        rows in 1usize..=8,
        cols in 1usize..=64,
        density in 0u8..=20,
        seed in 0u64..1000,
    ) {
        let src = pattern(rows, cols, density, seed);
        let tile = TilePattern::from_pattern(&src, 0, 0, rows, cols).expect("in bounds");
        let mut lens = vec![99; 3]; // stale content must be cleared
        let mut token = String::from("stale");
        for order in [RowOrder::Exact, RowOrder::Sorted] {
            canon::canonical_lens_into(&tile, order, &mut lens);
            prop_assert_eq!(&lens, &canon::canonical_lens(&tile, order));
            canon::lens_token_into(&lens, &mut token);
            prop_assert_eq!(&token, &canon::lens_token(&lens));
        }
    }

    #[test]
    fn tile_key_encode_into_matches_new(
        reach in 0u32..100,
        lens in prop::collection::vec(0usize..=64, 1..=8),
    ) {
        let tag = format!("ms{reach}");
        let token = canon::lens_token(&lens);
        let mut buf = String::from("stale");
        TileKey::encode_into(&tag, &token, &mut buf);
        prop_assert_eq!(buf.as_str(), TileKey::new(&tag, &token).as_str());
    }

    // ------------------------------------------------------------------
    // Batched fp16 datapath vs element-wise references. Raw-bit operand
    // generation covers ±0, subnormals, normals, ±Inf and NaNs.
    // ------------------------------------------------------------------

    #[test]
    fn mul_prepared_matches_mul_hw(a in 0u16..=u16::MAX, b in 0u16..=u16::MAX) {
        let (x, y) = (F16::from_bits(a), F16::from_bits(b));
        let prepared = arith::mul_prepared(Prepared::new(x), Prepared::new(y));
        prop_assert_eq!(prepared.to_bits(), x.mul_hw(y).to_bits());
    }

    #[test]
    fn dot_hw_matches_mac_unit_chain(
        pairs in prop::collection::vec((0u16..=u16::MAX, 0u16..=u16::MAX), 0..=48),
    ) {
        let a: Vec<F16> = pairs.iter().map(|&(x, _)| F16::from_bits(x)).collect();
        let b: Vec<F16> = pairs.iter().map(|&(_, y)| F16::from_bits(y)).collect();
        let ap: Vec<Prepared> = a.iter().map(|&x| Prepared::new(x)).collect();
        let bp: Vec<Prepared> = b.iter().map(|&y| Prepared::new(y)).collect();
        let mut unit = MacUnit::new();
        for (&x, &y) in a.iter().zip(&b) {
            unit.fma(x, y);
        }
        prop_assert_eq!(mac::dot_hw(&ap, &bp).to_bits(), unit.value().to_bits());
    }

    #[test]
    fn fma_slice_matches_elementwise_add3(
        lanes in prop::collection::vec(
            (0u16..=u16::MAX, 0u16..=u16::MAX, 0u16..=u16::MAX),
            1..=16,
        ),
    ) {
        let mut acc: Vec<F16> = lanes.iter().map(|&(a, ..)| F16::from_bits(a)).collect();
        let local: Vec<F16> = lanes.iter().map(|&(_, l, _)| F16::from_bits(l)).collect();
        let below: Vec<F16> = lanes.iter().map(|&(.., b)| F16::from_bits(b)).collect();
        let reference: Vec<u16> = lanes
            .iter()
            .map(|&(a, l, b)| {
                csa::add3(F16::from_bits(a), F16::from_bits(l), F16::from_bits(b)).to_bits()
            })
            .collect();
        mac::fma_slice(&mut acc, &local, &below);
        let batched: Vec<u16> = acc.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(batched, reference);
    }

    // ------------------------------------------------------------------
    // The integer-threshold Bernoulli every sampler uses: its proof lives
    // on `eureka_sparse::rng::Bernoulli`. Outcomes must equal the `f64`
    // compare `next_f64() < p` draw for draw, and use one draw per trial,
    // or sampled reports change bytes.
    // ------------------------------------------------------------------

    #[test]
    fn integer_threshold_bernoulli_matches_f64_compare(
        frac in any::<u64>(),
        grid in 0u64..=STEPS,
        side in 0u8..3,
        offset in any::<u64>(),
        seed in 0u64..10_000,
    ) {
        // Arbitrary in [-0.5, 1.5), then a grid point `grid · 2⁻⁵³` of
        // `next_f64`'s outputs and its neighbour below or above: off the
        // grid, `p · 2⁵³` has a fraction and the threshold's ceil matters.
        let arbitrary = -0.5 + 2.0 * rng::unit_f64(frac);
        let on_grid = grid as f64 * GRID;
        let near_grid = match side {
            0 => on_grid.next_down(),
            1 => on_grid,
            _ => on_grid.next_up(),
        };
        for p in [arbitrary, near_grid] {
            check_bernoulli(p, seed);
            // Random draws land next to the threshold with odds ~2⁻⁵³, so
            // also try the raw draws that straddle it.
            for raw in boundary_draws(p, offset) {
                prop_assert_eq!(
                    Bernoulli::new(p).accepts(raw),
                    rng::unit_f64(raw) < p,
                    "p {:e} raw {:#x}",
                    p,
                    raw
                );
            }
        }
    }
}

/// Spacing of `next_f64`'s outputs, `2⁻⁵³`.
const GRID: f64 = f64::EPSILON / 2.0;

/// Number of distinct `next_f64` outputs (the top 53 bits of a draw).
const STEPS: u64 = 1 << 53;

/// Raw draws whose top 53 bits sit one below, at and one above the
/// integer part of `p · 2⁵³` (where it lies in the draw range); `offset`
/// fills the 11 discarded low bits.
fn boundary_draws(p: f64, offset: u64) -> Vec<u64> {
    let top = (p.clamp(0.0, 1.0) / GRID).floor() as u64;
    [top.wrapping_sub(1), top, top + 1]
        .into_iter()
        .filter(|&x| x < STEPS)
        .map(|x| x << 11 | (offset & 0x7FF))
        .collect()
}

/// `Bernoulli::new(p)`'s `sample` and `count`, and `DetRng::bernoulli`,
/// against the `f64` compare on identical streams, each consuming exactly
/// one draw per trial.
fn check_bernoulli(p: f64, seed: u64) {
    let coin = Bernoulli::new(p);
    let mut by_float = DetRng::new(seed);
    let (mut by_sample, mut by_method, mut by_count) =
        (by_float.clone(), by_float.clone(), by_float.clone());
    let mut hits = 0;
    for _ in 0..64 {
        let expect = by_float.next_f64() < p;
        hits += usize::from(expect);
        assert_eq!(coin.sample(&mut by_sample), expect, "sample, p {p:e}");
        assert_eq!(by_method.bernoulli(p), expect, "DetRng::bernoulli, p {p:e}");
    }
    assert_eq!(coin.count(64, &mut by_count), hits, "count, p {p:e}");
    let next = by_float.next_u64();
    for (mut stream, what) in [
        (by_sample, "sample"),
        (by_method, "bernoulli"),
        (by_count, "count"),
    ] {
        assert_eq!(
            stream.next_u64(),
            next,
            "{what} drew other than one value per trial"
        );
    }
}

/// The values the proof treats as edge cases: both ends, signed zero,
/// subnormals, the grid's first step and the neighbours of 1, values
/// outside `[0, 1]`, infinities and NaN.
#[test]
fn bernoulli_edge_probabilities_match_f64_compare() {
    let tiny = f64::from_bits(1);
    let edges = [
        0.0,
        -0.0,
        1.0,
        tiny,
        f64::MIN_POSITIVE,
        f64::MIN_POSITIVE.next_down(),
        GRID,
        GRID.next_down(),
        GRID.next_up(),
        0.5 * GRID,
        1.5 * GRID,
        0.5,
        1.0f64.next_down(),
        1.0f64.next_up(),
        -tiny,
        -0.5,
        1.5,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ];
    for (i, &p) in edges.iter().enumerate() {
        check_bernoulli(p, i as u64);
        for raw in boundary_draws(p, 0x5A5).into_iter().chain([0, u64::MAX]) {
            assert_eq!(
                Bernoulli::new(p).accepts(raw),
                rng::unit_f64(raw) < p,
                "p {p:e} raw {raw:#x}"
            );
        }
    }
}

/// Every binary16 special crossed with every special through the batched
/// multiplier: the proptest above reaches these regions statistically;
/// this pins them deterministically.
#[test]
fn mul_prepared_specials_cross_product() {
    const SPECIALS: [u16; 16] = [
        0x0000, // +0
        0x8000, // −0
        0x0001, // min subnormal
        0x8001, // −min subnormal
        0x03FF, // max subnormal
        0x0400, // min normal
        0x3BFF, // just under 1
        0x3C00, // 1
        0x3C01, // just over 1 (rounding boundary neighbor)
        0x7BFF, // max finite
        0xFBFF, // −max finite
        0x7C00, // +Inf
        0xFC00, // −Inf
        0x7C01, // signalling-pattern NaN
        0x7E00, // quiet NaN
        0xFE00, // −quiet NaN
    ];
    for &a in &SPECIALS {
        for &b in &SPECIALS {
            let (x, y) = (F16::from_bits(a), F16::from_bits(b));
            assert_eq!(
                arith::mul_prepared(Prepared::new(x), Prepared::new(y)).to_bits(),
                x.mul_hw(y).to_bits(),
                "mul_prepared({a:#06x}, {b:#06x})"
            );
        }
    }
}

/// End to end: every registry architecture renders a byte-identical
/// simulate report across independent runs and produces its exact pinned
/// cycle count (MobileNetV1, moderate pruning, batch 32, fast sampling),
/// and DSTC and SparTen produce theirs on BERT as well.
#[test]
fn simulate_reports_are_byte_identical_across_all_archs() {
    // The first five are the committed `results/BENCH_2.json` counts; the
    // rest were recorded while every sampler still drew through the `f64`
    // Bernoulli compare the integer threshold replaced.
    const PINNED: [(&str, u64); 16] = [
        ("dense", 774_467),
        ("ampere", 420_306),
        ("cnvlutin", 449_410),
        ("eureka-p2", 272_145),
        ("eureka-p4", 252_211),
        ("ideal", 225_278),
        ("dstc", 368_582),
        ("sparten", 163_917),
        ("s2ta", 325_852),
        ("eureka-unopt", 509_567),
        ("compaction-p4", 449_410),
        ("greedy-suds", 370_077),
        ("optimal-suds", 292_227),
        ("eureka-no-suds", 366_727),
        ("eureka-reach2", 238_261),
        ("eureka-act-gate", 252_211),
    ];
    // Clustered BERT: DSTC's two-call mixture branch and SparTen's
    // per-chunk `tile_density` draws.
    const PINNED_BERT: [(&str, u64); 2] = [("dstc", 27_414_203), ("sparten", 7_185_794)];
    let cfg = SimConfig::fast();
    let names = arch::registry_names();
    assert_eq!(names.len(), 16, "registry arch count");
    let mobilenet = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
    for name in names {
        let first = engine::simulate(&*arch::by_name(name).unwrap(), &mobilenet, &cfg);
        let second = engine::simulate(&*arch::by_name(name).unwrap(), &mobilenet, &cfg);
        assert_eq!(
            first.to_csv(),
            second.to_csv(),
            "simulate report for {name} drifted between runs"
        );
        let &(_, cycles) = PINNED
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} has no pinned cycle count"));
        assert_eq!(
            first.total_cycles(),
            cycles,
            "{name} no longer matches its pinned MobileNetV1 cycle count"
        );
    }
    let bert = Workload::new(Benchmark::BertSquad, PruningLevel::Moderate, 32);
    for (name, cycles) in PINNED_BERT {
        let report = engine::simulate(&*arch::by_name(name).unwrap(), &bert, &cfg);
        assert_eq!(
            report.total_cycles(),
            cycles,
            "{name} no longer matches its pinned BERT cycle count"
        );
    }
}
