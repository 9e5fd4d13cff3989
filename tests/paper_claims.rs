//! The paper's qualitative evaluation claims, asserted against the full
//! experiment harness at a reduced-sampling configuration.
//!
//! These are the statements EXPERIMENTS.md tracks; if a model change
//! breaks one of the paper's shapes, this suite catches it.

use eureka_bench::{table2, FigTable};
use eureka_sim::SimConfig;
use std::sync::OnceLock;

fn cfg() -> SimConfig {
    // Very light sampling: the claims below are qualitative orderings with
    // generous tolerances, and the full workspace test suite runs in debug
    // mode.
    SimConfig {
        rowgroup_samples: 12,
        slice_samples: 12,
        ..SimConfig::paper_default()
    }
}

fn figure11(_: &SimConfig) -> &'static FigTable {
    static T: OnceLock<FigTable> = OnceLock::new();
    T.get_or_init(|| eureka_bench::figure11(&cfg()))
}

fn figure12(_: &SimConfig) -> &'static FigTable {
    static T: OnceLock<FigTable> = OnceLock::new();
    T.get_or_init(|| eureka_bench::figure12(&cfg()))
}

fn figure13(_: &SimConfig) -> &'static FigTable {
    static T: OnceLock<FigTable> = OnceLock::new();
    T.get_or_init(|| eureka_bench::figure13(&cfg()))
}

fn figure14(_: &SimConfig) -> &'static FigTable {
    static T: OnceLock<FigTable> = OnceLock::new();
    T.get_or_init(|| eureka_bench::figure14(&cfg()))
}

#[test]
fn fig11_headline_speedups() {
    let fig = figure11(&cfg());
    // §1: "Eureka achieves 4.8x and 2.4x speedups over dense and 2:4
    // sparse (Ampere)". The simulator substrate lands in the same regime.
    let eureka = fig.value("mean", "Eureka P=4").unwrap();
    let ampere = fig.value("mean", "Ampere/STC").unwrap();
    assert!((3.5..5.5).contains(&eureka), "Eureka mean {eureka}");
    assert!((1.8..2.1).contains(&ampere), "Ampere mean {ampere}");
    assert!(
        (1.9..2.7).contains(&(eureka / ampere)),
        "Eureka/Ampere {}",
        eureka / ampere
    );
}

#[test]
fn fig11_architecture_ordering() {
    let fig = figure11(&cfg());
    for row in [
        "MobileNetv1 (mod)",
        "Inception-v3 (mod)",
        "ResNet50 (mod)",
        "BERT-squad (mod)",
    ] {
        let ampere = fig.value(row, "Ampere/STC").unwrap();
        let cnv = fig.value(row, "Cnvlutin-like").unwrap();
        let p2 = fig.value(row, "Eureka P=2").unwrap();
        let p4 = fig.value(row, "Eureka P=4").unwrap();
        let ideal = fig.value(row, "1-sided Ideal").unwrap();
        // Increasing the compaction factor improves utilization (§5.1).
        assert!(p4 >= p2, "{row}: P4 {p4} < P2 {p2}");
        // Eureka outperforms Cnvlutin-like, which lacks load balancing.
        assert!(p4 > cnv, "{row}: P4 {p4} <= Cnvlutin {cnv}");
        // And never beats the one-sided bound (5% sampling tolerance).
        assert!(p4 <= ideal * 1.05, "{row}: P4 {p4} > ideal {ideal}");
        // Ampere is pinned at ~2x.
        assert!((1.7..2.1).contains(&ampere), "{row}: Ampere {ampere}");
    }
}

#[test]
fn fig11_sparten_crossover() {
    let fig = figure11(&cfg());
    // §5.1: SparTen beats Eureka on the (two-sided-friendly) CNNs...
    for row in ["ResNet50 (mod)", "Inception-v3 (mod)", "MobileNetv1 (mod)"] {
        let sparten = fig.value(row, "SparTen").unwrap();
        let eureka = fig.value(row, "Eureka P=4").unwrap();
        assert!(
            sparten > eureka,
            "{row}: SparTen {sparten} <= Eureka {eureka}"
        );
    }
    // ...but loses on BERT's coarse filter sparsity with dense activations.
    let sparten = fig.value("BERT-squad (mod)", "SparTen").unwrap();
    let eureka = fig.value("BERT-squad (mod)", "Eureka P=4").unwrap();
    assert!(
        eureka > sparten,
        "BERT: Eureka {eureka} <= SparTen {sparten}"
    );
    // The rep mean therefore favours Eureka (§5.1's closing point).
    let rep_e = fig.value("rep mean", "Eureka P=4").unwrap();
    let rep_s = fig.value("rep mean", "SparTen").unwrap();
    assert!(rep_e > rep_s, "rep mean: Eureka {rep_e} <= SparTen {rep_s}");
}

#[test]
fn fig11_weak_baselines() {
    let fig = figure11(&cfg());
    // DSTC's mean is "only slightly better than Cnvlutin-like" — allow
    // slightly worse too, but the two must be within 25%.
    let dstc = fig.value("mean", "DSTC").unwrap();
    let cnv = fig.value("mean", "Cnvlutin-like").unwrap();
    assert!(
        (dstc / cnv - 1.0).abs() < 0.25,
        "DSTC {dstc} vs Cnvlutin {cnv}"
    );
    // S2TA performs like Ampere on CNNs but ~1x on BERT.
    let s2ta_rn = fig.value("ResNet50 (mod)", "S2TA").unwrap();
    assert!((1.8..2.6).contains(&s2ta_rn), "S2TA ResNet {s2ta_rn}");
    let s2ta_bert = fig.value("BERT-squad (mod)", "S2TA").unwrap();
    assert!(s2ta_bert < 1.2, "S2TA BERT {s2ta_bert}");
    // S2TA has no InceptionV3 data.
    assert_eq!(fig.value("Inception-v3 (mod)", "S2TA"), None);
}

#[test]
fn fig12_progressive_techniques() {
    let fig = figure12(&cfg());
    let mean = |col: &str| fig.value("mean", col).unwrap();
    let unopt = mean("Eureka-unopt");
    let compaction = mean("Compaction P=4");
    let greedy = mean("Greedy SUDS");
    let optimal = mean("Optimal SUDS");
    let full = mean("Eureka P=4");
    let no_suds = mean("Eureka-no-SUDS");
    // Each technique adds performance (§5.2).
    assert!(unopt < compaction, "{unopt} {compaction}");
    assert!(compaction < greedy, "{compaction} {greedy}");
    assert!(greedy < optimal, "{greedy} {optimal}");
    assert!(optimal < full, "{optimal} {full}");
    // Scheduling helps even without SUDS...
    assert!(no_suds > compaction, "{no_suds} {compaction}");
    // ...but helps more when SUDS shortens the critical paths: the
    // (Eureka - no-SUDS) gap exceeds the (Eureka - Optimal SUDS) gap.
    assert!(
        full - no_suds > full - optimal,
        "scheduling synergy: full {full}, no_suds {no_suds}, optimal {optimal}"
    );
}

#[test]
fn fig13_energy_shape() {
    let fig = figure13(&cfg());
    let mean = |col: &str| fig.value("mean", col).unwrap();
    // §1: 3.1x / 1.8x energy reductions over Dense / Ampere; the substrate
    // lands in the same regime (lower normalized energy is better).
    let eureka = mean("Eureka P=4");
    let ampere = mean("Ampere/STC");
    assert!((0.28..0.45).contains(&eureka), "Eureka energy {eureka}");
    assert!((0.5..0.7).contains(&ampere), "Ampere energy {ampere}");
    assert!(
        ampere / eureka > 1.4,
        "Eureka vs Ampere {}",
        ampere / eureka
    );
    // SparTen pays for prefix logic and buffering (§5.3).
    assert!(mean("SparTen") > eureka, "SparTen {}", mean("SparTen"));
    // P=2 is the more power-efficient variant.
    assert!(mean("Eureka P=2") <= eureka + 0.01);
    // DSTC loses its memory-energy advantage on BERT.
    let dstc_bert = fig.value("BERT-squad (mod)", "DSTC").unwrap();
    let eureka_bert = fig.value("BERT-squad (mod)", "Eureka P=4").unwrap();
    assert!(dstc_bert > eureka_bert);
    // Dense Bench: every sparse scheme carries an overhead, ordered
    // Ampere < Eureka < DSTC.
    let db = |col: &str| fig.value("Dense Bench", col).unwrap();
    assert!(db("Ampere/STC") > 1.0);
    assert!(db("Eureka P=4") > db("Ampere/STC"));
    assert!(db("DSTC") > db("Eureka P=4"));
}

#[test]
fn fig14_scaleup_tradeoff() {
    let fig = figure14(&cfg());
    let mean = |col: &str| fig.value("mean", col).unwrap();
    let base = mean("4x4");
    // Plain scale-up loses significantly; more at 16x16 than 8x8 (§5.5).
    assert!(mean("8x8-plain") < base);
    assert!(mean("16x16-plain") < mean("8x8-plain"));
    // Systolic scale-up nearly obviates the trade-off.
    assert!(mean("8x8-systolic") > mean("8x8-plain"));
    assert!(mean("16x16-systolic") > mean("16x16-plain"));
    assert!(mean("16x16-systolic") > 0.9 * base);
}

#[test]
fn table2_headline_numbers() {
    let t = table2();
    assert!(t.contains("1246")); // Ampere total area
    assert!(t.contains("785")); // Ampere total power
    assert!(t.contains("1321")); // Eureka total area
    assert!(t.contains("875")); // Eureka total power
    assert!(t.contains("area 6.0%"));
    assert!(t.contains("power 11.5%"));
    assert!(t.contains("1.66"));
    assert!(t.contains("1.84"));
}
