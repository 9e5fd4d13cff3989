//! Host-time benchmark of the Eureka simulator.
//!
//! ```text
//! perfbench --workload <fig11-paper|ablations-paper|serve-open> \
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics; with `--trace 1` it
//! records spans and prints the per-layer metrics. Every output is checked.
//! A human-readable table and the provenance go to stderr and stdout; the
//! last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. The process exits non-zero when a check fails.
//! `README.md` beside this package gives the workloads, the metrics and the
//! layer each metric attributes.

mod child;
mod replay;
mod serve;
mod stats;
mod trace;

use eureka_obs::json::Value;
use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// Scratch space of the child processes, inside the working directory.
pub const TMP_DIR: &str = ".bench_tmp";
/// Where a traced run writes its spans.
const OUT_DIR: &str = ".bench_out";
/// Set-up-only children per run, besides the set-up every measuring child
/// does.
const SETUP_RUNS: usize = 7;

/// Exact outcome of one paper-sampling figure, pinned from the commit the
/// benchmark was written against: the FNV-1a digest of the text the CLI
/// renders, the runner's planned units and unit-cache hits, and the
/// by-design `Unsupported` units (S2TA cannot run InceptionV3).
struct Pinned {
    digest: &'static str,
    units_planned: f64,
    cache_hits: f64,
    unsupported: f64,
}

fn pinned(workload: &str) -> Option<Pinned> {
    match workload {
        "fig11-paper" => Some(Pinned {
            digest: "75508d87270422b7",
            units_planned: 4428.0,
            cache_hits: 0.0,
            unsupported: 188.0,
        }),
        "ablations-paper" => Some(Pinned {
            digest: "9ee3b69b6b43bcc3",
            units_planned: 4678.0,
            cache_hits: 1875.0,
            unsupported: 0.0,
        }),
        _ => None,
    }
}

/// Architectures whose `simulate_layer` time is reported one by one: the
/// Figure 11 columns and their Dense baseline. Every other arch is summed
/// under `other`.
const LAYER_ARCHS: [&str; 10] = [
    "dense",
    "ampere",
    "cnvlutin",
    "eureka-p2",
    "eureka-p4",
    "ideal",
    "dstc",
    "sparten",
    "s2ta",
    "other",
];

struct Opts {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["fig11-paper", "ablations-paper", "serve-open"].contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}'"));
    }
    Ok(Opts {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(30).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// A finished child: the time from spawn to its `ready` line, and its
/// result object.
struct Child {
    setup_s: f64,
    result: Value,
}

impl Child {
    fn num(&self, key: &str) -> f64 {
        self.result
            .get(key)
            .and_then(Value::as_f64)
            .unwrap_or(f64::NAN)
    }

    fn nums(&self, key: &str) -> Vec<f64> {
        self.result
            .get(key)
            .and_then(Value::as_arr)
            .map(|a| a.iter().filter_map(Value::as_f64).collect())
            .unwrap_or_default()
    }
}

/// Runs `perfbench child <args>` to completion.
fn spawn(args: &[String]) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let start = Instant::now();
    let mut proc = Command::new(exe)
        .arg("child")
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning a child: {e}"))?;
    let stdout = proc.stdout.take().expect("stdout is piped");
    let mut setup_s = f64::NAN;
    let mut last = String::new();
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("reading a child: {e}"))?;
        if line == "ready" && setup_s.is_nan() {
            setup_s = start.elapsed().as_secs_f64();
        } else if !line.trim().is_empty() {
            last = line;
        }
    }
    let status = proc
        .wait()
        .map_err(|e| format!("waiting for a child: {e}"))?;
    if !status.success() {
        return Err(format!("child {} failed: {status}", args.join(" ")));
    }
    let result = eureka_obs::json::parse(&last).map_err(|e| format!("child result: {e}"))?;
    Ok(Child { setup_s, result })
}

fn args(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| (*s).to_string()).collect()
}

/// One reported metric with the sample it summarises.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    /// `(median, tail value, tail percentile, samples)` when the value
    /// summarises a sample.
    sample: Option<(f64, f64, u32, usize)>,
}

fn scalar(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
        sample: None,
    }
}

/// A metric whose value is the median of `samples`.
fn median_of(name: &str, unit: &'static str, samples: &[f64]) -> Metric {
    let (tail, p) = stats::tail(samples);
    let m = stats::median(samples);
    Metric {
        name: name.to_string(),
        unit,
        value: m,
        sample: Some((m, tail, p, samples.len())),
    }
}

#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<Metric>,
    spans: Vec<(String, Value)>,
}

impl Report {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    /// Checks a figure child against the pinned outcome.
    fn check_figure(&mut self, workload: &str, c: &Child) {
        let p = pinned(workload).expect("figure workloads are pinned");
        let digest = c.result.get("digest").and_then(Value::as_str).unwrap_or("");
        let counts = [
            ("units planned", c.num("units_planned"), p.units_planned),
            ("unit-cache hits", c.num("cache_hits"), p.cache_hits),
            ("unsupported units", c.num("unsupported"), p.unsupported),
            ("panicked units", c.num("panics"), 0.0),
        ];
        let ok = digest == p.digest && counts.iter().all(|(_, got, want)| got == want);
        self.check(ok, || {
            format!(
                "{workload}: output digest {digest} (pinned {}), counts {:?}",
                p.digest, counts
            )
        });
    }

    fn keep_spans(&mut self, label: &str, c: &Child) {
        if let Some(s) = c.result.get("spans") {
            self.spans.push((label.to_string(), s.clone()));
        }
    }
}

fn run_batch(o: &Opts) -> Result<Report, String> {
    let mut r = Report::default();
    let w = o.workload.as_str();
    let mut setups = Vec::new();
    for _ in 0..SETUP_RUNS {
        setups.push(spawn(&args(&["setup", w]))?.setup_s);
    }
    let budget = Duration::from_secs(o.seconds);
    let start = Instant::now();
    let (mut walls, mut rss) = (Vec::new(), Vec::new());
    while walls.is_empty() || start.elapsed() < budget {
        let c = spawn(&args(&["figure", w]))?;
        r.check_figure(w, &c);
        setups.push(c.setup_s);
        walls.push(c.num("wall_s"));
        rss.push(c.num("rss_mb"));
    }
    r.metrics = vec![
        median_of("setup_s", "s", &setups),
        median_of("wall_s", "s", &walls),
        median_of("peak_rss_mb", "MB", &rss),
    ];
    Ok(r)
}

/// One served phase: its rate and its child's result.
struct Phase {
    rate: f64,
    child: Child,
}

/// Share of a rung's jobs allowed to miss the latency limit: the rung is
/// sustained while its p90, with shed jobs as misses, meets the limit.
const MISS_ALLOWED: f64 = 0.1;

impl Phase {
    /// Share of the phase's jobs that were shed or missed the limit.
    fn miss_frac(&self) -> f64 {
        let late = self
            .child
            .nums("lat_ms")
            .iter()
            .filter(|&&l| l > serve::P90_LIMIT_MS)
            .count() as f64;
        (late + self.child.num("shed")) / self.child.num("submitted")
    }
}

/// Runs the low and high rates, then, in a traced run, the higher rungs
/// of the ladder until one is not sustained.
fn run_phases(o: &Opts, r: &mut Report, traced: bool) -> Result<Vec<Phase>, String> {
    let mut phases: Vec<Phase> = Vec::new();
    for (k, &rate) in serve::LADDER.iter().enumerate() {
        let climbing = rate > serve::HIGH_RATE;
        if climbing && (!traced || phases.iter().any(|p| p.miss_frac() > MISS_ALLOWED)) {
            break;
        }
        let n = serve::phase_jobs(rate, o.seconds);
        let mut a = args(&["serve", "serve-open"]);
        a.extend([
            o.seed.to_string(),
            k.to_string(),
            rate.to_string(),
            n.to_string(),
        ]);
        if traced {
            a.push("--trace".into());
        }
        let child = spawn(&a)?;
        // Shedding is how a rung above the fixed rates fails, not an error.
        let shed = if rate <= serve::HIGH_RATE {
            child.num("shed")
        } else {
            0.0
        };
        let bad = child.num("errors") + child.num("wrong") + shed;
        r.attempted += child.num("submitted") as u64;
        r.failed += bad as u64;
        if bad > 0.0 {
            r.problems.push(format!(
                "serve-open at {rate} jobs/s: {} errors, {} wrong outputs, {shed} shed",
                child.num("errors"),
                child.num("wrong"),
            ));
        }
        r.keep_spans(&format!("serve@{rate}"), &child);
        phases.push(Phase { rate, child });
    }
    Ok(phases)
}

/// The rate at which the miss share crosses [`MISS_ALLOWED`], interpolated
/// linearly between the last sustained rung and the first that is not
/// (from zero load when even the first rung is not sustained); the top
/// rung's rate when every rung is sustained.
fn sustained_rate(phases: &[Phase]) -> f64 {
    let mut prev = (0.0, 0.0);
    for p in phases {
        let m = p.miss_frac();
        if m > MISS_ALLOWED {
            let (r0, m0) = prev;
            return r0 + (p.rate - r0) * (MISS_ALLOWED - m0) / (m - m0);
        }
        prev = (p.rate, m);
    }
    prev.0
}

fn phase_at(phases: &[Phase], rate: f64) -> &Child {
    &phases
        .iter()
        .find(|p| p.rate == rate)
        .expect("the fixed rates always run")
        .child
}

fn run_serve(o: &Opts) -> Result<Report, String> {
    let mut r = Report::default();
    let mut setups = Vec::new();
    for _ in 0..SETUP_RUNS {
        setups.push(spawn(&args(&["setup", "serve-open"]))?.setup_s);
    }
    let phases = run_phases(o, &mut r, false)?;
    setups.extend(phases.iter().map(|p| p.child.setup_s));
    let busy_s: f64 = [serve::LOW_RATE, serve::HIGH_RATE]
        .iter()
        .flat_map(|&rate| phase_at(&phases, rate).nums("exec_ms"))
        .sum::<f64>()
        / 1e3;
    let rss: Vec<f64> = phases.iter().map(|p| p.child.num("rss_mb")).collect();
    r.metrics = vec![
        median_of("setup_s", "s", &setups),
        scalar("wall_s", "s", busy_s),
        median_of("peak_rss_mb", "MB", &rss),
    ];
    Ok(r)
}

/// Per-layer metrics shared by every workload: the replays over the
/// workload's job set, in fresh processes. A batch replay must plan the
/// units the measured figure planned (`planned`); the service runs its
/// jobs through a runner of its own, so serve-open passes `None`.
fn replay_metrics(o: &Opts, r: &mut Report, planned: Option<f64>) -> Result<Child, String> {
    let rest = [
        o.workload.clone(),
        o.seed.to_string(),
        o.seconds.to_string(),
        "--trace".into(),
    ];
    let run = |mode: &str| {
        let mut a = vec![mode.to_string()];
        a.extend(rest.iter().cloned());
        spawn(&a)
    };
    let runall = run("runall")?;
    let layers = run("layers")?;
    let tiles = run("tiles")?;
    for (label, c) in [("runall", &runall), ("layers", &layers), ("tiles", &tiles)] {
        r.keep_spans(label, c);
    }
    if let Some(planned) = planned {
        r.check(runall.num("units_planned") == planned, || {
            format!(
                "{}: runner replay planned {} units, the workload {planned}",
                o.workload,
                runall.num("units_planned")
            )
        });
    }
    let m = &mut r.metrics;
    m.push(scalar(
        "runner.worker_idle_frac",
        "fraction",
        1.0 - layers.num("total_ms") / (runall.num("workers") * runall.num("wall_ms")),
    ));
    m.push(scalar("layer.calls", "count", layers.num("calls")));
    for a in LAYER_ARCHS {
        let ms = layers
            .result
            .get("ms")
            .and_then(|v| v.get(a))
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        m.push(scalar(&format!("layer.self_ms.{a}"), "ms", ms));
    }
    for (d, _) in replay::DISCIPLINES {
        m.push(scalar(
            &format!("timer.tiles.{d}"),
            "count",
            tiles.num("tiles"),
        ));
        m.push(scalar(
            &format!("timer.ns_per_tile.{d}"),
            "ns",
            tiles.num(&format!("timer.{d}")),
        ));
    }
    for k in ["optimize", "greedy", "multistep2", "lut"] {
        m.push(scalar(
            &format!("suds.ns_per_call.{k}"),
            "ns",
            tiles.num(&format!("suds.{k}")),
        ));
    }
    m.push(scalar("schedule.ns_per_call", "ns", tiles.num("schedule")));
    m.push(scalar(
        "sparse.canon_ns_per_tile",
        "ns",
        tiles.num("sparse.canon"),
    ));
    m.push(scalar(
        "sparse.mask_ns_per_tile",
        "ns",
        tiles.num("sparse.mask"),
    ));
    Ok(runall)
}

/// Runner and store counters of the measured processes.
fn counter_metrics(m: &mut Vec<Metric>, runs: &[&Child]) {
    let sum = |k: &str| runs.iter().map(|c| c.num(k)).sum::<f64>();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let (planned, hits) = (sum("units_planned"), sum("cache_hits"));
    let (lookups, store_hits) = (sum("store_lookups"), sum("store_hits"));
    m.extend([
        scalar("runner.units_planned", "count", planned),
        scalar("runner.unit_cache_hits", "count", hits),
        scalar(
            "runner.unit_cache_hit_ratio",
            "fraction",
            ratio(hits, planned),
        ),
        scalar("runner.unsupported", "count", sum("unsupported")),
        scalar("store.lookups", "count", lookups),
        scalar("store.hits", "count", store_hits),
        scalar("store.hit_ratio", "fraction", ratio(store_hits, lookups)),
        scalar("store.evictions", "count", sum("store_evictions")),
    ]);
}

fn run_batch_traced(o: &Opts) -> Result<Report, String> {
    let mut r = Report::default();
    let w = o.workload.as_str();
    let traced = spawn(&args(&["figure", w, "--trace"]))?;
    let untraced = spawn(&args(&["figure", w]))?;
    let driver = spawn(&args(&["driver", w, "--trace"]))?;
    r.check_figure(w, &traced);
    r.check_figure(w, &untraced);
    r.keep_spans("figure", &traced);
    r.keep_spans("driver", &driver);
    let runall = replay_metrics(o, &mut r, Some(traced.num("units_planned")))?;
    let m = &mut r.metrics;
    m.push(scalar(
        "cli.self_ms",
        "ms",
        traced.num("wall_s") * 1e3 - driver.num("wall_ms"),
    ));
    m.push(scalar(
        "driver.self_ms",
        "ms",
        driver.num("wall_ms") - runall.num("wall_ms"),
    ));
    counter_metrics(m, &[&traced]);
    service_metrics(m, None);
    m.push(scalar(
        "trace.overhead_frac",
        "fraction",
        traced.num("wall_s") / untraced.num("wall_s") - 1.0,
    ));
    Ok(r)
}

/// The sustained rate, served-job latency (each job timed from its due time
/// to its terminal status), and the service and journal layers, named as
/// in [`SERVICE_METRICS`]; zero on the batch workloads, which bypass them.
fn service_metrics(m: &mut Vec<Metric>, serve: Option<(&[Phase], &Child)>) {
    let values = serve.map_or([0.0; 17], |(phases, journal)| {
        let fixed = [serve::LOW_RATE, serve::HIGH_RATE].map(|rate| phase_at(phases, rate));
        let pooled =
            |cs: &[&Child], k: &str| -> Vec<f64> { cs.iter().flat_map(|c| c.nums(k)).collect() };
        let all: Vec<&Child> = phases.iter().map(|p| &p.child).collect();
        let submit = pooled(&all, "submit_us");
        let wait = pooled(&fixed, "queue_wait_ms");
        let exec = pooled(&fixed, "exec_ms");
        let records = journal.nums("record_us");
        let sum = |cs: &[&Child], k: &str| cs.iter().map(|c| c.num(k)).sum::<f64>();
        let q = stats::quantile;
        let (low, high) = (fixed[0].nums("lat_ms"), fixed[1].nums("lat_ms"));
        [
            sustained_rate(phases),
            q(&low, 0.5),
            q(&low, 0.9),
            q(&high, 0.5),
            q(&high, 0.9),
            q(&submit, 0.5),
            q(&submit, 0.9),
            q(&wait, 0.5),
            q(&wait, 0.9),
            q(&exec, 0.5),
            q(&exec, 0.9),
            sum(&all, "shed") / sum(&all, "submitted"),
            sum(&fixed, "unsupported_jobs"),
            all.iter()
                .map(|c| c.num("gen_lag_ms_max"))
                .fold(0.0, f64::max),
            q(&records, 0.5),
            q(&records, 0.9),
            records.len() as f64,
        ]
    });
    m.extend(
        SERVICE_METRICS
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| scalar(name, unit, v)),
    );
}

const SERVICE_METRICS: [(&str, &str); 17] = [
    ("sustained_jobs_per_s", "jobs/s"),
    ("job_p50_ms.low", "ms"),
    ("job_p90_ms.low", "ms"),
    ("job_p50_ms.high", "ms"),
    ("job_p90_ms.high", "ms"),
    ("service.submit_us.p50", "us"),
    ("service.submit_us.p90", "us"),
    ("service.queue_wait_ms.p50", "ms"),
    ("service.queue_wait_ms.p90", "ms"),
    ("service.exec_ms.p50", "ms"),
    ("service.exec_ms.p90", "ms"),
    ("service.shed_frac", "fraction"),
    ("service.unsupported", "count"),
    ("service.gen_lag_ms.max", "ms"),
    ("journal.record_us.p50", "us"),
    ("journal.record_us.p90", "us"),
    ("journal.records", "count"),
];

fn run_serve_traced(o: &Opts) -> Result<Report, String> {
    let mut r = Report::default();
    let phases = run_phases(o, &mut r, true)?;
    // An untraced low-rate phase on the same seed, for the overhead.
    let n = serve::phase_jobs(serve::LOW_RATE, o.seconds).to_string();
    let mut a = args(&["serve", "serve-open"]);
    a.extend([
        o.seed.to_string(),
        "0".into(),
        serve::LOW_RATE.to_string(),
        n,
    ]);
    let untraced = spawn(&a)?;
    let journal = spawn(&args(&[
        "journal",
        "serve-open",
        &o.seed.to_string(),
        &o.seconds.to_string(),
        "--trace",
    ]))?;
    r.keep_spans("journal", &journal);
    let low = phase_at(&phases, serve::LOW_RATE);
    let high = phase_at(&phases, serve::HIGH_RATE);
    replay_metrics(o, &mut r, None)?;
    let m = &mut r.metrics;
    m.push(scalar("cli.self_ms", "ms", 0.0));
    m.push(scalar("driver.self_ms", "ms", 0.0));
    counter_metrics(m, &[low, high]);
    service_metrics(m, Some((&phases, &journal)));
    // Worker busy time, as `wall_s` measures it, over the same low phase.
    let busy = |c: &Child| c.nums("exec_ms").iter().sum::<f64>();
    m.push(scalar(
        "trace.overhead_frac",
        "fraction",
        busy(low) / busy(&untraced) - 1.0,
    ));
    Ok(r)
}

/// Host facts runs are compared under.
fn provenance() -> Value {
    let cmd = |prog: &str, a: &[&str]| {
        Command::new(prog)
            .args(a)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or_else(
                || "unknown".to_string(),
                |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
            )
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    Value::Obj(vec![
        ("nproc".into(), Value::Num(nproc as f64)),
        ("cpu".into(), Value::Str(cpu)),
        ("rustc".into(), Value::Str(cmd("rustc", &["--version"]))),
        ("git".into(), Value::Str(cmd("git", &["rev-parse", "HEAD"]))),
    ])
}

fn render_table(o: &Opts, r: &Report) -> String {
    let mut s = format!(
        "perfbench {} seed {} trace {}\n{:<32} {:>8} {:>14} {:>14} {:>5}\n",
        o.workload,
        o.seed,
        u8::from(o.trace),
        "metric",
        "unit",
        "median",
        "tail",
        "n"
    );
    for m in &r.metrics {
        match m.sample {
            Some((med, tail, p, n)) => s.push_str(&format!(
                "{:<32} {:>8} {:>14.6} {:>10.6} p{p} {:>5}\n",
                m.name, m.unit, med, tail, n
            )),
            None => s.push_str(&format!("{:<32} {:>8} {:>14.6}\n", m.name, m.unit, m.value)),
        }
    }
    s.push_str(&format!("error_rate {}/{} failed\n", r.failed, r.attempted));
    for p in &r.problems {
        s.push_str(&format!("FAILED: {p}\n"));
    }
    s
}

fn write_spans(o: &Opts, r: &Report) -> Result<(), String> {
    let v = Value::Obj(
        r.spans
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect(),
    );
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    let path = format!("{OUT_DIR}/spans-{}-seed{}.json", o.workload, o.seed);
    std::fs::write(&path, v.to_json()).map_err(|e| format!("writing {path}: {e}"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("child") {
        return child::main(&argv[1..]);
    }
    let o = match parse_opts(&argv) {
        Ok(o) => o,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <fig11-paper|ablations-paper|serve-open> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let serve = o.workload == "serve-open";
    let result = match (serve, o.trace) {
        (false, false) => run_batch(&o),
        (false, true) => run_batch_traced(&o),
        (true, false) => run_serve(&o),
        (true, true) => run_serve_traced(&o),
    };
    let _ = std::fs::remove_dir(TMP_DIR);
    let r = match result.and_then(|r| {
        if o.trace {
            write_spans(&o, &r).map(|()| r)
        } else {
            Ok(r)
        }
    }) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprint!("{}", render_table(&o, &r));
    println!(
        "{}",
        Value::Obj(vec![("provenance".into(), provenance())]).to_json()
    );
    let correct = r.failed == 0;
    let metrics = r
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                Value::Obj(vec![
                    ("value".into(), Value::Num(m.value)),
                    ("unit".into(), Value::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    println!(
        "{}",
        Value::Obj(vec![
            ("correct".into(), Value::Bool(correct)),
            ("attempted".into(), Value::Num(r.attempted.max(1) as f64)),
            ("failed".into(), Value::Num(r.failed as f64)),
            ("metrics".into(), Value::Obj(metrics)),
        ])
        .to_json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
