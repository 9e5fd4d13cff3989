//! One measurement in a fresh process.
//!
//! Every figure repetition, service phase and replay runs in its own
//! child process, so each starts with cold process-wide memo tiers, as a
//! CLI user's run does, and reports its own peak resident set. A child
//! prints `ready` once its set-up is done, then one JSON result line.

use crate::{replay, serve, trace};
use eureka_obs::json::Value;
use eureka_obs::metrics::counter_value;
use eureka_sim::checkpoint::fnv1a64;
use eureka_sim::service::JobService;
use eureka_sim::{arch, runner, store, Journal, JournalState, SimConfig};
use std::hint::black_box;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

pub fn main(args: &[String]) -> ExitCode {
    match run(args) {
        Ok(v) => {
            println!("{}", v.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench child {}: {e}", args.join(" "));
            ExitCode::FAILURE
        }
    }
}

/// A scratch directory inside the working directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new() -> Result<Self, String> {
        let dir = Path::new(crate::TMP_DIR).join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What every workload builds before its first call: the model zoo, the
/// workload grid with its GEMMs, and the architecture registry.
fn setup() {
    let zoo: Vec<_> = eureka_models::Benchmark::all()
        .iter()
        .map(|b| b.layers())
        .collect();
    let gemms: usize = eureka_bench::workload_grid(32)
        .iter()
        .map(|w| w.gemms().len())
        .sum();
    let archs: Vec<_> = arch::registry_names()
        .into_iter()
        .map(|n| arch::by_name(n).expect("registry names resolve"))
        .collect();
    black_box((zoo, gemms, archs));
}

fn ready() {
    println!("ready");
    let _ = std::io::stdout().flush();
}

fn num(v: f64) -> Value {
    Value::Num(v)
}

fn counter(name: &str) -> f64 {
    counter_value(name).unwrap_or(0) as f64
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runner and store counters of this process.
fn counters() -> Vec<(String, Value)> {
    let (hits, _, _) = runner::cache_stats();
    let (_, sim_errors) = runner::failure_stats();
    let (lookups, store_hits, _, _) = store::store_stats();
    vec![
        ("units_planned".into(), num(counter("runner.units_planned"))),
        ("cache_hits".into(), num(hits as f64)),
        ("unsupported".into(), num(sim_errors as f64)),
        ("panics".into(), num(runner::failure_stats().0 as f64)),
        ("store_lookups".into(), num(lookups as f64)),
        ("store_hits".into(), num(store_hits as f64)),
        ("store_evictions".into(), num(counter("store.evictions"))),
        ("rss_mb".into(), num(peak_rss_mb())),
    ]
}

fn arg<'a>(args: &'a [String], i: usize, what: &str) -> Result<&'a str, String> {
    args.get(i)
        .map(String::as_str)
        .ok_or(format!("missing {what}"))
}

fn parse<T: std::str::FromStr>(args: &[String], i: usize, what: &str) -> Result<T, String> {
    arg(args, i, what)?
        .parse()
        .map_err(|_| format!("bad {what}"))
}

/// The job set a workload simulates; serve-open's is its low-rate phase.
fn job_set(workload: &str, seed: u64, seconds: u64) -> Result<replay::JobSet, String> {
    Ok(match workload {
        "fig11-paper" => replay::fig11(),
        "ablations-paper" => replay::ablations(),
        "serve-open" => {
            let mut specs: Vec<_> = Vec::new();
            for a in serve::plan(
                seed,
                0,
                serve::LOW_RATE,
                serve::phase_jobs(serve::LOW_RATE, seconds),
            ) {
                if !specs.contains(&a.spec) {
                    specs.push(a.spec);
                }
            }
            replay::served(&specs, SimConfig::fast())
        }
        other => return Err(format!("unknown workload '{other}'")),
    })
}

fn run(args: &[String]) -> Result<Value, String> {
    let mode = arg(args, 0, "mode")?;
    let workload = arg(args, 1, "workload")?;
    if args.iter().any(|a| a == "--trace") {
        trace::enable();
    }
    setup();
    let tmp = TempDir::new()?;
    let mut out: Vec<(String, Value)> = match mode {
        "setup" => {
            if workload == "serve-open" {
                let svc = JobService::start(serve::config(&tmp.0));
                ready();
                svc.shutdown();
            } else {
                ready();
            }
            Vec::new()
        }
        "figure" => {
            ready();
            let name = workload.trim_end_matches("-paper");
            let ledger = tmp.0.join("ledger");
            let ledger = ledger.to_str().ok_or("non-UTF-8 temp path")?;
            let cli_args = ["figure", name, "--ledger-dir", ledger, "--no-progress"];
            let start = Instant::now();
            let text = trace::span("cli", name, || -> Result<String, String> {
                let cmd = trace::span("cli.parse", name, || eureka_cli::parse(cli_args))?;
                trace::span("cli.run", name, || eureka_cli::run_with_code(&cmd))
                    .map_err(|e| e.message)
            })?;
            let wall = start.elapsed().as_secs_f64();
            let mut v = vec![
                ("wall_s".into(), num(wall)),
                (
                    "digest".into(),
                    Value::Str(format!("{:016x}", fnv1a64(text.as_bytes()))),
                ),
            ];
            v.extend(counters());
            v
        }
        "driver" => {
            ready();
            let cfg = SimConfig::paper_default();
            let start = Instant::now();
            let text = trace::span("driver", workload, || match workload {
                "fig11-paper" => eureka_bench::figure11(&cfg).render(),
                _ => {
                    use eureka_bench::ablations as a;
                    [
                        a::reach_sweep(&cfg),
                        a::window_sweep(&cfg),
                        a::compaction_sweep(&cfg),
                        a::sigma_sweep(&cfg),
                        a::two_sided_energy(&cfg),
                    ]
                    .iter()
                    .map(eureka_bench::FigTable::render)
                    .collect::<String>()
                }
            });
            black_box(text);
            vec![("wall_ms".into(), num(start.elapsed().as_secs_f64() * 1e3))]
        }
        "runall" | "layers" | "tiles" => {
            let set = job_set(
                workload,
                parse(args, 2, "seed")?,
                parse(args, 3, "seconds")?,
            )?;
            ready();
            let mut v = match mode {
                "runall" => replay::run_all(&set),
                "layers" => replay::layers(&set),
                _ => replay::tiles(&set),
            };
            v.extend(counters());
            v
        }
        "journal" => {
            let journal = Journal::new(tmp.0.join("journal"));
            let arrivals = serve::plan(
                parse(args, 2, "seed")?,
                0,
                serve::LOW_RATE,
                serve::phase_jobs(serve::LOW_RATE, parse(args, 3, "seconds")?),
            );
            ready();
            let mut us = Vec::new();
            for (i, a) in arrivals.iter().enumerate() {
                let spec = a.spec.canonical();
                for state in [JournalState::Accepted, JournalState::Completed] {
                    let start = Instant::now();
                    trace::span("journal.record", &format!("job{i}"), || {
                        journal.record(&spec, state)
                    })
                    .map_err(|e| format!("journal record: {e}"))?;
                    us.push(Value::Num(start.elapsed().as_secs_f64() * 1e6));
                }
            }
            vec![("record_us".into(), Value::Arr(us))]
        }
        "serve" => {
            let seed = parse(args, 2, "seed")?;
            let phase: u64 = parse(args, 3, "phase")?;
            let rate: f64 = parse(args, 4, "rate")?;
            let n: usize = parse(args, 5, "jobs")?;
            let svc = JobService::start(serve::config(&tmp.0));
            ready();
            let arrivals = serve::plan(seed, phase, rate, n);
            let mut v = serve::run_phase(&svc, &arrivals);
            svc.shutdown();
            v.extend(counters());
            v
        }
        other => return Err(format!("unknown mode '{other}'")),
    };
    let spans = trace::take();
    if !spans.is_empty() {
        out.push(("spans".into(), trace::to_json(&spans)));
    }
    Ok(Value::Obj(out))
}
