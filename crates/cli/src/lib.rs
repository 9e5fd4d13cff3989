//! Command parsing and execution for the `eureka` CLI.
//!
//! The binary in `src/main.rs` is a thin wrapper; everything here is
//! testable as a library:
//!
//! ```
//! use eureka_cli::{parse, Command};
//!
//! let cmd = parse(["simulate", "--benchmark", "resnet50", "--arch", "eureka-p4"])?;
//! assert!(matches!(cmd, Command::Simulate { .. }));
//! # Ok::<(), String>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use eureka_models::{Benchmark, PruningLevel, Workload};
use eureka_sim::{arch, engine, JobSpec, SimConfig};

pub mod serve;

/// A parsed CLI invocation.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Print usage.
    Help,
    /// List the architecture registry.
    Archs,
    /// Regenerate one of the paper's tables/figures.
    Figure {
        /// `table1`, `table2`, `fig09`, `fig11`, `fig12`, `fig13`,
        /// `fig14` or `ablations`.
        name: String,
        /// The flags every simulation run takes.
        run: RunOpts,
        /// CSV, telemetry exports and fault tolerance.
        batch: BatchOpts,
    },
    /// Compile one layer's (synthetic) pruned weights to the offline
    /// format and report compression/cycle statistics.
    Compile {
        /// Benchmark name.
        benchmark: Benchmark,
        /// Layer name (e.g. `conv4_2/3x3`, `enc0/q`).
        layer: String,
        /// Compaction factor.
        factor: usize,
    },
    /// Emit a Chrome-tracing JSON of one layer's systolic schedule.
    Trace {
        /// Benchmark name.
        benchmark: Benchmark,
        /// Layer name.
        layer: String,
    },
    /// Simulate one workload on one architecture.
    Simulate {
        /// What to simulate, on which architecture.
        workload: WorkloadArgs,
        /// The flags every simulation run takes.
        run: RunOpts,
        /// CSV, telemetry exports and fault tolerance.
        batch: BatchOpts,
        /// Keep going past failed layers: emit the surviving layers plus
        /// a structured failure report instead of aborting.
        keep_going: bool,
        /// With `keep_going`, fail anyway once more than this many layers
        /// failed.
        max_failures: Option<u64>,
    },
    /// Profile one workload on one architecture: cycle attribution
    /// (stall taxonomy, per-row heatmap, worst tiles, SUDS displacement)
    /// plus optional machine-readable exports.
    Profile {
        /// What to profile, on which architecture.
        workload: WorkloadArgs,
        /// The flags every simulation run takes.
        run: RunOpts,
        /// Write the profile JSON here (`-` = stdout).
        json_out: Option<String>,
        /// Write the per-row utilization heatmap CSV here (`-` = stdout).
        heatmap_out: Option<String>,
        /// Write the Chrome-trace occupancy tracks here (`-` = stdout).
        trace_out: Option<String>,
        /// Write the versioned BENCH snapshot JSON here (`-` = stdout).
        bench_json: Option<String>,
        /// How many worst tiles to keep per layer.
        top_tiles: usize,
    },
    /// List the recorded run-ledger trajectory.
    BenchList {
        /// Ledger directory (default `results/ledger`).
        ledger_dir: Option<String>,
    },
    /// Compare two snapshots (`eureka-bench-v1` or `eureka-ledger-v1`)
    /// field-by-field under a regression threshold; the run errors (exit
    /// non-zero) when any gated field regressed — the CI perf gate.
    BenchDiff {
        /// Baseline snapshot path.
        baseline: String,
        /// Candidate snapshot path.
        candidate: String,
        /// Regression threshold in percent.
        max_regress: f64,
    },
    /// Run the differential verification suite (dense-GEMM oracle,
    /// brute-force SUDS checker, metamorphic invariants) over seeded
    /// random cases.
    Verify {
        /// Seeded cases per architecture.
        cases: u32,
        /// Master seed for the case stream.
        seed: u64,
        /// Restrict to one registry architecture (`None` = all).
        arch: Option<String>,
        /// Persist shrunk failing cases under this directory.
        corpus_dir: Option<String>,
        /// Replay this corpus directory instead of fuzzing.
        replay: Option<String>,
        /// Run the seeded fault-injection matrix (panic, error, stall ×
        /// serial, parallel) instead of fuzzing.
        fault_matrix: bool,
        /// Run the service chaos harness (panics, stalls crossing
        /// deadlines, mid-job crash + journal replay, shard corruption,
        /// overload shedding) instead of fuzzing.
        chaos: bool,
    },
    /// Run the resident job service on a Unix socket (JSON-lines
    /// protocol: submit/status/cancel/drain/health/shutdown).
    Serve(serve::ServeOpts),
    /// Submit one job to a running service and print the response.
    Submit {
        /// Unix socket path of the service.
        socket: String,
        /// The job to submit.
        spec: JobSpec,
        /// Poll until the job reaches a terminal state.
        wait: bool,
    },
    /// Ask a running service to drain: finish in-flight work, admit
    /// nothing new.
    Drain {
        /// Unix socket path of the service.
        socket: String,
        /// Also shut the service down after the drain.
        shutdown: bool,
    },
    /// Print a running service's live counters and per-outcome-class
    /// latency quantiles (p50/p90/p99).
    Stats {
        /// Unix socket path of the service.
        socket: String,
        /// Print the raw JSON response line instead of the table.
        json: bool,
    },
}

/// The flags every simulation run takes (`figure`, `simulate`,
/// `profile`). Parsed by one function and applied by one scope, so the
/// three commands cannot drift apart.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunOpts {
    /// Use reduced sampling.
    pub fast: bool,
    /// Simulation worker threads (`None` = all cores).
    pub jobs: Option<usize>,
    /// Diagnostic verbosity (0, 1 = `-v`, 2 = `-vv`).
    pub verbose: u8,
    /// Stream the run-event JSONL here (`-` = stdout).
    pub events_out: Option<String>,
    /// Progress-line policy (`None` = auto: on iff stderr is a tty).
    pub progress: Option<bool>,
    /// Where the run-ledger record goes.
    pub ledger: LedgerOpts,
}

/// The flags `figure` and `simulate` take on top of [`RunOpts`]: CSV
/// output, telemetry exports and fault tolerance.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BatchOpts {
    /// Emit CSV instead of the text report.
    pub csv: bool,
    /// Write a Chrome-trace JSON of the run here.
    pub trace_out: Option<String>,
    /// Write a metrics-registry JSON snapshot here.
    pub metrics_out: Option<String>,
    /// Extra attempts per failed work unit (0 = fail immediately).
    pub retries: u32,
    /// Persist completed unit results under this directory.
    pub checkpoint_dir: Option<String>,
    /// Replay completed units from `checkpoint_dir` before executing.
    pub resume: bool,
}

/// `--ledger-dir <dir>` / `--no-ledger`, shared by the simulation runs
/// and `serve`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LedgerOpts {
    /// Append the run-ledger record under this directory.
    pub dir: Option<String>,
    /// Skip the run-ledger append entirely.
    pub skip: bool,
}

/// The workload a `simulate` or `profile` run targets.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadArgs {
    /// Benchmark name.
    pub benchmark: Benchmark,
    /// Pruning level.
    pub pruning: PruningLevel,
    /// Architecture registry name.
    pub arch: String,
    /// Batch size.
    pub batch: usize,
}

/// Usage text.
pub const USAGE: &str = "\
eureka — reproduction of the Eureka sparse tensor core (MICRO 2023)

USAGE:
  eureka help
  eureka archs
  eureka figure <table1|table2|fig09|fig11|fig12|fig13|fig14|ablations>
                  [--csv] [--fast] [--jobs <N>]
                  [--retries <N>] [--checkpoint-dir <dir>] [--resume]
                  [--events-out <file|->] [--progress|--no-progress]
                  [--ledger-dir <dir>|--no-ledger]
                  [--trace-out <file>] [--metrics-out <file>] [-v|-vv]
  eureka simulate --benchmark <mobilenetv1|inceptionv3|resnet50|bert>
                  [--pruning <dense|cons|mod>] [--arch <name>]
                  [--batch <N>] [--csv] [--fast] [--jobs <N>]
                  [--keep-going] [--max-failures <N>] [--retries <N>]
                  [--checkpoint-dir <dir>] [--resume]
                  [--events-out <file|->] [--progress|--no-progress]
                  [--ledger-dir <dir>|--no-ledger]
                  [--trace-out <file>] [--metrics-out <file>] [-v|-vv]
  eureka profile  --benchmark <name> [--pruning <level>] [--arch <name>]
                  [--batch <N>] [--fast] [--jobs <N>] [--top-tiles <N>]
                  [--events-out <file|->] [--progress|--no-progress]
                  [--ledger-dir <dir>|--no-ledger]
                  [--json <file|->] [--heatmap <file|->]
                  [--trace-out <file|->] [--bench-json <file|->] [-v|-vv]
  eureka bench    list [--ledger-dir <dir>]
  eureka bench    diff <baseline.json> <candidate.json> [--max-regress <pct>]
  eureka compile  --benchmark <name> --layer <layer-name> [--factor <P>]
  eureka trace    --benchmark <name> --layer <layer-name>   (Chrome-trace JSON)
  eureka verify   [--cases <N>] [--seed <S>] [--arch <name>]
                  [--corpus-dir <dir>] [--replay <dir>] [--fault-matrix]
                  [--chaos]
  eureka serve    [--socket <path>] [--journal-dir <dir>]
                  [--checkpoint-dir <dir>]
                  [--capacity <N>] [--deadline-ms <N>] [--jobs <N>] [--fast]
                  [--metrics-out <file>] [--flightrec-dir <dir>]
                  [--sla-budget-us <N>] [--ledger-dir <dir>|--no-ledger]
  eureka submit   --benchmark <name> [--pruning <level>] [--arch <name>]
                  [--batch <N>] [--deadline-ms <N>] [--retries <N>]
                  [--socket <path>] [--wait]
  eureka drain    [--socket <path>] [--shutdown]
  eureka stats    [--socket <path>] [--json]

FAULT TOLERANCE:
  --keep-going          don't abort on a failed layer: print the surviving
                        layers plus a structured failure report naming every
                        (job, layer, kind, seed) site (CSV mode keeps stdout
                        machine-readable; the report goes to stderr)
  --max-failures <N>    with --keep-going, still fail once more than N
                        layers failed
  --retries <N>         re-execute a failed unit up to N extra times
                        (deterministic; unsupported combinations are never
                        retried)
  --checkpoint-dir <dir> persist each completed unit result, keyed by its
                        content hash, for crash recovery
  --resume              replay completed units from --checkpoint-dir
                        bit-identically instead of recomputing them

TELEMETRY:
  --trace-out <file>    Chrome Trace Event JSON of the run (one track per
                        worker thread; open in chrome://tracing or Perfetto)
  --metrics-out <file>  JSON snapshot of the metrics registry (unit/cache/
                        store/failure/checkpoint counters, exec-time
                        histograms)
  -v / -vv              telemetry summary / per-layer breakdown on stderr

OBSERVABILITY:
  --events-out <file|-> stream the run-event JSONL (schema eureka-events-v1)
                        to a file or stdout ('-' suppresses the human report
                        to keep stdout machine-readable). Each line splits
                        deterministic fields (`det`: byte-identical across
                        reruns and --jobs settings) from wall-clock fields
                        (`wall`: seq, t_us, jobs). Compare streams by their
                        deterministic projection (sorted event + det)
  --progress            force the throttled stderr progress line on
  --no-progress         force it off (default: on only when stderr is a
                        terminal; the line never touches stdout, reports,
                        or the metrics registry)
  --ledger-dir <dir>    append a one-line run summary (schema
                        eureka-ledger-v1: config key, git revision, metrics
                        digest, cycles, wall time, event count) here; when
                        omitted, defaults to results/ledger iff that
                        directory exists
  --no-ledger           skip the ledger append
  bench list            print the recorded ledger trajectory
  bench diff <a> <b>    field-by-field snapshot comparison (BENCH or ledger
                        records): cycle counts gate lower-is-better,
                        speedups higher-is-better, wall-clock fields are
                        informational only; exits non-zero when any gated
                        field moves beyond --max-regress percent (default 2)

PROFILING (`eureka profile`):
  prints a ranked bottleneck report (stall taxonomy: compute / memory /
  pipeline-bubble / tail-drain; MAC utilization; heaviest layers with their
  worst tiles). The report is bit-identical to an unprofiled simulation.
  --json <file|->       byte-stable profile JSON (schema eureka-profile-v1)
  --heatmap <file|->    per-(layer,row) utilization heatmap CSV
  --trace-out <file|->  Chrome-trace occupancy tracks (one per systolic row)
  --bench-json <file|-> versioned BENCH snapshot (schema eureka-bench-v1):
                        cycles, MAC utilization and speedup-vs-dense for the
                        standard arch matrix plus the requested arch
  --top-tiles <N>       worst tiles kept per layer (default 5)
  at most one export may write to stdout ('-'); with a stdout export the
  human report is suppressed to keep stdout machine-readable

JOB SERVICE (`eureka serve`):
  a resident service on a Unix socket speaking a JSON-lines protocol
  (submit/status/cancel/drain/health/shutdown). Admission is bounded:
  beyond --capacity queued jobs, submissions shed with a typed
  'overloaded' rejection. Every accepted job is journaled write-ahead
  (schema eureka-journal v1) before it can run, so a SIGKILL'd server
  replays accepted-but-unfinished jobs on restart — with
  --checkpoint-dir, without recomputing units the previous life
  completed. SIGTERM/SIGINT drain gracefully: in-flight work finishes,
  new work sheds, then the process exits. Failed units retry under
  seeded exponential backoff with jitter (deterministic per unit).
  --deadline-ms sets the default per-job deadline, enforced by
  cooperative cancellation at unit boundaries.
  submit --wait        poll until the job is terminal; exits non-zero
                       unless the job completed
  drain [--shutdown]   finish in-flight work and stop admitting; with
                       --shutdown the server process exits afterwards
  stats [--json]       live counters plus per-outcome-class latency
                       quantiles (queue-wait / exec / end-to-end p50,
                       p90, p99) over the `stats` wire verb
  --metrics-out <file> rewrite a Prometheus text exposition after every
                       connection and on exit (tmp + rename, so
                       scrapers never read a torn file); the `metrics`
                       wire verb returns the same text over the socket
  --flightrec-dir <dir> where the always-armed flight recorder (a
                       fixed-capacity in-memory ring of the service's
                       last 512 events, schema eureka-events-v1) dumps its
                       contents: after every connection, on SIGTERM
                       drain, on panic, and on the `dump` wire verb —
                       a SIGKILL'd daemon leaves a replayable
                       flightrec-<pid>.jsonl behind (default: results)
  --sla-budget-us <N>  print an exit SLA summary (completed-job p99
                       end-to-end latency vs the budget, jobs/sec,
                       shed rate, saturation flag) and append it to
                       the run ledger so `bench diff` gates
                       service-latency regressions
  verify --chaos       seeded service-layer fault schedules (worker
                       panics, stalls crossing deadlines, mid-job crash
                       + journal replay, journal/checkpoint corruption,
                       overload): the service must recover to a
                       consistent ledger with surviving results
                       bit-identical to a fault-free run

Run `eureka archs` for the architecture registry.";

fn parse_benchmark(s: &str) -> Result<Benchmark, String> {
    match s.to_ascii_lowercase().as_str() {
        "mobilenetv1" | "mobilenet" => Ok(Benchmark::MobileNetV1),
        "inceptionv3" | "inception" => Ok(Benchmark::InceptionV3),
        "resnet50" | "resnet" => Ok(Benchmark::ResNet50),
        "bert" | "bert-squad" | "bertsquad" => Ok(Benchmark::BertSquad),
        other => Err(format!("unknown benchmark '{other}'")),
    }
}

fn parse_pruning(s: &str) -> Result<PruningLevel, String> {
    match s.to_ascii_lowercase().as_str() {
        "dense" => Ok(PruningLevel::Dense),
        "cons" | "conservative" => Ok(PruningLevel::Conservative),
        "mod" | "moderate" => Ok(PruningLevel::Moderate),
        other => Err(format!("unknown pruning level '{other}'")),
    }
}

/// Cursor over one subcommand's arguments.
struct Args<'a> {
    cmd: &'static str,
    rest: std::slice::Iter<'a, String>,
}

impl<'a> Args<'a> {
    fn new(cmd: &'static str, rest: &'a [String]) -> Self {
        let rest = rest.iter();
        Args { cmd, rest }
    }

    fn next(&mut self) -> Option<&'a str> {
        self.rest.next().map(String::as_str)
    }

    /// The argument following `flag`.
    fn value(&mut self, flag: &str) -> Result<String, String> {
        self.rest
            .next()
            .cloned()
            .ok_or_else(|| format!("{flag} requires a value"))
    }

    /// The argument following `flag`, parsed as a number.
    fn parse<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        self.value(flag)?
            .parse()
            .map_err(|e| format!("bad {flag}: {e}"))
    }

    /// The value of `--jobs`, which must be positive.
    fn jobs(&mut self) -> Result<usize, String> {
        match self.parse("--jobs")? {
            0 => Err("--jobs must be positive".into()),
            n => Ok(n),
        }
    }

    fn unknown(&self, flag: &str) -> String {
        format!("unknown flag '{flag}' for {}", self.cmd)
    }
}

impl RunOpts {
    /// Consumes `flag` (and its value) if it is one of these flags.
    fn accept(&mut self, flag: &str, args: &mut Args) -> Result<bool, String> {
        match flag {
            "--fast" => self.fast = true,
            "--jobs" => self.jobs = Some(args.jobs()?),
            "-v" | "--verbose" => self.verbose = self.verbose.saturating_add(1),
            "-vv" => self.verbose = self.verbose.saturating_add(2),
            "--events-out" => self.events_out = Some(args.value(flag)?),
            "--progress" => self.progress = Some(true),
            "--no-progress" => self.progress = Some(false),
            _ => return self.ledger.accept(flag, args),
        }
        Ok(true)
    }

    fn sim_config(&self) -> SimConfig {
        if self.fast {
            SimConfig::fast()
        } else {
            SimConfig::paper_default()
        }
    }

    fn sampling(&self) -> &'static str {
        if self.fast {
            "fast"
        } else {
            "paper"
        }
    }

    fn events_to_stdout(&self) -> bool {
        self.events_out.as_deref() == Some("-")
    }
}

impl BatchOpts {
    /// Consumes `flag` (and its value) if it is one of these flags.
    fn accept(&mut self, flag: &str, args: &mut Args) -> Result<bool, String> {
        match flag {
            "--csv" => self.csv = true,
            "--trace-out" => self.trace_out = Some(args.value(flag)?),
            "--metrics-out" => self.metrics_out = Some(args.value(flag)?),
            "--retries" => self.retries = args.parse(flag)?,
            "--checkpoint-dir" => self.checkpoint_dir = Some(args.value(flag)?),
            "--resume" => self.resume = true,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Checks these flags together with the shared `run` flags.
    fn check(&self, run: &RunOpts) -> Result<(), String> {
        if self.resume && self.checkpoint_dir.is_none() {
            return Err("--resume requires --checkpoint-dir".into());
        }
        run.ledger.check()?;
        if self.csv && run.events_to_stdout() {
            return Err("--events-out - conflicts with --csv (both claim stdout)".into());
        }
        Ok(())
    }
}

impl LedgerOpts {
    /// Consumes `flag` (and its value) if it is one of these flags.
    fn accept(&mut self, flag: &str, args: &mut Args) -> Result<bool, String> {
        match flag {
            "--ledger-dir" => self.dir = Some(args.value(flag)?),
            "--no-ledger" => self.skip = true,
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn check(&self) -> Result<(), String> {
        if self.skip && self.dir.is_some() {
            return Err("--no-ledger conflicts with --ledger-dir".into());
        }
        Ok(())
    }

    /// Appends `record`. An explicit `--ledger-dir` always wins,
    /// `--no-ledger` always disables, and the `results/ledger` default
    /// applies only when that directory already exists — so library
    /// tests and checkouts without the results tree never grow one as a
    /// side effect.
    fn append(&self, record: &eureka_sim::LedgerRecord) -> Result<(), String> {
        let default = std::path::Path::new("results/ledger");
        let dir = match &self.dir {
            _ if self.skip => return Ok(()),
            Some(dir) => std::path::Path::new(dir),
            None if default.is_dir() => default,
            None => return Ok(()),
        };
        let path = eureka_sim::ledger::append(dir, record)?;
        eureka_obs::info!("ledger: appended {}", path.display());
        Ok(())
    }
}

/// `--benchmark`/`--pruning`/`--arch`/`--batch` as given, before the
/// required `--benchmark` is checked.
struct WorkloadFlags {
    benchmark: Option<Benchmark>,
    pruning: PruningLevel,
    arch: String,
    batch: usize,
}

impl Default for WorkloadFlags {
    fn default() -> Self {
        WorkloadFlags {
            benchmark: None,
            pruning: PruningLevel::Moderate,
            arch: "eureka-p4".into(),
            batch: 32,
        }
    }
}

impl WorkloadFlags {
    /// Consumes `flag` (and its value) if it is one of these flags.
    fn accept(&mut self, flag: &str, args: &mut Args) -> Result<bool, String> {
        match flag {
            "--benchmark" => self.benchmark = Some(parse_benchmark(&args.value(flag)?)?),
            "--pruning" => self.pruning = parse_pruning(&args.value(flag)?)?,
            "--arch" => self.arch = args.value(flag)?,
            "--batch" => self.batch = args.parse(flag)?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Requires `--benchmark`; nothing else is checked.
    fn finish(self, cmd: &str) -> Result<WorkloadArgs, String> {
        Ok(WorkloadArgs {
            benchmark: self
                .benchmark
                .ok_or_else(|| format!("{cmd} requires --benchmark"))?,
            pruning: self.pruning,
            arch: self.arch,
            batch: self.batch,
        })
    }

    /// [`WorkloadFlags::finish`], plus a known architecture and a
    /// positive batch.
    fn check(self, cmd: &str) -> Result<WorkloadArgs, String> {
        let w = self.finish(cmd)?;
        if arch::by_name(&w.arch).is_none() {
            return Err(format!(
                "unknown architecture '{}'; run `eureka archs`",
                w.arch
            ));
        }
        if w.batch == 0 {
            return Err("--batch must be positive".into());
        }
        Ok(w)
    }
}

impl WorkloadArgs {
    fn workload(&self) -> Workload {
        Workload::new(self.benchmark, self.pruning, self.batch)
    }

    /// Canonical ledger label for this workload.
    fn label(&self, run: &RunOpts) -> String {
        format!(
            "{}|{}|batch{}|{}|arch={}",
            self.benchmark.name(),
            self.pruning.label(),
            self.batch,
            run.sampling(),
            self.arch,
        )
    }
}

/// Parses an argument list (without the program name).
///
/// # Errors
///
/// Returns a human-readable message for unknown commands, flags, or
/// malformed values.
pub fn parse<I, S>(args: I) -> Result<Command, String>
where
    I: IntoIterator<Item = S>,
    S: Into<String>,
{
    let argv: Vec<String> = args.into_iter().map(Into::into).collect();
    let Some(cmd) = argv.first() else {
        return Ok(Command::Help);
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "archs" => Ok(Command::Archs),
        "figure" => {
            let name = argv
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .ok_or("figure requires a name, e.g. `eureka figure fig11`")?
                .clone();
            let known = [
                "table1",
                "table2",
                "fig09",
                "fig11",
                "fig12",
                "fig13",
                "fig14",
                "ablations",
            ];
            if !known.contains(&name.as_str()) {
                return Err(format!(
                    "unknown figure '{name}' (expected one of {known:?})"
                ));
            }
            let mut args = Args::new("figure", &argv[2..]);
            let (mut run, mut batch) = (RunOpts::default(), BatchOpts::default());
            while let Some(flag) = args.next() {
                if !(run.accept(flag, &mut args)? || batch.accept(flag, &mut args)?) {
                    return Err(args.unknown(flag));
                }
            }
            batch.check(&run)?;
            Ok(Command::Figure { name, run, batch })
        }
        "compile" => {
            let mut args = Args::new("compile", &argv[1..]);
            let (mut benchmark, mut layer, mut factor) = (None, None, 4usize);
            while let Some(flag) = args.next() {
                match flag {
                    "--benchmark" => benchmark = Some(parse_benchmark(&args.value(flag)?)?),
                    "--layer" => layer = Some(args.value(flag)?),
                    "--factor" => factor = args.parse(flag)?,
                    _ => return Err(args.unknown(flag)),
                }
            }
            if !(1..=16).contains(&factor) {
                return Err("--factor must be in 1..=16".into());
            }
            Ok(Command::Compile {
                benchmark: benchmark.ok_or("compile requires --benchmark")?,
                layer: layer.ok_or("compile requires --layer")?,
                factor,
            })
        }
        "trace" => {
            let mut args = Args::new("trace", &argv[1..]);
            let (mut benchmark, mut layer) = (None, None);
            while let Some(flag) = args.next() {
                match flag {
                    "--benchmark" => benchmark = Some(parse_benchmark(&args.value(flag)?)?),
                    "--layer" => layer = Some(args.value(flag)?),
                    _ => return Err(args.unknown(flag)),
                }
            }
            Ok(Command::Trace {
                benchmark: benchmark.ok_or("trace requires --benchmark")?,
                layer: layer.ok_or("trace requires --layer")?,
            })
        }
        "simulate" => {
            let mut args = Args::new("simulate", &argv[1..]);
            let mut workload = WorkloadFlags::default();
            let (mut run, mut batch) = (RunOpts::default(), BatchOpts::default());
            let (mut keep_going, mut max_failures) = (false, None);
            while let Some(flag) = args.next() {
                if workload.accept(flag, &mut args)?
                    || run.accept(flag, &mut args)?
                    || batch.accept(flag, &mut args)?
                {
                    continue;
                }
                match flag {
                    "--keep-going" => keep_going = true,
                    "--max-failures" => max_failures = Some(args.parse(flag)?),
                    _ => return Err(args.unknown(flag)),
                }
            }
            let workload = workload.check("simulate")?;
            if max_failures.is_some() && !keep_going {
                return Err("--max-failures requires --keep-going".into());
            }
            batch.check(&run)?;
            Ok(Command::Simulate {
                workload,
                run,
                batch,
                keep_going,
                max_failures,
            })
        }
        "profile" => {
            let mut args = Args::new("profile", &argv[1..]);
            let (mut workload, mut run) = (WorkloadFlags::default(), RunOpts::default());
            let (mut json_out, mut heatmap_out, mut trace_out, mut bench_json) =
                (None, None, None, None);
            let mut top_tiles = 5usize;
            while let Some(flag) = args.next() {
                if workload.accept(flag, &mut args)? || run.accept(flag, &mut args)? {
                    continue;
                }
                match flag {
                    "--json" => json_out = Some(args.value(flag)?),
                    "--heatmap" => heatmap_out = Some(args.value(flag)?),
                    "--trace-out" => trace_out = Some(args.value(flag)?),
                    "--bench-json" => bench_json = Some(args.value(flag)?),
                    "--top-tiles" => top_tiles = args.parse(flag)?,
                    _ => return Err(args.unknown(flag)),
                }
            }
            let workload = workload.check("profile")?;
            let stdout_exports = [
                &json_out,
                &heatmap_out,
                &trace_out,
                &bench_json,
                &run.events_out,
            ]
            .iter()
            .filter(|o| o.as_deref() == Some("-"))
            .count();
            if stdout_exports > 1 {
                return Err("at most one profile export may write to stdout ('-')".into());
            }
            run.ledger.check()?;
            Ok(Command::Profile {
                workload,
                run,
                json_out,
                heatmap_out,
                trace_out,
                bench_json,
                top_tiles,
            })
        }
        "bench" => match argv.get(1).map(String::as_str) {
            Some("list") => {
                let mut args = Args::new("bench list", &argv[2..]);
                let mut ledger_dir = None;
                while let Some(flag) = args.next() {
                    match flag {
                        "--ledger-dir" => ledger_dir = Some(args.value(flag)?),
                        _ => return Err(args.unknown(flag)),
                    }
                }
                Ok(Command::BenchList { ledger_dir })
            }
            Some("diff") => {
                let mut args = Args::new("bench diff", &argv[2..]);
                let mut paths = Vec::new();
                let mut max_regress = 2.0f64;
                while let Some(flag) = args.next() {
                    match flag {
                        "--max-regress" => {
                            max_regress = args.parse(flag)?;
                            if !max_regress.is_finite() || max_regress < 0.0 {
                                return Err("--max-regress must be a non-negative percent".into());
                            }
                        }
                        flag if flag.starts_with("--") => return Err(args.unknown(flag)),
                        path => paths.push(path.to_string()),
                    }
                }
                let [baseline, candidate] = <[String; 2]>::try_from(paths).map_err(|_| {
                    "bench diff requires exactly two snapshot paths: \
                     `eureka bench diff <baseline.json> <candidate.json>`"
                        .to_string()
                })?;
                Ok(Command::BenchDiff {
                    baseline,
                    candidate,
                    max_regress,
                })
            }
            _ => Err("bench requires a subcommand: `list` or `diff <a> <b>`".into()),
        },
        "verify" => {
            let mut args = Args::new("verify", &argv[1..]);
            let (mut cases, mut seed) = (200u32, 42u64);
            let (mut arch_name, mut corpus_dir, mut replay) = (None, None, None);
            let (mut fault_matrix, mut chaos) = (false, false);
            while let Some(flag) = args.next() {
                match flag {
                    "--cases" => cases = args.parse(flag)?,
                    "--seed" => seed = args.parse(flag)?,
                    "--arch" => arch_name = Some(args.value(flag)?),
                    "--corpus-dir" => corpus_dir = Some(args.value(flag)?),
                    "--replay" => replay = Some(args.value(flag)?),
                    "--fault-matrix" => fault_matrix = true,
                    "--chaos" => chaos = true,
                    _ => return Err(args.unknown(flag)),
                }
            }
            if cases == 0 && replay.is_none() && !fault_matrix {
                return Err("--cases must be positive".into());
            }
            if let Some(name) = &arch_name {
                if arch::by_name(name).is_none() {
                    return Err(format!("unknown architecture '{name}'; run `eureka archs`"));
                }
            }
            Ok(Command::Verify {
                cases,
                seed,
                arch: arch_name,
                corpus_dir,
                replay,
                fault_matrix,
                chaos,
            })
        }
        "serve" => {
            let mut args = Args::new("serve", &argv[1..]);
            let mut opts = serve::ServeOpts {
                socket: "eureka.sock".into(),
                journal_dir: "eureka-journal".into(),
                checkpoint_dir: None,
                capacity: 8,
                deadline_ms: 0,
                jobs: 1,
                fast: false,
                metrics_out: None,
                sla_budget_us: None,
                flightrec_dir: "results".into(),
                ledger: LedgerOpts::default(),
            };
            while let Some(flag) = args.next() {
                if opts.ledger.accept(flag, &mut args)? {
                    continue;
                }
                match flag {
                    "--socket" => opts.socket = args.value(flag)?,
                    "--journal-dir" => opts.journal_dir = args.value(flag)?,
                    "--checkpoint-dir" => opts.checkpoint_dir = Some(args.value(flag)?),
                    "--capacity" => {
                        opts.capacity = args.parse(flag)?;
                        if opts.capacity == 0 {
                            return Err("--capacity must be positive".into());
                        }
                    }
                    "--deadline-ms" => opts.deadline_ms = args.parse(flag)?,
                    "--jobs" => opts.jobs = args.jobs()?,
                    "--fast" => opts.fast = true,
                    "--metrics-out" => opts.metrics_out = Some(args.value(flag)?),
                    "--sla-budget-us" => match args.parse(flag)? {
                        0 => return Err("--sla-budget-us must be positive".into()),
                        budget => opts.sla_budget_us = Some(budget),
                    },
                    "--flightrec-dir" => opts.flightrec_dir = args.value(flag)?,
                    _ => return Err(args.unknown(flag)),
                }
            }
            opts.ledger.check()?;
            Ok(Command::Serve(opts))
        }
        "submit" => {
            let mut args = Args::new("submit", &argv[1..]);
            let mut workload = WorkloadFlags::default();
            let (mut socket, mut deadline_ms, mut retries) = ("eureka.sock".to_string(), 0, 0);
            let mut wait = false;
            while let Some(flag) = args.next() {
                if workload.accept(flag, &mut args)? {
                    continue;
                }
                match flag {
                    "--socket" => socket = args.value(flag)?,
                    "--deadline-ms" => deadline_ms = args.parse(flag)?,
                    "--retries" => retries = args.parse(flag)?,
                    "--wait" => wait = true,
                    _ => return Err(args.unknown(flag)),
                }
            }
            // The service validates the architecture and batch itself.
            let w = workload.finish("submit")?;
            let spec = JobSpec {
                benchmark: w.benchmark,
                pruning: w.pruning,
                batch: w.batch,
                arch: w.arch,
                deadline_ms,
                retries,
            };
            Ok(Command::Submit { socket, spec, wait })
        }
        "drain" => {
            let mut args = Args::new("drain", &argv[1..]);
            let (mut socket, mut shutdown) = ("eureka.sock".to_string(), false);
            while let Some(flag) = args.next() {
                match flag {
                    "--socket" => socket = args.value(flag)?,
                    "--shutdown" => shutdown = true,
                    _ => return Err(args.unknown(flag)),
                }
            }
            Ok(Command::Drain { socket, shutdown })
        }
        "stats" => {
            let mut args = Args::new("stats", &argv[1..]);
            let (mut socket, mut json) = ("eureka.sock".to_string(), false);
            while let Some(flag) = args.next() {
                match flag {
                    "--socket" => socket = args.value(flag)?,
                    "--json" => json = true,
                    _ => return Err(args.unknown(flag)),
                }
            }
            Ok(Command::Stats { socket, json })
        }
        other => Err(format!("unknown command '{other}'; try `eureka help`")),
    }
}

/// Applies a simulation run's shared flags for the length of one
/// command. Entering takes effect in a fixed order: the runner globals,
/// the event bus and progress policy, the log verbosity, and — for the
/// batch runs — the metrics reset and span arming. [`RunScope::finish`]
/// writes the batch exports and then appends the ledger record.
/// Dropping the scope, after `finish` or on any early error, detaches
/// the event bus and then restores the runner globals the flags set, so
/// no command's flags leak into library callers or tests in the same
/// process. The emitted-event count survives the drop (until the next
/// run arms the bus).
struct RunScope<'a> {
    run: &'a RunOpts,
    batch: Option<&'a BatchOpts>,
    started: std::time::Instant,
    /// `--jobs` set the process-wide worker count.
    set_jobs: bool,
    /// Retry or checkpoint flags set their process-wide defaults.
    set_runner: bool,
}

impl<'a> RunScope<'a> {
    /// `batch` is `None` for `profile`, which takes no batch flags: it
    /// runs without retries or checkpoints and leaves the metrics
    /// registry as it found it.
    fn enter(run: &'a RunOpts, batch: Option<&'a BatchOpts>) -> Result<Self, String> {
        use eureka_obs::progress::{self, Mode};
        use eureka_sim::runner;
        // Open the events file first: a bad path then fails the command
        // before any process-wide setting changes.
        let writer: Option<Box<dyn std::io::Write + Send>> = match run.events_out.as_deref() {
            None => None,
            Some("-") => Some(Box::new(std::io::stdout())),
            Some(path) => {
                let file = std::fs::File::create(path)
                    .map_err(|e| format!("cannot open events file {path}: {e}"))?;
                Some(Box::new(std::io::BufWriter::new(file)))
            }
        };
        let (retries, checkpoint_dir, resume) = batch.map_or((0, None, false), |b| {
            (b.retries, b.checkpoint_dir.as_deref(), b.resume)
        });
        if let Some(n) = run.jobs {
            runner::set_global_jobs(n);
        }
        if retries > 0 {
            runner::set_global_retry(eureka_sim::RetryPolicy::transient(retries + 1));
        }
        if let Some(dir) = checkpoint_dir {
            runner::set_global_checkpoint(Some((dir.into(), resume)));
        }
        let scope = RunScope {
            run,
            batch,
            started: std::time::Instant::now(),
            set_jobs: run.jobs.is_some(),
            set_runner: retries > 0 || checkpoint_dir.is_some(),
        };
        eureka_obs::events::arm(writer);
        progress::set_mode(match run.progress {
            None => Mode::Auto,
            Some(true) => Mode::On,
            Some(false) => Mode::Off,
        });
        eureka_obs::log::set_verbosity(run.verbose);
        if let Some(batch) = batch {
            eureka_obs::metrics::reset();
            if batch.trace_out.is_some() {
                eureka_obs::span::clear();
                eureka_obs::span::set_enabled(true);
            }
        }
        Ok(scope)
    }

    /// Ends a successful run: writes the `--trace-out`/`--metrics-out`
    /// exports, appends the ledger record, and returns `out` — or
    /// nothing when the event stream owns stdout.
    fn finish(
        self,
        kind: &str,
        label: String,
        total_cycles: Option<u64>,
        speedup_vs_dense: Option<f64>,
        out: String,
    ) -> Result<String, String> {
        if let Some(batch) = self.batch {
            batch.export(self.run.verbose)?;
        }
        self.run.ledger.append(&eureka_sim::LedgerRecord {
            kind: kind.to_string(),
            label,
            total_cycles,
            speedup_vs_dense,
            wall_ms: self.started.elapsed().as_secs_f64() * 1e3,
            events: eureka_obs::events::emitted_count(),
            sla: None,
        })?;
        Ok(if self.run.events_to_stdout() {
            String::new()
        } else {
            out
        })
    }
}

impl Drop for RunScope<'_> {
    fn drop(&mut self) {
        use eureka_sim::runner;
        eureka_obs::progress::set_mode(eureka_obs::progress::Mode::Off);
        eureka_obs::events::disarm();
        if self.set_jobs {
            runner::set_global_jobs(0);
        }
        if self.set_runner {
            runner::set_global_retry(eureka_sim::RetryPolicy::NONE);
            runner::set_global_checkpoint(None);
        }
    }
}

impl BatchOpts {
    /// Writes the telemetry exports; `-v` adds the metrics summary.
    fn export(&self, verbose: u8) -> Result<(), String> {
        if let Some(path) = &self.trace_out {
            eureka_obs::span::set_enabled(false);
            let json = eureka_obs::chrome::export_trace_json();
            std::fs::write(path, &json)
                .map_err(|e| format!("cannot write trace to {path}: {e}"))?;
            eureka_obs::info!("trace: {} bytes to {path}", json.len());
        }
        if let Some(path) = &self.metrics_out {
            let json = eureka_obs::metrics::snapshot_json(true);
            std::fs::write(path, &json)
                .map_err(|e| format!("cannot write metrics to {path}: {e}"))?;
            eureka_obs::info!("metrics: {} bytes to {path}", json.len());
        }
        if verbose >= 1 {
            eureka_obs::info!("{}", eureka_obs::metrics::human_summary());
        }
        Ok(())
    }
}

/// A failed run: the message plus the process exit code. `bench diff`
/// distinguishes a missing/unreadable snapshot (code 2: an environment
/// or usage problem CI should treat as broken wiring) from a genuine
/// perf regression (code 1: the gate fired); everything else exits 1.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunError {
    /// Human-readable description, printed to stderr.
    pub message: String,
    /// Process exit code (1 = failure/regression, 2 = unusable input).
    pub code: u8,
}

impl RunError {
    fn failure(message: String) -> Self {
        RunError { message, code: 1 }
    }
}

/// Executes a parsed command, returning the text to print; errors carry
/// the exit code the process should use.
///
/// # Errors
///
/// See [`RunError`].
pub fn run_with_code(cmd: &Command) -> Result<String, RunError> {
    if let Command::BenchDiff {
        baseline,
        candidate,
        max_regress,
    } = cmd
    {
        return run_bench_diff(baseline, candidate, *max_regress);
    }
    run(cmd).map_err(RunError::failure)
}

/// Compares two snapshots under the regression gate. Load/parse
/// problems (missing file, malformed JSON, unknown schema, incomparable
/// snapshots) exit 2; a regression past the threshold exits 1.
fn run_bench_diff(baseline: &str, candidate: &str, max_regress: f64) -> Result<String, RunError> {
    let load = |path: &str| {
        eureka_sim::ledger::load_snapshot(std::path::Path::new(path)).map_err(|e| RunError {
            message: format!("bench diff: unusable snapshot: {e}"),
            code: 2,
        })
    };
    let a = load(baseline)?;
    let b = load(candidate)?;
    let report = eureka_sim::ledger::diff(&a, &b, max_regress).map_err(|e| RunError {
        message: format!("bench diff: {e}"),
        code: 2,
    })?;
    let rendered = format!(
        "baseline : {baseline}\ncandidate: {candidate}\nthreshold: {max_regress}%\n{}",
        report.render()
    );
    // The regression gate: a failing diff is a failing command.
    if report.ok() {
        Ok(rendered)
    } else {
        Err(RunError::failure(rendered))
    }
}

/// Surfaces degradation counters in the human-readable end-of-run
/// report: unit failures by kind, checkpoint decode errors,
/// retry-backoff sleep time, journal decode errors. Healthy runs (all
/// zero) add nothing.
fn health_warning_lines() -> String {
    let c = |name: &str| eureka_obs::metrics::counter_value(name).unwrap_or(0);
    let mut out = String::new();
    let (panics, sims, cancelled) = (
        c("runner.failures.panic"),
        c("runner.failures.sim_error"),
        c("runner.failures.cancelled"),
    );
    if panics + sims + cancelled > 0 {
        out.push_str(&format!(
            "  unit failures  : {panics} panic, {sims} sim-error, {cancelled} cancelled\n"
        ));
    }
    let ckpt_errors = c("checkpoint.errors");
    if ckpt_errors > 0 {
        out.push_str(&format!(
            "  ckpt errors    : {ckpt_errors} (corrupt entries skipped; units recomputed)\n"
        ));
    }
    let backoff_slept = c("runner.backoff.slept_us");
    if backoff_slept > 0 {
        out.push_str(&format!(
            "  backoff        : {backoff_slept} us slept across unit retries\n"
        ));
    }
    let journal_errors = c("journal.errors");
    if journal_errors > 0 {
        out.push_str(&format!(
            "  journal errors : {journal_errors} (corrupt entries skipped; jobs replayed or resubmitted)\n"
        ));
    }
    out
}

/// Executes a parsed command, returning the text to print.
///
/// # Errors
///
/// Returns a message for unsupported combinations (e.g. S2TA on
/// InceptionV3).
pub fn run(cmd: &Command) -> Result<String, String> {
    match cmd {
        Command::Help => Ok(USAGE.to_string()),
        Command::Archs => {
            let mut out = String::from("architectures:\n");
            for name in arch::registry_names() {
                let a = arch::by_name(name)
                    .expect("invariant: every registry name resolves to its architecture");
                out.push_str(&format!("  {name:<18} {}\n", a.name()));
            }
            Ok(out)
        }
        Command::Figure { name, run, batch } => {
            let scope = RunScope::enter(run, Some(batch))?;
            let cfg = run.sim_config();
            let render = |t: eureka_bench::FigTable| {
                if batch.csv {
                    t.to_csv()
                } else {
                    t.render()
                }
            };
            let out = match name.as_str() {
                "table1" => eureka_bench::table1(),
                "table2" => eureka_bench::table2(),
                "ablations" => {
                    let mut out = String::new();
                    for t in [
                        eureka_bench::ablations::reach_sweep(&cfg),
                        eureka_bench::ablations::window_sweep(&cfg),
                        eureka_bench::ablations::compaction_sweep(&cfg),
                        eureka_bench::ablations::sigma_sweep(&cfg),
                        eureka_bench::ablations::two_sided_energy(&cfg),
                    ] {
                        out.push_str(&render(t));
                        out.push('\n');
                    }
                    out
                }
                "fig09" => render(eureka_bench::figure9(&cfg)),
                "fig11" => render(eureka_bench::figure11(&cfg)),
                "fig12" => render(eureka_bench::figure12(&cfg)),
                "fig13" => render(eureka_bench::figure13(&cfg)),
                "fig14" => render(eureka_bench::figure14(&cfg)),
                other => return Err(format!("unknown figure '{other}'")),
            };
            let label = format!("{name}|{}", run.sampling());
            scope.finish("figure", label, None, None, out)
        }
        Command::Compile {
            benchmark,
            layer,
            factor,
        } => {
            use eureka_core::CompiledLayer;
            use eureka_sparse::{gen, rng::DetRng};
            let w = Workload::new(*benchmark, PruningLevel::Moderate, 1);
            let Some((idx, gemm)) = w
                .gemms()
                .into_iter()
                .enumerate()
                .find(|(_, g)| g.name == *layer)
            else {
                return Err(format!("{} has no layer named '{layer}'", benchmark.name()));
            };
            let mut rng = DetRng::new(w.seed() ^ idx as u64);
            // Bound the materialized matrix so big layers stay instant.
            let (n, k) = (gemm.shape.n.min(512), gemm.shape.k.min(4096));
            let pattern = if gemm.clustered {
                gen::clustered_pattern(n, k, gemm.weight_density, 16, 32, 0.2, &mut rng)
            } else {
                gen::uniform_pattern(n, k, gemm.weight_density, &mut rng)
            };
            let weights = gen::values_for_pattern(&pattern, &mut rng);
            let compiled =
                CompiledLayer::compile(&weights, 4, *factor).map_err(|e| e.to_string())?;
            let s = compiled.stats();
            let mut out = format!(
                "{} {layer} at {:.0}% density, compaction P={factor} \
                 (materialized {n}x{k}):\n",
                benchmark.name(),
                100.0 * gemm.weight_density
            );
            out.push_str(&format!(
                "  tiles            : {}\n",
                compiled.tiles().len()
            ));
            out.push_str(&format!("  non-zeros        : {}\n", s.nnz));
            out.push_str(&format!("  dense FP16 size  : {} bytes\n", s.dense_bytes));
            out.push_str(&format!("  encoded size     : {} bytes\n", s.encoded_bytes));
            out.push_str(&format!(
                "  ideal bit-packed : {} bytes ({:.1}x smaller than dense)\n",
                s.ideal_bits / 8,
                s.ideal_compression()
            ));
            out.push_str(&format!("  total tile cycles: {}\n", s.total_cycles));
            Ok(out)
        }
        Command::Trace { benchmark, layer } => {
            use eureka_core::schedule::{schedule_grouped_steps, trace, SystolicConfig};
            use eureka_core::suds;
            use eureka_sim::arch::tile_samples_for_layer;
            let cfg = SimConfig::paper_default();
            let w = Workload::new(*benchmark, PruningLevel::Moderate, 32);
            let Some(gemm) = w.gemms().into_iter().find(|g| g.name == *layer) else {
                return Err(format!("{} has no layer named '{layer}'", benchmark.name()));
            };
            let times: Vec<u64> = tile_samples_for_layer(&gemm, &cfg, 0)
                .iter()
                .map(|t| suds::optimal_cycles(t) as u64)
                .collect();
            let sys = SystolicConfig::paper_default();
            let steps = schedule_grouped_steps(&times, &sys);
            Ok(trace::to_chrome_json(&steps, &sys))
        }
        Command::Simulate {
            workload: target,
            run,
            batch,
            keep_going,
            max_failures,
        } => {
            use eureka_sim::{render_failure_report, JobOutcome};
            let scope = RunScope::enter(run, Some(batch))?;
            let cfg = run.sim_config();
            let workload = target.workload();
            let a = arch::by_name(&target.arch).ok_or_else(|| {
                format!("unknown architecture '{}'; run `eureka archs`", target.arch)
            })?;
            let (report, failures) = match engine::simulate_outcome(a.as_ref(), &workload, &cfg) {
                JobOutcome::Complete(report) => (report, Vec::new()),
                JobOutcome::Degraded {
                    report,
                    failed_layers,
                } => {
                    if !*keep_going {
                        return Err(format!(
                            "{}(re-run with --keep-going to accept a partial report)\n",
                            render_failure_report(&failed_layers)
                        ));
                    }
                    let budget = max_failures.unwrap_or(u64::MAX);
                    if failed_layers.len() as u64 > budget {
                        return Err(format!(
                            "{}failure budget exceeded: {} failure(s) > --max-failures {budget}\n",
                            render_failure_report(&failed_layers),
                            failed_layers.len()
                        ));
                    }
                    (report, failed_layers)
                }
                JobOutcome::Failed { failures } => {
                    // A single uniform refusal (e.g. S2TA on InceptionV3)
                    // reads better as the plain SimError than as a
                    // per-layer failure report.
                    return Err(if failures.len() == 1 {
                        failures[0].to_sim_error().to_string()
                    } else {
                        render_failure_report(&failures)
                    });
                }
            };
            report.log_layers();
            let label = target.label(run);
            if batch.csv {
                // Keep stdout machine-readable: survivors go to the CSV,
                // the failure report goes to stderr.
                if !failures.is_empty() {
                    eureka_obs::error!("{}", render_failure_report(&failures));
                }
                let cycles = Some(report.total_cycles());
                return scope.finish("simulate", label, cycles, None, report.to_csv());
            }
            let mut out = format!("{} on {}\n", report.arch, report.workload);
            out.push_str(&format!(
                "  total cycles   : {} ({:.3} ms at 1 GHz)\n",
                report.total_cycles(),
                report.runtime_ms(1.0)
            ));
            let mut speedup_vs_dense = None;
            if failures.is_empty() {
                let dense = engine::simulate(&arch::dense(), &workload, &cfg);
                let speedup = engine::speedup(&dense, &report);
                speedup_vs_dense = Some(speedup);
                out.push_str(&format!("  speedup vs Dense: {speedup:.2}x\n"));
            }
            out.push_str(&format!(
                "  throughput     : {:.0} inputs/s\n",
                report.throughput_per_s(target.batch, 1.0)
            ));
            out.push_str(&format!(
                "  memory share   : {:.1}%\n",
                100.0 * report.mem_share()
            ));
            out.push_str(&format!(
                "  MAC utilization: {:.1}%\n",
                100.0 * report.mac_utilization()
            ));
            out.push_str(&health_warning_lines());
            if !failures.is_empty() {
                out.push_str(&format!(
                    "degraded run: {} of {} layer(s) missing\n{}",
                    failures.len(),
                    failures.len() + report.layers.len(),
                    render_failure_report(&failures)
                ));
            }
            let cycles = Some(report.total_cycles());
            scope.finish("simulate", label, cycles, speedup_vs_dense, out)
        }
        Command::Profile {
            workload: target,
            run,
            json_out,
            heatmap_out,
            trace_out,
            bench_json,
            top_tiles,
        } => {
            let scope = RunScope::enter(run, None)?;
            let cfg = run.sim_config();
            let workload = target.workload();
            let a = arch::by_name(&target.arch).ok_or_else(|| {
                format!("unknown architecture '{}'; run `eureka archs`", target.arch)
            })?;
            let pcfg = eureka_sim::ProfileConfig {
                top_tiles: *top_tiles,
            };
            let (report, profile) = engine::try_profile(a.as_ref(), &workload, &cfg, &pcfg)
                .map_err(|e| e.to_string())?;
            debug_assert_eq!(profile.total_attributed_cycles(), report.total_cycles());
            let mut stdout_payload: Option<String> = None;
            let mut emit = |path: &str, payload: String, what: &str| -> Result<(), String> {
                if path == "-" {
                    stdout_payload = Some(payload);
                    Ok(())
                } else {
                    std::fs::write(path, &payload)
                        .map_err(|e| format!("cannot write {what} to {path}: {e}"))?;
                    eureka_obs::info!("{what}: {} bytes to {path}", payload.len());
                    Ok(())
                }
            };
            if let Some(path) = json_out {
                emit(path, profile.to_json(), "profile JSON")?;
            }
            if let Some(path) = heatmap_out {
                emit(path, profile.heatmap_csv(), "heatmap CSV")?;
            }
            if let Some(path) = trace_out {
                emit(path, profile.to_chrome_json(), "occupancy trace")?;
            }
            if let Some(path) = bench_json {
                // The standard snapshot matrix, plus the requested arch.
                let mut names = vec!["dense", "ampere", "cnvlutin", "eureka-p2", "eureka-p4"];
                if !names.contains(&target.arch.as_str()) {
                    names.push(&target.arch);
                }
                let mut reports = Vec::with_capacity(names.len());
                for name in &names {
                    let a = arch::by_name(name)
                        .expect("invariant: the snapshot matrix only names registry entries");
                    let r = engine::try_simulate(a.as_ref(), &workload, &cfg)
                        .map_err(|e| e.to_string())?;
                    reports.push(r);
                }
                let entries: Vec<(&str, &eureka_sim::SimReport)> =
                    names.iter().zip(&reports).map(|(n, r)| (*n, r)).collect();
                let json = eureka_sim::profile::bench_snapshot_json(
                    target.benchmark.name(),
                    target.pruning.label(),
                    target.batch,
                    run.sampling(),
                    &entries,
                );
                emit(path, json, "BENCH snapshot")?;
            }
            // A stdout export replaces the human report.
            let out = stdout_payload.unwrap_or_else(|| profile.bottleneck_report(5));
            let cycles = Some(report.total_cycles());
            scope.finish("profile", target.label(run), cycles, None, out)
        }
        Command::BenchList { ledger_dir } => {
            use eureka_obs::json::Value;
            let dir = std::path::PathBuf::from(ledger_dir.as_deref().unwrap_or("results/ledger"));
            let records = eureka_sim::ledger::read_dir(&dir)?;
            if records.is_empty() {
                return Ok(format!("no ledger records under {}\n", dir.display()));
            }
            let mut out = format!(
                "{:<17} {:<9} {:<44} {:<14} {:>12} {:>8} {:>10} {:>7}\n",
                "key", "kind", "label", "git", "cycles", "speedup", "wall_ms", "events"
            );
            for (_, v) in &records {
                let s = |k: &str| v.get(k).and_then(Value::as_str).unwrap_or("?").to_string();
                let opt_num = |k: &str, fmt: fn(f64) -> String| {
                    v.get(k)
                        .and_then(Value::as_f64)
                        .map_or_else(|| "-".to_string(), fmt)
                };
                out.push_str(&format!(
                    "{:<17} {:<9} {:<44} {:<14} {:>12} {:>8} {:>10} {:>7}\n",
                    s("key"),
                    s("kind"),
                    s("label"),
                    s("git"),
                    opt_num("total_cycles", |c| format!("{c:.0}")),
                    opt_num("speedup_vs_dense", |sp| format!("{sp:.2}x")),
                    opt_num("wall_ms", |w| format!("{w:.1}")),
                    opt_num("events", |e| format!("{e:.0}")),
                ));
            }
            out.push_str(&format!("{} record(s)\n", records.len()));
            Ok(out)
        }
        Command::BenchDiff {
            baseline,
            candidate,
            max_regress,
        } => run_bench_diff(baseline, candidate, *max_regress).map_err(|e| e.message),
        Command::Verify {
            cases,
            seed,
            arch,
            corpus_dir,
            replay,
            fault_matrix,
            chaos,
        } => {
            if *chaos {
                return eureka_verify::run_chaos(*cases, *seed);
            }
            if *fault_matrix {
                return eureka_verify::run_fault_matrix(*seed);
            }
            if let Some(dir) = replay {
                return eureka_verify::replay_corpus(std::path::Path::new(dir));
            }
            eureka_verify::run(&eureka_verify::VerifyOptions {
                cases: *cases,
                seed: *seed,
                arch: arch.clone(),
                corpus_dir: corpus_dir.as_ref().map(std::path::PathBuf::from),
            })
        }
        Command::Serve(opts) => serve::run_serve(opts),
        Command::Submit { socket, spec, wait } => serve::run_submit(socket, spec, *wait),
        Command::Drain { socket, shutdown } => serve::run_drain(socket, *shutdown),
        Command::Stats { socket, json } => serve::run_stats(socket, *json),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload(benchmark: Benchmark) -> WorkloadArgs {
        WorkloadArgs {
            benchmark,
            pruning: PruningLevel::Moderate,
            arch: "eureka-p4".into(),
            batch: 32,
        }
    }

    /// `figure fig11` with `f` applied to its default options.
    fn figure(f: impl FnOnce(&mut RunOpts, &mut BatchOpts)) -> Command {
        let (mut run, mut batch) = (RunOpts::default(), BatchOpts::default());
        f(&mut run, &mut batch);
        let name = "fig11".into();
        Command::Figure { name, run, batch }
    }

    /// `simulate --benchmark bert` with `f` applied to its default options.
    fn simulate(f: impl FnOnce(&mut RunOpts, &mut BatchOpts)) -> Command {
        let (mut run, mut batch) = (RunOpts::default(), BatchOpts::default());
        f(&mut run, &mut batch);
        Command::Simulate {
            workload: workload(Benchmark::BertSquad),
            run,
            batch,
            keep_going: false,
            max_failures: None,
        }
    }

    /// `profile --benchmark <benchmark>` with `f` applied to its default
    /// run options.
    fn profile(benchmark: Benchmark, f: impl FnOnce(&mut RunOpts)) -> Command {
        let mut run = RunOpts::default();
        f(&mut run);
        Command::Profile {
            workload: workload(benchmark),
            run,
            json_out: None,
            heatmap_out: None,
            trace_out: None,
            bench_json: None,
            top_tiles: 5,
        }
    }

    /// `serve` with `f` applied to its default options.
    fn serve(f: impl FnOnce(&mut serve::ServeOpts)) -> Command {
        let mut opts = serve::ServeOpts {
            socket: "eureka.sock".into(),
            journal_dir: "eureka-journal".into(),
            checkpoint_dir: None,
            capacity: 8,
            deadline_ms: 0,
            jobs: 1,
            fast: false,
            metrics_out: None,
            sla_budget_us: None,
            flightrec_dir: "results".into(),
            ledger: LedgerOpts::default(),
        };
        f(&mut opts);
        Command::Serve(opts)
    }

    fn verify(cases: u32, fault_matrix: bool, chaos: bool) -> Command {
        Command::Verify {
            cases,
            seed: 42,
            arch: None,
            corpus_dir: None,
            replay: None,
            fault_matrix,
            chaos,
        }
    }

    fn some(s: &str) -> Option<String> {
        Some(s.to_string())
    }

    fn bench_diff(max_regress: f64) -> Command {
        Command::BenchDiff {
            baseline: "a.json".into(),
            candidate: "b.json".into(),
            max_regress,
        }
    }

    /// Argument vector → the parsed command or the exact parse error.
    #[test]
    fn parse_table() {
        use Benchmark::{BertSquad, MobileNetV1};
        const BENCH_USAGE: &str = "bench requires a subcommand: `list` or `diff <a> <b>`";
        const BENCH_DIFF_PATHS: &str = "bench diff requires exactly two snapshot paths: \
                                        `eureka bench diff <baseline.json> <candidate.json>`";
        let rows: Vec<(&str, Result<Command, &str>)> = vec![
            // help
            ("", Ok(Command::Help)),
            ("help", Ok(Command::Help)),
            ("--help", Ok(Command::Help)),
            // figure
            ("figure fig11 --csv", Ok(figure(|_, b| b.csv = true))),
            (
                "figure fig99",
                Err(
                    "unknown figure 'fig99' (expected one of [\"table1\", \"table2\", \
                     \"fig09\", \"fig11\", \"fig12\", \"fig13\", \"fig14\", \"ablations\"])",
                ),
            ),
            (
                "figure",
                Err("figure requires a name, e.g. `eureka figure fig11`"),
            ),
            (
                "figure fig11 --bogus",
                Err("unknown flag '--bogus' for figure"),
            ),
            (
                "figure fig11 --keep-going",
                Err("unknown flag '--keep-going' for figure"),
            ),
            // --jobs
            ("figure fig11 --jobs 4", Ok(figure(|r, _| r.jobs = Some(4)))),
            (
                "simulate --benchmark bert --jobs 2",
                Ok(simulate(|r, _| r.jobs = Some(2))),
            ),
            ("figure fig11 --jobs", Err("--jobs requires a value")),
            ("figure fig11 --jobs 0", Err("--jobs must be positive")),
            (
                "simulate --benchmark bert --jobs x",
                Err("bad --jobs: invalid digit found in string"),
            ),
            // simulate: workload defaults and checks
            ("simulate --benchmark bert", Ok(simulate(|_, _| {}))),
            ("simulate", Err("simulate requires --benchmark")),
            ("simulate --benchmark vgg", Err("unknown benchmark 'vgg'")),
            (
                "simulate --benchmark bert --arch nope",
                Err("unknown architecture 'nope'; run `eureka archs`"),
            ),
            (
                "simulate --benchmark bert --batch 0",
                Err("--batch must be positive"),
            ),
            (
                "simulate --benchmark bert --batch",
                Err("--batch requires a value"),
            ),
            // telemetry
            (
                "simulate --benchmark bert --trace-out t.json --metrics-out m.json -v",
                Ok(simulate(|r, b| {
                    r.verbose = 1;
                    b.trace_out = some("t.json");
                    b.metrics_out = some("m.json");
                })),
            ),
            (
                "figure fig11 -vv --metrics-out m.json",
                Ok(figure(|r, b| {
                    r.verbose = 2;
                    b.metrics_out = some("m.json");
                })),
            ),
            (
                "simulate --benchmark bert --trace-out",
                Err("--trace-out requires a value"),
            ),
            (
                "figure fig11 --metrics-out",
                Err("--metrics-out requires a value"),
            ),
            // profile
            (
                "profile --benchmark mobilenetv1",
                Ok(profile(MobileNetV1, |_| {})),
            ),
            (
                "profile --benchmark resnet50 --arch eureka-p2 --fast --jobs 2 --top-tiles 3 \
                 --json p.json --heatmap - --bench-json b.json",
                Ok(Command::Profile {
                    workload: WorkloadArgs {
                        arch: "eureka-p2".into(),
                        ..workload(Benchmark::ResNet50)
                    },
                    run: RunOpts {
                        fast: true,
                        jobs: Some(2),
                        ..RunOpts::default()
                    },
                    json_out: some("p.json"),
                    heatmap_out: some("-"),
                    trace_out: None,
                    bench_json: some("b.json"),
                    top_tiles: 3,
                }),
            ),
            ("profile", Err("profile requires --benchmark")),
            (
                "profile --benchmark bert --arch nope",
                Err("unknown architecture 'nope'; run `eureka archs`"),
            ),
            (
                "profile --benchmark bert --batch 0",
                Err("--batch must be positive"),
            ),
            (
                "profile --benchmark bert --bogus",
                Err("unknown flag '--bogus' for profile"),
            ),
            (
                "profile --benchmark bert --json - --heatmap -",
                Err("at most one profile export may write to stdout ('-')"),
            ),
            // fault tolerance
            (
                "simulate --benchmark bert --keep-going --max-failures 3 --retries 2 \
                 --checkpoint-dir ckpt --resume",
                Ok(Command::Simulate {
                    workload: workload(BertSquad),
                    run: RunOpts::default(),
                    batch: BatchOpts {
                        retries: 2,
                        checkpoint_dir: some("ckpt"),
                        resume: true,
                        ..BatchOpts::default()
                    },
                    keep_going: true,
                    max_failures: Some(3),
                }),
            ),
            (
                "simulate --benchmark bert --max-failures 1",
                Err("--max-failures requires --keep-going"),
            ),
            (
                "simulate --benchmark bert --resume",
                Err("--resume requires --checkpoint-dir"),
            ),
            (
                "figure fig11 --resume",
                Err("--resume requires --checkpoint-dir"),
            ),
            (
                "simulate --benchmark bert --retries x",
                Err("bad --retries: invalid digit found in string"),
            ),
            // Figures take retry/checkpoint flags (no keep-going: a
            // missing layer would corrupt the aggregated table).
            (
                "figure fig11 --retries 1 --checkpoint-dir d",
                Ok(figure(|_, b| {
                    b.retries = 1;
                    b.checkpoint_dir = some("d");
                })),
            ),
            // verify
            ("verify", Ok(verify(200, false, false))),
            (
                "verify --cases 17 --seed 9 --arch eureka-p2 --corpus-dir corpus",
                Ok(Command::Verify {
                    cases: 17,
                    seed: 9,
                    arch: some("eureka-p2"),
                    corpus_dir: some("corpus"),
                    replay: None,
                    fault_matrix: false,
                    chaos: false,
                }),
            ),
            ("verify --cases 0", Err("--cases must be positive")),
            (
                "verify --arch nope",
                Err("unknown architecture 'nope'; run `eureka archs`"),
            ),
            ("verify --bogus", Err("unknown flag '--bogus' for verify")),
            // Replaying, the fault matrix and the chaos harness need no
            // case budget.
            (
                "verify --cases 0 --replay tests/corpus",
                Ok(Command::Verify {
                    cases: 0,
                    seed: 42,
                    arch: None,
                    corpus_dir: None,
                    replay: some("tests/corpus"),
                    fault_matrix: false,
                    chaos: false,
                }),
            ),
            ("verify --fault-matrix", Ok(verify(200, true, false))),
            (
                "verify --cases 0 --fault-matrix",
                Ok(verify(0, true, false)),
            ),
            ("verify --chaos --cases 7", Ok(verify(7, false, true))),
            // bench
            ("bench list", Ok(Command::BenchList { ledger_dir: None })),
            (
                "bench list --ledger-dir d",
                Ok(Command::BenchList {
                    ledger_dir: some("d"),
                }),
            ),
            ("bench diff a.json b.json", Ok(bench_diff(2.0))),
            (
                "bench diff a.json b.json --max-regress 5",
                Ok(bench_diff(5.0)),
            ),
            ("bench", Err(BENCH_USAGE)),
            ("bench frobnicate", Err(BENCH_USAGE)),
            ("bench diff a.json", Err(BENCH_DIFF_PATHS)),
            ("bench diff a b c", Err(BENCH_DIFF_PATHS)),
            (
                "bench diff a b --max-regress -1",
                Err("--max-regress must be a non-negative percent"),
            ),
            (
                "bench list --bogus",
                Err("unknown flag '--bogus' for bench list"),
            ),
            // The tile store has no flags: it is always an in-process memo.
            (
                "simulate --benchmark bert --store-dir tiles",
                Err("unknown flag '--store-dir' for simulate"),
            ),
            (
                "simulate --benchmark bert --no-store",
                Err("unknown flag '--no-store' for simulate"),
            ),
            (
                "profile --benchmark bert --store-dir t",
                Err("unknown flag '--store-dir' for profile"),
            ),
            (
                "profile --benchmark bert --no-store",
                Err("unknown flag '--no-store' for profile"),
            ),
            (
                "figure fig11 --store-dir t",
                Err("unknown flag '--store-dir' for figure"),
            ),
            (
                "figure fig11 --no-store",
                Err("unknown flag '--no-store' for figure"),
            ),
            // events, progress, ledger
            (
                "simulate --benchmark bert --events-out ev.jsonl --no-progress --ledger-dir ld",
                Ok(simulate(|r, _| {
                    r.events_out = some("ev.jsonl");
                    r.progress = Some(false);
                    r.ledger.dir = some("ld");
                })),
            ),
            (
                "figure fig11 --progress --no-ledger",
                Ok(figure(|r, _| {
                    r.progress = Some(true);
                    r.ledger.skip = true;
                })),
            ),
            (
                "figure fig11 --ledger-dir d --no-ledger",
                Err("--no-ledger conflicts with --ledger-dir"),
            ),
            (
                "simulate --benchmark bert --csv --events-out -",
                Err("--events-out - conflicts with --csv (both claim stdout)"),
            ),
            // Events to stdout count toward profile's one-stdout-export rule.
            (
                "profile --benchmark bert --json - --events-out -",
                Err("at most one profile export may write to stdout ('-')"),
            ),
            (
                "profile --benchmark bert --events-out -",
                Ok(profile(BertSquad, |r| r.events_out = some("-"))),
            ),
            // service commands
            ("serve", Ok(serve(|_| {}))),
            (
                "serve --socket /tmp/e.sock --journal-dir j --checkpoint-dir c \
                 --capacity 3 --deadline-ms 500 --jobs 2 --fast --metrics-out m.prom \
                 --sla-budget-us 250000 --flightrec-dir fr --ledger-dir l",
                Ok(serve(|o| {
                    o.socket = "/tmp/e.sock".into();
                    o.journal_dir = "j".into();
                    o.checkpoint_dir = some("c");
                    o.capacity = 3;
                    o.deadline_ms = 500;
                    o.jobs = 2;
                    o.fast = true;
                    o.metrics_out = some("m.prom");
                    o.sla_budget_us = Some(250_000);
                    o.flightrec_dir = "fr".into();
                    o.ledger.dir = some("l");
                })),
            ),
            ("serve --no-ledger", Ok(serve(|o| o.ledger.skip = true))),
            // Serve checks its ledger flags like the run commands do.
            (
                "serve --ledger-dir l --no-ledger",
                Err("--no-ledger conflicts with --ledger-dir"),
            ),
            ("serve --capacity 0", Err("--capacity must be positive")),
            (
                "serve --sla-budget-us 0",
                Err("--sla-budget-us must be positive"),
            ),
            ("serve --bogus", Err("unknown flag '--bogus' for serve")),
            (
                "serve --store-dir s",
                Err("unknown flag '--store-dir' for serve"),
            ),
            (
                "submit --benchmark mobilenetv1 --deadline-ms 250 --retries 2 --wait",
                Ok(Command::Submit {
                    socket: "eureka.sock".into(),
                    spec: JobSpec {
                        deadline_ms: 250,
                        retries: 2,
                        ..JobSpec::new(MobileNetV1, PruningLevel::Moderate, 32, "eureka-p4")
                    },
                    wait: true,
                }),
            ),
            ("submit", Err("submit requires --benchmark")),
            (
                "drain --socket /tmp/e.sock --shutdown",
                Ok(Command::Drain {
                    socket: "/tmp/e.sock".into(),
                    shutdown: true,
                }),
            ),
            (
                "stats --socket /tmp/e.sock --json",
                Ok(Command::Stats {
                    socket: "/tmp/e.sock".into(),
                    json: true,
                }),
            ),
            (
                "stats",
                Ok(Command::Stats {
                    socket: "eureka.sock".into(),
                    json: false,
                }),
            ),
            ("stats --bogus", Err("unknown flag '--bogus' for stats")),
        ];
        for (args, want) in rows {
            let got = parse(args.split_whitespace());
            assert_eq!(got, want.map_err(str::to_string), "{args}");
        }
    }

    /// Every flag `USAGE` lists under each subcommand, with whether it
    /// takes a value (`--flag <...>`).
    fn usage_flags() -> Vec<(String, Vec<(String, bool)>)> {
        let block = USAGE.split("USAGE:\n").nth(1).unwrap();
        let block = block.split("\n\n").next().unwrap();
        let mut subcommands: Vec<(String, Vec<(String, bool)>)> = Vec::new();
        for line in block.lines() {
            let line = line.trim_start();
            if let Some(rest) = line.strip_prefix("eureka ") {
                let mut words = rest.split_whitespace();
                let mut name = words.next().unwrap().to_string();
                if name == "bench" {
                    name = format!("bench {}", words.next().unwrap());
                }
                subcommands.push((name, Vec::new()));
            }
            // `[--a <v>|--b]` → `--a <v> --b`; `<file|->` leaves a bare `->`.
            let line = line.replace(['[', ']', '|'], " ");
            let words: Vec<&str> = line.split_whitespace().collect();
            for (i, word) in words.iter().enumerate() {
                if word.starts_with('-')
                    && word
                        .trim_start_matches('-')
                        .starts_with(char::is_alphabetic)
                {
                    let takes_value = words.get(i + 1).is_some_and(|w| w.starts_with('<'));
                    subcommands
                        .last_mut()
                        .unwrap()
                        .1
                        .push((word.to_string(), takes_value));
                }
            }
        }
        subcommands
    }

    /// Each subcommand accepts exactly the `--flags` `USAGE` lists for
    /// it: moving flags between option structs can neither drop one nor
    /// hand one to a subcommand that never took it.
    #[test]
    fn usage_lists_exactly_the_flags_each_subcommand_accepts() {
        let subcommands = usage_flags();
        let all: std::collections::BTreeSet<&str> = subcommands
            .iter()
            .flat_map(|(_, flags)| flags.iter().map(|(f, _)| f.as_str()))
            .filter(|f| f.starts_with("--"))
            .collect();
        assert!(all.len() >= 40, "USAGE scan found only {all:?}");
        for (cmd, flags) in subcommands.iter().filter(|(_, f)| !f.is_empty()) {
            let base: Vec<&str> = match cmd.as_str() {
                "figure" => vec!["figure", "fig11"],
                "simulate" | "profile" | "submit" => vec![cmd, "--benchmark", "bert"],
                "compile" | "trace" => vec![cmd, "--benchmark", "resnet50", "--layer", "conv1"],
                "bench list" => vec!["bench", "list"],
                "bench diff" => vec!["bench", "diff", "a.json", "b.json"],
                other => vec![other],
            };
            for (flag, takes_value) in flags {
                let mut args = base.clone();
                args.push(flag);
                if *takes_value {
                    args.push("1");
                }
                if let Err(e) = parse(args.iter().copied()) {
                    assert!(!e.contains("unknown flag"), "{cmd} rejects {flag}: {e}");
                }
            }
            for flag in all.iter().filter(|f| !flags.iter().any(|(g, _)| g == *f)) {
                let mut args = base.clone();
                args.push(flag);
                let want = format!("unknown flag '{flag}' for {cmd}");
                assert_eq!(
                    parse(args.iter().copied()),
                    Err(want),
                    "{cmd} accepts {flag}"
                );
            }
        }
        for flag in [
            "--retries",
            "--checkpoint-dir",
            "--resume",
            "--csv",
            "--metrics-out",
        ] {
            assert_eq!(
                parse(["profile", "--benchmark", "bert", flag]),
                Err(format!("unknown flag '{flag}' for profile"))
            );
        }
    }

    #[test]
    fn jobs_flag_does_not_outlive_its_command() {
        // A worker count no other test requests, so a concurrent test's
        // own `--jobs` can neither mask nor fake a leak.
        let cmd = parse([
            "profile",
            "--benchmark",
            "mobilenet",
            "--fast",
            "--no-ledger",
            "--jobs",
            "97",
        ])
        .unwrap();
        run(&cmd).unwrap();
        assert_ne!(
            eureka_sim::Runner::parallel().effective_jobs(),
            97,
            "--jobs leaked into the process-wide worker default"
        );
    }

    #[test]
    fn parse_and_run_compile() {
        let cmd = parse([
            "compile",
            "--benchmark",
            "resnet50",
            "--layer",
            "conv2_0/3x3",
        ])
        .unwrap();
        assert!(matches!(cmd, Command::Compile { factor: 4, .. }));
        let out = run(&cmd).unwrap();
        assert!(out.contains("ideal bit-packed"), "{out}");
        assert!(out.contains("smaller than dense"));
        // Unknown layer is a clean error.
        let bad = parse(["compile", "--benchmark", "resnet50", "--layer", "nope"]).unwrap();
        assert!(run(&bad).is_err());
        // Factor validation.
        assert!(parse([
            "compile",
            "--benchmark",
            "resnet50",
            "--layer",
            "conv1",
            "--factor",
            "0"
        ])
        .is_err());
    }

    #[test]
    fn parse_and_run_trace() {
        let cmd = parse(["trace", "--benchmark", "resnet50", "--layer", "conv4_2/3x3"]).unwrap();
        let out = run(&cmd).unwrap();
        assert!(out.starts_with('['));
        assert!(out.contains("\"ph\":\"X\""));
        let bad = parse(["trace", "--benchmark", "resnet50", "--layer", "zzz"]).unwrap();
        assert!(run(&bad).is_err());
        assert!(parse(["trace", "--benchmark", "resnet50"]).is_err());
    }

    #[test]
    fn run_archs_lists_registry() {
        let out = run(&Command::Archs).unwrap();
        for name in arch::registry_names() {
            assert!(out.contains(name), "missing {name}");
        }
    }

    #[test]
    fn run_simulate_fast() {
        let cmd = parse([
            "simulate",
            "--benchmark",
            "resnet50",
            "--arch",
            "ampere",
            "--fast",
        ])
        .unwrap();
        let out = run(&cmd).unwrap();
        assert!(out.contains("speedup vs Dense"));
        assert!(out.contains("Ampere/STC"));
    }

    #[test]
    fn run_simulate_unsupported_combination() {
        let cmd = parse([
            "simulate",
            "--benchmark",
            "inception",
            "--arch",
            "s2ta",
            "--fast",
        ])
        .unwrap();
        let err = run(&cmd).unwrap_err();
        assert!(err.contains("S2TA"), "{err}");
    }

    #[test]
    fn run_simulate_writes_trace_and_metrics() {
        // Span recording is process-global; one test drives it.
        let dir = std::env::temp_dir().join(format!("eureka-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("trace.json");
        let metrics = dir.join("metrics.json");
        let cmd = parse([
            "simulate",
            "--benchmark",
            "mobilenet",
            "--arch",
            "eureka-p4",
            "--fast",
            "--trace-out",
            trace.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
        ])
        .unwrap();
        run(&cmd).unwrap();
        let t = std::fs::read_to_string(&trace).unwrap();
        assert!(t.starts_with('[') && t.trim_end().ends_with(']'));
        assert!(t.contains("\"name\":\"unit.exec\""), "unit spans present");
        assert!(t.contains("\"ph\":\"M\""), "thread_name metadata present");
        let m = std::fs::read_to_string(&metrics).unwrap();
        assert!(m.contains("\"cache.hits\""), "{m}");
        assert!(m.contains("\"runner.units_planned\""), "{m}");
        assert!(m.contains("\"unit.exec_micros\""), "{m}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_simulate_csv() {
        let cmd = parse([
            "simulate",
            "--benchmark",
            "mobilenet",
            "--arch",
            "dense",
            "--fast",
            "--csv",
        ])
        .unwrap();
        let out = run(&cmd).unwrap();
        assert!(out.starts_with("layer,compute_cycles"));
        assert_eq!(out.lines().count(), 28); // header + 27 layers
    }

    #[test]
    fn run_profile_human_report() {
        let cmd = parse([
            "profile",
            "--benchmark",
            "mobilenet",
            "--arch",
            "eureka-p4",
            "--fast",
        ])
        .unwrap();
        let out = run(&cmd).unwrap();
        assert!(out.contains("where the cycles go"), "{out}");
        assert!(out.contains("MAC utilization"), "{out}");
        assert!(out.contains("heaviest layers"), "{out}");
        assert!(out.contains("worst tile"), "{out}");
    }

    #[test]
    fn run_profile_json_stdout_is_deterministic() {
        let args = [
            "profile",
            "--benchmark",
            "mobilenet",
            "--arch",
            "eureka-p4",
            "--fast",
            "--json",
            "-",
        ];
        let a = run(&parse(args).unwrap()).unwrap();
        let b = run(&parse(args).unwrap()).unwrap();
        assert_eq!(a, b, "profile JSON must be byte-identical across runs");
        assert!(a.starts_with("{\"schema\":\"eureka-profile-v1\""));
        // And across worker counts.
        let mut serial: Vec<String> = args.iter().map(ToString::to_string).collect();
        serial.extend(["--jobs".to_string(), "1".to_string()]);
        let s = run(&parse(serial).unwrap()).unwrap();
        assert_eq!(a, s, "profile JSON must not depend on --jobs");
    }

    #[test]
    fn run_profile_writes_exports() {
        let dir = std::env::temp_dir().join(format!("eureka-cli-prof-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let json = dir.join("p.json");
        let heatmap = dir.join("h.csv");
        let trace = dir.join("t.json");
        let bench = dir.join("b.json");
        let cmd = parse([
            "profile",
            "--benchmark",
            "mobilenet",
            "--arch",
            "eureka-p4",
            "--fast",
            "--json",
            json.to_str().unwrap(),
            "--heatmap",
            heatmap.to_str().unwrap(),
            "--trace-out",
            trace.to_str().unwrap(),
            "--bench-json",
            bench.to_str().unwrap(),
        ])
        .unwrap();
        let out = run(&cmd).unwrap();
        assert!(out.contains("where the cycles go"), "{out}");
        let p = std::fs::read_to_string(&json).unwrap();
        assert!(p.starts_with("{\"schema\":\"eureka-profile-v1\""));
        let h = std::fs::read_to_string(&heatmap).unwrap();
        assert!(h.starts_with("layer,row,busy,bubble,drain,utilization"));
        let t = std::fs::read_to_string(&trace).unwrap();
        assert!(t.contains("systolic row 0"), "{t}");
        let b = std::fs::read_to_string(&bench).unwrap();
        assert!(b.starts_with("{\"schema\":\"eureka-bench-v1\""));
        assert!(b.contains("\"speedup_vs_dense\""), "{b}");
        for name in ["dense", "ampere", "cnvlutin", "eureka-p2", "eureka-p4"] {
            assert!(b.contains(&format!("\"name\":\"{name}\"")), "{b}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_simulate_checkpoint_resume_is_identical() {
        let dir = std::env::temp_dir().join(format!("eureka-cli-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let args = |resume: bool| {
            let mut v: Vec<String> = [
                "simulate",
                "--benchmark",
                "mobilenet",
                "--arch",
                "eureka-p4",
                "--fast",
                "--csv",
                "--checkpoint-dir",
                dir.to_str().unwrap(),
            ]
            .iter()
            .map(ToString::to_string)
            .collect();
            if resume {
                v.push("--resume".into());
            }
            v
        };
        let first = run(&parse(args(false)).unwrap()).unwrap();
        let units = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .path()
                    .extension()
                    .is_some_and(|x| x == "unit")
            })
            .count();
        assert!(units > 0, "checkpoint files written");
        let resumed = run(&parse(args(true)).unwrap()).unwrap();
        assert_eq!(first, resumed, "resume must be bit-identical");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_bench_list_empty_and_diff_gate() {
        let dir = std::env::temp_dir().join(format!("eureka-cli-bench-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Empty ledger lists cleanly.
        let out = run(&Command::BenchList {
            ledger_dir: Some(dir.join("ledger").to_str().unwrap().into()),
        })
        .unwrap();
        assert!(out.contains("no ledger records"), "{out}");
        // Identical snapshots pass the gate; an injected regression fails
        // it with a run error (non-zero exit), not a usage error.
        let good = dir.join("good.json");
        let bad = dir.join("bad.json");
        std::fs::write(
            &good,
            r#"{"schema":"eureka-bench-v1","benchmark":"m","pruning":"mod","batch":32,"sampling":"fast","archs":[{"name":"eureka-p4","total_cycles":250000,"speedup_vs_dense":3.5}]}"#,
        )
        .unwrap();
        std::fs::write(
            &bad,
            r#"{"schema":"eureka-bench-v1","benchmark":"m","pruning":"mod","batch":32,"sampling":"fast","archs":[{"name":"eureka-p4","total_cycles":300000,"speedup_vs_dense":3.5}]}"#,
        )
        .unwrap();
        let ok = run(&Command::BenchDiff {
            baseline: good.to_str().unwrap().into(),
            candidate: good.to_str().unwrap().into(),
            max_regress: 2.0,
        })
        .unwrap();
        assert!(ok.contains("OK: no regressions"), "{ok}");
        let err = run(&Command::BenchDiff {
            baseline: good.to_str().unwrap().into(),
            candidate: bad.to_str().unwrap().into(),
            max_regress: 2.0,
        })
        .unwrap_err();
        assert!(err.contains("REGRESSION"), "{err}");
        assert!(err.contains("total_cycles"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_simulate_with_events_and_ledger() {
        let dir = std::env::temp_dir().join(format!("eureka-cli-events-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let events_path = dir.join("run.jsonl");
        let ledger_path = dir.join("ledger");
        let cmd = parse([
            "simulate",
            "--benchmark",
            "mobilenet",
            "--arch",
            "eureka-p4",
            "--batch",
            "4",
            "--fast",
            "--no-progress",
            "--events-out",
            events_path.to_str().unwrap(),
            "--ledger-dir",
            ledger_path.to_str().unwrap(),
        ])
        .unwrap();
        let out = run(&cmd).unwrap();
        assert!(out.contains("total cycles"), "{out}");
        // Every emitted line is schema-valid, and the stream brackets the
        // run with run-started/run-finished.
        let stream = std::fs::read_to_string(&events_path).unwrap();
        assert!(stream.lines().count() > 2, "events were streamed");
        for line in stream.lines() {
            eureka_obs::events::validate_line(line).unwrap_or_else(|e| panic!("{e}\n{line}"));
        }
        assert!(stream.contains("\"event\":\"run-started\""));
        assert!(stream.contains("\"event\":\"run-finished\""));
        // The ledger recorded the run with the emitted-event count.
        let records = eureka_sim::ledger::read_dir(&ledger_path).unwrap();
        assert_eq!(records.len(), 1);
        let v = &records[0].1;
        use eureka_obs::json::Value;
        assert_eq!(v.get("kind").and_then(Value::as_str), Some("simulate"));
        assert_eq!(
            v.get("events").and_then(Value::as_f64),
            Some(stream.lines().count() as f64)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_verify_single_arch() {
        let cmd = parse([
            "verify",
            "--cases",
            "3",
            "--seed",
            "7",
            "--arch",
            "eureka-p4",
        ])
        .unwrap();
        let out = run(&cmd).unwrap();
        assert!(out.contains("eureka-p4"), "{out}");
        assert!(out.contains("all architectures verified"), "{out}");
    }

    #[test]
    fn run_verify_replays_committed_corpus() {
        let cmd = parse(["verify", "--replay", "../../tests/corpus"]).unwrap();
        let out = run(&cmd).unwrap();
        assert!(out.contains("all pass"), "{out}");
    }

    #[test]
    fn bench_diff_exit_codes_distinguish_bad_input_from_regression() {
        let dir = std::env::temp_dir().join(format!("eureka-cli-diff-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let snapshot = |cycles: u64| {
            format!(
                "{{\"schema\":\"eureka-bench-v1\",\"benchmark\":\"mobilenet_v1\",\
                 \"pruning\":\"mod\",\"sampling\":\"fast\",\"archs\":[{{\"name\":\"a\",\
                 \"total_cycles\":{cycles}}}]}}"
            )
        };
        let base = dir.join("base.json");
        let worse = dir.join("worse.json");
        std::fs::write(&base, snapshot(100)).unwrap();
        std::fs::write(&worse, snapshot(200)).unwrap();

        let diff = |a: &std::path::Path, b: &std::path::Path| {
            run_with_code(&Command::BenchDiff {
                baseline: a.display().to_string(),
                candidate: b.display().to_string(),
                max_regress: 2.0,
            })
        };

        // A missing snapshot is broken wiring, not a regression: exit 2.
        let err = diff(&dir.join("nope.json"), &base).unwrap_err();
        assert_eq!(err.code, 2, "{}", err.message);
        assert!(err.message.contains("unusable snapshot"), "{}", err.message);
        // Malformed JSON too.
        let garbage = dir.join("garbage.json");
        std::fs::write(&garbage, "not json").unwrap();
        let err = diff(&garbage, &base).unwrap_err();
        assert_eq!(err.code, 2, "{}", err.message);

        // A genuine regression fires the gate: exit 1.
        let err = diff(&base, &worse).unwrap_err();
        assert_eq!(err.code, 1, "{}", err.message);
        assert!(err.message.contains("total_cycles"), "{}", err.message);

        // The unregressed direction passes.
        assert!(diff(&base, &base).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn report_surfaces_failure_and_recovery_counters_only_when_nonzero() {
        use eureka_obs::metrics::{counter, Class};
        // No cli test drives a failing or degraded run, so these
        // counters are ours alone to set here.
        let names = [
            "runner.failures.panic",
            "runner.failures.sim_error",
            "runner.failures.cancelled",
            "checkpoint.errors",
            "runner.backoff.slept_us",
            "journal.errors",
        ];
        for name in names {
            counter(name, Class::Deterministic).reset();
        }
        assert_eq!(health_warning_lines(), "", "healthy runs stay silent");

        counter("runner.failures.panic", Class::Deterministic).add(2);
        counter("checkpoint.errors", Class::Deterministic).inc();
        counter("runner.backoff.slept_us", Class::Deterministic).add(1_500);
        counter("journal.errors", Class::Deterministic).add(4);
        let warnings = health_warning_lines();
        for name in names {
            counter(name, Class::Deterministic).reset();
        }
        assert!(warnings.contains("unit failures  : 2 panic"), "{warnings}");
        assert!(warnings.contains("ckpt errors    : 1"), "{warnings}");
        assert!(
            warnings.contains("backoff        : 1500 us slept"),
            "{warnings}"
        );
        assert!(warnings.contains("journal errors : 4"), "{warnings}");
    }
}
