//! Resident job service: admission control, deadlines, cancellation,
//! and crash recovery over the runner.
//!
//! A [`JobService`] owns a single worker thread and a bounded admission
//! queue. Submitting a [`JobSpec`] either admits it — journaled as
//! *accepted* ([`crate::journal`]) before anything else happens, so a
//! SIGKILL'd process replays it on restart — or rejects it with a typed
//! [`SubmitError`]: [`SubmitError::Overloaded`] when the queue is full
//! (load shedding, backpressure to the caller) or
//! [`SubmitError::Draining`] once a graceful drain has begun.
//!
//! Jobs execute one at a time under the full resilience stack: bounded
//! retries with seeded exponential backoff ([`crate::backoff`]),
//! cooperative cancellation and deadlines checked at unit boundaries
//! ([`crate::runner::CancelToken`]), checkpoint-store dedup so a
//! replayed job never recomputes units it completed in a previous life,
//! and a terminal journal record when the job leaves the system.
//!
//! Every job enters through one admit path (fresh submission or journal
//! recovery) and leaves through one finish path (end of run, or
//! cancellation in the queue); a submission shed at admission is
//! counted by the shed path. These paths alone count the job in the
//! `service.*` metrics, record its latency samples —
//! `service.{queue_wait_us,exec_us,e2e_us}.<class>`, one histogram
//! triple per [`OUTCOME_CLASSES`] entry, from monotonic admission /
//! dequeue (= start) / finish stamps — write its terminal journal
//! record, and publish its lifecycle events (`job-accepted`,
//! `job-admitted`, `job-queued`, `job-retried`, `job-completed`,
//! `job-finished`, `job-cancelled`, `job-deadline-exceeded`,
//! `job-shed`, `job-recovered`; the worker adds `job-dequeued` /
//! `job-started`, a drain `service-drained`). Every event goes both
//! onto the `eureka-events-v1` bus, when armed, and into the service's
//! always-armed flight recorder ([`Recorder`]). The finish path runs
//! under the state lock and publishes the terminal status last, so
//! whoever sees a terminal status sees its accounting done. Latencies
//! are recorded only at terminal transitions — when the outcome class
//! is finally known — so at quiescence each class's histogram `count`
//! equals its counter exactly ([`latency_counts`]), and the counters
//! reconcile:
//!
//! ```text
//! service.served == service.completed + service.shed
//!                 + service.cancelled + service.deadline_exceeded
//!                 + service.failed
//! ```
//!
//! (`service.served` counts every admission — fresh, recovered, or
//! shed — *in this process lifetime*; a crashed generation leaves a gap
//! that the next generation's recovery re-admissions close. Tests that
//! emulate crashes in-process reset the metrics per generation.)
//!
//! The wire protocol (JSON-lines over a Unix socket) lives in
//! [`handle_request`]; the socket accept loop itself is in the CLI,
//! which also owns the SIGTERM latch that triggers [`JobService::drain`].

use crate::arch;
use crate::backoff::BackoffPolicy;
use crate::checkpoint::fnv1a64;
use crate::config::SimConfig;
use crate::journal::{Journal, JournalState};
use crate::outcome::{JobOutcome, RetryPolicy};
use crate::runner::{self, CancelToken, Runner, SimJob};
use eureka_models::{Benchmark, PruningLevel, Workload};
use eureka_obs::events::{self, Event};
use eureka_obs::flightrec::Recorder;
use eureka_obs::json::Value;
use eureka_obs::metrics::{self, Class, Counter, Histogram};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Spec format marker, the first `|`-field of [`JobSpec::canonical`].
const SPEC_HEADER: &str = "eureka-job v1";

/// One unit of admitted work: a benchmark × pruning × batch × arch
/// simulation request, plus its resilience envelope (deadline, retry
/// budget). The canonical rendering is the job's durable identity: it
/// names the journal entry, so resubmitting an identical spec after a
/// crash dedups onto the same record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobSpec {
    /// The network to simulate.
    pub benchmark: Benchmark,
    /// The pruning level.
    pub pruning: PruningLevel,
    /// Batch size (≥ 1).
    pub batch: usize,
    /// Architecture registry name ([`crate::arch::by_name`]).
    pub arch: String,
    /// Per-job deadline in milliseconds, measured from execution start;
    /// `0` defers to [`ServiceConfig::default_deadline_ms`].
    pub deadline_ms: u64,
    /// Per-job retry budget: how many *re*-attempts each failed unit
    /// gets beyond its first try.
    pub retries: u32,
}

/// Stable kebab token for a benchmark (the CLI's primary alias).
fn benchmark_token(b: Benchmark) -> &'static str {
    match b {
        Benchmark::MobileNetV1 => "mobilenetv1",
        Benchmark::InceptionV3 => "inceptionv3",
        Benchmark::ResNet50 => "resnet50",
        Benchmark::BertSquad => "bert",
    }
}

fn benchmark_from_token(s: &str) -> Option<Benchmark> {
    Some(match s {
        "mobilenetv1" => Benchmark::MobileNetV1,
        "inceptionv3" => Benchmark::InceptionV3,
        "resnet50" => Benchmark::ResNet50,
        "bert" => Benchmark::BertSquad,
        _ => return None,
    })
}

fn pruning_from_token(s: &str) -> Option<PruningLevel> {
    Some(match s {
        "dense" => PruningLevel::Dense,
        "cons" => PruningLevel::Conservative,
        "mod" => PruningLevel::Moderate,
        _ => return None,
    })
}

impl JobSpec {
    /// A spec with the service-default deadline and retry budget.
    #[must_use]
    pub fn new(
        benchmark: Benchmark,
        pruning: PruningLevel,
        batch: usize,
        arch: impl Into<String>,
    ) -> Self {
        JobSpec {
            benchmark,
            pruning,
            batch,
            arch: arch.into(),
            deadline_ms: 0,
            retries: 0,
        }
    }

    /// Stable single-line rendering: the journal spec and the content
    /// key. Identical specs — across processes, across restarts —
    /// render identically.
    #[must_use]
    pub fn canonical(&self) -> String {
        format!(
            "{SPEC_HEADER}|bench={}|pruning={}|batch={}|arch={}|deadline_ms={}|retries={}",
            benchmark_token(self.benchmark),
            self.pruning.label(),
            self.batch,
            self.arch,
            self.deadline_ms,
            self.retries,
        )
    }

    /// Inverse of [`JobSpec::canonical`]; `None` for anything
    /// malformed (unknown header, missing field, bad number). Does not
    /// check the architecture against the registry — that happens at
    /// submission, so a journal written by a newer binary still parses.
    #[must_use]
    pub fn parse(s: &str) -> Option<JobSpec> {
        let mut fields = s.split('|');
        if fields.next()? != SPEC_HEADER {
            return None;
        }
        let mut benchmark = None;
        let mut pruning = None;
        let mut batch = None;
        let mut arch = None;
        let mut deadline_ms = None;
        let mut retries = None;
        for field in fields {
            let (k, v) = field.split_once('=')?;
            match k {
                "bench" => benchmark = Some(benchmark_from_token(v)?),
                "pruning" => pruning = Some(pruning_from_token(v)?),
                "batch" => batch = Some(v.parse().ok()?),
                "arch" => arch = Some(v.to_string()),
                "deadline_ms" => deadline_ms = Some(v.parse().ok()?),
                "retries" => retries = Some(v.parse().ok()?),
                _ => return None,
            }
        }
        Some(JobSpec {
            benchmark: benchmark?,
            pruning: pruning?,
            batch: batch?,
            arch: arch?,
            deadline_ms: deadline_ms?,
            retries: retries?,
        })
    }

    /// 16-hex-digit content digest of the canonical spec (the journal
    /// file stem; also the `key` field of job events).
    #[must_use]
    pub fn digest(&self) -> String {
        format!("{:016x}", fnv1a64(self.canonical().as_bytes()))
    }
}

/// Why a submission was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The admission queue is full; the caller should back off and
    /// retry. Counted as shed load (`service.shed`).
    Overloaded {
        /// The configured queue capacity that was exceeded.
        capacity: usize,
    },
    /// The service is draining (SIGTERM or an operator drain) and
    /// admits nothing new. Counted as shed load.
    Draining,
    /// The spec itself is unusable (unknown architecture, zero batch).
    /// Not counted as served: nothing was admitted or shed.
    Invalid(String),
    /// The write-ahead *accepted* record could not be written, so the
    /// durability promise cannot be made. Not counted as served.
    Journal(String),
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Overloaded { capacity } => {
                write!(f, "overloaded: admission queue at capacity {capacity}")
            }
            SubmitError::Draining => write!(f, "draining: service admits no new jobs"),
            SubmitError::Invalid(why) => write!(f, "invalid job spec: {why}"),
            SubmitError::Journal(why) => write!(f, "journal write failed: {why}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Where a job is in its lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Admitted, waiting for the worker.
    Queued,
    /// Executing right now.
    Running,
    /// Every layer simulated successfully; the report is available.
    Completed,
    /// At least one layer failed permanently (retry budget exhausted).
    Failed,
    /// Cancelled by an operator before completing.
    Cancelled,
    /// Cooperatively stopped when its deadline passed.
    DeadlineExceeded,
}

impl JobStatus {
    /// Stable label (wire protocol, event fields, reports).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Completed => "completed",
            JobStatus::Failed => "failed",
            JobStatus::Cancelled => "cancelled",
            JobStatus::DeadlineExceeded => "deadline-exceeded",
        }
    }

    /// Whether the job has left the system.
    #[must_use]
    pub fn is_terminal(self) -> bool {
        !matches!(self, JobStatus::Queued | JobStatus::Running)
    }

    /// A terminal status's [`OUTCOME_CLASSES`] index, journal state, and
    /// class event (`Queued`/`Running` never reach here; they would
    /// count as failed).
    fn terminal(self, id: u64) -> (usize, JournalState, Event) {
        let event = |kind| job_event(kind, id);
        match self {
            JobStatus::Completed => (
                COMPLETED,
                JournalState::Completed,
                event("job-completed").det_bool("ok", true),
            ),
            JobStatus::Cancelled => (CANCELLED, JournalState::Cancelled, event("job-cancelled")),
            JobStatus::DeadlineExceeded => (
                DEADLINE_EXCEEDED,
                JournalState::DeadlineExceeded,
                event("job-deadline-exceeded"),
            ),
            JobStatus::Queued | JobStatus::Running | JobStatus::Failed => (
                FAILED,
                JournalState::Failed,
                event("job-completed").det_bool("ok", false),
            ),
        }
    }
}

/// A lifecycle event of job `id`.
fn job_event(kind: &'static str, id: u64) -> Event {
    Event::new(kind).det_u64("job", id)
}

/// Service tuning: queue bound, resilience defaults, storage roots.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Admission queue bound; submissions beyond it are shed with
    /// [`SubmitError::Overloaded`].
    pub queue_capacity: usize,
    /// Deadline applied to jobs whose spec says `0` (`0` = none).
    pub default_deadline_ms: u64,
    /// Backoff schedule between unit retry attempts.
    pub backoff: BackoffPolicy,
    /// Write-ahead journal directory (required: it is the crash story).
    pub journal_dir: PathBuf,
    /// Checkpoint directory; when set, completed units persist and a
    /// replayed job resumes instead of recomputing them.
    pub checkpoint_dir: Option<PathBuf>,
    /// Runner worker threads per job (`0` = auto).
    pub jobs: usize,
    /// Simulator configuration applied to every job.
    pub sim: SimConfig,
    /// Start paused (test hook): queued jobs wait until
    /// [`JobService::release`], making overload and crash windows
    /// deterministic.
    pub hold: bool,
    /// Chaos hook: wrap every resolved architecture in a
    /// [`crate::faults::FaultyArch`] carrying this plan, under the
    /// given display tag (tags namespace the unit cache, so injected
    /// runs never alias clean ones — and two generations sharing a tag
    /// *do* share checkpoints, which the crash-recovery chaos scenarios
    /// rely on).
    pub fault: Option<(crate::faults::FaultPlan, String)>,
    /// Directory for flight-recorder dumps
    /// (`flightrec-<pid>.jsonl`, written by the `dump` protocol verb
    /// and the serve loop's crash/signal hooks).
    pub flightrec_dir: PathBuf,
}

impl ServiceConfig {
    /// Defaults: queue of 8, no default deadline, jittered exponential
    /// backoff (500 µs base, 50 ms cap), single-threaded runner, fast
    /// simulator profile.
    #[must_use]
    pub fn new(journal_dir: impl Into<PathBuf>) -> Self {
        ServiceConfig {
            queue_capacity: 8,
            default_deadline_ms: 0,
            backoff: BackoffPolicy::exponential(500, 50_000),
            journal_dir: journal_dir.into(),
            checkpoint_dir: None,
            jobs: 1,
            sim: SimConfig::fast(),
            hold: false,
            fault: None,
            flightrec_dir: PathBuf::from("results"),
        }
    }
}

/// Outcome classes, in the order [`latency_counts`] reports them and
/// [`ServiceStats::reconciled`] sums them. Each class owns the counter
/// `service.<class>` and the latency histograms
/// `service.{queue_wait_us,exec_us,e2e_us}.<class>`; every terminal
/// transition lands in exactly one class, so at quiescence each class's
/// e2e histogram count equals its counter.
pub const OUTCOME_CLASSES: [&str; 5] = [
    "completed",
    "shed",
    "cancelled",
    "deadline_exceeded",
    "failed",
];

/// [`OUTCOME_CLASSES`] indices.
const COMPLETED: usize = 0;
const SHED: usize = 1;
const CANCELLED: usize = 2;
const DEADLINE_EXCEEDED: usize = 3;
const FAILED: usize = 4;

/// One outcome class's counter and latency histograms.
struct ClassMetrics {
    /// `service.<class>`: jobs (or shed submissions) that left the
    /// system under this class.
    count: &'static Counter,
    /// `service.queue_wait_us.<class>`: admission → dequeue (for jobs
    /// cancelled in the queue: admission → cancellation).
    queue_wait: &'static Histogram,
    /// `service.exec_us.<class>`: execution start → finish.
    exec: &'static Histogram,
    /// `service.e2e_us.<class>`: admission → terminal. Recorded for
    /// *every* terminal transition (shed requests record `0`: they
    /// leave at admission), so its count is the class's job count.
    e2e: &'static Histogram,
}

/// `&'static` handles to the `service.*` metrics. The counters are
/// [`Class::Deterministic`]; the histograms are [`Class::Timing`]
/// (wall-clock derived: excluded from the deterministic snapshot /
/// `metrics_digest` by design).
struct ServiceMetrics {
    served: &'static Counter,
    recovered: &'static Counter,
    retried: &'static Counter,
    /// Indexed like [`OUTCOME_CLASSES`].
    classes: [ClassMetrics; OUTCOME_CLASSES.len()],
}

fn service_metrics() -> &'static ServiceMetrics {
    static M: OnceLock<ServiceMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let name = |text: String| -> &'static str { Box::leak(text.into_boxed_str()) };
        let hist = |phase: &str, class: &str| {
            let name = name(format!("service.{phase}.{class}"));
            metrics::histogram(name, Class::Timing, metrics::TIME_BUCKETS_US)
        };
        ServiceMetrics {
            served: metrics::counter("service.served", Class::Deterministic),
            recovered: metrics::counter("service.recovered", Class::Deterministic),
            retried: metrics::counter("service.retried", Class::Deterministic),
            classes: OUTCOME_CLASSES.map(|class| ClassMetrics {
                count: metrics::counter(name(format!("service.{class}")), Class::Deterministic),
                queue_wait: hist("queue_wait_us", class),
                exec: hist("exec_us", class),
                e2e: hist("e2e_us", class),
            }),
        }
    })
}

/// A [`Duration`] in whole microseconds (saturating).
fn us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// End-to-end latency sample counts per outcome class, in
/// [`OUTCOME_CLASSES`] order. At quiescence these equal
/// `[completed, shed, cancelled, deadline_exceeded, failed]` of
/// [`service_stats`] exactly — the lifecycle reconciliation invariant
/// the chaos harness asserts per scenario.
#[must_use]
pub fn latency_counts() -> [u64; 5] {
    service_metrics().classes.each_ref().map(|c| c.e2e.count())
}

/// Snapshot of the `service.*` counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServiceStats {
    /// Admissions this process lifetime: fresh accepts + recovery
    /// re-admissions + shed submissions.
    pub served: u64,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Submissions rejected for overload or drain.
    pub shed: u64,
    /// Jobs cancelled by an operator.
    pub cancelled: u64,
    /// Jobs stopped at their deadline.
    pub deadline_exceeded: u64,
    /// Jobs that failed permanently.
    pub failed: u64,
    /// Jobs replayed from the journal at startup.
    pub recovered: u64,
    /// Jobs that needed at least one unit retry.
    pub retried: u64,
}

impl ServiceStats {
    /// The [`OUTCOME_CLASSES`] counters as `(class, count)` pairs, in
    /// that order.
    #[must_use]
    pub fn classes(&self) -> [(&'static str, u64); 5] {
        [
            ("completed", self.completed),
            ("shed", self.shed),
            ("cancelled", self.cancelled),
            ("deadline_exceeded", self.deadline_exceeded),
            ("failed", self.failed),
        ]
    }

    /// The ledger reconciliation invariant, valid at quiescence (no
    /// queued or running jobs, no crashed generation since the last
    /// metric reset).
    #[must_use]
    pub fn reconciled(&self) -> bool {
        self.served
            == self.completed + self.shed + self.cancelled + self.deadline_exceeded + self.failed
    }
}

/// Reads the `service.*` counters.
#[must_use]
pub fn service_stats() -> ServiceStats {
    let m = service_metrics();
    let [completed, shed, cancelled, deadline_exceeded, failed] =
        m.classes.each_ref().map(|c| c.count.get());
    ServiceStats {
        served: m.served.get(),
        completed,
        shed,
        cancelled,
        deadline_exceeded,
        failed,
        recovered: m.recovered.get(),
        retried: m.retried.get(),
    }
}

/// Zeroes the `service.*` counters and latency histograms (tests;
/// per-generation accounting).
pub fn service_reset() {
    let m = service_metrics();
    for counter in [m.served, m.recovered, m.retried] {
        counter.reset();
    }
    for class in &m.classes {
        class.count.reset();
        class.queue_wait.reset();
        class.exec.reset();
        class.e2e.reset();
    }
}

/// SLA summary of one service lifetime against a latency budget:
/// sustained completed-jobs/sec, shed rate, and whether the service
/// saturated (p99 end-to-end latency over budget, or any load shed).
/// Written into the run ledger by `eureka serve --sla-budget-us` so
/// `bench diff` gates service-latency regressions like cycle
/// regressions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SlaReport {
    /// The configured end-to-end latency budget (µs).
    pub budget_us: u64,
    /// Observed p99 end-to-end latency of *completed* jobs (µs).
    pub p99_e2e_us: u64,
    /// Completed jobs per wall-clock second over the service lifetime.
    pub jobs_per_sec: f64,
    /// Shed submissions / total served (0 when nothing was served).
    pub shed_rate: f64,
    /// `p99_e2e_us > budget_us || shed_rate > 0`: the service could not
    /// absorb its offered load within budget.
    pub saturated: bool,
}

/// The SLA summary for the current `service.*` state over `elapsed` of
/// service lifetime. Uses the completed class's e2e histogram for p99,
/// so call at quiescence (after drain) for exact accounting.
#[must_use]
pub fn sla_report(budget_us: u64, elapsed: Duration) -> SlaReport {
    let stats = service_stats();
    let p99_e2e_us = service_metrics().classes[COMPLETED].e2e.p99();
    #[allow(clippy::cast_precision_loss)]
    let jobs_per_sec = stats.completed as f64 / elapsed.as_secs_f64().max(f64::MIN_POSITIVE);
    #[allow(clippy::cast_precision_loss)]
    let shed_rate = if stats.served == 0 {
        0.0
    } else {
        stats.shed as f64 / stats.served as f64
    };
    SlaReport {
        budget_us,
        p99_e2e_us,
        jobs_per_sec,
        shed_rate,
        saturated: p99_e2e_us > budget_us || shed_rate > 0.0,
    }
}

/// A finished job's latency breakdown, from its monotonic lifecycle
/// stamps (`None` for phases the job never reached — a queued job has
/// no exec time yet; a job cancelled in the queue never gets one).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobTimeline {
    /// Admission → dequeue (for jobs cancelled while still queued:
    /// admission → cancellation).
    pub queue_wait_us: Option<u64>,
    /// Execution start → finish.
    pub exec_us: Option<u64>,
    /// Admission → terminal.
    pub e2e_us: Option<u64>,
}

struct JobRecord {
    spec: JobSpec,
    status: JobStatus,
    outcome: Option<JobOutcome>,
    admitted_at: Instant,
    /// Dequeued, which is also when execution starts.
    dequeued_at: Option<Instant>,
    finished_at: Option<Instant>,
}

impl JobRecord {
    fn timeline(&self) -> JobTimeline {
        let since = |later: Instant, earlier: Instant| us(later.saturating_duration_since(earlier));
        JobTimeline {
            queue_wait_us: self
                .dequeued_at
                .or(self.finished_at) // cancelled in the queue: wait ended at the terminal
                .map(|t| since(t, self.admitted_at)),
            exec_us: match (self.dequeued_at, self.finished_at) {
                (Some(s), Some(f)) => Some(since(f, s)),
                _ => None,
            },
            e2e_us: self.finished_at.map(|f| since(f, self.admitted_at)),
        }
    }
}

struct ServiceState {
    queue: VecDeque<u64>,
    jobs: HashMap<u64, JobRecord>,
    next_id: u64,
    draining: bool,
    stopping: bool,
    paused: bool,
    crashed: bool,
    running: Option<(u64, CancelToken)>,
}

struct ServiceInner {
    cfg: ServiceConfig,
    journal: Journal,
    recorder: Arc<Recorder>,
    state: Mutex<ServiceState>,
    work: Condvar,
    idle: Condvar,
}

impl ServiceInner {
    /// Publishes one lifecycle event: always into the flight recorder,
    /// and onto the bus when it is armed.
    fn publish(&self, ev: Event) {
        if events::enabled() {
            events::emit(ev.clone());
        }
        self.recorder.record(ev);
    }

    /// The admit path, shared by fresh submissions (whose accepted
    /// journal record the caller has already written) and journal
    /// recovery: counts the admission, publishes it, and queues the job.
    fn admit(&self, st: &mut ServiceState, spec: JobSpec, recovered: bool) -> u64 {
        let m = service_metrics();
        let id = st.next_id;
        st.next_id += 1;
        let key = spec.digest();
        m.served.inc();
        let origin = if recovered {
            m.recovered.inc();
            "job-recovered"
        } else {
            "job-accepted"
        };
        self.publish(job_event(origin, id).det_str("key", key.clone()));
        self.publish(job_event("job-admitted", id).det_str("key", key));
        self.publish(job_event("job-queued", id));
        st.jobs.insert(
            id,
            JobRecord {
                spec,
                status: JobStatus::Queued,
                outcome: None,
                admitted_at: Instant::now(),
                dequeued_at: None,
                finished_at: None,
            },
        );
        st.queue.push_back(id);
        id
    }

    /// Sheds a submission rejected at admission (queue full, or
    /// draining): it is admitted and leaves in one step, so its
    /// end-to-end sample is 0 and the shed class's histogram count
    /// tracks `service.shed` exactly.
    fn shed(&self, capacity: usize) {
        let m = service_metrics();
        m.served.inc();
        m.classes[SHED].count.inc();
        m.classes[SHED].e2e.record(0);
        self.publish(Event::new("job-shed").det_u64("capacity", capacity as u64));
    }

    /// The finish path of an admitted job, shared by the worker's end of
    /// job and cancellation of a queued job: the class counter, the
    /// latency samples, the bus and recorder events and the terminal
    /// journal record (`retried` is the unit retries the run needed).
    /// The caller holds the state lock throughout, and the terminal
    /// status (plus `running = None`) is published last, so whoever sees
    /// a terminal status — [`JobService::status`],
    /// [`JobService::wait_idle`] — sees the accounting done.
    fn finish(
        &self,
        st: &mut ServiceState,
        id: u64,
        status: JobStatus,
        outcome: Option<JobOutcome>,
        retried: u64,
    ) {
        let record = st
            .jobs
            .get_mut(&id)
            .expect("invariant: every finishing job has a record");
        record.finished_at = Some(Instant::now());
        let t = record.timeline();
        let (class, journal_state, class_event) = status.terminal(id);
        let class = &service_metrics().classes[class];
        class.count.inc();
        if let Some(wait) = t.queue_wait_us {
            class.queue_wait.record(wait);
        }
        let mut finished = job_event("job-finished", id).det_str("outcome", status.label());
        if let Some(exec) = t.exec_us {
            class.exec.record(exec);
            finished = finished.wall_u64("exec_us", exec);
        }
        let e2e = t.e2e_us.unwrap_or(0);
        class.e2e.record(e2e);
        if self
            .journal
            .record(&record.spec.canonical(), journal_state)
            .is_err()
        {
            metrics::counter("journal.errors", Class::Deterministic).inc();
        }
        if retried > 0 {
            service_metrics().retried.inc();
            self.publish(job_event("job-retried", id).det_u64("attempts", retried));
        }
        self.publish(finished.wall_u64("e2e_us", e2e));
        self.publish(class_event);
        // Published last: see above.
        record.status = status;
        record.outcome = outcome;
        st.running.take_if(|(running, _)| *running == id);
        self.idle.notify_all();
    }
}

/// The resident job service: one worker thread, a bounded queue, a
/// write-ahead journal. See the [module docs](self) for the lifecycle.
pub struct JobService {
    inner: Arc<ServiceInner>,
    worker: Option<std::thread::JoinHandle<()>>,
}

impl JobService {
    /// Starts the service: replays accepted-but-unfinished jobs from
    /// the journal (emitting `job-recovered` and ticking
    /// `service.recovered` + `service.served` per replayed job), then
    /// spawns the worker thread.
    #[must_use]
    pub fn start(cfg: ServiceConfig) -> Self {
        let journal = Journal::new(cfg.journal_dir.clone());
        let paused = cfg.hold;
        let inner = Arc::new(ServiceInner {
            cfg,
            journal,
            recorder: Arc::default(),
            state: Mutex::new(ServiceState {
                queue: VecDeque::new(),
                jobs: HashMap::new(),
                next_id: 1,
                draining: false,
                stopping: false,
                paused,
                crashed: false,
                running: None,
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
        });

        // Crash recovery: re-admit every journaled job that never
        // reached a terminal state. Unfinished units recompute; units
        // the previous life completed replay from the checkpoint store.
        {
            let mut st = lock(&inner.state);
            for spec_text in inner.journal.recover() {
                let Some(spec) = JobSpec::parse(&spec_text) else {
                    // Journaled by an incompatible version: count it as
                    // a journal error and move on, never abort startup.
                    metrics::counter("journal.errors", Class::Deterministic).inc();
                    continue;
                };
                inner.admit(&mut st, spec, true);
            }
        }

        let worker_inner = Arc::clone(&inner);
        let worker = std::thread::Builder::new()
            .name("eureka-serve-worker".into())
            .spawn(move || worker_loop(&worker_inner))
            .expect("spawning the service worker thread");
        JobService {
            inner,
            worker: Some(worker),
        }
    }

    /// Submits a job. On admission the spec is journaled as *accepted*
    /// (write-ahead: the durable record exists before the job can run),
    /// queued, and its id returned.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Overloaded`] when the queue is at capacity,
    /// [`SubmitError::Draining`] during a drain (both shed and counted),
    /// [`SubmitError::Invalid`] for unusable specs,
    /// [`SubmitError::Journal`] when the accepted record cannot be
    /// written.
    pub fn submit(&self, spec: JobSpec) -> Result<u64, SubmitError> {
        if spec.batch == 0 {
            return Err(SubmitError::Invalid("batch must be >= 1".into()));
        }
        if arch::by_name(&spec.arch).is_none() {
            return Err(SubmitError::Invalid(format!(
                "unknown architecture '{}'",
                spec.arch
            )));
        }
        let capacity = self.inner.cfg.queue_capacity;
        let mut st = lock(&self.inner.state);
        let refusal = if st.draining || st.stopping {
            Some(SubmitError::Draining)
        } else if st.queue.len() >= capacity {
            Some(SubmitError::Overloaded { capacity })
        } else {
            None
        };
        if let Some(refusal) = refusal {
            self.inner.shed(capacity);
            return Err(refusal);
        }
        // Write-ahead: the accepted record must be durable before the
        // job exists anywhere else.
        if let Err(e) = self
            .inner
            .journal
            .record(&spec.canonical(), JournalState::Accepted)
        {
            return Err(SubmitError::Journal(e.to_string()));
        }
        let id = self.inner.admit(&mut st, spec, false);
        drop(st);
        self.inner.work.notify_all();
        Ok(id)
    }

    /// The job's current status; `None` for unknown ids.
    #[must_use]
    pub fn status(&self, id: u64) -> Option<JobStatus> {
        lock(&self.inner.state).jobs.get(&id).map(|r| r.status)
    }

    /// The job's outcome, once terminal (`None` before that, and for
    /// cancelled/deadline jobs whose run produced nothing).
    #[must_use]
    pub fn outcome(&self, id: u64) -> Option<JobOutcome> {
        lock(&self.inner.state)
            .jobs
            .get(&id)
            .and_then(|r| r.outcome.clone())
    }

    /// The job's latency breakdown from its lifecycle stamps; `None`
    /// for unknown ids. Phases the job has not reached are `None`
    /// inside the timeline.
    #[must_use]
    pub fn timeline(&self, id: u64) -> Option<JobTimeline> {
        lock(&self.inner.state)
            .jobs
            .get(&id)
            .map(JobRecord::timeline)
    }

    /// This service's flight recorder (shared, so a panic hook can dump
    /// it).
    #[must_use]
    pub fn flight_recorder(&self) -> Arc<Recorder> {
        Arc::clone(&self.inner.recorder)
    }

    /// Dumps the flight recorder to this service's configured dump
    /// directory ([`ServiceConfig::flightrec_dir`]), returning the path
    /// written.
    ///
    /// # Errors
    ///
    /// Stringified I/O failure from [`Recorder::dump_to`].
    pub fn dump_flightrec(&self) -> Result<PathBuf, String> {
        self.inner
            .recorder
            .dump_to(&self.inner.cfg.flightrec_dir)
            .map_err(|e| e.to_string())
    }

    /// Cancels a job: a queued job is removed and recorded terminal
    /// immediately; a running job's token fires and the runner stops at
    /// the next unit boundary. Returns `false` for unknown or
    /// already-terminal jobs.
    pub fn cancel(&self, id: u64) -> bool {
        let mut st = lock(&self.inner.state);
        if let Some((running_id, token)) = &st.running {
            if *running_id == id {
                token.cancel();
                return true; // classified (and journaled) at run end
            }
        }
        if st.jobs.get(&id).map(|r| r.status) != Some(JobStatus::Queued) {
            return false;
        }
        st.queue.retain(|q| *q != id);
        self.inner
            .finish(&mut st, id, JobStatus::Cancelled, None, 0);
        true
    }

    /// Releases a held service ([`ServiceConfig::hold`]): the worker
    /// starts draining the queue.
    pub fn release(&self) {
        lock(&self.inner.state).paused = false;
        self.inner.work.notify_all();
    }

    /// Blocks until no job is queued or running (bounded wait; `false`
    /// on timeout). A held service is *not* released — callers that
    /// held it release it first.
    pub fn wait_idle(&self) -> bool {
        let deadline = Instant::now() + Duration::from_secs(120);
        let mut st = lock(&self.inner.state);
        while !(st.queue.is_empty() && st.running.is_none()) {
            if Instant::now() >= deadline {
                return false;
            }
            let (guard, _) = self
                .inner
                .idle
                .wait_timeout(st, Duration::from_millis(25))
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
        }
        true
    }

    /// Graceful drain: stop admitting (subsequent submissions shed with
    /// [`SubmitError::Draining`]), finish everything in flight, then
    /// emit `service-drained`. Nothing needs flushing: journal records
    /// are individually atomic and the tile store lives in memory only.
    /// Returns `false` if the drain timed out.
    pub fn drain(&self) -> bool {
        {
            let mut st = lock(&self.inner.state);
            st.draining = true;
            st.paused = false; // a held service still finishes its work
        }
        self.inner.work.notify_all();
        let ok = self.wait_idle();
        self.inner.publish(Event::new("service-drained"));
        ok
    }

    /// `(queued, running, draining)` — the health-endpoint snapshot.
    #[must_use]
    pub fn health(&self) -> (usize, bool, bool) {
        let st = lock(&self.inner.state);
        (st.queue.len(), st.running.is_some(), st.draining)
    }

    /// Graceful shutdown: drain, then stop and join the worker (on
    /// drop).
    pub fn shutdown(self) {
        let _ = self.drain();
    }

    /// Crash emulation (test hook): abandon everything *without*
    /// journaling terminal states — the in-process equivalent of
    /// SIGKILL. Queued and running jobs keep their *accepted* journal
    /// records, so a service restarted on the same journal directory
    /// replays them.
    pub fn crash(self) {
        let mut st = lock(&self.inner.state);
        st.crashed = true;
        st.stopping = true; // the worker claims nothing more
    }
}

impl Drop for JobService {
    /// Stops and joins the worker without draining. Queued jobs keep
    /// their accepted journal records and replay on the next start; the
    /// running job (if any) is cancelled and journaled as such (unless
    /// the service [crashed](JobService::crash)).
    fn drop(&mut self) {
        {
            let mut st = lock(&self.inner.state);
            st.stopping = true;
            if let Some((_, token)) = &st.running {
                token.cancel();
            }
        }
        self.inner.work.notify_all();
        if let Some(h) = self.worker.take() {
            let _ = h.join();
        }
    }
}

/// The worker: pops jobs one at a time, runs each under the full
/// resilience stack, records the terminal state.
fn worker_loop(inner: &ServiceInner) {
    loop {
        // Claim the next job (or exit / go idle).
        let (id, spec, token) = {
            let mut st = lock(&inner.state);
            loop {
                if st.stopping {
                    return;
                }
                if !st.paused {
                    if let Some(id) = st.queue.pop_front() {
                        break claim(inner, &mut st, id);
                    }
                    inner.idle.notify_all();
                }
                st = inner.work.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };

        // Run under retries + backoff + cancellation + checkpoint dedup.
        // The worker is the only thread driving runners in this
        // service, so the retry-counter delta below is this job's.
        let retries_before = runner::retry_stats().0;
        let outcome = run_job(inner, &spec, &token);
        let retried = runner::retry_stats().0.saturating_sub(retries_before);

        // Record the terminal state — unless we are emulating SIGKILL,
        // in which case the job is abandoned exactly as a dead process
        // would leave it: accepted in the journal, nothing else (no
        // terminal latency sample either: the class is never known).
        let mut st = lock(&inner.state);
        if st.crashed {
            st.running = None;
            return;
        }
        let status = match &outcome {
            Some(o) if o.is_complete() => JobStatus::Completed,
            _ if token.cancelled_explicitly() => JobStatus::Cancelled,
            _ if token.deadline_exceeded() => JobStatus::DeadlineExceeded,
            _ => JobStatus::Failed,
        };
        inner.finish(&mut st, id, status, outcome, retried);
    }
}

/// Moves a dequeued job to running: stamps it, arms its cancel token
/// (with the job's deadline, if any), and publishes the dequeue.
fn claim(inner: &ServiceInner, st: &mut ServiceState, id: u64) -> (u64, JobSpec, CancelToken) {
    let record = st
        .jobs
        .get_mut(&id)
        .expect("invariant: every queued id has a record");
    record.status = JobStatus::Running;
    let dequeued = Instant::now();
    record.dequeued_at = Some(dequeued);
    let wait_us = us(dequeued.saturating_duration_since(record.admitted_at));
    let spec = record.spec.clone();
    let deadline_ms = if spec.deadline_ms > 0 {
        spec.deadline_ms
    } else {
        inner.cfg.default_deadline_ms
    };
    let token = if deadline_ms > 0 {
        CancelToken::with_deadline(Duration::from_millis(deadline_ms))
    } else {
        CancelToken::new()
    };
    st.running = Some((id, token.clone()));
    inner.publish(job_event("job-dequeued", id).wall_u64("wait_us", wait_us));
    inner.publish(job_event("job-started", id));
    (id, spec, token)
}

/// Executes one job's simulation. `None` when the architecture no
/// longer resolves (a journal replayed onto a binary without it).
fn run_job(inner: &ServiceInner, spec: &JobSpec, token: &CancelToken) -> Option<JobOutcome> {
    let arch = arch::by_name(&spec.arch)?;
    let arch: Box<dyn crate::arch::Architecture> = match &inner.cfg.fault {
        Some((plan, tag)) => Box::new(crate::faults::FaultyArch::new(arch, plan.clone(), tag)),
        None => arch,
    };
    let workload = Workload::new(spec.benchmark, spec.pruning, spec.batch);
    let mut runner = Runner::with_jobs(inner.cfg.jobs)
        .with_retry(RetryPolicy::transient(spec.retries + 1))
        .with_backoff(inner.cfg.backoff)
        .with_cancel(token.clone())
        .without_store();
    if let Some(dir) = &inner.cfg.checkpoint_dir {
        runner = runner.with_checkpoint(dir.clone(), true);
    }
    let job = SimJob::new(arch.as_ref(), &workload, inner.cfg.sim);
    Some(runner.run_outcome(&job))
}

/// Handles one JSON-lines protocol request and renders the response
/// line. The second return is `true` when the connection loop should
/// shut the whole service down (`shutdown` command).
///
/// Commands: `submit` (inline fields or a canonical `spec` string),
/// `status`, `cancel`, `drain`, `health`, `stats` (counters plus
/// per-outcome-class queue-wait/exec/e2e latency quantiles), `metrics`
/// (the full registry as Prometheus text, embedded as a JSON string
/// field), `dump` (flight recorder → `flightrec-<pid>.jsonl`),
/// `shutdown`. Every response carries `"ok"`; failures add `"error"`.
#[must_use]
pub fn handle_request(service: &JobService, line: &str) -> (String, bool) {
    let reply = match eureka_obs::json::parse(line) {
        Err(_) => Err("malformed request: not JSON".to_string()),
        Ok(req) => match req.get("cmd").and_then(Value::as_str) {
            None => Err("malformed request: missing 'cmd'".to_string()),
            Some(cmd) => reply(service, &req, cmd).map(|pairs| (pairs, cmd == "shutdown")),
        },
    };
    let (pairs, shutdown) = reply.unwrap_or_else(|msg| {
        let pairs = vec![("ok", Value::Bool(false)), ("error", Value::Str(msg))];
        (pairs, false)
    });
    let pairs = pairs.into_iter().map(|(k, v)| (k.to_string(), v));
    (Value::Obj(pairs.collect()).to_json(), shutdown)
}

/// The response fields (`"ok"` first) of one well-formed request, or
/// its error message.
fn reply(
    service: &JobService,
    req: &Value,
    cmd: &str,
) -> Result<Vec<(&'static str, Value)>, String> {
    let ok = |mut pairs: Vec<(&'static str, Value)>| {
        pairs.insert(0, ("ok", Value::Bool(true)));
        Ok(pairs)
    };
    let num = |n: u64| Value::Num(n as f64);
    let job_id = || {
        let id = req.get("job").and_then(Value::as_f64).map(|n| n as u64);
        id.ok_or_else(|| format!("malformed {cmd}: missing 'job'"))
    };
    match cmd {
        "submit" => {
            let spec = if let Some(text) = req.get("spec").and_then(Value::as_str) {
                JobSpec::parse(text)
            } else {
                let field = |k: &str| req.get(k).and_then(Value::as_str);
                let num = |k: &str, default: u64| {
                    req.get(k)
                        .and_then(Value::as_f64)
                        .map_or(default, |n| n as u64)
                };
                match (
                    field("bench").and_then(benchmark_from_token),
                    field("pruning").and_then(pruning_from_token),
                    field("arch"),
                ) {
                    (Some(benchmark), Some(pruning), Some(arch)) => Some(JobSpec {
                        benchmark,
                        pruning,
                        batch: num("batch", 32) as usize,
                        arch: arch.to_string(),
                        deadline_ms: num("deadline_ms", 0),
                        retries: num("retries", 0) as u32,
                    }),
                    _ => None,
                }
            };
            let spec = spec.ok_or("malformed submit: need 'spec' or bench/pruning/arch")?;
            match service.submit(spec.clone()) {
                Ok(id) => ok(vec![("job", num(id)), ("key", Value::Str(spec.digest()))]),
                Err(SubmitError::Overloaded { capacity }) => Ok(vec![
                    ("ok", Value::Bool(false)),
                    ("error", Value::Str("overloaded".into())),
                    ("capacity", num(capacity as u64)),
                ]),
                Err(e) => Err(e.to_string()),
            }
        }
        "status" => {
            let id = job_id()?;
            let status = service.status(id).ok_or("unknown job")?;
            let mut pairs = vec![
                ("job", num(id)),
                ("status", Value::Str(status.label().into())),
            ];
            if let Some(report) = service.outcome(id).as_ref().and_then(JobOutcome::report) {
                pairs.push(("cycles", num(report.total_cycles())));
            }
            ok(pairs)
        }
        "cancel" => ok(vec![("cancelled", Value::Bool(service.cancel(job_id()?)))]),
        "drain" => {
            let drained = service.drain();
            Ok(vec![
                ("ok", Value::Bool(drained)),
                ("drained", Value::Bool(drained)),
            ])
        }
        "health" | "stats" => {
            let (queued, running, draining) = service.health();
            let stats = service_stats();
            let mut pairs = vec![
                ("queued", num(queued as u64)),
                ("running", Value::Bool(running)),
                ("draining", Value::Bool(draining)),
                ("served", num(stats.served)),
            ];
            if cmd == "stats" {
                let recovery = [("recovered", stats.recovered), ("retried", stats.retried)];
                let counters = stats.classes().into_iter().chain(recovery);
                pairs.extend(counters.map(|(name, n)| (name, num(n))));
                let hist = |h: &Histogram| {
                    let quantiles = [
                        ("count", h.count()),
                        ("p50", h.p50()),
                        ("p90", h.p90()),
                        ("p99", h.p99()),
                    ];
                    Value::Obj(quantiles.map(|(k, n)| (k.to_string(), num(n))).into())
                };
                let classes = OUTCOME_CLASSES.iter().zip(&service_metrics().classes);
                let latency = classes.map(|(name, class)| {
                    let phases = [
                        ("queue_wait_us", class.queue_wait),
                        ("exec_us", class.exec),
                        ("e2e_us", class.e2e),
                    ];
                    (
                        (*name).to_string(),
                        Value::Obj(phases.map(|(k, h)| (k.to_string(), hist(h))).into()),
                    )
                });
                pairs.push(("latency", Value::Obj(latency.collect())));
            }
            ok(pairs)
        }
        "metrics" => ok(vec![
            ("format", Value::Str("prometheus".into())),
            ("text", Value::Str(metrics::prometheus_text())),
        ]),
        "dump" => {
            let path = service
                .dump_flightrec()
                .map_err(|e| format!("flight recorder dump failed: {e}"))?;
            let (records, last_seq) = service.flight_recorder().extent();
            ok(vec![
                ("path", Value::Str(path.display().to_string())),
                ("records", num(records as u64)),
                ("last_seq", last_seq.map_or(Value::Null, num)),
            ])
        }
        "shutdown" => ok(Vec::new()),
        other => Err(format!("unknown command '{other}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_sim() -> SimConfig {
        SimConfig {
            rowgroup_samples: 4,
            slice_samples: 4,
            ..SimConfig::fast()
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("eureka-service-test-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn spec() -> JobSpec {
        JobSpec::new(
            Benchmark::MobileNetV1,
            PruningLevel::Moderate,
            32,
            "eureka-p4",
        )
    }

    #[test]
    fn spec_canonical_round_trips() {
        let mut s = spec();
        s.deadline_ms = 250;
        s.retries = 3;
        assert_eq!(JobSpec::parse(&s.canonical()), Some(s.clone()));
        assert_eq!(s.digest().len(), 16);
        assert_eq!(JobSpec::parse("eureka-job v9|bench=bert"), None);
        assert_eq!(JobSpec::parse("not a spec"), None);
        assert_eq!(
            JobSpec::parse(
                "eureka-job v1|bench=nope|pruning=mod|batch=1|arch=a|deadline_ms=0|retries=0"
            ),
            None
        );
    }

    #[test]
    fn submit_validates_before_admitting() {
        let dir = tmp_dir("validate");
        let mut cfg = ServiceConfig::new(dir.join("journal"));
        cfg.sim = tiny_sim();
        let svc = JobService::start(cfg);
        let mut bad_arch = spec();
        bad_arch.arch = "warp-drive".into();
        assert!(matches!(svc.submit(bad_arch), Err(SubmitError::Invalid(_))));
        let mut bad_batch = spec();
        bad_batch.batch = 0;
        assert!(matches!(
            svc.submit(bad_batch),
            Err(SubmitError::Invalid(_))
        ));
        svc.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn held_service_sheds_load_beyond_capacity_with_a_typed_error() {
        let dir = tmp_dir("overload");
        let mut cfg = ServiceConfig::new(dir.join("journal"));
        cfg.sim = tiny_sim();
        cfg.queue_capacity = 2;
        cfg.hold = true;
        let svc = JobService::start(cfg);
        assert!(svc.submit(spec()).is_ok());
        let mut second = spec();
        second.retries = 1; // distinct spec, distinct journal entry
        assert!(svc.submit(second).is_ok());
        let mut third = spec();
        third.retries = 2;
        assert_eq!(
            svc.submit(third),
            Err(SubmitError::Overloaded { capacity: 2 }),
            "the queue bound is enforced with backpressure, not buffering"
        );
        svc.release();
        assert!(svc.wait_idle(), "released service drains its queue");
        svc.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cancelling_a_queued_job_is_immediate_and_journaled() {
        let dir = tmp_dir("cancel");
        let mut cfg = ServiceConfig::new(dir.join("journal"));
        cfg.sim = tiny_sim();
        cfg.hold = true;
        let svc = JobService::start(cfg);
        let id = svc.submit(spec()).expect("admitted");
        assert_eq!(svc.status(id), Some(JobStatus::Queued));
        assert!(svc.cancel(id));
        assert_eq!(svc.status(id), Some(JobStatus::Cancelled));
        assert!(!svc.cancel(id), "terminal jobs cannot be re-cancelled");
        assert!(!svc.cancel(999), "unknown ids are refused");
        // The terminal record exists: a restart replays nothing.
        let journal = Journal::new(dir.join("journal"));
        assert!(journal.recover().is_empty());
        svc.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drain_rejects_new_work_and_finishes_in_flight() {
        let dir = tmp_dir("drain");
        let mut cfg = ServiceConfig::new(dir.join("journal"));
        cfg.sim = tiny_sim();
        let svc = JobService::start(cfg);
        let id = svc.submit(spec()).expect("admitted");
        assert!(svc.drain(), "drain completes");
        assert_eq!(
            svc.submit(spec()),
            Err(SubmitError::Draining),
            "a draining service admits nothing"
        );
        assert_eq!(
            svc.status(id),
            Some(JobStatus::Completed),
            "in-flight work finishes during drain"
        );
        svc.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_and_restart_replays_exactly_the_unfinished_jobs() {
        let dir = tmp_dir("recover");
        let journal_dir = dir.join("journal");
        let mut cfg = ServiceConfig::new(&journal_dir);
        cfg.sim = tiny_sim();
        cfg.hold = true;
        let svc = JobService::start(cfg.clone());
        let mut b = spec();
        b.retries = 1;
        svc.submit(spec()).expect("admitted");
        svc.submit(b).expect("admitted");
        svc.crash(); // SIGKILL emulation: no terminal records

        let journal = Journal::new(&journal_dir);
        assert_eq!(journal.recover().len(), 2, "both jobs await replay");

        cfg.hold = false;
        let svc2 = JobService::start(cfg.clone());
        assert!(svc2.wait_idle(), "recovered jobs run to completion");
        let (queued, running, _) = svc2.health();
        assert_eq!((queued, running), (0, false));
        svc2.shutdown();
        assert!(
            journal.recover().is_empty(),
            "replayed jobs reached terminal states; a third start recovers nothing"
        );
        let svc3 = JobService::start(cfg);
        assert!(svc3.wait_idle());
        svc3.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_metrics_and_dump_verbs_expose_the_latency_pipeline() {
        let dir = tmp_dir("observe");
        let mut cfg = ServiceConfig::new(dir.join("journal"));
        cfg.sim = tiny_sim();
        cfg.flightrec_dir = dir.join("flightrec");
        let svc = JobService::start(cfg);
        let id = svc.submit(spec()).expect("admitted");
        assert!(svc.wait_idle());

        // Terminal stamps produce a coherent per-job timeline.
        let t = svc.timeline(id).expect("known job");
        let (wait, exec, e2e) = (
            t.queue_wait_us.expect("dequeued"),
            t.exec_us.expect("ran"),
            t.e2e_us.expect("finished"),
        );
        assert!(e2e >= exec, "end-to-end covers execution: {t:?}");
        assert!(e2e >= wait, "end-to-end covers queue wait: {t:?}");
        assert_eq!(svc.timeline(999), None);

        // `stats` carries counters plus per-class latency quantiles.
        let (resp, stop) = handle_request(&svc, r#"{"cmd":"stats"}"#);
        assert!(!stop);
        let v = eureka_obs::json::parse(&resp).expect("stats is one JSON line");
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
        let latency = v.get("latency").expect("latency object");
        for class in OUTCOME_CLASSES {
            let c = latency
                .get(class)
                .unwrap_or_else(|| panic!("class {class}"));
            for phase in ["queue_wait_us", "exec_us", "e2e_us"] {
                let h = c.get(phase).unwrap_or_else(|| panic!("{class}.{phase}"));
                for field in ["count", "p50", "p90", "p99"] {
                    assert!(h.get(field).and_then(Value::as_f64).is_some());
                }
            }
        }
        let completed_count = latency
            .get("completed")
            .and_then(|c| c.get("e2e_us"))
            .and_then(|h| h.get("count"))
            .and_then(Value::as_f64)
            .expect("completed e2e count");
        assert!(completed_count >= 1.0, "this test completed a job");

        // `metrics` embeds the Prometheus exposition as a string field.
        let (resp, _) = handle_request(&svc, r#"{"cmd":"metrics"}"#);
        let v = eureka_obs::json::parse(&resp).expect("metrics is one JSON line");
        assert_eq!(v.get("format").and_then(Value::as_str), Some("prometheus"));
        let text = v.get("text").and_then(Value::as_str).expect("text");
        assert!(text.contains("# TYPE eureka_service_served counter"));
        assert!(text.contains("# TYPE eureka_service_e2e_us_completed histogram"));
        assert!(text.contains("eureka_service_e2e_us_completed_bucket{le=\"+Inf\"}"));

        // `dump` writes the flight recorder into the configured dir.
        let (resp, _) = handle_request(&svc, r#"{"cmd":"dump"}"#);
        let v = eureka_obs::json::parse(&resp).expect("dump is one JSON line");
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
        let path = v.get("path").and_then(Value::as_str).expect("path");
        assert!(path.contains("flightrec-"), "{path}");
        let dumped = std::fs::read_to_string(path).expect("dump exists");
        for line in dumped.lines() {
            events::validate_line(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        }
        assert!(
            dumped.contains("job-admitted") && dumped.contains("job-finished"),
            "the job's lifecycle reached the recorder"
        );
        svc.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn protocol_round_trips_submit_status_health_and_shutdown() {
        let dir = tmp_dir("protocol");
        let mut cfg = ServiceConfig::new(dir.join("journal"));
        cfg.sim = tiny_sim();
        let svc = JobService::start(cfg);
        let (resp, stop) = handle_request(
            &svc,
            r#"{"cmd":"submit","bench":"mobilenetv1","pruning":"mod","batch":32,"arch":"eureka-p4"}"#,
        );
        assert!(!stop);
        assert!(resp.contains("\"ok\":true"), "submit accepted: {resp}");
        assert!(resp.contains("\"job\":1"));
        assert!(svc.wait_idle());
        let (resp, _) = handle_request(&svc, r#"{"cmd":"status","job":1}"#);
        assert!(
            resp.contains("\"status\":\"completed\"") && resp.contains("\"cycles\":"),
            "terminal status carries cycles: {resp}"
        );
        let (resp, _) = handle_request(&svc, r#"{"cmd":"health"}"#);
        assert!(resp.contains("\"queued\":0"));
        let (resp, _) = handle_request(&svc, "not json at all");
        assert!(resp.contains("\"ok\":false"));
        let (resp, _) = handle_request(&svc, r#"{"cmd":"warp"}"#);
        assert!(resp.contains("unknown command"));
        let (_, stop) = handle_request(&svc, r#"{"cmd":"shutdown"}"#);
        assert!(stop);
        svc.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}
