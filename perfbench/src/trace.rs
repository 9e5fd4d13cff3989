//! In-memory span recorder for the traced run.
//!
//! Spans sit at the benchmark's own call boundaries into each layer; the
//! program itself carries no extra instrumentation. Each span has a name,
//! a start, an end, a parent and a group id shared by the spans of one job
//! or figure. Spans stay in memory and are written out when the run ends.

use eureka_obs::json::Value;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded interval, in microseconds since the recorder's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub group: String,
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
}

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Turns recording on for the rest of the process.
pub fn enable() {
    epoch();
    ON.store(true, Ordering::Relaxed);
}

/// Runs `f` inside a span named `name` in `group`. The innermost open span
/// of the calling thread becomes its parent. With recording off this is a
/// plain call.
pub fn span<T>(name: &str, group: &str, f: impl FnOnce() -> T) -> T {
    if !ON.load(Ordering::Relaxed) {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|o| o.borrow().last().copied());
    OPEN.with(|o| o.borrow_mut().push(id));
    let start = epoch().elapsed();
    let out = f();
    let end = epoch().elapsed();
    OPEN.with(|o| o.borrow_mut().pop());
    SPANS.lock().expect("span list lock poisoned").push(Span {
        id,
        parent,
        group: group.to_string(),
        name: name.to_string(),
        start_us: start.as_secs_f64() * 1e6,
        end_us: end.as_secs_f64() * 1e6,
    });
    out
}

/// Every span recorded so far.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span list lock poisoned"))
}

/// JSON array form, for shipping spans from a child to the parent.
pub fn to_json(spans: &[Span]) -> Value {
    Value::Arr(
        spans
            .iter()
            .map(|s| {
                Value::Obj(vec![
                    ("id".into(), Value::Num(s.id as f64)),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                    ),
                    ("group".into(), Value::Str(s.group.clone())),
                    ("name".into(), Value::Str(s.name.clone())),
                    ("start_us".into(), Value::Num(s.start_us)),
                    ("end_us".into(), Value::Num(s.end_us)),
                ])
            })
            .collect(),
    )
}
