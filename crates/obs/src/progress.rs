//! Throttled terminal progress reporter fed by the event bus.
//!
//! A passive consumer of [`crate::events`]: it keeps a small tally of
//! planned/started/finished units, retries and failures, and redraws a
//! single `\r`-rewritten stderr line at most every ~100 ms. It writes
//! **only to stderr** and reads metrics exclusively through
//! [`crate::metrics::counter_value`] (which never registers names), so
//! enabling it cannot change a report, a metrics snapshot, or any
//! cache/store counter — the zero-impact contract `tests/events.rs`
//! enforces.
//!
//! Activation follows the CLI convention: [`Mode::Auto`] turns the
//! reporter on only when stderr is a terminal (so tests, CI, and
//! redirected runs stay silent), `--progress` forces [`Mode::On`],
//! `--no-progress` forces [`Mode::Off`].

use std::io::{IsTerminal, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use crate::events::{Event, FieldValue};
use crate::metrics;

/// Reporter activation policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// On iff stderr is a terminal (the default).
    Auto,
    /// Always on, even when stderr is redirected.
    On,
    /// Always off.
    Off,
}

impl Mode {
    /// Whether the reporter draws under this policy on this process's
    /// stderr.
    #[must_use]
    pub fn is_on(self) -> bool {
        match self {
            Mode::On => true,
            Mode::Off => false,
            Mode::Auto => std::io::stderr().is_terminal(),
        }
    }
}

/// Minimum interval between redraws (the final `run-finished` redraw is
/// never throttled).
const RENDER_INTERVAL: Duration = Duration::from_millis(100);

static ACTIVE: AtomicBool = AtomicBool::new(false);

struct State {
    planned: u64,
    started: u64,
    finished: u64,
    failures: u64,
    retries: u64,
    from_cache: u64,
    from_store: u64,
    run_start: Instant,
    last_render: Option<Instant>,
    last_len: usize,
    rendered: bool,
}

impl State {
    fn reset(&mut self) {
        *self = State {
            run_start: Instant::now(),
            ..State::new()
        };
    }

    fn new() -> State {
        State {
            planned: 0,
            started: 0,
            finished: 0,
            failures: 0,
            retries: 0,
            from_cache: 0,
            from_store: 0,
            run_start: Instant::now(),
            last_render: None,
            last_len: 0,
            rendered: false,
        }
    }
}

fn state() -> MutexGuard<'static, State> {
    static STATE: OnceLock<Mutex<State>> = OnceLock::new();
    STATE
        .get_or_init(|| Mutex::new(State::new()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Whether the reporter is currently consuming events.
#[must_use]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Applies an activation policy. Activating resets the tally;
/// deactivating finalizes any partially drawn line (see [`finish`]).
pub fn set_mode(mode: Mode) {
    let on = mode.is_on();
    let was = ACTIVE.swap(on, Ordering::Release);
    if on && !was {
        state().reset();
    }
    if !on && was {
        finish();
    }
    crate::events::refresh_enabled();
}

/// Ends the current progress line: if anything was drawn, redraws the
/// final tally and emits the trailing newline so subsequent stderr
/// output starts on a fresh line.
pub fn finish() {
    let mut st = state();
    if st.rendered {
        render(&mut st, true);
        let _ = writeln!(std::io::stderr());
        st.rendered = false;
        st.last_len = 0;
    }
}

/// Feeds one event to the reporter (called by [`crate::events::emit`]
/// after the bus lock is released). A no-op unless [`active`].
pub(crate) fn observe(ev: &Event) {
    if !active() {
        return;
    }
    let mut st = state();
    match ev.kind() {
        "run-started" => st.reset(),
        "unit-planned" => st.planned += 1,
        "unit-started" => st.started += 1,
        "unit-finished" => {
            st.finished += 1;
            if let Some(FieldValue::Str(source)) = ev.det_field("source") {
                match source.as_str() {
                    "cache" => st.from_cache += 1,
                    "store" => st.from_store += 1,
                    _ => {}
                }
            }
        }
        "retry" => st.retries += 1,
        "failure" => st.failures += 1,
        _ => {}
    }
    let force = ev.kind() == "run-finished";
    let due = st
        .last_render
        .is_none_or(|t| t.elapsed() >= RENDER_INTERVAL);
    if force || (due && st.planned > 0) {
        render(&mut st, force);
    }
}

#[allow(clippy::cast_precision_loss)]
fn render(st: &mut State, force: bool) {
    let done = st.finished + st.failures;
    let pct = (done * 100).checked_div(st.planned).unwrap_or(0);
    let elapsed = st.run_start.elapsed().as_secs_f64().max(1e-9);
    let rate = done as f64 / elapsed;
    let eta = if rate > 0.0 && st.planned > done {
        let secs = (st.planned - done) as f64 / rate;
        format!("{secs:.0}s")
    } else {
        "-".to_string()
    };
    let in_flight = st.started.saturating_sub(done);
    let unit_hits = st.from_cache + st.from_store;
    let unit_pct = (unit_hits * 100).checked_div(st.finished).unwrap_or(0);
    // Tile-store hit rate via the non-registering read: observing it
    // must never add names to the registry.
    let store = match (
        metrics::counter_value("store.hits"),
        metrics::counter_value("store.lookups"),
    ) {
        (Some(h), Some(l)) if l > 0 => format!("{}%", h * 100 / l),
        _ => "-".to_string(),
    };
    let mut line = format!(
        "[eureka] {done}/{} units {pct}% | {rate:.1} u/s | eta {eta} | in-flight {in_flight} | unit-hits {unit_pct}% tile-store {store} | retries {} failures {}",
        st.planned, st.retries, st.failures
    );
    if force {
        line.push_str(" | done");
    }
    let pad = st.last_len.saturating_sub(line.len());
    st.last_len = line.len();
    st.last_render = Some(Instant::now());
    st.rendered = true;
    let mut err = std::io::stderr().lock();
    let _ = write!(err, "\r{line}{}", " ".repeat(pad));
    let _ = err.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exclusive() -> MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn auto_mode_is_off_under_test_harness() {
        let _gate = exclusive();
        // cargo test captures stderr through a pipe, so Auto stays off
        // and the reporter is inert by default.
        set_mode(Mode::Auto);
        assert!(!active());
        set_mode(Mode::Off);
    }

    #[test]
    fn observe_tallies_unit_lifecycle() {
        let _gate = exclusive();
        set_mode(Mode::On);
        assert!(active());
        observe(&Event::new("run-started"));
        for unit in 0..3u64 {
            observe(
                &Event::new("unit-planned")
                    .det_u64("unit", unit)
                    .det_u64("job", 0)
                    .det_str("arch", "Dense")
                    .det_str("gemm", "g")
                    .det_str("key", "00"),
            );
        }
        observe(&Event::new("unit-started").det_u64("unit", 0));
        observe(
            &Event::new("unit-finished")
                .det_u64("unit", 0)
                .det_str("source", "cache")
                .det_bool("ok", true)
                .det_u64("cycles", 7),
        );
        observe(&Event::new("retry").det_u64("unit", 1).det_u64("attempt", 1));
        observe(
            &Event::new("failure")
                .det_u64("unit", 1)
                .det_str("kind", "panic")
                .det_u64("attempts", 2)
                .det_str("payload", "boom"),
        );
        {
            let st = state();
            assert_eq!(st.planned, 3);
            assert_eq!(st.finished, 1);
            assert_eq!(st.from_cache, 1);
            assert_eq!(st.retries, 1);
            assert_eq!(st.failures, 1);
        }
        observe(
            &Event::new("run-finished")
                .det_u64("units", 3)
                .det_u64("failures", 1),
        );
        set_mode(Mode::Off);
        assert!(!active());
    }

    #[test]
    fn activation_resets_the_tally() {
        let _gate = exclusive();
        set_mode(Mode::On);
        observe(
            &Event::new("unit-planned")
                .det_u64("unit", 0)
                .det_u64("job", 0)
                .det_str("arch", "Dense")
                .det_str("gemm", "g")
                .det_str("key", "00"),
        );
        set_mode(Mode::Off);
        set_mode(Mode::On);
        assert_eq!(state().planned, 0);
        set_mode(Mode::Off);
    }
}
