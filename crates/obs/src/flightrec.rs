//! Flight recorder: the last [`CAPACITY`] `eureka-events-v1` events of
//! one job service.
//!
//! A [`Recorder`] is **armed always**: unlike the event bus
//! ([`crate::events`]), which is off unless a writer is attached, the
//! job service records every lifecycle event it publishes here too, so
//! a post-mortem of a crashed or overloaded daemon is possible without
//! having opted into anything. Recording moves the already-built
//! [`Event`] into a ring slot under a short mutex; nothing is formatted
//! until a dump.
//!
//! Dumps render the ring oldest-to-newest with the bus's own line
//! writer, so every dumped line passes [`crate::events::validate_line`].
//! `wall.seq` counts the recorder's own events (dense across the
//! retained window; a gap between two dumps means overwritten history)
//! and `wall.t_us` is measured from the recorder's creation. [`dump_to`]
//! writes atomically, so a reader never observes a torn dump. The serve
//! loop dumps after every connection and on SIGTERM/panic; a SIGKILL
//! leaves the last complete dump on disk.
//!
//! [`dump_to`]: Recorder::dump_to

use crate::events::Event;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Ring capacity: how many recent events a dump can hold.
pub const CAPACITY: usize = 512;

struct Ring {
    /// `(t_us, event)`, oldest first; never longer than [`CAPACITY`].
    slots: VecDeque<(u64, Event)>,
    /// Events ever recorded (the next event's `wall.seq`).
    total: u64,
}

/// A fixed-capacity ring of recent events. See the [module docs](self).
pub struct Recorder {
    start: Instant,
    ring: Mutex<Ring>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            start: Instant::now(),
            ring: Mutex::new(Ring {
                slots: VecDeque::with_capacity(CAPACITY),
                total: 0,
            }),
        }
    }
}

impl Recorder {
    fn ring(&self) -> MutexGuard<'_, Ring> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records one event, evicting the oldest once the ring is full.
    pub fn record(&self, ev: Event) {
        let t_us = u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX);
        let mut r = self.ring();
        if r.slots.len() == CAPACITY {
            r.slots.pop_front();
        }
        r.slots.push_back((t_us, ev));
        r.total += 1;
    }

    /// `(retained, last_seq)`: how many events a dump would hold, and
    /// the newest one's `wall.seq` (`None` before the first event).
    #[must_use]
    pub fn extent(&self) -> (usize, Option<u64>) {
        let r = self.ring();
        (r.slots.len(), r.total.checked_sub(1))
    }

    /// The retained events as `eureka-events-v1` JSONL, oldest first.
    #[must_use]
    pub fn dump_jsonl(&self) -> String {
        let r = self.ring();
        let first = r.total - r.slots.len() as u64;
        let mut out = String::with_capacity(r.slots.len() * 128);
        for (seq, (t_us, ev)) in (first..).zip(&r.slots) {
            out.push_str(&ev.to_line(seq, *t_us));
            out.push('\n');
        }
        out
    }

    /// Dumps the ring to [`dump_path`]`(dir)` (the directory is created
    /// if missing) through [`crate::durable::write_atomic`], so a reader
    /// never sees a torn file. Returns the path written.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation, write, or rename failures.
    pub fn dump_to(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let target = dump_path(dir);
        crate::durable::write_atomic(&target, self.dump_jsonl().as_bytes())?;
        Ok(target)
    }
}

/// The dump path this process writes under `dir`.
#[must_use]
pub fn dump_path(dir: &Path) -> PathBuf {
    dir.join(format!("flightrec-{}.jsonl", std::process::id()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::validate_line;
    use crate::json::{self, Value};

    fn seqs(dump: &str) -> Vec<u64> {
        dump.lines()
            .map(|l| {
                validate_line(l).unwrap_or_else(|e| panic!("{e}: {l}"));
                let v = json::parse(l).unwrap();
                v.get("wall")
                    .and_then(|w| w.get("seq"))
                    .and_then(Value::as_f64)
                    .unwrap() as u64
            })
            .collect()
    }

    #[test]
    fn ring_keeps_the_most_recent_capacity_events() {
        let rec = Recorder::default();
        let n = CAPACITY as u64 + 37;
        for job in 0..n {
            rec.record(Event::new("job-queued").det_u64("job", job));
        }
        assert_eq!(rec.extent(), (CAPACITY, Some(n - 1)));
        let got = seqs(&rec.dump_jsonl());
        let want: Vec<u64> = (n - CAPACITY as u64..n).collect();
        assert_eq!(
            got, want,
            "retained seqs stay consecutive across wraparound"
        );
    }

    #[test]
    fn dumps_valid_lines_in_record_order_atomically() {
        let rec = Recorder::default();
        assert_eq!(rec.extent(), (0, None));
        rec.record(Event::new("job-queued").det_u64("job", 7));
        rec.record(
            Event::new("job-dequeued")
                .det_u64("job", 7)
                .wall_u64("wait_us", 42),
        );
        let dir =
            std::env::temp_dir().join(format!("eureka-flightrec-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let path = rec.dump_to(&dir).expect("dump");
        assert_eq!(path, dump_path(&dir));
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(seqs(&text), [0, 1]);
        assert!(text.lines().next().unwrap().contains("\"job\":7"));
        assert!(text.contains("\"wait_us\":42"));
        // Re-dumping replaces the file in place (rename, same path).
        rec.record(Event::new("job-shed").det_u64("capacity", 8));
        assert_eq!(rec.extent(), (3, Some(2)));
        assert_eq!(rec.dump_to(&dir).expect("second dump"), path);
        assert_eq!(seqs(&std::fs::read_to_string(&path).unwrap()), [0, 1, 2]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
