//! Sweep checkpointing: persist completed work-unit results so an
//! interrupted run can resume without recomputing.
//!
//! Each successfully executed unit is serialized to one file under the
//! checkpoint directory, named by the FNV-1a hash of the unit's canonical
//! content key (the same identity the in-memory cache uses, rendered as a
//! stable string). A resuming runner consults the directory before
//! executing a unit and replays the stored [`LayerReport`] bit-identically
//! — every field is an exact integer or string, so the text round-trip is
//! lossless.
//!
//! # Crash safety
//!
//! Files are written to a temporary name and atomically renamed into
//! place, so a unit killed mid-write never leaves a readable (and thus
//! never a poisonous) entry. Failed units are never written at all. On
//! load, the stored key line is compared against the requesting unit's
//! canonical key: a mismatch (hash collision, stale directory from an
//! incompatible run) is treated as a miss, never as data.

use crate::report::{LayerReport, OpCounts};
use eureka_obs::metrics::{self, Class};
use std::path::{Path, PathBuf};

/// Largest checkpoint entry `load` will even read. Real entries are a
/// few hundred bytes; anything bigger is filesystem corruption or a
/// foreign file that collided with our name, and slurping it would
/// trade a bounded recompute for an unbounded allocation.
const MAX_ENTRY_BYTES: u64 = 1 << 20;

/// Format marker; bump when the serialization changes incompatibly.
/// Readers ignore entries with any other header, so mixing versions in
/// one directory degrades to recomputation, never to wrong data.
/// (v2 added `bubble_cycles` as the ninth field; v1 entries are
/// recomputed.)
const HEADER: &str = "eureka-checkpoint v2";

/// FNV-1a 64-bit over `bytes` — stable across processes and platforms
/// (unlike `DefaultHasher`, whose keys are unspecified), so checkpoint
/// file names survive a restart.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Escapes newlines and backslashes so arbitrary layer names fit the
/// line-oriented format. Shared with the job journal, which uses the
/// same line-oriented envelope.
pub(crate) fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

pub(crate) fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some(other) => out.push(other),
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Serializes one completed unit (its canonical key plus its report) to
/// the checkpoint text format.
#[must_use]
pub fn encode(key: &str, report: &LayerReport) -> String {
    let o = &report.ops;
    format!(
        "{HEADER}\nkey {}\nname {}\nfields {} {} {} {} {} {} {} {} {}\nops {} {} {} {} {} {} {} {}\n",
        escape(key),
        escape(&report.name),
        report.compute_cycles,
        report.mem_cycles,
        report.mac_ops,
        report.idle_mac_cycles,
        report.bubble_cycles,
        report.weight_bytes,
        report.act_bytes,
        report.out_bytes,
        report.metadata_bytes,
        o.mux2,
        o.mux4,
        o.mux8,
        o.mux16,
        o.csa,
        o.crossbar,
        o.prefix,
        o.buffer,
    )
}

/// Parses a checkpoint entry, returning the report only if the text is
/// well-formed **and** its key line matches `expected_key` exactly.
/// Anything else — truncation, version skew, a hash collision — is `None`
/// (a recompute, never a wrong replay).
#[must_use]
pub fn decode(text: &str, expected_key: &str) -> Option<LayerReport> {
    let mut lines = text.lines();
    if lines.next()? != HEADER {
        return None;
    }
    let key = lines.next()?.strip_prefix("key ")?;
    if unescape(key) != expected_key {
        return None;
    }
    let name = unescape(lines.next()?.strip_prefix("name ")?);
    let fields: Vec<u64> = lines
        .next()?
        .strip_prefix("fields ")?
        .split(' ')
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    let ops: Vec<u64> = lines
        .next()?
        .strip_prefix("ops ")?
        .split(' ')
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    if fields.len() != 9 || ops.len() != 8 || lines.next().is_some() {
        return None;
    }
    Some(LayerReport {
        name,
        compute_cycles: fields[0],
        mem_cycles: fields[1],
        mac_ops: fields[2],
        idle_mac_cycles: fields[3],
        bubble_cycles: fields[4],
        weight_bytes: fields[5],
        act_bytes: fields[6],
        out_bytes: fields[7],
        metadata_bytes: fields[8],
        ops: OpCounts {
            mux2: ops[0],
            mux4: ops[1],
            mux8: ops[2],
            mux16: ops[3],
            csa: ops[4],
            crossbar: ops[5],
            prefix: ops[6],
            buffer: ops[7],
        },
    })
}

/// A directory of per-unit checkpoint files.
#[derive(Clone, Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// A store rooted at `dir` (created on first write).
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointStore { dir: dir.into() }
    }

    /// The store's directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_for(&self, key: &str) -> PathBuf {
        self.dir
            .join(format!("{:016x}.unit", fnv1a64(key.as_bytes())))
    }

    /// Loads the completed result for `key`, if a valid entry exists.
    ///
    /// Fail-soft, mirroring the tile store's policy: a missing file is a
    /// plain miss, but a file that exists and is unusable — oversized,
    /// NUL-bearing, non-UTF-8, truncated, or otherwise undecodable —
    /// ticks `checkpoint.errors` and is *also* a miss. Resume never
    /// aborts on a corrupt directory; it recomputes the damaged units.
    #[must_use]
    pub fn load(&self, key: &str) -> Option<LayerReport> {
        let path = self.path_for(key);
        let oversized = std::fs::metadata(&path)
            .map(|m| m.len() > MAX_ENTRY_BYTES)
            .unwrap_or(false);
        if oversized {
            metrics::counter("checkpoint.errors", Class::Deterministic).inc();
            return None;
        }
        // Absent (or racily deleted) file: a plain miss, not an error.
        let bytes = std::fs::read(&path).ok()?;
        let report = std::str::from_utf8(&bytes)
            .ok()
            .filter(|text| !text.contains('\0'))
            .and_then(|text| decode(text, key));
        if report.is_none() {
            metrics::counter("checkpoint.errors", Class::Deterministic).inc();
        }
        report
    }

    /// Persists a completed unit result atomically (temp file + rename):
    /// a crash mid-write leaves no readable entry.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation, write, or rename failures; callers
    /// should treat these as non-fatal (the run still holds the result in
    /// memory).
    pub fn store(&self, key: &str, report: &LayerReport) -> std::io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        eureka_obs::durable::write_atomic(&self.path_for(key), encode(key, report).as_bytes())
    }

    /// Number of completed-unit entries currently on disk (`.unit` files
    /// only; in-flight temporaries are excluded).
    #[must_use]
    pub fn entry_count(&self) -> usize {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return 0;
        };
        entries
            .filter_map(Result::ok)
            .filter(|e| e.path().extension().is_some_and(|x| x == "unit"))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LayerReport {
        LayerReport {
            name: "conv4_2/3x3".into(),
            compute_cycles: 123,
            mem_cycles: 45,
            mac_ops: 6789,
            idle_mac_cycles: 10,
            bubble_cycles: 9,
            weight_bytes: 11,
            act_bytes: 12,
            out_bytes: 13,
            metadata_bytes: 14,
            ops: OpCounts {
                mux2: 1,
                mux4: 2,
                mux8: 3,
                mux16: 4,
                csa: 5,
                crossbar: 6,
                prefix: 7,
                buffer: 8,
            },
        }
    }

    #[test]
    fn encode_decode_round_trips_bit_identically() {
        let r = sample();
        let text = encode("some|key", &r);
        assert_eq!(decode(&text, "some|key"), Some(r));
    }

    #[test]
    fn decode_rejects_wrong_key_truncation_and_version_skew() {
        let r = sample();
        let text = encode("k1", &r);
        assert_eq!(decode(&text, "k2"), None, "key mismatch is a miss");
        let truncated = &text[..text.len() / 2];
        assert_eq!(decode(truncated, "k1"), None, "truncation is a miss");
        let skewed = text.replace("v2", "v9");
        assert_eq!(decode(&skewed, "k1"), None, "version skew is a miss");
        let trailing = format!("{text}junk\n");
        assert_eq!(decode(&trailing, "k1"), None, "trailing data is a miss");
    }

    #[test]
    fn escaped_names_round_trip() {
        let mut r = sample();
        r.name = "weird\\name\nwith newline".into();
        let text = encode("key\nwith\\newline", &r);
        assert_eq!(decode(&text, "key\nwith\\newline"), Some(r));
    }

    #[test]
    fn store_and_load_via_directory() {
        let dir = std::env::temp_dir().join(format!("eureka-ckpt-test-{}", std::process::id()));
        let store = CheckpointStore::new(&dir);
        assert_eq!(store.load("k"), None, "empty store misses");
        assert_eq!(store.entry_count(), 0);
        let r = sample();
        store.store("k", &r).expect("store writes");
        assert_eq!(store.load("k"), Some(r));
        assert_eq!(store.entry_count(), 1);
        assert_eq!(store.load("other"), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_entries_are_skipped_with_an_error_tick_not_an_abort() {
        let dir = std::env::temp_dir().join(format!("eureka-ckpt-corrupt-{}", std::process::id()));
        let store = CheckpointStore::new(&dir);
        let r = sample();
        store.store("good", &r).expect("store writes");
        let errors = || metrics::counter("checkpoint.errors", Class::Deterministic).get();

        // Truncated entry: load misses and ticks the error counter.
        let before = errors();
        let text = encode("trunc", &r);
        std::fs::write(store.path_for("trunc"), &text[..text.len() / 2]).unwrap();
        assert_eq!(store.load("trunc"), None, "truncated entry is a miss");
        assert!(errors() > before, "truncation ticks checkpoint.errors");

        // NUL bytes (torn write on some filesystems): skipped.
        let before = errors();
        std::fs::write(store.path_for("nul"), b"eureka\0checkpoint").unwrap();
        assert_eq!(store.load("nul"), None, "NUL-bearing entry is a miss");
        assert!(errors() > before);

        // Non-UTF-8 garbage: skipped.
        let before = errors();
        std::fs::write(store.path_for("bin"), [0xff, 0xfe, 0x80, 0x80]).unwrap();
        assert_eq!(store.load("bin"), None, "non-UTF-8 entry is a miss");
        assert!(errors() > before);

        // Oversized file: never even read into memory.
        let before = errors();
        let big = vec![b'x'; (MAX_ENTRY_BYTES + 1) as usize];
        std::fs::write(store.path_for("big"), big).unwrap();
        assert_eq!(store.load("big"), None, "oversized entry is a miss");
        assert!(errors() > before);

        // The valid neighbour is untouched by the carnage.
        assert_eq!(store.load("good"), Some(r), "healthy entries still load");
        // And a plain absence stays a silent miss.
        let before = errors();
        assert_eq!(store.load("absent"), None);
        assert_eq!(errors(), before, "a missing file is not an error");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned values: file names must survive process restarts.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a64(b"ab"), fnv1a64(b"ba"));
    }
}
