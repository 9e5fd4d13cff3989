//! Atomic whole-file replacement, shared by every durable writer.

use std::io::Result;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Replaces `target` with `bytes` via a sibling temp file renamed over
/// it: readers and crashes see the old file or the new one, never a torn
/// one. A failed write or rename removes the temp file. No fsync: a power
/// loss may lose the latest write, never tear it. The parent must exist.
///
/// # Errors
///
/// Propagates the write or rename failure.
pub fn write_atomic(target: &Path, bytes: &[u8]) -> Result<()> {
    replace(target, bytes, |tmp| std::fs::rename(tmp, target))
}

fn replace(target: &Path, bytes: &[u8], mv: impl FnOnce(&Path) -> Result<()>) -> Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let name = target.file_name().unwrap_or_default().to_string_lossy();
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = target.with_file_name(format!(".{name}.tmp-{}-{seq}", std::process::id()));
    let result = std::fs::write(&tmp, bytes).and_then(|()| mv(&tmp));
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    #[test]
    fn failed_rename_keeps_previous_bytes_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("eureka-durable-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let target = dir.join("record.json");
        super::write_atomic(&target, b"old").unwrap();
        assert!(super::replace(&target, b"new", |_| Err(std::io::Error::other("mv"))).is_err());
        assert_eq!(std::fs::read(&target).unwrap(), b"old");
        let files = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(files, 1, "no stray temp file");
        std::fs::remove_dir_all(&dir).ok();
    }
}
