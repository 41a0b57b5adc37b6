//! The atomic writer: the only module in the persistence layer allowed
//! to touch the filesystem directly (enforced by the `fs-direct-write`
//! lint rule).
//!
//! Every durable artifact follows the same protocol: bytes go to
//! `<name>.tmp` in the target directory, the temp file is fsynced,
//! renamed over the final name, and the directory itself fsynced so the
//! rename survives a crash. A reader therefore only ever sees either the
//! old complete artifact or the new complete artifact — never a torn
//! write — and `*.tmp` leftovers are garbage, collected on open.
//!
//! [`failpoints`] is the seeded IO-fault injector the crash-recovery
//! tests drive: every syscall site consults a thread-local plan and can
//! be made to fail (optionally leaving a torn prefix behind, as a real
//! power cut mid-`write` would). Once a site trips, every later site on
//! the thread fails too — the simulated process is dead — until the plan
//! is disarmed.

use std::io::Write as _;
use std::path::{Path, PathBuf};

use super::error::StoreError;

/// The seeded IO-fault injector. Inert unless armed; armed plans are
/// thread-local so concurrent tests never interfere.
pub mod failpoints {
    use std::cell::Cell;

    #[derive(Clone, Copy)]
    struct Plan {
        /// Zero-based IO-site ordinal to fail at (`u64::MAX` = count
        /// sites without ever tripping).
        trip_at: u64,
        /// Leave a half-written prefix behind at a tripped write site.
        torn: bool,
        /// Sites visited since arming.
        visited: u64,
        /// A site already tripped — the simulated process is dead.
        dead: bool,
    }

    thread_local! {
        static PLAN: Cell<Option<Plan>> = const { Cell::new(None) };
    }

    /// What a syscall site should do.
    pub(super) enum Site {
        /// Perform the operation normally.
        Proceed,
        /// Simulate a crash at this operation; `torn` asks a write site
        /// to leave a partial prefix behind first.
        Fail {
            /// Whether the failing write should leave a torn prefix.
            torn: bool,
        },
    }

    /// Arms the injector on this thread: the `trip_at`-th IO site (and
    /// every site after it) fails. `torn` makes the tripped site, if it
    /// is a write, leave a half-written file behind. Arm with
    /// `u64::MAX` to count sites without failing any.
    // lint:allow(dead-api): the fault injector of crates/pdns/tests/crash_recovery.rs
    pub fn arm(trip_at: u64, torn: bool) {
        PLAN.with(|p| p.set(Some(Plan { trip_at, torn, visited: 0, dead: false })));
    }

    /// Disarms the injector and returns how many IO sites were visited
    /// while armed.
    // lint:allow(dead-api): the fault injector of crates/pdns/tests/{crash_recovery,store_dir}.rs
    pub fn disarm() -> u64 {
        PLAN.with(|p| p.take()).map_or(0, |plan| plan.visited)
    }

    /// Consulted by every syscall wrapper in the parent module.
    pub(super) fn site() -> Site {
        PLAN.with(|p| {
            let Some(mut plan) = p.get() else { return Site::Proceed };
            let ordinal = plan.visited;
            plan.visited += 1;
            let fail = plan.dead || ordinal == plan.trip_at;
            let torn = !plan.dead && ordinal == plan.trip_at && plan.torn;
            if fail {
                plan.dead = true;
            }
            p.set(Some(plan));
            if fail {
                Site::Fail { torn }
            } else {
                Site::Proceed
            }
        })
    }
}

/// The injected-fault error for a site the plan tripped.
fn injected(op: &'static str, path: &Path) -> StoreError {
    StoreError::Io { op, path: path.to_path_buf(), message: "injected fault".to_string() }
}

/// Creates `dir` and any missing parents.
pub fn create_dir_all(dir: &Path) -> Result<(), StoreError> {
    if let failpoints::Site::Fail { .. } = failpoints::site() {
        return Err(injected("create_dir_all", dir));
    }
    std::fs::create_dir_all(dir).map_err(|e| StoreError::io("create_dir_all", dir, &e))
}

/// Writes `bytes` to `path` directly (no rename). Only the atomic
/// protocol below may use this — a torn fault here leaves a half-written
/// file, which is exactly why direct writes never target final names.
fn write_file(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    if let failpoints::Site::Fail { torn } = failpoints::site() {
        if torn {
            let _ = std::fs::write(path, &bytes[..bytes.len() / 2]);
        }
        return Err(injected("write", path));
    }
    std::fs::write(path, bytes).map_err(|e| StoreError::io("write", path, &e))
}

/// Flushes `path`'s contents to stable storage.
fn fsync_file(path: &Path) -> Result<(), StoreError> {
    if let failpoints::Site::Fail { .. } = failpoints::site() {
        return Err(injected("fsync", path));
    }
    std::fs::File::open(path)
        .and_then(|f| f.sync_all())
        .map_err(|e| StoreError::io("fsync", path, &e))
}

/// Renames `from` over `to` (atomic within one directory on POSIX).
fn rename(from: &Path, to: &Path) -> Result<(), StoreError> {
    if let failpoints::Site::Fail { .. } = failpoints::site() {
        return Err(injected("rename", to));
    }
    std::fs::rename(from, to).map_err(|e| StoreError::io("rename", to, &e))
}

/// Flushes `dir`'s entry table so a completed rename survives a crash.
fn fsync_dir(dir: &Path) -> Result<(), StoreError> {
    if let failpoints::Site::Fail { .. } = failpoints::site() {
        return Err(injected("fsync-dir", dir));
    }
    std::fs::File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| StoreError::io("fsync-dir", dir, &e))
}

/// Removes `path`.
pub fn remove_file(path: &Path) -> Result<(), StoreError> {
    if let failpoints::Site::Fail { .. } = failpoints::site() {
        return Err(injected("remove", path));
    }
    std::fs::remove_file(path).map_err(|e| StoreError::io("remove", path, &e))
}

/// The temp-file name the atomic protocol stages `name` under.
// lint:certify(no-panic)
pub fn tmp_name(name: &str) -> String {
    format!("{name}.tmp")
}

/// Durably publishes `bytes` as `dir/name`: write to `dir/name.tmp`,
/// fsync, rename into place, fsync the directory. After a crash at any
/// point a reader sees either the previous `dir/name` or the new one,
/// plus at most one `.tmp` orphan.
pub fn atomic_write(dir: &Path, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
    let tmp = dir.join(tmp_name(name));
    let fin = dir.join(name);
    write_file(&tmp, bytes)?;
    fsync_file(&tmp)?;
    rename(&tmp, &fin)?;
    fsync_dir(dir)
}

/// Appends a line to a plain-text ledger file (quarantine notes). Not
/// crash-atomic — the ledger is advisory diagnostics, never recovery
/// input — but still routed through the fault injector.
pub fn append_line(path: &Path, line: &str) -> Result<(), StoreError> {
    if let failpoints::Site::Fail { .. } = failpoints::site() {
        return Err(injected("append", path));
    }
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| writeln!(f, "{line}"))
        .map_err(|e| StoreError::io("append", path, &e))
}

/// Renames `path` to `path.quarantined`, preserving the corrupt bytes
/// for diagnosis while removing them from the live set. Returns the
/// quarantine path.
pub fn quarantine_file(path: &Path) -> Result<PathBuf, StoreError> {
    let mut name = path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
    name.push_str(".quarantined");
    let dest = path.with_file_name(name);
    rename(path, &dest)?;
    Ok(dest)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dnsnoise-io-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn atomic_write_publishes_and_leaves_no_tmp() {
        let dir = tmp_dir("publish");
        atomic_write(&dir, "artifact.bin", b"payload").unwrap();
        assert_eq!(std::fs::read(dir.join("artifact.bin")).unwrap(), b"payload");
        assert!(!dir.join("artifact.bin.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tripped_plan_is_sticky_and_counts_sites() {
        let dir = tmp_dir("sticky");
        failpoints::arm(u64::MAX, false);
        atomic_write(&dir, "a.bin", b"abc").unwrap();
        let sites = failpoints::disarm();
        assert_eq!(sites, 4, "write, fsync, rename, fsync-dir");

        failpoints::arm(2, false);
        let err = atomic_write(&dir, "b.bin", b"abc").unwrap_err();
        assert!(matches!(err, StoreError::Io { op: "rename", .. }), "{err}");
        // The simulated process is dead: later sites fail too.
        assert!(atomic_write(&dir, "c.bin", b"abc").is_err());
        failpoints::disarm();
        assert!(!dir.join("b.bin").exists());
        assert!(!dir.join("c.bin").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_write_leaves_a_prefix_behind() {
        let dir = tmp_dir("torn");
        failpoints::arm(0, true);
        let err = atomic_write(&dir, "t.bin", b"0123456789").unwrap_err();
        failpoints::disarm();
        assert!(matches!(err, StoreError::Io { op: "write", .. }));
        let torn = std::fs::read(dir.join("t.bin.tmp")).unwrap();
        assert_eq!(torn, b"01234", "half the payload survives the simulated cut");
        std::fs::remove_dir_all(&dir).ok();
    }
}
