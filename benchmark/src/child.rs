//! Runs one `dnsnoise` CLI stage as a child process and measures it from
//! outside: wall time from spawn to exit, and peak resident memory polled
//! from `/proc/<pid>/status` while it runs.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use crate::trace::now;

/// How often the child's `VmHWM` is sampled.
const RSS_POLL: Duration = Duration::from_millis(20);

/// What one finished stage left behind.
#[derive(Debug)]
pub struct StageRun {
    pub wall_s: f64,
    pub peak_rss_kb: u64,
    pub success: bool,
    pub stdout: String,
    pub stderr: String,
}

/// The release `dnsnoise` binary next to this executable.
pub fn locate_cli() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
    cli_next_to(&exe)
}

fn cli_next_to(exe: &Path) -> Result<PathBuf, String> {
    let dir = exe.parent().ok_or_else(|| format!("{} has no parent directory", exe.display()))?;
    let cli = dir.join("dnsnoise");
    if cli.is_file() {
        Ok(cli)
    } else {
        Err(format!(
            "missing dnsnoise binary: expected {} next to the benchmark; build it first with \
             `cargo build --release --bin dnsnoise` into the same target directory \
             (benchmark/run.sh does both builds)",
            cli.display()
        ))
    }
}

/// `VmHWM` (peak resident set, kB) of `pid`, if it is still readable.
fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    parse_vm_hwm(&status)
}

fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process, in kB.
pub fn own_peak_rss_kb() -> u64 {
    vm_hwm_kb(std::process::id()).unwrap_or(0)
}

/// Runs `cli args...` to completion. Output goes through files under
/// `scratch` so a chatty stage can never block on a full pipe while the
/// harness is waiting for it.
pub fn run_stage(cli: &Path, args: &[&str], scratch: &Path) -> Result<StageRun, String> {
    let out_path = scratch.join("stage.stdout");
    let err_path = scratch.join("stage.stderr");
    let create =
        |p: &Path| File::create(p).map_err(|e| format!("cannot create {}: {e}", p.display()));
    let (out_file, err_file) = (create(&out_path)?, create(&err_path)?);

    let start = now();
    let mut child = Command::new(cli)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::from(out_file))
        .stderr(Stdio::from(err_file))
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", cli.display()))?;
    let pid = child.id();
    let done = AtomicBool::new(false);
    // The poller only reads /proc; the main thread blocks in wait() so the
    // wall time is not quantised to the poll interval.
    let (status, wall_s, peak_rss_kb) = std::thread::scope(|scope| {
        let poller = scope.spawn(|| {
            let mut peak = 0u64;
            while !done.load(Ordering::SeqCst) {
                if let Some(kb) = vm_hwm_kb(pid) {
                    peak = peak.max(kb);
                }
                std::thread::sleep(RSS_POLL);
            }
            peak
        });
        let status = child.wait();
        let wall_s = start.elapsed().as_secs_f64();
        done.store(true, Ordering::SeqCst);
        let peak = poller.join().expect("the RSS poller does not panic");
        (status, wall_s, peak)
    });
    let status = status.map_err(|e| format!("cannot wait for {}: {e}", cli.display()))?;
    let read = |p: &Path| {
        std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))
    };
    Ok(StageRun {
        wall_s,
        peak_rss_kb,
        success: status.success(),
        stdout: read(&out_path)?,
        stderr: read(&err_path)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_cli_is_a_clear_error() {
        let dir =
            std::env::temp_dir().join(format!("dnsnoise-benchmark-nocli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let err = cli_next_to(&dir.join("benchmark")).unwrap_err();
        assert!(err.contains("missing dnsnoise binary"), "{err}");
        assert!(err.contains("cargo build --release"), "{err}");
        std::fs::write(dir.join("dnsnoise"), b"").unwrap();
        assert_eq!(cli_next_to(&dir.join("benchmark")).unwrap(), dir.join("dnsnoise"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn vm_hwm_parses_proc_status() {
        let status = "Name:\tdnsnoise\nVmPeak:\t  9000 kB\nVmHWM:\t    5120 kB\nVmRSS:\t 4000 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(5120));
        assert_eq!(parse_vm_hwm("Name:\tzombie\n"), None);
        assert!(own_peak_rss_kb() > 0, "this process has a resident set");
    }
}
