//! What the host tells the benchmark: process CPU time and peak memory
//! from procfs, and the provenance every result file carries.

use std::process::Command;

use crate::json::{obj, Json};

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, fixed
/// at 100 on Linux whatever the kernel's own tick rate).
const USER_HZ: f64 = 100.0;

/// CPU seconds this process has used so far, user plus system, every
/// thread including the ones already joined. `0.0` without procfs.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; the numeric fields
    // resume after its closing parenthesis, utime and stime being fields
    // 14 and 15 of the whole line.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut ticks = || fields.next().and_then(|f| f.parse::<f64>().ok());
    match (ticks(), ticks()) {
        (Some(utime), Some(stime)) => (utime + stime) / USER_HZ,
        _ => 0.0,
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MiB. `0.0`
/// without procfs.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Git revision and dirty flag, host fingerprint and compiler version.
/// Outside a git checkout the revision reads `unknown`.
pub fn provenance() -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    let rev = command_line("git", &["rev-parse", "HEAD"]);
    let dirty = command_line("git", &["status", "--porcelain"]).map(|s| !s.is_empty());
    obj([
        (
            "git",
            obj([
                ("rev", Json::Str(rev.unwrap_or_else(|| "unknown".into()))),
                ("dirty", dirty.map_or(Json::Null, Json::Bool)),
            ]),
        ),
        (
            "host",
            obj([
                ("cpu_model", Json::Str(cpu_model)),
                ("host_cpus", Json::Num(host_cpus() as f64)),
                ("kernel", Json::Str(kernel)),
            ]),
        ),
        (
            "rustc",
            Json::Str(command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into())),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let before = cpu_seconds();
        let start = std::time::Instant::now();
        let mut x = 0u64;
        while start.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        // Skipped silently where procfs is missing (both read 0).
        if before > 0.0 || cpu_seconds() > 0.0 {
            assert!(cpu_seconds() > before);
        }
        assert!(peak_rss_mb() >= 0.0);
    }
}
