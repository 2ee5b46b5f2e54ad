//! What the host was doing while the benchmark ran (`/proc` readings).
//! Every reader degrades to a neutral value off Linux rather than failing
//! the run: these numbers qualify a result, they are not the result.

use std::fs;

/// A `Vm*` line of `/proc/self/status` in MiB (`VmHWM` = peak resident
/// set, `VmRSS` = current), 0 when unreadable.
pub fn vm_mib(field: &str) -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Aggregate CPU jiffies from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    total: u64,
    steal: u64,
}

impl CpuTimes {
    /// Read the counters now.
    pub fn now() -> Self {
        let fields: Vec<u64> = fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| {
                s.lines().next().map(|l| {
                    l.split_whitespace()
                        .skip(1)
                        .map(|f| f.parse().unwrap_or(0))
                        .collect()
                })
            })
            .unwrap_or_default();
        CpuTimes {
            total: fields.iter().sum(),
            // user nice system idle iowait irq softirq steal
            steal: fields.get(7).copied().unwrap_or(0),
        }
    }

    /// Share of all CPU time since `earlier` that the hypervisor gave to
    /// someone else.
    pub fn steal_frac_since(&self, earlier: &CpuTimes) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            0.0
        } else {
            self.steal.saturating_sub(earlier.steal) as f64 / total as f64
        }
    }
}

/// One-minute load average.
pub fn loadavg() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// CPU model string.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// First line of a command's stdout, `"unknown"` when it cannot run (the
/// driver's checkout is not a git repository, for one).
pub fn first_line_of(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}
