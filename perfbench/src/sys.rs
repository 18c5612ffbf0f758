//! Process accounting read from `/proc/self`, and CPU pinning.

use std::fs;
use std::process::{Command, Stdio};

/// Clock ticks per second of `/proc/self/stat` times (`USER_HZ`, 100 on
/// Linux).
const USER_HZ: f64 = 100.0;

/// High-water mark of this process's resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// User plus system CPU seconds this process has used, all threads
/// together.
pub fn cpu_seconds() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may hold spaces; the fields after it are positional.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line, 12 and 13 here.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// The CPUs this process may run on, as a `taskset` list such as `0-1`.
fn allowed_cpus() -> Option<String> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status
        .lines()
        .find(|l| l.starts_with("Cpus_allowed_list:"))?;
    Some(line.split_whitespace().nth(1)?.to_string())
}

/// The CPUs this process may run on, one by one.
pub fn cpu_list() -> Vec<usize> {
    let Some(list) = allowed_cpus() else {
        return Vec::new();
    };
    let mut cpus = Vec::new();
    for part in list.split(',') {
        let mut ends = part.split('-').map(|c| c.parse::<usize>().ok());
        match (ends.next().flatten(), ends.next().flatten()) {
            (Some(first), Some(last)) => cpus.extend(first..=last),
            (Some(cpu), None) => cpus.push(cpu),
            _ => {}
        }
    }
    cpus
}

/// Sets the CPU affinity of every thread of this process; processes it
/// spawns afterwards inherit it.
fn set_affinity(cpus: &str) -> Result<(), String> {
    let status = Command::new("taskset")
        .args(["-a", "-p", "-c", cpus, &std::process::id().to_string()])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running taskset: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("taskset could not set affinity {cpus}: {status}"))
    }
}

/// Keeps this process on one CPU until dropped, then restores the CPUs it
/// was allowed before.
pub struct Pinned {
    restore: String,
}

impl Pinned {
    /// Pins to the first allowed CPU.
    pub fn first_cpu() -> Result<Pinned, String> {
        let restore = allowed_cpus().ok_or("cannot read the allowed CPUs")?;
        let first = restore
            .split([',', '-'])
            .next()
            .filter(|c| !c.is_empty())
            .ok_or_else(|| format!("no CPU in the allowed list `{restore}`"))?;
        set_affinity(first)?;
        Ok(Pinned { restore })
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        // Nothing useful can be done with a failure here: later phases
        // then run pinned, which slows them but changes no output.
        let _ = set_affinity(&self.restore);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_counters_are_readable() {
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
        assert!(cpu_seconds().is_some_and(|s| s >= 0.0));
    }

    #[test]
    fn cpu_list_expands_ranges() {
        let cpus = cpu_list();
        assert!(!cpus.is_empty());
        assert!(cpus.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn pinning_is_undone_on_drop() {
        let before = allowed_cpus().expect("allowed CPUs are readable");
        {
            let _pinned = Pinned::first_cpu().expect("taskset pins this process");
            let pinned = allowed_cpus().expect("allowed CPUs are readable");
            assert!(!pinned.contains([',', '-']), "pinned to `{pinned}`");
        }
        assert_eq!(allowed_cpus().as_deref(), Some(before.as_str()));
    }
}
