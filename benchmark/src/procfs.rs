//! What the run cost the machine, read from Linux `/proc` (and, for the
//! one number `/proc` does not keep process-wide, `getrusage`).

use std::fs;

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/<pid>/stat`. `USER_HZ` is part of the Linux user ABI and is 100
/// on every architecture this harness runs on; `sysconf` would need libc.
const CLOCK_TICKS_PER_SEC: f64 = 100.0;

/// CPU seconds (user + system) from the text of `/proc/<pid>/stat`.
///
/// The second field is the executable name in parentheses and may itself
/// contain spaces or parentheses, so fields are counted from the *last*
/// `)`: `utime` and `stime` are fields 14 and 15 of the line.
pub fn cpu_seconds_from_stat(stat: &str) -> Option<f64> {
    let after_name = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_name.split_ascii_whitespace();
    // field 3 (state) is the first one after the name
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / CLOCK_TICKS_PER_SEC)
}

/// A `kB` field of `/proc/<pid>/status` (e.g. `VmHWM`), in MiB.
pub fn status_mib(status: &str, key: &str) -> Option<f64> {
    let kib: f64 = status_field(status, key)?
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// A whole-number field of `/proc/<pid>/status` (e.g. `Threads`).
pub fn status_count(status: &str, key: &str) -> Option<u64> {
    status_field(status, key)?.parse().ok()
}

fn status_field<'a>(status: &'a str, key: &str) -> Option<&'a str> {
    status.lines().find_map(|line| {
        let (name, value) = line.split_once(':')?;
        (name == key).then(|| value.trim())
    })
}

/// User + system CPU seconds this process (all threads, including ones
/// that have exited) has consumed so far.
pub fn cpu_seconds() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| cpu_seconds_from_stat(&s))
        .unwrap_or(0.0)
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| status_mib(&s, "VmHWM"))
        .unwrap_or(0.0)
}

/// Threads alive in this process right now.
pub fn thread_count() -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| status_count(&s, "Threads"))
        .unwrap_or(0)
}

/// `struct rusage` as the Linux kernel lays it out on 64-bit targets:
/// two `timeval`s followed by fourteen `long`s, the last two of which are
/// the voluntary and involuntary context-switch counts.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    counters: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Voluntary + involuntary context switches of the whole process,
/// including threads that have already exited. `/proc` only keeps these
/// per live thread, which would miss exactly the short-lived collector
/// threads whose cost this number is meant to show. `0` where the call
/// is unavailable.
pub fn context_switches() -> u64 {
    if !cfg!(all(target_os = "linux", target_pointer_width = "64")) {
        return 0;
    }
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        counters: [0; 14],
    };
    const RUSAGE_SELF: i32 = 0;
    // SAFETY: `usage` is a live, writable `Rusage` whose layout matches the
    // kernel's `struct rusage` on 64-bit Linux (checked by the cfg above:
    // 2 x timeval{long, long} + 14 x long = 144 bytes), so the call writes
    // only inside it; `getrusage` keeps no pointer past its return.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc != 0 {
        return 0;
    }
    (usage.counters[12].max(0) + usage.counters[13].max(0)) as u64
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (bench (v2) x) S 1 4242 4242 0 -1 4194560 1234 0 0 0 \
                        1587 213 0 0 20 0 12 0 991 123456789 2345 18446744073709551615";

    #[test]
    fn stat_cpu_fields_survive_an_awkward_name() {
        // 1587 user + 213 system ticks at 100 Hz
        assert_eq!(cpu_seconds_from_stat(STAT), Some(18.0));
        assert_eq!(cpu_seconds_from_stat("1 (x) S 1 2"), None);
        assert_eq!(cpu_seconds_from_stat("no parenthesis"), None);
    }

    #[test]
    fn status_fields() {
        let status = "Name:\tbenchmark\nVmPeak:\t  999 kB\nVmHWM:\t  399360 kB\nThreads:\t17\n";
        assert_eq!(status_mib(status, "VmHWM"), Some(390.0));
        assert_eq!(status_count(status, "Threads"), Some(17));
        assert_eq!(status_mib(status, "VmRSS"), None);
        assert_eq!(status_count(status, "VmHWM"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(peak_rss_mib() > 0.0);
        assert!(thread_count() >= 1);
        assert!(nproc() >= 1);
        let before = context_switches();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(context_switches() >= before);
        assert!(cpu_seconds() >= 0.0);
    }
}
