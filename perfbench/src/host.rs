//! Host-side process counters read from `/proc/self`.

/// Clock ticks per second of `/proc/self/stat` times (`USER_HZ`, 100 on
/// Linux x86-64).
const USER_HZ: f64 = 100.0;

/// Peak resident set size of this process in bytes (`VmHWM`).
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

/// CPU seconds this process (all threads) has used so far, as
/// `(user, system)`.
pub fn cpu_seconds() -> Option<(f64, f64)> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name start at field 3
    // (`state`); utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i)?.parse::<u64>().ok();
    Some((ticks(11)? as f64 / USER_HZ, ticks(12)? as f64 / USER_HZ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_counters_parse() {
        assert!(peak_rss_bytes().expect("VmHWM") > 0);
        let (user, sys) = cpu_seconds().expect("utime/stime");
        assert!(user >= 0.0 && sys >= 0.0);
    }
}
