//! Peak resident set size of one sample, from `/proc/self/status`.
//!
//! `VmHWM` is a process-lifetime high-water mark; writing `5` to
//! `/proc/self/clear_refs` resets it to the current RSS, which turns it
//! into a per-sample peak. Where the reset is refused the reading stays
//! a process-wide peak — still comparable between two commits, since
//! both run the same sequence.
//!
//! The current RSS is itself a leftover: glibc keeps freed heap mapped,
//! so after `observed_mix` has touched 98 MB every later sample in the
//! same process would start at ~83 MB. `malloc_trim(0)` hands the free
//! heap back first, so each sample starts from what a fresh process
//! would hold and its peak is its own.

use std::fs;

#[cfg(target_env = "gnu")]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc's `M_MMAP_THRESHOLD`.
#[cfg(target_env = "gnu")]
const M_MMAP_THRESHOLD: i32 = -3;

/// Pin glibc's mmap threshold at its documented default of 128 KiB, which
/// also switches off its *dynamic* adjustment. Left on, the threshold
/// creeps up to the size of whichever large block happens to be freed
/// first, and from then on blocks of that size come from the brk heap
/// instead of their own mappings. Which way that goes is sticky for the
/// life of the process and flips with a 0.1 % change in the inputs:
/// `observed_mix` peaked at either ~15.5 or ~21 MB, process by process.
/// Pinned, its peak follows its inputs. Wall time does not move
/// measurably either way. Call once, before any measurement.
pub fn pin_allocator_policy() {
    #[cfg(target_env = "gnu")]
    // SAFETY: `mallopt` only stores an integer tunable inside glibc's
    // allocator; it takes no pointers and may be called at any time.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}

/// Return freed heap to the OS, then reset the high-water mark to the
/// current RSS. Best effort on both counts.
pub fn reset_peak() {
    #[cfg(target_env = "gnu")]
    // SAFETY: `malloc_trim` is glibc's own entry point into the allocator
    // Rust's `System` allocator already uses on this target; it takes no
    // pointers, only releases free pages, and is thread-safe.
    unsafe {
        malloc_trim(0);
    }
    // simlint::allow(raw-write, reason = "procfs control file, not an artifact: there is nothing to make atomic or durable")
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// The `VmHWM` line of a `/proc/<pid>/status` text, in MB.
fn parse_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak RSS since the last [`reset_peak`], in MB (0 where procfs is
/// unavailable).
pub fn peak_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_hwm_mb(&s))
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_high_water_line() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_hwm_mb(status), Some(20.0));
        assert_eq!(parse_hwm_mb("Name:\tx\n"), None);
    }

    #[test]
    fn reset_then_allocate_shows_in_the_peak() {
        reset_peak();
        let before = peak_mb();
        let block = vec![1u8; 64 << 20];
        std::hint::black_box(&block);
        let after = peak_mb();
        assert!(before > 0.0, "procfs readable in this sandbox");
        assert!(
            after >= before + 32.0,
            "before {before} MB, after {after} MB"
        );
    }
}
