//! Wall and process-CPU timestamps.
//!
//! End-to-end and per-layer times are taken as process CPU time
//! (`CLOCK_PROCESS_CPUTIME_ID`: every thread of the process, including
//! node service threads and `par_map` workers that have already exited).
//! On a shared virtual machine, wall time also counts the time the
//! hypervisor hands the core to another guest, which moves medians by
//! ±15 % between minutes; CPU time does not. Wall time is still recorded
//! beside it in every span and printed in the human-readable table.

use std::time::{Duration, Instant};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU time consumed so far by every thread of this process.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, properly aligned `struct timespec` (two
    // 64-bit fields on the 64-bit Linux targets this crate builds for),
    // and `clock_gettime` writes only into it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always available on Linux"
    );
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// A paired wall/CPU timestamp.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    pub wall: Instant,
    pub cpu: Duration,
}

/// Wall and CPU time between two stamps.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Elapsed {
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl Stamp {
    pub fn now() -> Self {
        Self {
            wall: Instant::now(),
            cpu: process_cpu(),
        }
    }

    pub fn elapsed(&self) -> Elapsed {
        Stamp::now().since(self)
    }

    pub fn since(&self, earlier: &Stamp) -> Elapsed {
        Elapsed {
            wall_s: self.wall.duration_since(earlier.wall).as_secs_f64(),
            cpu_s: self.cpu.saturating_sub(earlier.cpu).as_secs_f64(),
        }
    }
}

/// Time `f` in wall and CPU seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Elapsed) {
    let t0 = Stamp::now();
    let out = f();
    (out, t0.elapsed())
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let t0 = Stamp::now();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        let e = t0.elapsed();
        assert!(e.cpu_s > 0.0 && e.wall_s > 0.0);
    }

    #[test]
    fn peak_rss_is_readable() {
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
