//! Peak live heap of the process.
//!
//! `VmHWM` (peak resident set) moves by 10–20 % between runs of the same
//! seed: glibc hands each thread its own arena and keeps freed pages, so
//! the peak depends on which short-lived `par_map` worker landed where.
//! The bytes the program actually holds live at once do not, so the
//! benchmark's allocator counts them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// [`System`] plus a live-byte counter and its high-water mark. Both
/// atomics are statistics that publish no other data, so `Relaxed`.
pub struct PeakAlloc {
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl PeakAlloc {
    pub const fn new() -> Self {
        Self {
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    fn grew(&self, bytes: usize) {
        let now = self.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    fn shrank(&self, bytes: usize) {
        self.live.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Highest live heap so far, MiB.
    pub fn peak_mb(&self) -> f64 {
        self.peak.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
    }
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the counters
// only observe sizes.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            self.grew(layout.size());
        }
        p
    }

    // Forwarded, not left to the default (alloc + memset), so zeroed
    // allocations keep `System`'s calloc path and its speed.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            self.grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        self.shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` came from `System` via this allocator;
        // the caller upholds `realloc`'s contract for `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                self.grew(new_size - layout.size());
            } else {
                self.shrank(layout.size() - new_size);
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_tracks_the_largest_live_total() {
        let a = PeakAlloc::new();
        a.grew(100);
        a.grew(50);
        a.shrank(120);
        a.grew(10);
        assert_eq!(a.live.load(Ordering::Relaxed), 40);
        assert_eq!(a.peak.load(Ordering::Relaxed), 150);
    }
}
