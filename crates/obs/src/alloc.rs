//! Allocation counting without external dependencies.
//!
//! [`CountingAlloc`] wraps the system allocator and counts every byte ever
//! allocated (a monotone total, deliberately *not* net of frees — phase
//! deltas then measure allocation pressure, which is what a perf PR wants
//! to shrink). Binaries opt in by declaring it as their global allocator:
//!
//! ```rust,ignore
//! #[global_allocator]
//! static GLOBAL: obs::alloc::CountingAlloc = obs::alloc::CountingAlloc::new();
//! ```
//!
//! When no binary installs it, [`allocated_bytes`] stays at 0 and every
//! reported allocation delta is 0 — library code can read it
//! unconditionally.
//!
//! Besides the monotone total, the allocator tracks the *live* footprint
//! ([`live_bytes`], net of frees) and its high-water mark
//! ([`peak_bytes`], resettable per phase via [`reset_peak_bytes`]) — the
//! "peak alloc" column of the scaling experiments.
//!
//! Those counters are process-global: every thread's allocations land in
//! them. [`thread_live_bytes`] is the calling thread's own share (bytes it
//! allocated minus bytes it freed), so a footprint check that reads it
//! before and after a build on one thread counts that build alone, not
//! whatever a test harness or another worker allocates at the same time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATED: AtomicU64 = AtomicU64::new(0);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The calling thread's allocated minus freed bytes. Const-initialised
    /// and without a destructor, so reading it never allocates.
    static THREAD_LIVE: Cell<i64> = const { Cell::new(0) };
}

/// Total bytes ever allocated through [`CountingAlloc`] (0 if it is not
/// the installed global allocator).
#[inline]
pub fn allocated_bytes() -> u64 {
    ALLOCATED.load(Ordering::Relaxed)
}

/// Total allocation calls ever made through [`CountingAlloc`].
#[inline]
pub fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Bytes currently live (allocated minus freed); 0 when [`CountingAlloc`]
/// is not installed.
#[inline]
pub fn live_bytes() -> u64 {
    LIVE.load(Ordering::Relaxed)
}

/// Bytes the calling thread has allocated minus the bytes it has freed,
/// through [`CountingAlloc`] (0 if it is not installed). Negative once the
/// thread frees more than it allocated, e.g. memory another thread made.
/// The difference of two readings on one thread is what that thread
/// retained in between, whatever other threads did meanwhile.
#[inline]
pub fn thread_live_bytes() -> i64 {
    THREAD_LIVE.with(Cell::get)
}

/// High-water mark of [`live_bytes`] since process start or the last
/// [`reset_peak_bytes`] — the "peak alloc" number scaling experiments
/// report per phase.
#[inline]
pub fn peak_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

/// Resets the peak to the current live footprint, so the next
/// [`peak_bytes`] reading measures only the phase that follows.
#[inline]
pub fn reset_peak_bytes() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

#[inline]
fn record_growth(bytes: u64) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
    record_thread(bytes as i64);
}

#[inline]
fn record_shrink(bytes: u64) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
    record_thread(-(bytes as i64));
}

#[inline]
fn record_thread(delta: i64) {
    // `try_with`: a thread's last frees can run while its locals are being
    // torn down.
    let _ = THREAD_LIVE.try_with(|c| c.set(c.get().wrapping_add(delta)));
}

/// A counting wrapper around the system allocator; see the
/// [module docs](self).
pub struct CountingAlloc;

impl CountingAlloc {
    /// Const constructor for `static` declarations.
    pub const fn new() -> Self {
        CountingAlloc
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: delegates every operation to `System`, only adding relaxed
// atomic bookkeeping; layout contracts are passed through untouched.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        record_growth(layout.size() as u64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record_shrink(layout.size() as u64);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Count only the growth; shrinks are free (but net out of LIVE).
        let grow = new_size.saturating_sub(layout.size()) as u64;
        if grow > 0 {
            ALLOCATED.fetch_add(grow, Ordering::Relaxed);
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            record_growth(grow);
        } else {
            record_shrink(layout.size() as u64 - new_size as u64);
        }
        System.realloc(ptr, layout, new_size)
    }
}
