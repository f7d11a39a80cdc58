//! The calling thread's live-byte count ignores other threads.
//!
//! This binary installs the counting allocator and holds a single test:
//! the global counters are process-global, and a second test running
//! beside it would be counted in them too.

use std::hint::black_box;
use std::sync::{Arc, Barrier};

use obs::alloc::{live_bytes, thread_live_bytes, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc::new();

#[test]
fn thread_live_bytes_counts_only_the_calling_thread() {
    const OTHER: usize = 1 << 20;
    const OWN: usize = 1000;
    let barrier = Arc::new(Barrier::new(2));
    let other = {
        let barrier = Arc::clone(&barrier);
        std::thread::spawn(move || {
            barrier.wait();
            let held = black_box(vec![1u8; OTHER]);
            barrier.wait();
            barrier.wait();
            drop(held);
        })
    };
    let (thread_before, global_before) = (thread_live_bytes(), live_bytes());
    barrier.wait();
    // The other thread allocates its megabyte between these two waits.
    barrier.wait();
    let own: Vec<u8> = black_box(Vec::with_capacity(OWN));
    let (thread_after, global_after) = (thread_live_bytes(), live_bytes());
    assert_eq!(thread_after - thread_before, OWN as i64, "the other thread's bytes leaked in");
    // The global count does see the megabyte (give or take what the
    // harness allocates or frees meanwhile).
    assert!(global_after - global_before > (OTHER / 2) as u64, "{global_before} -> {global_after}");
    drop(own);
    assert_eq!(thread_live_bytes(), thread_before, "freeing returns the thread's count");
    barrier.wait();
    other.join().unwrap();
}
