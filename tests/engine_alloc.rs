//! The engine's steady state allocates nothing.
//!
//! `ksim::simulate` and `LiveSimulation` hold flat, preallocated state
//! and reuse every per-step buffer, the scheduler's views included. This
//! test counts heap allocations on the test thread while K-RAD runs 200
//! unit steps over 24 active jobs, after a warm-up that lets every
//! scratch buffer reach its steady size.

use kdag::generators::fork_join;
use kdag::Category;
use krad::KRad;
use ksim::{JobSpec, LiveSimulation, Resources, SimConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts the allocations of threads that opted in with [`counting`].
struct Counter;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note_alloc() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only an
// atomic and a const-initialised thread-local, neither of which
// allocates.
unsafe impl GlobalAlloc for Counter {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counter = Counter;

/// Allocations made on this thread while `f` runs.
fn counting(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn k_rad_unit_steps_allocate_nothing_in_steady_state() {
    // Ten barrier-separated phases alternating categories: each job
    // stays α-active in one category at a time, and 24 of them keep
    // both categories of a [6, 3] machine in round-robin.
    let phases: Vec<(Category, u32)> = (0..10)
        .flat_map(|_| [(Category(0), 8), (Category(1), 4)])
        .collect();
    let mut live = LiveSimulation::new(Resources::new(vec![6, 3]), SimConfig::default()).unwrap();
    for _ in 0..24 {
        live.inject(JobSpec::batched(fork_join(2, &phases)))
            .unwrap();
    }
    let mut sched = KRad::new(2);
    for _ in 0..50 {
        live.advance(&mut sched);
    }
    assert_eq!(live.active_jobs(), 24, "warm-up must not finish a job");

    let allocs = counting(|| {
        for _ in 0..200 {
            live.advance(&mut sched);
        }
    });
    assert_eq!(live.now(), 250, "one unit step per advance");
    assert!(
        live.active_jobs() >= 20,
        "the measured window must keep >= 20 jobs active"
    );
    assert_eq!(allocs, 0, "200 steady-state unit steps allocated");
}
