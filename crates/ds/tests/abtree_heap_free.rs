//! An `AbTree` update reaches the heap only through its pool allocator:
//! once a `je`-backed tree has warmed up, inserts and removes that split
//! leaves and collapse parents make no global allocation at all. A
//! counting `#[global_allocator]` observes this from below; its counter is
//! thread-local so the test harness's own threads do not disturb it.

use epic_alloc::{build_allocator, AllocatorKind, CostModel};
use epic_ds::{AbTree, ConcurrentMap};
use epic_smr::{build_smr, FreeMode, SmrConfig, SmrKind};

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Global allocation calls made by this thread.
    static HEAP_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    // `try_with`: the slot may already be gone while the thread exits.
    let _ = HEAP_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

struct CountingAlloc;

// SAFETY: pure pass-through to `System` plus a thread-local counter bump,
// which never allocates (const-initialised, no destructor).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        // SAFETY: forwarded contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        // SAFETY: forwarded contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn splits_and_collapses_allocate_nothing_after_warm_up() {
    const KEYS: u64 = 512;
    let alloc = build_allocator(AllocatorKind::Je, 1, CostModel::zero());
    let cfg = SmrConfig::new(1)
        .with_mode(FreeMode::Amortized { per_op: 1 })
        .with_bag_cap(64);
    let tree = AbTree::new(build_smr(SmrKind::Rcu, alloc, cfg));
    let h = tree.smr().register(0);
    // Ascending inserts split the rightmost leaf every few keys (and
    // overflow full parents); ascending removes empty the leaves one by
    // one and collapse their parents.
    let cycle = || {
        for k in 0..KEYS {
            assert!(tree.insert(&h, k, k));
        }
        for k in 0..KEYS {
            assert!(tree.remove(&h, k));
        }
    };
    for _ in 0..4 {
        cycle();
    }
    let before = HEAP_ALLOCS.with(Cell::get);
    for _ in 0..4 {
        cycle();
    }
    let allocs = HEAP_ALLOCS.with(Cell::get) - before;
    assert_eq!(
        allocs, 0,
        "{allocs} global allocations in 8 × {KEYS} updates"
    );
}
