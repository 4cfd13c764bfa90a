//! Chunk store: the memory substrate beneath every pool model.
//!
//! Models obtain big aligned chunks here and carve them into blocks. Chunks
//! are retained until the store is dropped, which gives us (a) the paper's
//! *peak memory* metric for free — the high-watermark equals the running
//! total — and (b) the property that use-after-free bugs in reclamation
//! schemes read stale mapped memory instead of segfaulting, so tests can
//! detect them logically (poison checks) rather than crashing the harness.
//!
//! Like jemalloc's extents, chunks are cut from [`REGION_BYTES`]-aligned
//! regions (2 MiB, the x86-64 huge-page size) that the store advises the
//! kernel to back with transparent huge pages. A tree walk then costs one
//! TLB entry per 2 MiB of nodes instead of one per 4 KiB. The accounting
//! stays logical: [`ChunkStore::total_bytes`] and
//! [`ChunkStore::chunk_count`] count the chunks issued, not the regions
//! behind them.

use std::alloc::{alloc, dealloc, Layout};
use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;

/// Default chunk size: 1 MiB, so two chunks share one [`REGION_BYTES`]
/// region. jemalloc's extents and mimalloc's segments are 2–4 MiB; half a
/// region keeps the peak-memory granularity fine at container scale.
pub const DEFAULT_CHUNK_BYTES: usize = 1 << 20;

/// Alignment of every chunk (and hence of the first block in it).
pub const CHUNK_ALIGN: usize = 64;

/// Size and alignment of the regions chunks are carved from: one 2 MiB
/// transparent huge page. A request larger than this gets a region of its
/// own, rounded up to a multiple of it.
pub const REGION_BYTES: usize = 2 << 20;

struct ChunkRegistry {
    /// Every region taken from the system allocator; each is freed once,
    /// on drop.
    regions: Vec<(*mut u8, Layout)>,
    /// Unissued remainder `[next, end)` of the newest shared region.
    next: usize,
    end: usize,
    /// Logical chunks issued.
    chunks: usize,
}

// SAFETY: the region pointers are only dereferenced by `Drop` (through
// `dealloc`), and `next`/`end` are plain addresses; every access goes
// through the store's mutex.
unsafe impl Send for ChunkRegistry {}

/// Thread-safe chunk store with peak-byte accounting.
pub struct ChunkStore {
    registry: Mutex<ChunkRegistry>,
    total_bytes: AtomicUsize,
    chunk_bytes: usize,
}

impl ChunkStore {
    /// Creates a store issuing chunks of [`DEFAULT_CHUNK_BYTES`].
    pub fn new() -> Self {
        Self::with_chunk_bytes(DEFAULT_CHUNK_BYTES)
    }

    /// Creates a store issuing chunks of `chunk_bytes` (tests use small
    /// chunks to exercise chunk-exhaustion paths cheaply).
    pub fn with_chunk_bytes(chunk_bytes: usize) -> Self {
        assert!(chunk_bytes >= CHUNK_ALIGN);
        ChunkStore {
            registry: Mutex::new(ChunkRegistry {
                regions: Vec::new(),
                next: 0,
                end: 0,
                chunks: 0,
            }),
            total_bytes: AtomicUsize::new(0),
            chunk_bytes,
        }
    }

    /// The configured chunk size.
    pub fn chunk_bytes(&self) -> usize {
        self.chunk_bytes
    }

    /// Allocates one chunk, returning its base pointer. The chunk remains
    /// owned by the store; callers carve it but never free it.
    pub fn grab_chunk(&self) -> *mut u8 {
        self.grab_sized(self.chunk_bytes)
    }

    /// Allocates a chunk of a specific size (huge allocations, page
    /// segments). The chunk is [`CHUNK_ALIGN`]-aligned and lies within one
    /// region; a chunk larger than [`REGION_BYTES`] starts its own region.
    pub fn grab_sized(&self, bytes: usize) -> *mut u8 {
        assert!(bytes > 0, "empty chunk");
        let stride = round_up(bytes, CHUNK_ALIGN);
        let mut reg = self.registry.lock();
        let base = if stride > REGION_BYTES {
            new_region(&mut reg.regions, round_up(stride, REGION_BYTES))
        } else {
            if reg.end - reg.next < stride {
                reg.next = new_region(&mut reg.regions, REGION_BYTES);
                reg.end = reg.next + REGION_BYTES;
            }
            let base = reg.next;
            reg.next += stride;
            base
        };
        reg.chunks += 1;
        drop(reg);
        self.total_bytes.fetch_add(bytes, Ordering::Relaxed);
        base as *mut u8
    }

    /// Total chunk bytes ever issued — monotone, so it *is* the peak.
    pub fn total_bytes(&self) -> usize {
        self.total_bytes.load(Ordering::Relaxed)
    }

    /// Number of chunks issued.
    pub fn chunk_count(&self) -> usize {
        self.registry.lock().chunks
    }
}

fn round_up(bytes: usize, align: usize) -> usize {
    bytes
        .checked_next_multiple_of(align)
        .expect("chunk size overflows usize")
}

/// Takes a `bytes`-long, [`REGION_BYTES`]-aligned region from the system
/// allocator, advises huge pages for it and records it in `regions`.
fn new_region(regions: &mut Vec<(*mut u8, Layout)>, bytes: usize) -> usize {
    let layout = Layout::from_size_align(bytes, REGION_BYTES).expect("region layout");
    // SAFETY: layout has non-zero size.
    let ptr = unsafe { alloc(layout) };
    assert!(!ptr.is_null(), "region allocation of {bytes} bytes failed");
    advise_huge_pages(ptr, bytes);
    regions.push((ptr, layout));
    ptr as usize
}

/// Asks the kernel to back `[ptr, ptr + bytes)` with transparent huge
/// pages. A hint only: when THP is off (`never`) or unsupported the call
/// fails or does nothing, and the region keeps 4 KiB pages.
#[cfg(target_os = "linux")]
fn advise_huge_pages(ptr: *mut u8, bytes: usize) {
    use std::ffi::{c_int, c_void};
    extern "C" {
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }
    /// `MADV_HUGEPAGE` from `<asm-generic/mman-common.h>`.
    const MADV_HUGEPAGE: c_int = 14;
    // SAFETY: `ptr` is page-aligned (REGION_BYTES-aligned) and
    // `[ptr, ptr + bytes)` is one live allocation this store owns;
    // MADV_HUGEPAGE changes only how the kernel backs those pages, never
    // their contents. The result is ignored on purpose (see above).
    let _ = unsafe { madvise(ptr.cast(), bytes, MADV_HUGEPAGE) };
}

#[cfg(not(target_os = "linux"))]
fn advise_huge_pages(_ptr: *mut u8, _bytes: usize) {}

impl Default for ChunkStore {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for ChunkStore {
    fn drop(&mut self) {
        let registry = self.registry.get_mut();
        for &(ptr, layout) in &registry.regions {
            // SAFETY: each (ptr, layout) pair came from `alloc` in
            // `new_region` and is freed exactly once here; no blocks may be
            // referenced after the owning allocator (and hence this store)
            // is dropped.
            unsafe { dealloc(ptr, layout) };
        }
        registry.regions.clear();
    }
}

/// A bump cursor over one chunk; each bin/page holds one and asks the store
/// for a fresh chunk when exhausted. Not thread-safe (callers hold the bin
/// lock or own the page).
#[derive(Debug)]
pub struct BumpCursor {
    cursor: *mut u8,
    end: *mut u8,
}

// SAFETY: BumpCursor is just a pair of pointers into store-owned memory; the
// owning bin's synchronization governs access.
unsafe impl Send for BumpCursor {}

impl BumpCursor {
    /// An exhausted cursor (first use always grabs a chunk).
    pub const fn empty() -> Self {
        BumpCursor {
            cursor: std::ptr::null_mut(),
            end: std::ptr::null_mut(),
        }
    }

    /// Carves `stride` bytes, grabbing a new chunk from `store` when the
    /// current one is exhausted. `stride` must be ≤ the store's chunk size.
    pub fn carve(&mut self, store: &ChunkStore, stride: usize) -> *mut u8 {
        debug_assert!(stride <= store.chunk_bytes());
        // SAFETY: cursor/end delimit a valid chunk (or are both null).
        let remaining = (self.end as usize).saturating_sub(self.cursor as usize);
        if remaining < stride {
            let base = store.grab_chunk();
            self.cursor = base;
            // SAFETY: base..base+chunk_bytes is one allocation.
            self.end = unsafe { base.add(store.chunk_bytes()) };
        }
        let out = self.cursor;
        // SAFETY: just checked capacity (stride ≤ chunk size ≤ remaining).
        self.cursor = unsafe { self.cursor.add(stride) };
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_bytes_counts_every_chunk() {
        let store = ChunkStore::with_chunk_bytes(4096);
        assert_eq!(store.total_bytes(), 0);
        store.grab_chunk();
        store.grab_chunk();
        assert_eq!(store.total_bytes(), 8192);
        assert_eq!(store.chunk_count(), 2);
    }

    #[test]
    fn accounting_counts_logical_chunks_not_regions() {
        // 1 MiB (je/tc) chunks fill two per region, 64 KiB (mi pages)
        // thirty-two; neither the region size nor a region's unissued
        // tail shows in the totals.
        for (chunk, n) in [(DEFAULT_CHUNK_BYTES, 5), (64 << 10, 40)] {
            let store = ChunkStore::with_chunk_bytes(chunk);
            for _ in 0..n {
                store.grab_chunk();
            }
            assert_eq!(store.total_bytes(), n * chunk, "chunk {chunk}");
            assert_eq!(store.chunk_count(), n, "chunk {chunk}");
            let want_regions = (n * chunk).div_ceil(REGION_BYTES);
            assert_eq!(store.registry.lock().regions.len(), want_regions);
        }
    }

    #[test]
    fn region_starts_are_huge_page_aligned() {
        let store = ChunkStore::new();
        let chunks: Vec<usize> = (0..4).map(|_| store.grab_chunk() as usize).collect();
        assert_eq!(chunks[0] % REGION_BYTES, 0);
        assert_eq!(chunks[1], chunks[0] + DEFAULT_CHUNK_BYTES);
        assert_eq!(chunks[2] % REGION_BYTES, 0);
        assert_eq!(chunks[3], chunks[2] + DEFAULT_CHUNK_BYTES);
    }

    #[test]
    fn chunks_are_disjoint_and_stay_inside_their_region() {
        // 768 KiB leaves a 512 KiB tail per region that must be skipped;
        // the odd 1000-byte size exercises CHUNK_ALIGN rounding.
        for size in [768 << 10, 1000, 64 << 10] {
            let store = ChunkStore::with_chunk_bytes(size);
            let mut spans: Vec<(usize, usize)> = (0..12)
                .map(|_| {
                    let p = store.grab_chunk();
                    // SAFETY: the chunk is `size` writable bytes.
                    unsafe { std::ptr::write_bytes(p, 0xAB, size) };
                    (p as usize, p as usize + size)
                })
                .collect();
            for &(lo, hi) in &spans {
                assert_eq!(lo % CHUNK_ALIGN, 0);
                assert_eq!(
                    lo / REGION_BYTES,
                    (hi - 1) / REGION_BYTES,
                    "crosses a region"
                );
                let region = lo - lo % REGION_BYTES;
                assert!(store
                    .registry
                    .lock()
                    .regions
                    .iter()
                    .any(|&(p, _)| p as usize == region));
            }
            spans.sort_unstable();
            for w in spans.windows(2) {
                assert!(w[0].1 <= w[1].0, "overlap {w:?}");
            }
        }
    }

    #[test]
    fn grab_sized_for_huge() {
        let store = ChunkStore::new();
        let small = store.grab_chunk() as usize;
        for bytes in [10 * 1024 * 1024, REGION_BYTES + 4096] {
            let p = store.grab_sized(bytes);
            assert!(!p.is_null());
            assert_eq!(p as usize % REGION_BYTES, 0);
            // SAFETY: the chunk is `bytes` writable bytes.
            unsafe {
                p.write(1);
                p.add(bytes - 1).write(1);
            }
        }
        assert_eq!(
            store.total_bytes(),
            DEFAULT_CHUNK_BYTES + 10 * 1024 * 1024 + REGION_BYTES + 4096
        );
        // A huge chunk takes a region of its own: the shared region's
        // second half is still issued next.
        assert_eq!(store.grab_chunk() as usize, small + DEFAULT_CHUNK_BYTES);
        assert_eq!(store.chunk_count(), 4);
    }

    #[test]
    fn bump_cursor_carves_disjoint_ranges() {
        let store = ChunkStore::with_chunk_bytes(1024);
        let mut bump = BumpCursor::empty();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            let p = bump.carve(&store, 96);
            assert!(seen.insert(p as usize), "overlapping carve at {p:?}");
            // Write the whole block to catch carving past chunk bounds under
            // ASAN-style tooling.
            // SAFETY: carve returned 96 valid bytes.
            unsafe { std::ptr::write_bytes(p, 0xAB, 96) };
        }
        // 1024/96 = 10 blocks per chunk -> 100 blocks need 10 chunks.
        assert_eq!(store.chunk_count(), 10);
    }

    #[test]
    fn chunks_are_aligned() {
        let store = ChunkStore::with_chunk_bytes(4096);
        for _ in 0..4 {
            let p = store.grab_chunk();
            assert_eq!(p as usize % CHUNK_ALIGN, 0);
        }
    }

    #[test]
    fn concurrent_grabs_register_all() {
        use std::sync::Arc;
        let store = Arc::new(ChunkStore::with_chunk_bytes(4096));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        store.grab_chunk();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.chunk_count(), 200);
        assert_eq!(store.total_bytes(), 200 * 4096);
    }
}
