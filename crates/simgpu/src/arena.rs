//! Byte-addressed device-memory arena: free ranges in one address-sorted
//! `Vec`, live allocations in a dense table.
//!
//! This models the CUDA caching allocator at the level the paper's results
//! depend on: allocations carve address ranges out of a fixed-capacity
//! arena, frees coalesce with adjacent free ranges, and an allocation can
//! fail *even when enough total bytes are free* because no single contiguous
//! range fits — exactly the fragmentation pathology that inflates DTR's real
//! memory usage in Fig 5 (budget 4.2 GB, actual 6.7 GB).
//!
//! Free ranges live in one `Vec<(start, length)>` sorted by address,
//! disjoint and never adjacent. First-fit takes the first range from the
//! front that fits, which is the definition of first-fit; best-fit scans
//! once and keeps the smallest fitting range, the lowest address among
//! equal lengths. A free finds its slot by binary search and coalesces with
//! its two neighbours. The largest range's length is cached: a merge can
//! only raise it, and it is rescanned only when a carve shrinks or removes
//! the range that was the largest. `largest_free()` is sampled on **every**
//! successful allocation for the fragmentation watermarks, so it stays
//! O(1). Live allocations sit in a `Vec` indexed by [`AllocId`], which the
//! arena issues as 0, 1, 2, …. On the engines' workloads the free list
//! holds a handful of ranges, and on the 384-hole `arena_frag_heavy` bench
//! one scan is still cheaper than the `BTreeMap` seeks it replaced
//! (`BENCH_arena.json`). The `BTreeMap` version is kept, doc-hidden, as
//! the differential oracle `ArenaReference`.
//!
//! The arena keeps no event log of its own. `mimose_runtime::EngineCore`
//! makes every allocator call on the engines' behalf and narrates each one
//! as an `ExecEvent` (`Alloc`, `Free`, `Oom`, `InjectedOom`, `Compact`);
//! that stream is the one allocator record the audit replays.

use std::collections::BTreeSet;

/// Allocation alignment (the CUDA caching allocator rounds to 512 B).
pub const ARENA_ALIGN: usize = 512;

/// Round `bytes` up to the arena granule: the next multiple of
/// [`ARENA_ALIGN`], minimum one granule (a zero-byte request still occupies
/// an addressable range, mirroring the CUDA caching allocator).
///
/// This is the **single** alignment rule of the whole system — the arena's
/// carve sizes, the engines' residency arithmetic and the audit shadow all
/// call this one function (re-exported as `mimose_runtime::align_up`).
/// Saturates near `usize::MAX` instead of overflowing: the result is always
/// a multiple of `ARENA_ALIGN`.
#[inline]
#[must_use]
pub fn align_up(bytes: usize) -> usize {
    (bytes.saturating_add(ARENA_ALIGN - 1) & !(ARENA_ALIGN - 1)).max(ARENA_ALIGN)
}

/// Free-range selection policy.
///
/// The CUDA caching allocator behaves first-fit-ish within size pools;
/// best-fit trades allocation speed for tighter packing. The ablation bench
/// `ablation_allocator` compares their fragmentation under DTR's workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AllocPolicy {
    /// Lowest-address range that fits (default).
    #[default]
    FirstFit,
    /// Smallest range that fits (ties broken by address).
    BestFit,
}

/// Opaque handle to a live allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AllocId(u64);

impl AllocId {
    /// The raw id value (stable within one arena; used by event-stream
    /// tooling).
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuild an id from its raw value. Only meaningful for event-stream
    /// tooling (replaying or synthesizing allocator event streams); passing
    /// a fabricated id to [`Arena::free`] is a simulator bug.
    #[must_use]
    pub fn from_raw(raw: u64) -> Self {
        AllocId(raw)
    }
}

/// Allocation failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OomError {
    /// Bytes requested (aligned).
    pub requested: usize,
    /// Total free bytes at the time of failure.
    pub free_bytes: usize,
    /// Largest contiguous free range at the time of failure.
    pub largest_free: usize,
}

impl std::fmt::Display for OomError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "OOM: requested {} B, free {} B (largest contiguous {} B)",
            self.requested, self.free_bytes, self.largest_free
        )
    }
}

impl std::error::Error for OomError {}

impl OomError {
    /// True when the failure is due to fragmentation rather than genuine
    /// exhaustion: enough bytes are free in total, just not contiguously
    /// (`free_bytes >= requested` yet `largest_free < requested`).
    ///
    /// The distinction matters for policy: a fragmentation OOM can be cured
    /// by defragmentation or a different eviction order (the DTR pathology
    /// of Fig 5), while genuine exhaustion (`free_bytes < requested`) can
    /// only be cured by freeing more bytes. `requested` is the *aligned*
    /// request, so a caller asking for `free_bytes` exactly can still see
    /// a genuine-exhaustion OOM after rounding.
    #[must_use]
    pub fn is_fragmentation(&self) -> bool {
        self.free_bytes >= self.requested
    }
}

/// Running statistics of an arena.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Number of successful allocations.
    pub allocs: u64,
    /// Number of frees.
    pub frees: u64,
    /// Number of failed allocations.
    pub oom_events: u64,
    /// High-watermark of used bytes.
    pub peak_used: usize,
    /// High-watermark of fragmentation, measured as
    /// `free_bytes − largest_free`: the free bytes that could *not* satisfy
    /// a request the size of the largest contiguous range.
    ///
    /// Sampled after every **successful** allocation (the moment a carve
    /// can split a range) — not on frees or failed allocations, which only
    /// merge ranges or leave them untouched. A free that coalesces can
    /// therefore lower instantaneous fragmentation below `peak_frag`
    /// without the watermark ever moving; `peak_footprint` (updated on
    /// both paths) is the measure that tracks frees too. The stream auditor
    /// in `mimose-audit` recomputes this field with identical sampling.
    pub peak_frag: usize,
    /// High-watermark of the address-space extent (highest end address of
    /// any allocation). This approximates the bytes the caching allocator
    /// actually reserved from the device — the "actually used" memory that
    /// exceeds DTR's nominal budget in Fig 5.
    pub peak_extent: usize,
    /// High-watermark of `used + fragmentation` — the reserved-memory proxy
    /// (allocated bytes plus free-but-unusable cache) reported as "actual"
    /// usage in Fig 5.
    pub peak_footprint: usize,
    /// Number of [`Arena::compact`] calls (recovery-ladder defragmentation).
    pub compactions: u64,
    /// Number of injected (spurious) allocation failures consumed. These do
    /// not count towards `oom_events`, which tracks only genuine failures.
    pub injected_ooms: u64,
}

/// Fixed-capacity arena with a selectable fit policy.
///
/// ```
/// use mimose_simgpu::Arena;
///
/// let mut arena = Arena::new(1 << 20);
/// let a = arena.alloc(100_000).unwrap();
/// let b = arena.alloc(200_000).unwrap();
/// assert_eq!(arena.free(a), (0, 100_352));
/// // Freed space is reusable; fragmentation is tracked explicitly.
/// assert!(arena.would_fit(100_000));
/// assert_eq!(arena.free_bytes() - arena.largest_free(), arena.fragmentation_bytes());
/// arena.free(b);
/// assert_eq!(arena.used_bytes(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct Arena {
    capacity: usize,
    policy: AllocPolicy,
    /// Free ranges `(start, length)`, sorted by start address; disjoint,
    /// never adjacent, never empty.
    free: Vec<(usize, usize)>,
    /// Length of the largest range in `free` (0 when there is none).
    largest: usize,
    /// Live table indexed by `AllocId`: `Some((start, length))` while the
    /// allocation is live. Ids are issued 0, 1, 2, … in order of successful
    /// allocation, so the next id is `live.len()`.
    live: Vec<Option<(usize, usize)>>,
    /// Number of `Some` entries in `live`.
    live_count: usize,
    used: usize,
    stats: ArenaStats,
    /// Total `alloc` calls so far (1-based ordinal of the next attempt is
    /// `alloc_attempts + 1`); the key space for spurious-failure injection.
    alloc_attempts: u64,
    /// Alloc-attempt ordinals that fail spuriously (one-shot, consumed on
    /// use). Empty by default: the happy path never consults injection
    /// beyond one set lookup.
    fail_attempts: BTreeSet<u64>,
}

impl Arena {
    /// Create a first-fit arena of `capacity` bytes.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Arena::with_policy(capacity, AllocPolicy::FirstFit)
    }

    /// Create an arena with an explicit fit policy.
    #[must_use]
    pub fn with_policy(capacity: usize, policy: AllocPolicy) -> Self {
        let free = if capacity > 0 {
            vec![(0, capacity)]
        } else {
            Vec::new()
        };
        Arena {
            capacity,
            policy,
            free,
            largest: capacity,
            live: Vec::new(),
            live_count: 0,
            used: 0,
            stats: ArenaStats::default(),
            alloc_attempts: 0,
            fail_attempts: BTreeSet::new(),
        }
    }

    /// The arena's fit policy.
    #[must_use]
    pub fn policy(&self) -> AllocPolicy {
        self.policy
    }

    /// Arena capacity in bytes.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes currently allocated.
    #[must_use]
    pub fn used_bytes(&self) -> usize {
        self.used
    }

    /// Bytes currently free.
    #[must_use]
    pub fn free_bytes(&self) -> usize {
        self.capacity - self.used
    }

    /// Largest contiguous free range. O(1): the arena keeps it up to date
    /// (this is on the allocation fast path: the fragmentation watermarks
    /// sample it after every successful carve).
    #[must_use]
    pub fn largest_free(&self) -> usize {
        self.largest
    }

    /// Free bytes that cannot satisfy a request the size of the largest
    /// contiguous range — the fragmentation measure reported in Fig 5/§VI-B.
    #[must_use]
    pub fn fragmentation_bytes(&self) -> usize {
        self.free_bytes() - self.largest
    }

    /// Statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> ArenaStats {
        self.stats
    }

    /// Number of live allocations.
    #[must_use]
    pub fn live_count(&self) -> usize {
        self.live_count
    }

    /// Whether a request of `bytes` (unaligned) would currently succeed.
    /// O(1): any fitting range exists iff the largest one fits.
    #[must_use]
    pub fn would_fit(&self, bytes: usize) -> bool {
        self.largest >= align_up(bytes)
    }

    /// Position in `free` of the range the fit policy picks for `need`
    /// bytes, or `None` when no range fits.
    ///
    /// First-fit is the first range from the front with `len >= need`.
    /// Best-fit is the smallest fitting range; the strict `<` keeps the
    /// lowest address among equal lengths, and an exact fit ends the scan
    /// (nothing smaller fits, nothing earlier was as small).
    fn select(&self, need: usize) -> Option<usize> {
        if need > self.largest {
            return None;
        }
        match self.policy {
            AllocPolicy::FirstFit => self.free.iter().position(|&(_, len)| len >= need),
            AllocPolicy::BestFit => {
                let mut best: Option<(usize, usize)> = None; // (position, len)
                for (i, &(_, len)) in self.free.iter().enumerate() {
                    if len >= need && best.is_none_or(|(_, blen)| len < blen) {
                        best = Some((i, len));
                        if len == need {
                            break;
                        }
                    }
                }
                best.map(|(i, _)| i)
            }
        }
    }

    /// Allocate `bytes` (rounded up to alignment, minimum one granule).
    pub fn alloc(&mut self, bytes: usize) -> Result<AllocId, OomError> {
        let need = align_up(bytes);
        self.alloc_attempts += 1;
        if !self.fail_attempts.is_empty() && self.fail_attempts.remove(&self.alloc_attempts) {
            // Injected spurious failure: report OOM without touching state.
            // A retry is a fresh attempt ordinal, so one injection fails at
            // most one call (one-shot).
            self.stats.injected_ooms += 1;
            return Err(self.oom(need));
        }
        let Some(i) = self.select(need) else {
            self.stats.oom_events += 1;
            return Err(self.oom(need));
        };
        let (addr, len) = self.free[i];
        if len > need {
            self.free[i] = (addr + need, len - need);
        } else {
            self.free.remove(i);
        }
        if len == self.largest {
            // The carve shrank or removed a largest range.
            self.largest = self.free.iter().map(|&(_, l)| l).max().unwrap_or(0);
        }
        let id = AllocId(self.live.len() as u64);
        self.live.push(Some((addr, need)));
        self.live_count += 1;
        self.used += need;
        self.stats.allocs += 1;
        self.stats.peak_used = self.stats.peak_used.max(self.used);
        self.stats.peak_frag = self.stats.peak_frag.max(self.fragmentation_bytes());
        self.stats.peak_extent = self.stats.peak_extent.max(addr + need);
        self.stats.peak_footprint = self
            .stats
            .peak_footprint
            .max(self.used + self.fragmentation_bytes());
        Ok(id)
    }

    fn oom(&self, requested: usize) -> OomError {
        OomError {
            requested,
            free_bytes: self.free_bytes(),
            largest_free: self.largest,
        }
    }

    /// Free a live allocation and return the `(offset, aligned size)` it
    /// occupied.
    ///
    /// # Panics
    /// Panics if `id` is not live (double free / foreign id) — that is a
    /// simulator bug, not a recoverable condition.
    pub fn free(&mut self, id: AllocId) -> (usize, usize) {
        let (addr, len) = self
            .live
            .get_mut(id.0 as usize)
            .and_then(Option::take)
            .unwrap_or_else(|| panic!("free of non-live allocation {id:?}"));
        self.live_count -= 1;
        self.used -= len;
        self.stats.frees += 1;
        // `i` is the first range above `addr`; `i - 1` the last one below.
        let i = self.free.partition_point(|&(a, _)| a < addr);
        let joins_prev = i > 0 && {
            let (pa, pl) = self.free[i - 1];
            pa + pl == addr
        };
        let joins_next = i < self.free.len() && self.free[i].0 == addr + len;
        let merged = match (joins_prev, joins_next) {
            (true, true) => {
                let next_len = self.free.remove(i).1;
                self.free[i - 1].1 += len + next_len;
                self.free[i - 1].1
            }
            (true, false) => {
                self.free[i - 1].1 += len;
                self.free[i - 1].1
            }
            (false, true) => {
                self.free[i] = (addr, len + self.free[i].1);
                self.free[i].1
            }
            (false, false) => {
                self.free.insert(i, (addr, len));
                len
            }
        };
        self.largest = self.largest.max(merged);
        self.stats.peak_footprint = self
            .stats
            .peak_footprint
            .max(self.used + self.fragmentation_bytes());
        (addr, len)
    }

    /// Size (aligned) of a live allocation.
    #[must_use]
    pub fn size_of(&self, id: AllocId) -> Option<usize> {
        self.range_of(id).map(|(_, len)| len)
    }

    /// `(offset, aligned size)` of a live allocation. `None` when `id` is
    /// not live. Offsets are only stable until the next [`Arena::compact`].
    #[must_use]
    pub fn range_of(&self, id: AllocId) -> Option<(usize, usize)> {
        self.live.get(id.0 as usize).copied().flatten()
    }

    /// Compact the arena: slide every live allocation to the lowest
    /// possible address (preserving their relative address order) so all
    /// free space coalesces into a single trailing range. Returns the bytes
    /// of live data that changed address — the copy cost the caller should
    /// charge to its clock (a real defragmenter pays one device-to-device
    /// copy per moved allocation).
    ///
    /// Allocation ids remain valid; only their addresses change. The slide
    /// is fully deterministic given the live set, which lets the audit
    /// shadow allocator mirror it exactly when replaying an event stream.
    pub fn compact(&mut self) -> usize {
        let mut by_addr: Vec<(usize, usize)> = self
            .live
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.map(|(addr, _)| (addr, i)))
            .collect();
        by_addr.sort_unstable();
        let mut cursor = 0usize;
        let mut moved = 0usize;
        for (addr, i) in by_addr {
            if let Some(range) = &mut self.live[i] {
                if addr != cursor {
                    moved += range.1;
                    range.0 = cursor;
                }
                cursor += range.1;
            }
        }
        self.free.clear();
        if cursor < self.capacity {
            self.free.push((cursor, self.capacity - cursor));
        }
        self.largest = self.capacity - cursor;
        self.stats.compactions += 1;
        moved
    }

    /// Arm spurious one-shot allocation failures: the `ordinals` (1-based
    /// indices into the stream of `alloc` calls on this arena, counted from
    /// its creation) will each fail exactly once with an [`OomError`], state
    /// untouched. Replaces any previously armed set. Ordinals already in
    /// the past never fire.
    pub fn set_spurious_failures(&mut self, ordinals: &[u64]) {
        self.fail_attempts = ordinals.iter().copied().collect();
    }

    /// Total `alloc` calls made on this arena so far (successful, failed,
    /// or injected).
    #[must_use]
    pub fn alloc_attempts(&self) -> u64 {
        self.alloc_attempts
    }

    /// Number of armed spurious failures that have not fired yet.
    #[must_use]
    pub fn pending_injected_failures(&self) -> usize {
        self.fail_attempts.len()
    }

    /// Internal invariant check used by tests: free ranges are sorted,
    /// disjoint, non-adjacent and within capacity, free + used == capacity,
    /// the cached largest range is the largest one, and the live count and
    /// live bytes match the live table.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut prev_end: Option<usize> = None;
        let mut total_free = 0usize;
        let mut max_len = 0usize;
        for &(addr, len) in &self.free {
            if len == 0 {
                return Err(format!("zero-length free range at {addr}"));
            }
            if addr + len > self.capacity {
                return Err(format!(
                    "free range [{addr}, {}) beyond capacity",
                    addr + len
                ));
            }
            if let Some(pe) = prev_end {
                if addr < pe {
                    return Err(format!("overlapping or unsorted free ranges at {addr}"));
                }
                if addr == pe {
                    return Err(format!("uncoalesced adjacent free ranges at {addr}"));
                }
            }
            prev_end = Some(addr + len);
            total_free += len;
            max_len = max_len.max(len);
        }
        if self.largest != max_len {
            return Err(format!(
                "stale largest free range: cached {} B, actual {max_len} B",
                self.largest
            ));
        }
        let live_count = self.live.iter().flatten().count();
        if live_count != self.live_count {
            return Err(format!(
                "live count {} != {live_count} live table entries",
                self.live_count
            ));
        }
        let live_total: usize = self.live.iter().flatten().map(|&(_, len)| len).sum();
        if live_total != self.used {
            return Err("live total != used".into());
        }
        if total_free + self.used != self.capacity {
            return Err(format!(
                "bytes lost: free {total_free} + used {} != capacity {}",
                self.used, self.capacity
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_roundtrip() {
        let mut a = Arena::new(1 << 20);
        let id = a.alloc(1000).unwrap();
        assert_eq!(a.size_of(id), Some(1024));
        assert_eq!(a.used_bytes(), 1024);
        a.free(id);
        assert_eq!(a.used_bytes(), 0);
        assert_eq!(a.largest_free(), 1 << 20);
        a.check_invariants().unwrap();
    }

    #[test]
    fn oom_when_exhausted() {
        let mut a = Arena::new(4096);
        let _x = a.alloc(4096).unwrap();
        let err = a.alloc(1).unwrap_err();
        assert_eq!(err.free_bytes, 0);
        assert!(!err.is_fragmentation());
        assert_eq!(a.stats().oom_events, 1);
    }

    #[test]
    fn fragmentation_oom_detected() {
        let mut a = Arena::new(4 * 512);
        let x = a.alloc(512).unwrap();
        let y = a.alloc(512).unwrap();
        let _z = a.alloc(512).unwrap();
        a.free(x);
        a.free(y);
        // 1024 free bytes in one coalesced range — fits 1024.
        assert!(a.would_fit(1024));
        let w = a.alloc(1024).unwrap();
        a.free(w);
        // Now fragment: three granules live at 0/512/1024 plus z at 1536;
        // free the first and third to leave two non-adjacent 512 B holes.
        let p = a.alloc(512).unwrap();
        let q = a.alloc(512).unwrap();
        a.free(p);
        let r = a.alloc(512).unwrap(); // reuses the hole at 0
        assert_eq!(a.used_bytes(), 3 * 512);
        a.free(q);
        let err = a.alloc(1024).unwrap_err();
        assert!(err.is_fragmentation());
        assert_eq!(err.free_bytes, 1024);
        assert_eq!(err.largest_free, 512);
        assert_eq!(a.fragmentation_bytes(), 512);
        a.free(r);
        a.check_invariants().unwrap();
    }

    #[test]
    fn fragmentation_oom_vs_genuine_exhaustion() {
        // Same request size, two different failure causes — the OomError
        // classification must tell them apart.
        let mut a = Arena::new(3 * 512);
        let x = a.alloc(512).unwrap();
        let _y = a.alloc(512).unwrap();
        let z = a.alloc(512).unwrap();

        // Genuine exhaustion: zero bytes free anywhere.
        let err = a.alloc(1024).unwrap_err();
        assert!(!err.is_fragmentation());
        assert_eq!(err.free_bytes, 0);

        // Fragmentation: 1024 B free in total, but split into two
        // non-adjacent 512 B holes around the middle allocation.
        a.free(x);
        a.free(z);
        let err = a.alloc(1024).unwrap_err();
        assert!(err.is_fragmentation());
        assert_eq!(err.free_bytes, 1024);
        assert_eq!(err.largest_free, 512);
        // Both failures recorded; peak_frag was sampled at alloc time, and
        // no successful alloc has happened since the holes appeared.
        assert_eq!(a.stats().oom_events, 2);
        assert_eq!(a.fragmentation_bytes(), 512);
        let before = a.stats().peak_frag;
        let _w = a.alloc(512).unwrap(); // fills one hole: frag becomes 0
        assert_eq!(a.stats().peak_frag, before);
        a.check_invariants().unwrap();
    }

    #[test]
    fn coalescing_merges_neighbours() {
        let mut a = Arena::new(4 * 512);
        let ids: Vec<_> = (0..4).map(|_| a.alloc(512).unwrap()).collect();
        // Free middle two in both orders; they must coalesce.
        a.free(ids[2]);
        a.free(ids[1]);
        assert_eq!(a.largest_free(), 1024);
        a.free(ids[0]);
        assert_eq!(a.largest_free(), 1536);
        a.free(ids[3]);
        assert_eq!(a.largest_free(), 4 * 512);
        a.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "non-live")]
    fn double_free_panics() {
        let mut a = Arena::new(4096);
        let id = a.alloc(100).unwrap();
        a.free(id);
        a.free(id);
    }

    #[test]
    fn peak_used_tracks_high_watermark() {
        let mut a = Arena::new(1 << 16);
        let x = a.alloc(8192).unwrap();
        a.free(x);
        let _y = a.alloc(512).unwrap();
        assert_eq!(a.stats().peak_used, 8192);
    }

    #[test]
    fn zero_sized_alloc_takes_one_granule() {
        let mut a = Arena::new(4096);
        let id = a.alloc(0).unwrap();
        assert_eq!(a.size_of(id), Some(512));
    }

    #[test]
    fn compact_cures_fragmentation_oom() {
        let mut a = Arena::new(4 * 512);
        let x = a.alloc(512).unwrap();
        let y = a.alloc(512).unwrap();
        let z = a.alloc(512).unwrap();
        let _w = a.alloc(512).unwrap();
        a.free(x);
        a.free(z);
        // Two non-adjacent 512 B holes: a 1024 B request fails by
        // fragmentation alone.
        let err = a.alloc(1024).unwrap_err();
        assert!(err.is_fragmentation());
        let moved = a.compact();
        assert!(moved > 0);
        assert_eq!(a.fragmentation_bytes(), 0);
        assert_eq!(a.largest_free(), 1024);
        let big = a.alloc(1024).unwrap();
        assert_eq!(a.size_of(big), Some(1024));
        // Surviving ids stay valid and freeable after the slide.
        assert_eq!(a.size_of(y), Some(512));
        a.free(y);
        a.check_invariants().unwrap();
        assert_eq!(a.stats().compactions, 1);
    }

    #[test]
    fn compact_preserves_address_order_and_is_idempotent() {
        let mut a = Arena::new(8 * 512);
        let ids: Vec<_> = (0..6).map(|_| a.alloc(512).unwrap()).collect();
        a.free(ids[0]);
        a.free(ids[2]);
        a.free(ids[4]);
        let moved = a.compact();
        assert_eq!(moved, 3 * 512, "three survivors slid down");
        assert_eq!(a.largest_free(), 5 * 512, "one coalesced trailing range");
        // Survivors stay valid and freeable after the slide.
        for id in [ids[1], ids[3], ids[5]] {
            a.free(id);
            a.check_invariants().unwrap();
        }
        // A second compact on an already-packed arena moves nothing.
        let mut b = Arena::new(4096);
        let _k = b.alloc(512).unwrap();
        assert_eq!(b.compact(), 0);
        b.check_invariants().unwrap();
    }

    #[test]
    fn injected_failure_is_one_shot_and_state_preserving() {
        let mut a = Arena::new(1 << 16);
        let _x = a.alloc(1000).unwrap(); // attempt 1
        a.set_spurious_failures(&[2]);
        let err = a.alloc(1000).unwrap_err(); // attempt 2: injected
        assert!(err.is_fragmentation(), "arena actually had room");
        assert_eq!(a.pending_injected_failures(), 0);
        let _y = a.alloc(1000).unwrap(); // attempt 3: retry succeeds
        assert_eq!(a.stats().injected_ooms, 1);
        assert_eq!(a.stats().oom_events, 0, "injected OOMs are not genuine");
        assert_eq!(a.alloc_attempts(), 3);
        a.check_invariants().unwrap();
    }

    #[test]
    fn check_invariants_catches_a_stale_largest_and_a_wrong_live_count() {
        let mut a = Arena::new(4 * 512);
        let x = a.alloc(512).unwrap();
        let _y = a.alloc(1024).unwrap();
        assert_eq!(a.free(x), (0, 512));
        a.check_invariants().unwrap();
        let mut stale = a.clone();
        stale.largest = 1024;
        let err = stale.check_invariants().unwrap_err();
        assert!(err.contains("stale largest"), "{err}");
        let mut miscounted = a.clone();
        miscounted.live_count += 1;
        let err = miscounted.check_invariants().unwrap_err();
        assert!(err.contains("live count"), "{err}");
    }

    #[test]
    fn best_fit_takes_the_lowest_address_among_equal_lengths() {
        let mut a = Arena::with_policy(8 * 512, AllocPolicy::BestFit);
        let ids: Vec<_> = (0..7).map(|_| a.alloc(512).unwrap()).collect();
        // Holes of 1, 1 and 2 granules at 512, 1536 and 2560..3584, plus
        // the 1-granule tail at 3584.
        for k in [1, 3, 5, 6] {
            a.free(ids[k]);
        }
        let one = a.alloc(512).unwrap();
        assert_eq!(a.range_of(one), Some((512, 512)));
        let two = a.alloc(1024).unwrap();
        assert_eq!(a.range_of(two), Some((2560, 1024)));
        a.check_invariants().unwrap();
    }

    #[test]
    fn past_ordinals_never_fire() {
        let mut a = Arena::new(4096);
        let _x = a.alloc(100).unwrap();
        a.set_spurious_failures(&[1]); // attempt 1 already happened
        let _y = a.alloc(100).unwrap();
        assert_eq!(a.stats().injected_ooms, 0);
        assert_eq!(a.pending_injected_failures(), 1, "armed but unreachable");
    }
}
