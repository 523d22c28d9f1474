//! The arena as it stood before the sorted-`Vec` rewrite, kept as the
//! differential oracle for [`Arena`](crate::Arena): free ranges in two
//! `BTreeMap`s updated together (one keyed by address, one by
//! `(length, address)`) and live allocations in a third. No engine runs
//! it; `tests/arena_properties.rs` drives both arenas through the same
//! scripts and requires the same ids, offsets, errors and statistics after
//! every call.

use crate::arena::{align_up, AllocId, AllocPolicy, ArenaStats, OomError};
use std::collections::{BTreeMap, BTreeSet};

/// The `BTreeMap` arena: same behaviour as [`Arena`](crate::Arena), kept
/// only as its test oracle.
#[derive(Debug, Clone)]
pub struct ArenaReference {
    capacity: usize,
    policy: AllocPolicy,
    /// Free ranges: start address → length; disjoint, non-adjacent.
    free: BTreeMap<usize, usize>,
    /// Secondary index of the same ranges: `(length, address)`, kept in
    /// lockstep with `free` (see [`Self::check_invariants`]). Best-fit and
    /// `largest_free` read this map.
    free_by_size: BTreeMap<(usize, usize), ()>,
    /// Live allocations: id → (start, length).
    live: BTreeMap<AllocId, (usize, usize)>,
    next_id: u64,
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

impl ArenaReference {
    /// Create a first-fit arena of `capacity` bytes.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        ArenaReference::with_policy(capacity, AllocPolicy::FirstFit)
    }

    /// Create an arena with an explicit fit policy.
    #[must_use]
    pub fn with_policy(capacity: usize, policy: AllocPolicy) -> Self {
        let mut free = BTreeMap::new();
        let mut free_by_size = BTreeMap::new();
        if capacity > 0 {
            free.insert(0, capacity);
            free_by_size.insert((capacity, 0), ());
        }
        ArenaReference {
            capacity,
            policy,
            free,
            free_by_size,
            live: BTreeMap::new(),
            next_id: 0,
            used: 0,
            stats: ArenaStats::default(),
            alloc_attempts: 0,
            fail_attempts: BTreeSet::new(),
        }
    }

    /// Insert a free range into both indices.
    #[inline]
    fn insert_free(&mut self, addr: usize, len: usize) {
        self.free.insert(addr, len);
        self.free_by_size.insert((len, addr), ());
    }

    /// Remove a free range from both indices.
    #[inline]
    fn remove_free(&mut self, addr: usize, len: usize) {
        self.free.remove(&addr);
        self.free_by_size.remove(&(len, addr));
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

    /// Largest contiguous free range. O(log n) via the size index (this is
    /// on the allocation fast path: the fragmentation watermarks sample it
    /// after every successful carve).
    #[must_use]
    pub fn largest_free(&self) -> usize {
        self.free_by_size
            .last_key_value()
            .map(|(&(len, _), _)| len)
            .unwrap_or(0)
    }

    /// Free bytes that cannot satisfy a request the size of the largest
    /// contiguous range — the fragmentation measure reported in Fig 5/§VI-B.
    #[must_use]
    pub fn fragmentation_bytes(&self) -> usize {
        self.free_bytes() - self.largest_free()
    }

    /// Statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> ArenaStats {
        self.stats
    }

    /// Number of live allocations.
    #[must_use]
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Whether a request of `bytes` (unaligned) would currently succeed.
    /// O(log n): any fitting range exists iff the largest one fits.
    #[must_use]
    pub fn would_fit(&self, bytes: usize) -> bool {
        self.largest_free() >= Self::aligned(bytes)
    }

    #[inline]
    fn aligned(bytes: usize) -> usize {
        align_up(bytes)
    }

    /// First-fit selection: the lowest-address range with `len >= need`,
    /// found by racing two cursors — one over the address index (stops at
    /// the first fitting range it meets), one over the size index's fitting
    /// candidates (narrows the lowest fitting address seen so far). The
    /// address cursor can never pass a fitting range, so whichever cursor
    /// resolves first yields the exact first-fit answer; the cost is
    /// O(min(position of first fit, number of fitting ranges)) map steps
    /// instead of always paying the address-scan worst case.
    fn first_fit(&self, need: usize) -> Option<(usize, usize)> {
        let mut by_addr = self.free.iter();
        let mut by_size = self.free_by_size.range((need, 0)..);
        let mut best: Option<(usize, usize)> = None; // lowest fitting (addr, len) so far
        loop {
            match by_addr.next() {
                Some((&addr, &len)) => {
                    if let Some((baddr, _)) = best {
                        if addr >= baddr {
                            // Every address below `baddr` was scanned and
                            // does not fit — `best` is the first fit.
                            return best;
                        }
                    }
                    if len >= need {
                        // First fitting range in address order.
                        return Some((addr, len));
                    }
                }
                // All ranges scanned without a fit: nothing fits at all
                // (the size cursor would otherwise have stopped us above).
                None => return None,
            }
            if let Some((&(len, addr), ())) = by_size.next() {
                if best.is_none_or(|(baddr, _)| addr < baddr) {
                    best = Some((addr, len));
                }
            } else if best.is_some() {
                // The size cursor enumerated every fitting range; the
                // lowest-address one among them is the first fit.
                return best;
            }
        }
    }

    /// Best-fit selection: smallest fitting range, ties broken by lower
    /// address — exactly the size index's successor of `(need, 0)`. O(log n).
    fn best_fit(&self, need: usize) -> Option<(usize, usize)> {
        self.free_by_size
            .range((need, 0)..)
            .next()
            .map(|(&(len, addr), _)| (addr, len))
    }

    /// Allocate `bytes` (rounded up to alignment, minimum one granule).
    pub fn alloc(&mut self, bytes: usize) -> Result<AllocId, OomError> {
        let need = Self::aligned(bytes);
        self.alloc_attempts += 1;
        if !self.fail_attempts.is_empty() && self.fail_attempts.remove(&self.alloc_attempts) {
            // Injected spurious failure: report OOM without touching state.
            // A retry is a fresh attempt ordinal, so one injection fails at
            // most one call (one-shot).
            self.stats.injected_ooms += 1;
            return Err(OomError {
                requested: need,
                free_bytes: self.free_bytes(),
                largest_free: self.largest_free(),
            });
        }
        let slot = match self.policy {
            AllocPolicy::FirstFit => self.first_fit(need),
            AllocPolicy::BestFit => self.best_fit(need),
        };
        let Some((addr, len)) = slot else {
            self.stats.oom_events += 1;
            return Err(OomError {
                requested: need,
                free_bytes: self.free_bytes(),
                largest_free: self.largest_free(),
            });
        };
        self.remove_free(addr, len);
        if len > need {
            self.insert_free(addr + need, len - need);
        }
        let id = AllocId::from_raw(self.next_id);
        self.next_id += 1;
        self.live.insert(id, (addr, need));
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

    /// Free a live allocation.
    ///
    /// # Panics
    /// Panics if `id` is not live (double free / foreign id) — that is a
    /// simulator bug, not a recoverable condition.
    pub fn free(&mut self, id: AllocId) {
        let (addr, len) = self
            .live
            .remove(&id)
            .unwrap_or_else(|| panic!("free of non-live allocation {id:?}"));
        self.used -= len;
        self.stats.frees += 1;
        // Coalesce with predecessor.
        let mut start = addr;
        let mut length = len;
        if let Some((&paddr, &plen)) = self.free.range(..addr).next_back() {
            if paddr + plen == addr {
                self.remove_free(paddr, plen);
                start = paddr;
                length += plen;
            }
        }
        // Coalesce with successor.
        if let Some((&naddr, &nlen)) = self.free.range(addr + len..).next() {
            if addr + len == naddr {
                self.remove_free(naddr, nlen);
                length += nlen;
            }
        }
        self.insert_free(start, length);
        self.stats.peak_footprint = self
            .stats
            .peak_footprint
            .max(self.used + self.fragmentation_bytes());
    }

    /// Size (aligned) of a live allocation.
    #[must_use]
    pub fn size_of(&self, id: AllocId) -> Option<usize> {
        self.live.get(&id).map(|&(_, len)| len)
    }

    /// `(offset, aligned size)` of a live allocation. `None` when `id` is
    /// not live. Offsets are only stable until the next [`Self::compact`].
    #[must_use]
    pub fn range_of(&self, id: AllocId) -> Option<(usize, usize)> {
        self.live.get(&id).copied()
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
        let mut by_addr: Vec<(AllocId, usize, usize)> = self
            .live
            .iter()
            .map(|(&id, &(addr, len))| (id, addr, len))
            .collect();
        by_addr.sort_by_key(|&(_, addr, _)| addr);
        let mut cursor = 0usize;
        let mut moved = 0usize;
        for (id, addr, len) in by_addr {
            if addr != cursor {
                moved += len;
                self.live.insert(id, (cursor, len));
            }
            cursor += len;
        }
        self.free.clear();
        self.free_by_size.clear();
        if cursor < self.capacity {
            self.insert_free(cursor, self.capacity - cursor);
        }
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

    /// Internal invariant check used by tests: free ranges are disjoint,
    /// non-adjacent, within capacity, free+used == capacity, and the size
    /// index mirrors the address index exactly (lockstep).
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut prev_end: Option<usize> = None;
        let mut total_free = 0usize;
        if self.free.len() != self.free_by_size.len() {
            return Err(format!(
                "index divergence: {} address entries vs {} size entries",
                self.free.len(),
                self.free_by_size.len()
            ));
        }
        for (&addr, &len) in &self.free {
            if len == 0 {
                return Err(format!("zero-length free range at {addr}"));
            }
            if !self.free_by_size.contains_key(&(len, addr)) {
                return Err(format!(
                    "free range [{addr}, +{len}) missing from size index"
                ));
            }
            if addr + len > self.capacity {
                return Err(format!(
                    "free range [{addr}, {}) beyond capacity",
                    addr + len
                ));
            }
            if let Some(pe) = prev_end {
                if addr < pe {
                    return Err(format!("overlapping free ranges at {addr}"));
                }
                if addr == pe {
                    return Err(format!("uncoalesced adjacent free ranges at {addr}"));
                }
            }
            prev_end = Some(addr + len);
            total_free += len;
        }
        let live_total: usize = self.live.values().map(|&(_, len)| len).sum();
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
