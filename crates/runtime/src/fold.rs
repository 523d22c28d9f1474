//! Folding an [`ExecEvent`] stream back into iteration measurements.
//!
//! The fold replays the allocator-level events over an address-space model
//! that mirrors the arena's watermark sampling discipline *exactly* —
//! fragmentation and extent are sampled only after successful allocations,
//! footprint on both allocation and free, compaction slides live ranges
//! down preserving address order and samples nothing — and sums the time
//! channels from the charge events. A recorded run's report is therefore
//! fully reconstructible from its stream: the differential tests assert
//! byte-identity between the two, which pins the engines' event emission to
//! their actual behaviour.

use crate::event::{ClockChannel, ExecEvent};
use crate::report::TimeBreakdown;
use mimose_planner::RecoveryEvent;
use std::collections::BTreeMap;

/// The measurements reconstructed from one event stream.
#[derive(Debug, Clone, Default)]
pub struct EventFold {
    /// Time channels summed from the charge events.
    pub time: TimeBreakdown,
    /// High-watermark of live bytes (the report's `peak_bytes`).
    pub peak_used: usize,
    /// High-watermark of fragmentation (the report's `frag_bytes`).
    pub peak_frag: usize,
    /// High-watermark of the address-space extent.
    pub peak_extent: usize,
    /// High-watermark of `used + fragmentation`.
    pub peak_footprint: usize,
    /// Live bytes at the end of the stream.
    pub live_bytes: usize,
    /// Successful allocations.
    pub allocs: u64,
    /// Frees.
    pub frees: u64,
    /// Genuine allocation failures (terminal or later relieved).
    pub oom_events: u64,
    /// Injected (chaos) allocation failures.
    pub injected_ooms: u64,
    /// Compactions.
    pub compactions: u64,
    /// Mid-iteration plan changes (demotions).
    pub plan_changes: usize,
    /// Recovery-ladder events, in stream order.
    pub recovery: Vec<RecoveryEvent>,
}

impl EventFold {
    /// The report's `peak_extent` field: extent and footprint watermarks
    /// are folded together exactly as the engines do at finish.
    #[must_use]
    pub fn report_extent(&self) -> usize {
        self.peak_extent.max(self.peak_footprint)
    }
}

/// Largest free gap between live ranges in `[0, capacity)`.
fn largest_gap(live: &BTreeMap<usize, usize>, capacity: usize) -> usize {
    let mut cursor = 0usize;
    let mut largest = 0usize;
    for (&offset, &len) in live {
        largest = largest.max(offset - cursor);
        cursor = offset + len;
    }
    largest.max(capacity - cursor)
}

/// Replay `events` over an arena of `capacity` bytes.
#[must_use]
pub fn fold_events(capacity: usize, events: &[ExecEvent]) -> EventFold {
    let mut f = EventFold::default();
    // Live ranges by start address; disjoint by construction of the stream.
    let mut live: BTreeMap<usize, usize> = BTreeMap::new();
    let mut used = 0usize;
    let frag = |live: &BTreeMap<usize, usize>, used: usize| {
        (capacity - used) - largest_gap(live, capacity)
    };
    for ev in events {
        match ev {
            ExecEvent::Alloc { offset, size, .. } => {
                live.insert(*offset, *size);
                used += size;
                f.allocs += 1;
                f.peak_used = f.peak_used.max(used);
                let fr = frag(&live, used);
                f.peak_frag = f.peak_frag.max(fr);
                f.peak_extent = f.peak_extent.max(offset + size);
                f.peak_footprint = f.peak_footprint.max(used + fr);
            }
            ExecEvent::Free { offset, size, .. } => {
                live.remove(offset);
                used -= size;
                f.frees += 1;
                f.peak_footprint = f.peak_footprint.max(used + frag(&live, used));
            }
            ExecEvent::Oom { .. } => f.oom_events += 1,
            ExecEvent::InjectedOom { .. } => f.injected_ooms += 1,
            ExecEvent::Compact { .. } => {
                // Mirror the arena's deterministic slide: live ranges pack
                // to the bottom preserving address order; no watermark is
                // sampled (compaction only merges free space).
                let ranges: Vec<usize> = live.values().copied().collect();
                live.clear();
                let mut cursor = 0usize;
                for len in ranges {
                    live.insert(cursor, len);
                    cursor += len;
                }
                f.compactions += 1;
            }
            ExecEvent::Compute { ns } => f.time.compute_ns += ns,
            ExecEvent::Recompute { ns } => f.time.recompute_ns += ns,
            ExecEvent::Swap { ns } => f.time.swap_ns += ns,
            ExecEvent::ClockCharge { channel, ns } => match channel {
                ClockChannel::Planning => f.time.planning_ns += ns,
                ClockChannel::Bookkeeping => f.time.bookkeeping_ns += ns,
                ClockChannel::Allocator => f.time.allocator_ns += ns,
                ClockChannel::Recovery => f.time.recovery_ns += ns,
            },
            ExecEvent::PlanApplied { .. } => f.plan_changes += 1,
            ExecEvent::Recovery(ev) => f.recovery.push(ev.as_ref().clone()),
            ExecEvent::Boundary { .. } => {}
        }
    }
    f.live_bytes = used;
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimose_simgpu::AllocId;

    fn alloc(raw: u64, offset: usize, size: usize) -> ExecEvent {
        ExecEvent::Alloc {
            id: AllocId::from_raw(raw),
            offset,
            size,
            requested: size,
            phase: "forward",
        }
    }

    fn free(raw: u64, offset: usize, size: usize) -> ExecEvent {
        ExecEvent::Free {
            id: AllocId::from_raw(raw),
            offset,
            size,
        }
    }

    #[test]
    fn fold_mirrors_the_arena_sampling_discipline() {
        // Three granules live, free the middle one: fragmentation appears
        // only at the *next* successful alloc, footprint tracks the free.
        let capacity = 4 * 512;
        let events = vec![
            alloc(0, 0, 512),
            alloc(1, 512, 512),
            alloc(2, 1024, 512),
            free(1, 512, 512),
            // Hole at 512 (512 B); next alloc goes above (first-fit would
            // reuse it — the stream is the authority, not a fit policy).
            alloc(3, 1536, 512),
        ];
        let f = fold_events(capacity, &events);
        assert_eq!(f.peak_used, 3 * 512);
        assert_eq!(f.live_bytes, 3 * 512);
        // After the last alloc: free = 512 in one hole, largest gap 512 —
        // frag 0; but footprint peaked when the hole coexisted with the
        // trailing free range (largest gap 1024, free 1536 → frag 512).
        assert_eq!(f.peak_frag, 512 - 512);
        assert_eq!(f.peak_footprint, 2 * 512 + 512);
        assert_eq!(f.peak_extent, 2048);
        assert_eq!(f.allocs, 4);
        assert_eq!(f.frees, 1);
    }

    #[test]
    fn compact_slides_ranges_in_address_order() {
        let capacity = 4 * 512;
        let events = vec![
            alloc(0, 0, 512),
            alloc(1, 512, 512),
            alloc(2, 1024, 512),
            free(0, 0, 512),
            ExecEvent::Compact { moved: 1024 },
            // Post-slide the survivors sit at 0 and 512; the arena emits
            // the *new* offsets on later frees.
            free(1, 0, 512),
            free(2, 512, 512),
        ];
        let f = fold_events(capacity, &events);
        assert_eq!(f.live_bytes, 0);
        assert_eq!(f.compactions, 1);
    }

    #[test]
    fn time_channels_sum_from_charge_events() {
        let events = vec![
            ExecEvent::Compute { ns: 100 },
            ExecEvent::Recompute { ns: 20 },
            ExecEvent::Swap { ns: 4 },
            ExecEvent::ClockCharge {
                channel: ClockChannel::Planning,
                ns: 5,
            },
            ExecEvent::ClockCharge {
                channel: ClockChannel::Bookkeeping,
                ns: 10,
            },
            ExecEvent::ClockCharge {
                channel: ClockChannel::Allocator,
                ns: 1,
            },
            ExecEvent::ClockCharge {
                channel: ClockChannel::Recovery,
                ns: 3,
            },
        ];
        let f = fold_events(1 << 20, &events);
        assert_eq!(f.time.total_ns(), 143);
        assert_eq!(f.time.compute_ns, 100);
        assert_eq!(f.time.recovery_ns, 3);
    }
}
