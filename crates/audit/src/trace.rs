//! Allocator auditing: replay the allocator events of a recorded
//! [`ExecEvent`] stream (`Alloc`, `Free`, `Oom`, `InjectedOom`, `Compact`)
//! through an independent shadow allocator and cross-check every invariant
//! the arena is supposed to maintain. Every other event (clock charges,
//! plan changes, recovery rungs, boundaries) leaves the arena alone and is
//! skipped.
//!
//! The shadow keeps only the live address ranges, reconstructing the free
//! list as the complement of the live set — so it shares no code (and no
//! bugs) with the arena's sorted free-list bookkeeping. Detected
//! classes:
//!
//! * **double-free / foreign free** — freeing an id that is not live;
//! * **use-after-free id reuse** — an id handed out twice;
//! * **overlapping live ranges** — two allocations sharing bytes;
//! * **out-of-bounds / misaligned / mis-sized carves**;
//! * **free metadata** — a free naming another range than the id's carve;
//! * **OOM accounting, missed coalescing, spurious OOM** — the arena
//!   reported a failure, a `free_bytes` or a `largest_free` inconsistent
//!   with the true gap structure of the address space, which is exactly
//!   what broken coalescing looks like;
//! * **compaction accounting** — a `Compact` event's reported moved-byte
//!   count disagrees with the slide the live set actually requires;
//! * **stats divergence** — recomputed `peak_used` / `peak_frag` /
//!   event counts (including compactions and injected failures) disagree
//!   with the arena's own [`ArenaStats`].

use crate::diag::Diagnostic;
use mimose_runtime::{align_up, ExecEvent};
use mimose_simgpu::{ArenaStats, ARENA_ALIGN};
use std::collections::{BTreeMap, HashSet};

/// Shadow replay state: live ranges indexed both ways, plus recomputed
/// statistics.
struct Shadow {
    capacity: usize,
    /// id → (offset, size).
    by_id: BTreeMap<u64, (usize, usize)>,
    /// offset → (size, id). Disjointness of this map is the overlap check.
    by_offset: BTreeMap<usize, (usize, u64)>,
    /// Ids freed at least once (distinguishes double-free from foreign id).
    freed: HashSet<u64>,
    /// Ids ever issued (detects id reuse).
    issued: HashSet<u64>,
    used: usize,
    stats: ArenaStats,
}

impl Shadow {
    fn new(capacity: usize) -> Self {
        Shadow {
            capacity,
            by_id: BTreeMap::new(),
            by_offset: BTreeMap::new(),
            freed: HashSet::new(),
            issued: HashSet::new(),
            used: 0,
            stats: ArenaStats::default(),
        }
    }

    fn free_bytes(&self) -> usize {
        self.capacity - self.used
    }

    /// Largest gap between live ranges (the true `largest_free`),
    /// reconstructed from the live set alone.
    fn largest_gap(&self) -> usize {
        let mut largest = 0usize;
        let mut cursor = 0usize;
        for (&off, &(size, _)) in &self.by_offset {
            if off > cursor {
                largest = largest.max(off - cursor);
            }
            cursor = cursor.max(off + size);
        }
        if self.capacity > cursor {
            largest = largest.max(self.capacity - cursor);
        }
        largest
    }

    fn frag(&self) -> usize {
        self.free_bytes().saturating_sub(self.largest_gap())
    }
}

/// Replay the allocator events of `events` against an arena of `capacity`
/// bytes and report every violated invariant, each under the subject
/// `event N`, where `N` indexes `events`. When `stats` is given, the
/// recomputed statistics must match it field for field.
///
/// Leaked allocations at the end of the stream are reported at info
/// severity: engines legitimately end an iteration with the constant
/// footprint still live.
pub(crate) fn shadow_replay(
    capacity: usize,
    events: &[ExecEvent],
    stats: Option<&ArenaStats>,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut s = Shadow::new(capacity);

    for (ev_idx, ev) in events.iter().enumerate() {
        let subject = || format!("event {ev_idx}");
        match *ev {
            ExecEvent::Alloc {
                id,
                offset,
                size,
                requested,
                ..
            } => {
                let raw = id.raw();
                if s.by_id.contains_key(&raw) {
                    diags.push(Diagnostic::error(
                        "alloc-id-reuse",
                        subject(),
                        format!("id {raw} allocated while already live"),
                    ));
                } else if s.issued.contains(&raw) {
                    diags.push(Diagnostic::error(
                        "alloc-id-reuse",
                        subject(),
                        format!("id {raw} reissued after being freed (dangling-handle hazard)"),
                    ));
                }
                if offset % ARENA_ALIGN != 0 || size % ARENA_ALIGN != 0 {
                    diags.push(Diagnostic::error(
                        "misaligned-carve",
                        subject(),
                        format!(
                            "range [{offset}, {}) not aligned to {ARENA_ALIGN} B",
                            offset + size
                        ),
                    ));
                }
                if offset + size > capacity {
                    diags.push(Diagnostic::error(
                        "out-of-bounds",
                        subject(),
                        format!(
                            "range [{offset}, {}) exceeds capacity {capacity}",
                            offset + size
                        ),
                    ));
                }
                if size != align_up(requested) {
                    diags.push(Diagnostic::error(
                        "size-mismatch",
                        subject(),
                        format!(
                            "carved {size} B for a {requested} B request (expected {} B)",
                            align_up(requested)
                        ),
                    ));
                }
                // Overlap against the nearest live neighbours on each side.
                if let Some((&poff, &(psize, pid))) = s.by_offset.range(..=offset).next_back() {
                    if poff + psize > offset {
                        diags.push(Diagnostic::error(
                            "overlapping-live-ranges",
                            subject(),
                            format!(
                                "[{offset}, {}) overlaps live id {pid} at [{poff}, {})",
                                offset + size,
                                poff + psize
                            ),
                        ));
                    }
                }
                if let Some((&noff, &(nsize, nid))) = s.by_offset.range(offset + 1..).next() {
                    if offset + size > noff {
                        diags.push(Diagnostic::error(
                            "overlapping-live-ranges",
                            subject(),
                            format!(
                                "[{offset}, {}) overlaps live id {nid} at [{noff}, {})",
                                offset + size,
                                noff + nsize
                            ),
                        ));
                    }
                }
                s.issued.insert(raw);
                s.by_id.insert(raw, (offset, size));
                s.by_offset.insert(offset, (size, raw));
                s.used += size;
                s.stats.allocs += 1;
                s.stats.peak_used = s.stats.peak_used.max(s.used);
                // Mirror the arena exactly: peak_frag and peak_extent are
                // sampled after each *successful* allocation.
                s.stats.peak_frag = s.stats.peak_frag.max(s.frag());
                s.stats.peak_extent = s.stats.peak_extent.max(offset + size);
                s.stats.peak_footprint = s.stats.peak_footprint.max(s.used + s.frag());
            }
            ExecEvent::Free { id, offset, size } => {
                let raw = id.raw();
                match s.by_id.remove(&raw) {
                    None => {
                        if s.freed.contains(&raw) {
                            diags.push(Diagnostic::error(
                                "double-free",
                                subject(),
                                format!("id {raw} freed again after an earlier free"),
                            ));
                        } else {
                            diags.push(Diagnostic::error(
                                "foreign-free",
                                subject(),
                                format!("free of id {raw} that was never allocated"),
                            ));
                        }
                    }
                    Some((live_off, live_size)) => {
                        if live_off != offset || live_size != size {
                            diags.push(Diagnostic::error(
                                "free-metadata-mismatch",
                                subject(),
                                format!(
                                    "id {raw} freed as [{offset}, {}) but was carved at [{live_off}, {})",
                                    offset + size,
                                    live_off + live_size
                                ),
                            ));
                        }
                        s.by_offset.remove(&live_off);
                        s.used -= live_size;
                        s.stats.frees += 1;
                        s.stats.peak_footprint = s.stats.peak_footprint.max(s.used + s.frag());
                    }
                }
                s.freed.insert(raw);
            }
            ExecEvent::Oom {
                requested,
                free_bytes,
                largest_free,
                ..
            } => {
                s.stats.oom_events += 1;
                let true_free = s.free_bytes();
                let true_largest = s.largest_gap();
                if free_bytes != true_free {
                    diags.push(Diagnostic::error(
                        "oom-accounting",
                        subject(),
                        format!(
                            "OOM reported {free_bytes} B free but the live set leaves {true_free} B"
                        ),
                    ));
                }
                if largest_free != true_largest {
                    diags.push(Diagnostic::error(
                        "missed-coalescing",
                        subject(),
                        format!(
                            "OOM reported largest contiguous range {largest_free} B but the \
                             address space has a {true_largest} B gap — the free list is not \
                             coalescing adjacent ranges"
                        ),
                    ));
                }
                if requested <= true_largest {
                    diags.push(Diagnostic::error(
                        "spurious-oom",
                        subject(),
                        format!(
                            "OOM for a {requested} B request although a {true_largest} B \
                             contiguous gap exists"
                        ),
                    ));
                }
            }
            ExecEvent::InjectedOom { .. } => {
                // A fault-injection artefact, not an allocator decision: the
                // arena state is untouched, so there is nothing to check —
                // only the counter to mirror.
                s.stats.injected_ooms += 1;
            }
            ExecEvent::Compact { moved } => {
                // Mirror the arena's deterministic slide: live ranges keep
                // their address order and pack from offset 0. The arena
                // reports the total bytes it copied; recompute that figure
                // independently from the shadow live set.
                let ranges: Vec<(usize, (usize, u64))> =
                    s.by_offset.iter().map(|(&o, &v)| (o, v)).collect();
                let mut cursor = 0usize;
                let mut shadow_moved = 0usize;
                s.by_offset.clear();
                for (off, (size, raw)) in ranges {
                    if off != cursor {
                        shadow_moved += size;
                    }
                    s.by_offset.insert(cursor, (size, raw));
                    s.by_id.insert(raw, (cursor, size));
                    cursor += size;
                }
                if shadow_moved != moved {
                    diags.push(Diagnostic::error(
                        "compact-accounting",
                        subject(),
                        format!(
                            "compaction reported {moved} B moved but the live set \
                             requires moving {shadow_moved} B"
                        ),
                    ));
                }
                s.stats.compactions += 1;
            }
            // Clock charges, plan changes, recovery rungs and boundaries
            // leave the arena alone.
            _ => {}
        }
    }

    if !s.by_id.is_empty() {
        diags.push(Diagnostic::info(
            "live-at-end",
            "end of trace",
            format!(
                "{} allocation(s) totalling {} B still live (normal for the constant \
                 footprint; a growing count across iterations is a leak)",
                s.by_id.len(),
                s.used
            ),
        ));
    }

    if let Some(actual) = stats {
        let fields: [(&'static str, u64, u64); 9] = [
            ("allocs", s.stats.allocs, actual.allocs),
            ("frees", s.stats.frees, actual.frees),
            ("oom_events", s.stats.oom_events, actual.oom_events),
            ("compactions", s.stats.compactions, actual.compactions),
            ("injected_ooms", s.stats.injected_ooms, actual.injected_ooms),
            (
                "peak_used",
                s.stats.peak_used as u64,
                actual.peak_used as u64,
            ),
            (
                "peak_frag",
                s.stats.peak_frag as u64,
                actual.peak_frag as u64,
            ),
            (
                "peak_extent",
                s.stats.peak_extent as u64,
                actual.peak_extent as u64,
            ),
            (
                "peak_footprint",
                s.stats.peak_footprint as u64,
                actual.peak_footprint as u64,
            ),
        ];
        for (name, recomputed, reported) in fields {
            if recomputed != reported {
                diags.push(Diagnostic::error(
                    "stats-divergence",
                    format!("ArenaStats.{name}"),
                    format!("arena reports {reported} but the trace replays to {recomputed}"),
                ));
            }
        }
    }

    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::has_errors;
    use mimose_chaos::IterationFaults;
    use mimose_runtime::{EngineCore, EventLog};
    use mimose_simgpu::{AllocId, DeviceProfile};

    /// Drive `script` on an [`EngineCore`] over a fresh `capacity`-byte
    /// arena (with `faults` armed) and return the recorded stream and the
    /// arena's statistics.
    fn record(
        capacity: usize,
        faults: Option<&IterationFaults>,
        script: impl FnOnce(&mut EngineCore<'_>),
    ) -> (Vec<ExecEvent>, ArenaStats) {
        let dev = DeviceProfile::v100();
        let mut log = EventLog::new();
        let stats = {
            let mut core = EngineCore::new(capacity, &dev, &mut log);
            core.arm_faults(faults);
            script(&mut core);
            core.arena.stats()
        };
        (log.events, stats)
    }

    fn ev_alloc(id: u64, offset: usize, requested: usize) -> ExecEvent {
        ExecEvent::Alloc {
            id: AllocId::from_raw(id),
            offset,
            size: align_up(requested),
            requested,
            phase: "forward",
        }
    }

    fn ev_free(id: u64, offset: usize, requested: usize) -> ExecEvent {
        ExecEvent::Free {
            id: AllocId::from_raw(id),
            offset,
            size: align_up(requested),
        }
    }

    fn checks<'d>(diags: &'d [Diagnostic], check: &str) -> Vec<&'d Diagnostic> {
        diags.iter().filter(|d| d.check == check).collect()
    }

    #[test]
    fn clean_recorded_stream_is_clean() {
        let (events, stats) = record(1 << 20, None, |core| {
            let x = core.try_alloc(1000, "forward").unwrap();
            core.charge_compute(10);
            let y = core.try_alloc(5000, "forward").unwrap();
            core.free(x);
            let z = core.try_alloc(700, "backward").unwrap();
            core.charge_recompute(3.0);
            core.free(y);
            core.free(z);
        });
        assert!(events
            .iter()
            .any(|e| matches!(e, ExecEvent::Compute { .. })));
        let diags = shadow_replay(1 << 20, &events, Some(&stats));
        assert!(
            diags.is_empty(),
            "all freed, so not even a leak note: {diags:?}"
        );
    }

    #[test]
    fn oom_replays_cleanly() {
        let (events, stats) = record(4096, None, |core| {
            let x = core.try_alloc(4096, "forward").unwrap();
            assert!(core.try_alloc(1, "forward").is_err());
            core.free(x);
            let _y = core.try_alloc(512, "forward").unwrap();
        });
        assert_eq!(stats.oom_events, 1);
        let diags = shadow_replay(4096, &events, Some(&stats));
        assert!(!has_errors(&diags), "{diags:?}");
    }

    #[test]
    fn compact_and_injected_failures_replay_cleanly() {
        let faults = IterationFaults {
            fail_allocs: vec![3],
            ..IterationFaults::identity()
        };
        let (events, stats) = record(1 << 20, Some(&faults), |core| {
            let x = core.try_alloc(1000, "forward").unwrap();
            let y = core.try_alloc(5000, "forward").unwrap();
            assert!(core.try_alloc(700, "forward").is_err(), "attempt 3 fails");
            core.free(x);
            assert!(core.compact() > 0, "y slides down over x's hole");
            let z = core.try_alloc(700, "forward").unwrap();
            core.free(y);
            core.free(z);
        });
        assert_eq!(stats.compactions, 1);
        assert_eq!(stats.injected_ooms, 1);
        let diags = shadow_replay(1 << 20, &events, Some(&stats));
        assert!(!has_errors(&diags), "{diags:?}");
    }

    #[test]
    fn double_free_is_an_error() {
        let events = [ev_alloc(0, 0, 512), ev_free(0, 0, 512), ev_free(0, 0, 512)];
        let diags = shadow_replay(4096, &events, None);
        let found = checks(&diags, "double-free");
        assert_eq!(found.len(), 1, "{diags:?}");
        assert_eq!(found[0].subject, "event 2");
        assert!(has_errors(&diags));
    }

    #[test]
    fn foreign_free_is_distinguished_from_double_free() {
        let diags = shadow_replay(4096, &[ev_free(9, 0, 512)], None);
        assert_eq!(checks(&diags, "foreign-free").len(), 1, "{diags:?}");
        assert!(checks(&diags, "double-free").is_empty());
    }

    #[test]
    fn subjects_index_the_whole_stream() {
        let events = [
            ExecEvent::Compute { ns: 1 },
            ev_alloc(0, 0, 512),
            ExecEvent::Boundary {
                phase: "forward",
                index: Some(0),
                live_hint: None,
            },
            ev_free(7, 0, 512),
        ];
        let diags = shadow_replay(4096, &events, None);
        let found = checks(&diags, "foreign-free");
        assert_eq!(found.len(), 1, "{diags:?}");
        assert_eq!(found[0].subject, "event 3");
    }

    #[test]
    fn id_reuse_while_live_is_an_error() {
        let events = [ev_alloc(4, 0, 512), ev_alloc(4, 512, 512)];
        let diags = shadow_replay(4096, &events, None);
        let found = checks(&diags, "alloc-id-reuse");
        assert_eq!(found.len(), 1, "{diags:?}");
        assert_eq!(found[0].message, "id 4 allocated while already live");
    }

    #[test]
    fn id_reissued_after_free_is_an_error() {
        let events = [ev_alloc(4, 0, 512), ev_free(4, 0, 512), ev_alloc(4, 0, 512)];
        let diags = shadow_replay(4096, &events, None);
        let found = checks(&diags, "alloc-id-reuse");
        assert_eq!(found.len(), 1, "{diags:?}");
        assert_eq!(
            found[0].message,
            "id 4 reissued after being freed (dangling-handle hazard)"
        );
    }

    #[test]
    fn carve_size_must_be_the_aligned_request() {
        let events = [ExecEvent::Alloc {
            id: AllocId::from_raw(0),
            offset: 0,
            size: 512,
            requested: 600, // needs 1024 B
            phase: "forward",
        }];
        let diags = shadow_replay(4096, &events, None);
        let found = checks(&diags, "size-mismatch");
        assert_eq!(found.len(), 1, "{diags:?}");
        assert_eq!(
            found[0].message,
            "carved 512 B for a 600 B request (expected 1024 B)"
        );
    }

    #[test]
    fn free_must_name_the_carved_range() {
        let events = [ev_alloc(0, 1024, 512), ev_free(0, 0, 512)];
        let diags = shadow_replay(4096, &events, None);
        let found = checks(&diags, "free-metadata-mismatch");
        assert_eq!(found.len(), 1, "{diags:?}");
        assert_eq!(
            found[0].message,
            "id 0 freed as [0, 512) but was carved at [1024, 1536)"
        );
    }

    #[test]
    fn oom_free_bytes_must_match_the_live_set() {
        // One 512 B allocation live in a 1024 B arena: 512 B free, all of
        // it in one gap, so a 1024 B request genuinely fails.
        let events = [
            ev_alloc(0, 0, 512),
            ExecEvent::Oom {
                requested: 1024,
                free_bytes: 1024, // the arena forgot the live allocation
                largest_free: 512,
                phase: "forward",
            },
        ];
        let diags = shadow_replay(1024, &events, None);
        let found = checks(&diags, "oom-accounting");
        assert_eq!(found.len(), 1, "{diags:?}");
        assert_eq!(
            found[0].message,
            "OOM reported 1024 B free but the live set leaves 512 B"
        );
        assert!(checks(&diags, "spurious-oom").is_empty(), "{diags:?}");
        assert!(checks(&diags, "missed-coalescing").is_empty(), "{diags:?}");
    }

    #[test]
    fn overlapping_ranges_detected() {
        let events = [ev_alloc(0, 0, 1024), ev_alloc(1, 512, 1024)];
        let diags = shadow_replay(1 << 20, &events, None);
        assert!(
            diags.iter().any(|d| d.check == "overlapping-live-ranges"),
            "{diags:?}"
        );
    }

    #[test]
    fn spurious_oom_and_missed_coalescing_detected() {
        // Live: [0,512) and [1536,2048); the gap [512,1536) is 1024 B.
        let events = [
            ev_alloc(0, 0, 512),
            ev_alloc(1, 1536, 512),
            ExecEvent::Oom {
                requested: 1024,
                free_bytes: 3072,
                largest_free: 512, // arena claims the gap is only 512 B
                phase: "forward",
            },
        ];
        let diags = shadow_replay(4096, &events, None);
        assert!(
            diags.iter().any(|d| d.check == "missed-coalescing"),
            "{diags:?}"
        );
        assert!(diags.iter().any(|d| d.check == "spurious-oom"), "{diags:?}");
    }

    #[test]
    fn stats_divergence_detected() {
        let (events, mut stats) = record(1 << 20, None, |core| {
            let x = core.try_alloc(1000, "forward").unwrap();
            core.free(x);
        });
        stats.peak_used += 512; // tamper
        let diags = shadow_replay(1 << 20, &events, Some(&stats));
        assert!(
            diags
                .iter()
                .any(|d| d.check == "stats-divergence" && d.subject.contains("peak_used")),
            "{diags:?}"
        );
    }

    #[test]
    fn leak_is_reported_at_info_only() {
        let diags = shadow_replay(4096, &[ev_alloc(0, 0, 512)], None);
        assert!(!has_errors(&diags));
        assert!(diags.iter().any(|d| d.check == "live-at-end"));
    }

    #[test]
    fn compact_accounting_mismatch_detected() {
        // Live [0,512) and [1024,1536): compacting must move exactly 512 B
        // (the second range), not the 5 B the event claims.
        let events = [
            ev_alloc(0, 0, 512),
            ev_alloc(1, 1024, 512),
            ExecEvent::Compact { moved: 5 },
        ];
        let diags = shadow_replay(4096, &events, None);
        assert!(
            diags.iter().any(|d| d.check == "compact-accounting"),
            "{diags:?}"
        );
    }

    #[test]
    fn out_of_bounds_and_misalignment_detected() {
        let events = [
            ExecEvent::Alloc {
                id: AllocId::from_raw(0),
                offset: 100, // unaligned
                size: 512,
                requested: 512,
                phase: "forward",
            },
            ev_alloc(1, 4096, 512), // beyond a 4096 B arena
        ];
        let diags = shadow_replay(4096, &events, None);
        assert!(
            diags.iter().any(|d| d.check == "misaligned-carve"),
            "{diags:?}"
        );
        assert!(
            diags.iter().any(|d| d.check == "out-of-bounds"),
            "{diags:?}"
        );
    }
}
