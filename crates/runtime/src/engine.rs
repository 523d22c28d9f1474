//! The shared engine core: arena + virtual clock + time accounting behind
//! one event-emitting facade.
//!
//! [`EngineCore`] owns everything the execution engines have in common — the
//! memory arena, the [`TimeBreakdown`] channels, a [`VirtualClock`] (DTR's
//! h-DTR recency score reads it), the chaos fault hookup, and the
//! [`Recorder`] every action is narrated to. Engines differ only in *when*
//! they allocate, free and charge — the materialization policy — so with the
//! core factored out each engine reduces to its timeline plus a
//! [`MaterializationPolicy`](crate::MaterializationPolicy) impl.
//!
//! Every mutation goes through a method that emits the matching
//! [`ExecEvent`], so the stream a recorder sees is the complete allocator
//! record: each `Alloc` and `Free` carries the range the arena reports for
//! that id at that moment, each `Oom` the arena's error fields, and each
//! `Compact` the bytes the slide moved. The arena keeps no log of its own.

use crate::event::{ClockChannel, ExecEvent, Recorder};
use crate::report::{IterationReport, OomReport, TimeBreakdown};
use mimose_chaos::IterationFaults;
use mimose_models::ModelInput;
use mimose_planner::RecoveryEvent;
use mimose_simgpu::{AllocId, AllocPolicy, Arena, DeviceProfile, OomError, VirtualClock};

/// The per-iteration execution substrate shared by every engine.
pub struct EngineCore<'a> {
    /// The device-memory arena. Engines may inspect it freely (free bytes,
    /// fragmentation, sizes); all *mutations* must go through the core so
    /// the event stream stays complete.
    pub arena: Arena,
    /// Device cost model.
    pub dev: &'a DeviceProfile,
    /// Accumulated time channels.
    pub time: TimeBreakdown,
    /// Virtual clock, advanced by every charge (DTR recency reads it).
    pub clock: VirtualClock,
    /// Recompute-latency spike factor from the chaos layer; 1.0 leaves
    /// recompute charges bit-exact.
    pub recompute_factor: f64,
    rec: &'a mut dyn Recorder,
}

/// Everything [`EngineCore::finish`] needs beyond what the core tracked
/// itself to assemble an [`IterationReport`].
pub struct ReportMeta {
    /// Iteration number.
    pub iter: usize,
    /// The collated input.
    pub input: ModelInput,
    /// The paper's scalar input size.
    pub input_size: usize,
    /// Blocks/tensors checkpointed or evicted this iteration.
    pub dropped_units: usize,
    /// Whether this was a shuttle (collection) iteration.
    pub shuttle: bool,
    /// Terminal OOM, if the iteration could not complete.
    pub oom: Option<OomReport>,
    /// Recovery-ladder actions taken, in chronological order.
    pub recovery: Vec<RecoveryEvent>,
}

impl<'a> EngineCore<'a> {
    /// Core over a fresh first-fit arena of `capacity` bytes.
    pub fn new(capacity: usize, dev: &'a DeviceProfile, rec: &'a mut dyn Recorder) -> Self {
        Self::with_policy(capacity, AllocPolicy::FirstFit, dev, rec)
    }

    /// Core over a fresh arena with an explicit fit policy.
    pub fn with_policy(
        capacity: usize,
        policy: AllocPolicy,
        dev: &'a DeviceProfile,
        rec: &'a mut dyn Recorder,
    ) -> Self {
        EngineCore {
            arena: Arena::with_policy(capacity, policy),
            dev,
            time: TimeBreakdown::default(),
            clock: VirtualClock::new(),
            recompute_factor: 1.0,
            rec,
        }
    }

    /// Apply an iteration's fault vector: arm spurious allocation failures
    /// on the arena and pick up the recompute spike factor. This is the
    /// single seam where the chaos layer reaches the execution substrate.
    pub fn arm_faults(&mut self, faults: Option<&IterationFaults>) {
        if let Some(f) = faults {
            if !f.fail_allocs.is_empty() {
                self.arena.set_spurious_failures(&f.fail_allocs);
            }
            self.recompute_factor = f.recompute_factor;
        }
    }

    /// Emit an event to the recorder. Engines use this for events the core
    /// does not originate itself (boundaries, plan changes, recovery rungs).
    #[inline]
    pub fn emit(&mut self, ev: ExecEvent) {
        self.rec.record(ev);
    }

    /// Current virtual time in ns.
    #[inline]
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.clock.now().0
    }

    /// Allocate `bytes`, emitting `Alloc` on success and `Oom` /
    /// `InjectedOom` on failure. The error is returned untouched — relief
    /// (compaction, demotion, eviction) is the policy's job, via
    /// [`policy_alloc`](crate::policy_alloc).
    pub fn try_alloc(&mut self, bytes: usize, phase: &'static str) -> Result<AllocId, OomError> {
        let injected_before = self.arena.stats().injected_ooms;
        match self.arena.alloc(bytes) {
            Ok(id) => {
                if let Some((offset, size)) = self.arena.range_of(id) {
                    self.rec.record(ExecEvent::Alloc {
                        id,
                        offset,
                        size,
                        requested: bytes,
                        phase,
                    });
                }
                Ok(id)
            }
            Err(e) => {
                if self.arena.stats().injected_ooms > injected_before {
                    self.rec.record(ExecEvent::InjectedOom {
                        requested: e.requested,
                        phase,
                    });
                } else {
                    self.rec.record(ExecEvent::Oom {
                        requested: e.requested,
                        free_bytes: e.free_bytes,
                        largest_free: e.largest_free,
                        phase,
                    });
                }
                Err(e)
            }
        }
    }

    /// Free a live allocation, emitting `Free`.
    ///
    /// # Panics
    /// Panics if `id` is not live (the arena's own contract): that is a
    /// simulator bug, not a recoverable condition.
    pub fn free(&mut self, id: AllocId) {
        let (offset, size) = self.arena.free(id);
        self.rec.record(ExecEvent::Free { id, offset, size });
    }

    /// Compact the arena (recovery rung 1), emitting `Compact`. Returns the
    /// bytes of live data that changed address — the copy cost the caller
    /// should charge via [`Self::charge_recovery`].
    pub fn compact(&mut self) -> usize {
        let moved = self.arena.compact();
        self.rec.record(ExecEvent::Compact { moved });
        moved
    }

    /// Charge useful compute time.
    pub fn charge_compute(&mut self, ns: u64) {
        self.time.compute_ns += ns;
        self.clock.advance(ns);
        self.rec.record(ExecEvent::Compute { ns });
    }

    /// Charge recomputation time from a cost-model figure, applying the
    /// chaos spike factor. Returns the nanoseconds actually charged.
    pub fn charge_recompute(&mut self, ns: f64) -> u64 {
        let charged = (ns * self.recompute_factor) as u64;
        self.time.recompute_ns += charged;
        self.clock.advance(charged);
        self.rec.record(ExecEvent::Recompute { ns: charged });
        charged
    }

    /// Charge non-overlapped swap transfer time.
    pub fn charge_swap(&mut self, ns: u64) {
        self.time.swap_ns += ns;
        self.clock.advance(ns);
        self.rec.record(ExecEvent::Swap { ns });
    }

    /// Charge plan-generation / eviction-search time.
    pub fn charge_planning(&mut self, ns: u64) {
        self.time.planning_ns += ns;
        self.clock.advance(ns);
        self.rec.record(ExecEvent::ClockCharge {
            channel: ClockChannel::Planning,
            ns,
        });
    }

    /// Charge per-tensor metadata-maintenance time.
    pub fn charge_bookkeeping(&mut self, ns: u64) {
        self.time.bookkeeping_ns += ns;
        self.clock.advance(ns);
        self.rec.record(ExecEvent::ClockCharge {
            channel: ClockChannel::Bookkeeping,
            ns,
        });
    }

    /// Charge OOM-recovery overhead (compaction copies, aborted attempts).
    pub fn charge_recovery(&mut self, ns: u64) {
        self.time.recovery_ns += ns;
        self.clock.advance(ns);
        self.rec.record(ExecEvent::ClockCharge {
            channel: ClockChannel::Recovery,
            ns,
        });
    }

    /// Close the iteration: charge the allocator-call overhead for every
    /// arena operation performed, and assemble the report from the arena's
    /// watermarks. Returns the arena alongside so recording callers can
    /// read its final statistics.
    #[must_use]
    pub fn finish(mut self, meta: ReportMeta) -> (IterationReport, Arena) {
        let stats = self.arena.stats();
        let alloc_ns = ((stats.allocs + stats.frees) as f64 * self.dev.alloc_ns) as u64;
        self.time.allocator_ns += alloc_ns;
        self.clock.advance(alloc_ns);
        self.rec.record(ExecEvent::ClockCharge {
            channel: ClockChannel::Allocator,
            ns: alloc_ns,
        });
        let report = IterationReport {
            iter: meta.iter,
            input: meta.input,
            input_size: meta.input_size,
            time: self.time,
            peak_bytes: stats.peak_used,
            peak_extent: stats.peak_extent.max(stats.peak_footprint),
            frag_bytes: stats.peak_frag,
            dropped_units: meta.dropped_units,
            shuttle: meta.shuttle,
            oom: meta.oom,
            recovery: meta.recovery,
        };
        (report, self.arena)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventLog;

    #[test]
    fn core_events_mirror_the_arena_exactly() {
        let dev = DeviceProfile::v100();
        let mut log = EventLog::new();
        let mut core = EngineCore::new(1 << 20, &dev, &mut log);
        let a = core.try_alloc(1000, "forward").expect("fits");
        let a_range = core.arena.range_of(a);
        let b = core.try_alloc(2000, "backward").expect("fits");
        let b_range = core.arena.range_of(b);
        core.free(a);
        let moved = core.compact();
        assert_eq!(moved, 2048, "b slid down over a's hole");
        let b_slid = core.arena.range_of(b);
        core.free(b);
        let err = core.try_alloc(2 << 20, "forward").expect_err("too big");
        assert_eq!(err.requested, 2 << 20);
        let (report, arena) = core.finish(ReportMeta {
            iter: 0,
            input: ModelInput::tokens(1, 1),
            input_size: 1,
            dropped_units: 0,
            shuttle: false,
            oom: None,
            recovery: Vec::new(),
        });
        assert_eq!(a_range, Some((0, 1024)));
        assert_eq!(b_range, Some((1024, 2048)));
        assert_eq!(b_slid, Some((0, 2048)));

        // Every allocator event carries what the arena reported at that
        // moment: the live range, the compaction's moved bytes, the error.
        let range = |r: Option<(usize, usize)>| r.expect("live at the time");
        let expected = vec![
            ExecEvent::Alloc {
                id: a,
                offset: range(a_range).0,
                size: range(a_range).1,
                requested: 1000,
                phase: "forward",
            },
            ExecEvent::Alloc {
                id: b,
                offset: range(b_range).0,
                size: range(b_range).1,
                requested: 2000,
                phase: "backward",
            },
            ExecEvent::Free {
                id: a,
                offset: range(a_range).0,
                size: range(a_range).1,
            },
            ExecEvent::Compact { moved },
            ExecEvent::Free {
                id: b,
                offset: range(b_slid).0,
                size: range(b_slid).1,
            },
            ExecEvent::Oom {
                requested: err.requested,
                free_bytes: err.free_bytes,
                largest_free: err.largest_free,
                phase: "forward",
            },
            ExecEvent::ClockCharge {
                channel: ClockChannel::Allocator,
                ns: report.time.allocator_ns,
            },
        ];
        assert_eq!(log.events, expected);

        // The event counts and the watermarks folded from the stream equal
        // the arena's own statistics.
        let stats = arena.stats();
        let f = crate::fold_events(arena.capacity(), &log.events);
        assert_eq!(
            (
                f.allocs,
                f.frees,
                f.oom_events,
                f.injected_ooms,
                f.compactions
            ),
            (
                stats.allocs,
                stats.frees,
                stats.oom_events,
                stats.injected_ooms,
                stats.compactions
            )
        );
        assert_eq!(
            (f.peak_used, f.peak_frag, f.peak_extent, f.peak_footprint),
            (
                stats.peak_used,
                stats.peak_frag,
                stats.peak_extent,
                stats.peak_footprint
            )
        );
        assert_eq!(f.live_bytes, arena.used_bytes());
    }

    #[test]
    fn charges_land_in_their_channels_and_advance_the_clock() {
        let dev = DeviceProfile::v100();
        let mut log = EventLog::new();
        let mut core = EngineCore::new(1 << 20, &dev, &mut log);
        core.charge_compute(100);
        core.charge_recompute(50.9); // factor 1.0: truncates like the engines
        core.charge_swap(7);
        core.charge_planning(3);
        core.charge_bookkeeping(2);
        core.charge_recovery(1);
        assert_eq!(core.time.compute_ns, 100);
        assert_eq!(core.time.recompute_ns, 50);
        assert_eq!(core.time.swap_ns, 7);
        assert_eq!(core.time.planning_ns, 3);
        assert_eq!(core.time.bookkeeping_ns, 2);
        assert_eq!(core.time.recovery_ns, 1);
        assert_eq!(core.now_ns(), 163);
        // The spike factor scales recompute charges only.
        core.recompute_factor = 2.0;
        assert_eq!(core.charge_recompute(50.9), 101);
    }

    #[test]
    fn injected_failures_emit_their_own_event() {
        let dev = DeviceProfile::v100();
        let mut log = EventLog::new();
        let mut core = EngineCore::new(1 << 20, &dev, &mut log);
        let faults = IterationFaults {
            fail_allocs: vec![1],
            ..IterationFaults::identity()
        };
        core.arm_faults(Some(&faults));
        let _ = core.try_alloc(1000, "forward").expect_err("injected");
        let _ = core.try_alloc(1000, "forward").expect("retry succeeds");
        assert!(matches!(
            log.events[0],
            ExecEvent::InjectedOom {
                requested: 1024,
                ..
            }
        ));
        assert!(matches!(log.events[1], ExecEvent::Alloc { .. }));
    }
}
