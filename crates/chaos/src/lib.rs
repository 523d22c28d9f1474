//! # mimose-chaos
//!
//! Deterministic, seed-driven fault injection for the Mimose simulator.
//!
//! The recovery ladder in `mimose-exec` only earns trust if it is exercised:
//! this crate manufactures the faults. A [`FaultSpec`] describes *what* can
//! go wrong (estimator bias/noise, arena capacity shrink at iteration N,
//! spurious one-shot allocation failures, recompute-latency spikes); a
//! [`FaultInjector`] derives, per iteration, the concrete
//! [`IterationFaults`] to apply.
//!
//! Determinism is the design constraint. Each iteration's faults are drawn
//! from a fresh generator seeded by `(seed, iter)` — never from a shared
//! stream — so:
//!
//! * the same `(spec, iter)` always produces the same faults, regardless of
//!   how many other iterations were queried or in what order;
//! * restarting an iteration (the recovery ladder's `Restart` rung) replays
//!   exactly the same fault schedule it crashed under, which is what a real
//!   deterministic-replay debugging session would see;
//! * property tests can shrink failures to a single `(seed, iter)` pair.
//!
//! Everything is plain data: the injector holds no mutable state.

use mimose_rng::{Rng, SeedableRng, StdRng};

/// What faults to inject, with which intensity. The default spec injects
/// nothing; every field is independent so scenarios compose.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Master seed; all per-iteration draws derive from it.
    pub seed: u64,
    /// Multiplicative bias applied to the estimator's predicted bytes
    /// (0.6 → the policy plans for 60 % of the true footprint: systematic
    /// under-prediction, the paper's §V risk). 1.0 disables.
    pub estimator_bias: f64,
    /// Relative half-width of zero-mean multiplicative noise added on top
    /// of the bias each iteration (0.1 → uniform in ±10 %). 0.0 disables.
    pub estimator_noise: f64,
    /// Shrink the arena capacity to `factor` of nominal from iteration
    /// `at_iter` onwards (models a co-located process grabbing device
    /// memory mid-run). `None` disables.
    pub capacity_shrink: Option<(usize, f64)>,
    /// Probability that an iteration carries spurious alloc failures.
    /// 0.0 disables.
    pub alloc_failure_rate: f64,
    /// When an iteration is chosen for alloc failures, how many distinct
    /// attempt ordinals (within the first `alloc_failure_span` attempts of
    /// the iteration) fail. Ignored when the rate is 0.
    pub alloc_failures_per_iter: usize,
    /// The window of alloc-attempt ordinals (1-based, from iteration start)
    /// eligible to fail.
    pub alloc_failure_span: u64,
    /// Probability that an iteration's recompute kernels run slow. 0.0
    /// disables.
    pub recompute_spike_rate: f64,
    /// Latency multiplier applied to recompute time in a spiking iteration
    /// (2.0 → recomputation takes twice as long).
    pub recompute_spike_factor: f64,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            seed: 0,
            estimator_bias: 1.0,
            estimator_noise: 0.0,
            capacity_shrink: None,
            alloc_failure_rate: 0.0,
            alloc_failures_per_iter: 1,
            alloc_failure_span: 64,
            recompute_spike_rate: 0.0,
            recompute_spike_factor: 2.0,
        }
    }
}

impl FaultSpec {
    /// A spec that injects nothing (alias of `Default`).
    #[must_use]
    pub fn none(seed: u64) -> Self {
        FaultSpec {
            seed,
            ..FaultSpec::default()
        }
    }

    /// True when no fault channel is active: the derived faults are the
    /// identity for every iteration.
    #[must_use]
    pub fn is_noop(&self) -> bool {
        self.estimator_bias == 1.0
            && self.estimator_noise == 0.0
            && self.capacity_shrink.is_none()
            && self.alloc_failure_rate == 0.0
            && self.recompute_spike_rate == 0.0
    }
}

/// A device-lifecycle fault in a fleet plan, indexed by scheduler round
/// (the BSP clock's unit; [`FleetFaultPlan::on_round_clock`] turns round
/// `r` into instant `r` for the `*_at_ns` lookups): a device can go down
/// transiently, disappear permanently, or keep running with collapsed
/// capacity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeviceFault {
    /// The device is unreachable for `duration` rounds starting at
    /// `at_round`, then returns. Any job on it when it drops must be
    /// checkpointed and migrated — a down device's state is presumed lost.
    Down {
        /// First round the device is unreachable.
        at_round: usize,
        /// Rounds the outage lasts.
        duration: usize,
    },
    /// The device disappears permanently at `at_round`.
    Lost {
        /// First round the device is gone.
        at_round: usize,
    },
    /// The device stays up but its admission-usable capacity is multiplied
    /// by `factor` for `duration` rounds (a co-located tenant grabbing
    /// memory at the fleet level; the per-iteration analogue is
    /// [`FaultSpec::capacity_shrink`]).
    CapacityCollapse {
        /// First round the collapse applies.
        at_round: usize,
        /// Rounds the collapse lasts.
        duration: usize,
        /// Capacity multiplier in `(0, 1]`.
        factor: f64,
    },
}

impl DeviceFault {
    /// This fault on the round clock, where round `r` is instant `r`.
    fn on_round_clock(self) -> TimedDeviceFault {
        match self {
            DeviceFault::Down { at_round, duration } => TimedDeviceFault::Down {
                at_ns: at_round as u64,
                duration_ns: duration as u64,
            },
            DeviceFault::Lost { at_round } => TimedDeviceFault::Lost {
                at_ns: at_round as u64,
            },
            DeviceFault::CapacityCollapse {
                at_round,
                duration,
                factor,
            } => TimedDeviceFault::CapacityCollapse {
                at_ns: at_round as u64,
                duration_ns: duration as u64,
                factor,
            },
        }
    }
}

/// A device-lifecycle fault indexed by **virtual time** (nanoseconds on
/// the cluster's event clock) rather than by BSP round — the form the
/// event-driven serving mode consumes. Semantics mirror [`DeviceFault`]:
/// a device can go down transiently, disappear permanently, or keep
/// running with collapsed capacity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TimedDeviceFault {
    /// The device is unreachable for `duration_ns` starting at `at_ns`,
    /// then returns.
    Down {
        /// First virtual nanosecond the device is unreachable.
        at_ns: u64,
        /// Virtual nanoseconds the outage lasts.
        duration_ns: u64,
    },
    /// The device disappears permanently at `at_ns`.
    Lost {
        /// First virtual nanosecond the device is gone.
        at_ns: u64,
    },
    /// The device stays up but its admission-usable capacity is
    /// multiplied by `factor` for `duration_ns` starting at `at_ns`.
    CapacityCollapse {
        /// First virtual nanosecond the collapse applies.
        at_ns: u64,
        /// Virtual nanoseconds the collapse lasts.
        duration_ns: u64,
        /// Capacity multiplier in `(0, 1]`.
        factor: f64,
    },
}

impl TimedDeviceFault {
    /// The virtual-time boundaries at which this fault changes a device's
    /// state (start, and end where one exists).
    fn boundaries(&self) -> (u64, Option<u64>) {
        match *self {
            TimedDeviceFault::Down { at_ns, duration_ns } => {
                (at_ns, Some(at_ns.saturating_add(duration_ns)))
            }
            TimedDeviceFault::Lost { at_ns } => (at_ns, None),
            TimedDeviceFault::CapacityCollapse {
                at_ns, duration_ns, ..
            } => (at_ns, Some(at_ns.saturating_add(duration_ns))),
        }
    }
}

/// A device's availability at one instant, derived from the plan's
/// lifecycle faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceCondition {
    /// Reachable; jobs may dispatch and step.
    Up,
    /// Transiently unreachable; it will return.
    Down,
    /// Permanently gone.
    Lost,
}

/// A fleet-wide fault schedule: one base [`FaultSpec`] fanned out to a
/// pool of devices, each device getting the same fault *intensities* under
/// an independent per-device seed stream (so device 0's bad iterations are
/// not device 3's bad iterations — faults decorrelate across the pool the
/// way co-located interference does), plus explicit per-device lifecycle
/// faults ([`DeviceFault`]) indexed by scheduler round.
///
/// Derivation is pure: `injector_for(d)` is a function of
/// `(base_spec, d)` and `device_condition(d, round)` of the declared
/// fault list, so a cluster run is reproducible from the plan alone
/// regardless of dispatch order or thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetFaultPlan {
    base: FaultSpec,
    device_faults: Vec<(usize, DeviceFault)>,
    timed_faults: Vec<(usize, TimedDeviceFault)>,
}

impl FleetFaultPlan {
    /// Fan `base` out across a device pool.
    #[must_use]
    pub fn new(base: FaultSpec) -> Self {
        FleetFaultPlan {
            base,
            device_faults: Vec::new(),
            timed_faults: Vec::new(),
        }
    }

    /// A plan that injects nothing anywhere.
    #[must_use]
    pub fn none(seed: u64) -> Self {
        FleetFaultPlan::new(FaultSpec::none(seed))
    }

    /// Add a lifecycle fault for one device. Multiple faults may target
    /// the same device; `Lost` dominates overlapping `Down` windows.
    #[must_use]
    pub fn with_device_fault(mut self, device: usize, fault: DeviceFault) -> Self {
        self.device_faults.push((device, fault));
        self
    }

    /// The base spec devices derive from.
    #[must_use]
    pub fn base(&self) -> &FaultSpec {
        &self.base
    }

    /// Add a virtual-time lifecycle fault for one device — the
    /// event-driven analogue of [`with_device_fault`](Self::with_device_fault).
    /// Round-indexed faults drive BSP runs; timed faults drive
    /// event-driven runs; a plan may carry both.
    #[must_use]
    pub fn with_timed_fault(mut self, device: usize, fault: TimedDeviceFault) -> Self {
        self.timed_faults.push((device, fault));
        self
    }

    /// The declared device-lifecycle faults, in declaration order.
    #[must_use]
    pub fn device_faults(&self) -> &[(usize, DeviceFault)] {
        &self.device_faults
    }

    /// The declared virtual-time lifecycle faults, in declaration order.
    #[must_use]
    pub fn timed_faults(&self) -> &[(usize, TimedDeviceFault)] {
        &self.timed_faults
    }

    /// True when no device will see any fault.
    #[must_use]
    pub fn is_noop(&self) -> bool {
        self.base.is_noop() && self.device_faults.is_empty() && self.timed_faults.is_empty()
    }

    /// The plan on the round clock: every round-indexed [`DeviceFault`]
    /// becomes the timed fault at instant `round`, so the `*_at_ns`
    /// lookups answer round queries. The base spec is kept and the plan's
    /// own timed faults are dropped — they belong to the nanosecond clock.
    #[must_use]
    pub fn on_round_clock(&self) -> FleetFaultPlan {
        FleetFaultPlan {
            base: self.base.clone(),
            device_faults: Vec::new(),
            timed_faults: self
                .device_faults
                .iter()
                .map(|&(d, f)| (d, f.on_round_clock()))
                .collect(),
        }
    }

    /// The availability of `device` at virtual time `at_ns`, derived from
    /// the plan's [`TimedDeviceFault`]s (round-indexed faults are read
    /// through [`Self::on_round_clock`]). `Lost` dominates `Down`; with no
    /// matching fault the device is `Up`.
    #[must_use]
    pub fn device_condition_at_ns(&self, device: usize, at_ns: u64) -> DeviceCondition {
        let mut cond = DeviceCondition::Up;
        for (d, fault) in &self.timed_faults {
            if *d != device {
                continue;
            }
            match *fault {
                TimedDeviceFault::Lost { at_ns: start } if at_ns >= start => {
                    return DeviceCondition::Lost;
                }
                TimedDeviceFault::Down {
                    at_ns: start,
                    duration_ns,
                } if at_ns >= start && at_ns < start.saturating_add(duration_ns) => {
                    cond = DeviceCondition::Down;
                }
                _ => {}
            }
        }
        cond
    }

    /// True when `device` is permanently gone by virtual time `at_ns`.
    #[must_use]
    pub fn is_lost_at_ns(&self, device: usize, at_ns: u64) -> bool {
        self.device_condition_at_ns(device, at_ns) == DeviceCondition::Lost
    }

    /// The admission-capacity multiplier for `device` at virtual time
    /// `at_ns`: the product of every active timed
    /// [`TimedDeviceFault::CapacityCollapse`] window.
    #[must_use]
    pub fn capacity_factor_at_ns(&self, device: usize, at_ns: u64) -> f64 {
        let mut f = 1.0;
        for (d, fault) in &self.timed_faults {
            if let TimedDeviceFault::CapacityCollapse {
                at_ns: start,
                duration_ns,
                factor,
            } = *fault
            {
                if *d == device && at_ns >= start && at_ns < start.saturating_add(duration_ns) {
                    f *= factor;
                }
            }
        }
        f
    }

    /// The earliest virtual time strictly after `at_ns` at which any
    /// device's timed lifecycle state changes (a fault starting or
    /// ending). `None` when every declared boundary is behind `at_ns` —
    /// availability is static from here on. The fleet driver chains its
    /// fault-transition events through these boundaries.
    #[must_use]
    pub fn next_transition_after_ns(&self, at_ns: u64) -> Option<u64> {
        self.timed_faults
            .iter()
            .flat_map(|(_, f)| {
                let (start, end) = f.boundaries();
                [Some(start), end].into_iter().flatten()
            })
            .filter(|&t| t > at_ns)
            .min()
    }

    /// The spec for device `device` of the pool: the base intensities under
    /// a seed decorrelated by the device index (SplitMix64-style mixing,
    /// matching the per-iteration derivation below).
    #[must_use]
    pub fn spec_for(&self, device: usize) -> FaultSpec {
        let mut spec = self.base.clone();
        spec.seed = self
            .base
            .seed
            .wrapping_add((device as u64).wrapping_mul(0xA076_1D64_78BD_642F));
        spec
    }

    /// The injector for device `device`; `None` when the base spec is a
    /// no-op (so clean fleets keep the exact no-injector execution path —
    /// lifecycle faults need no per-iteration injector).
    #[must_use]
    pub fn injector_for(&self, device: usize) -> Option<FaultInjector> {
        if self.base.is_noop() {
            return None;
        }
        Some(FaultInjector::new(self.spec_for(device)))
    }
}

/// The concrete faults to apply to one iteration, derived from a
/// [`FaultSpec`]. All fields are identity values when no fault fires.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationFaults {
    /// Multiply the arena capacity by this before building the iteration's
    /// arena (1.0 = nominal). Applied by whoever sizes the arena — the
    /// session step — never by the engine itself, so it cannot be applied twice.
    pub capacity_factor: f64,
    /// Alloc-attempt ordinals (1-based within the iteration's arena) that
    /// fail spuriously, sorted ascending. Feed to
    /// `Arena::set_spurious_failures`.
    pub fail_allocs: Vec<u64>,
    /// Multiply recompute-kernel time by this (1.0 = nominal).
    pub recompute_factor: f64,
    /// Multiply the estimator's predicted bytes by this (1.0 = nominal):
    /// the composed bias × noise draw for this iteration.
    pub estimator_factor: f64,
}

impl IterationFaults {
    /// Faults that change nothing.
    #[must_use]
    pub fn identity() -> Self {
        IterationFaults {
            capacity_factor: 1.0,
            fail_allocs: Vec::new(),
            recompute_factor: 1.0,
            estimator_factor: 1.0,
        }
    }

    /// True when applying these faults is a no-op.
    #[must_use]
    pub fn is_identity(&self) -> bool {
        self.capacity_factor == 1.0
            && self.fail_allocs.is_empty()
            && self.recompute_factor == 1.0
            && self.estimator_factor == 1.0
    }
}

/// Derives per-iteration faults from a [`FaultSpec`]. Stateless: queries
/// are pure functions of `(spec, iter)`.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    spec: FaultSpec,
}

impl FaultInjector {
    /// Wrap a spec.
    #[must_use]
    pub fn new(spec: FaultSpec) -> Self {
        FaultInjector { spec }
    }

    /// The wrapped spec.
    #[must_use]
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Per-iteration generator: a fresh stream keyed by `(seed, iter)`.
    /// Mixing with a large odd constant decorrelates consecutive iterations
    /// before SplitMix64 expands the state.
    fn rng_for(&self, iter: usize) -> StdRng {
        StdRng::seed_from_u64(
            self.spec.seed.wrapping_add(0x9E37_79B9_7F4A_7C15)
                ^ (iter as u64).wrapping_mul(0xA076_1D64_78BD_642F),
        )
    }

    /// The faults for iteration `iter`. Deterministic and order-independent:
    /// calling this for any subset of iterations, in any order, any number
    /// of times, yields identical results.
    #[must_use]
    pub fn iteration_faults(&self, iter: usize) -> IterationFaults {
        if self.spec.is_noop() {
            return IterationFaults::identity();
        }
        let mut rng = self.rng_for(iter);
        // Always draw channels in a fixed order so adding intensity to one
        // channel never perturbs another channel's stream position.
        let u_alloc: f64 = rng.gen();
        let u_spike: f64 = rng.gen();
        let noise_draw: f64 = rng.gen();

        let capacity_factor = match self.spec.capacity_shrink {
            Some((at, factor)) if iter >= at => factor,
            _ => 1.0,
        };

        let mut fail_allocs = Vec::new();
        if self.spec.alloc_failure_rate > 0.0 && u_alloc < self.spec.alloc_failure_rate {
            let span = self.spec.alloc_failure_span.max(1);
            let want = (self.spec.alloc_failures_per_iter as u64).min(span) as usize;
            while fail_allocs.len() < want {
                let ord = rng.gen_range(1..=span);
                if !fail_allocs.contains(&ord) {
                    fail_allocs.push(ord);
                }
            }
            fail_allocs.sort_unstable();
        }

        let recompute_factor =
            if self.spec.recompute_spike_rate > 0.0 && u_spike < self.spec.recompute_spike_rate {
                self.spec.recompute_spike_factor
            } else {
                1.0
            };

        let estimator_factor = if self.spec.estimator_noise > 0.0 {
            self.spec.estimator_bias * (1.0 + (2.0 * noise_draw - 1.0) * self.spec.estimator_noise)
        } else {
            self.spec.estimator_bias
        };

        IterationFaults {
            capacity_factor,
            fail_allocs,
            recompute_factor,
            estimator_factor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_spec_yields_identity_everywhere() {
        let inj = FaultInjector::new(FaultSpec::none(42));
        for iter in 0..50 {
            assert!(inj.iteration_faults(iter).is_identity());
        }
    }

    #[test]
    fn fleet_plan_decorrelates_devices_deterministically() {
        let base = FaultSpec {
            seed: 9,
            alloc_failure_rate: 0.5,
            alloc_failures_per_iter: 2,
            ..FaultSpec::default()
        };
        let plan = FleetFaultPlan::new(base);
        assert!(!plan.is_noop());
        // Device 0 keeps the base seed; devices differ pairwise.
        assert_eq!(plan.spec_for(0).seed, 9);
        assert_ne!(plan.spec_for(1).seed, plan.spec_for(2).seed);
        // Pure derivation: same device, same spec.
        assert_eq!(plan.spec_for(3), plan.spec_for(3));
        // Fault *schedules* decorrelate: over many iterations the chosen
        // bad iterations differ between two devices.
        let a = plan.injector_for(1).unwrap();
        let b = plan.injector_for(2).unwrap();
        let differs = (0..100).any(|i| a.iteration_faults(i) != b.iteration_faults(i));
        assert!(differs, "per-device schedules must decorrelate");
        // No-op plans hand back no injector at all.
        assert!(FleetFaultPlan::none(5).injector_for(0).is_none());
    }

    #[test]
    fn device_lifecycle_faults_derive_conditions() {
        let plan = FleetFaultPlan::none(1)
            .with_device_fault(
                1,
                DeviceFault::Down {
                    at_round: 3,
                    duration: 2,
                },
            )
            .with_device_fault(2, DeviceFault::Lost { at_round: 5 })
            .with_device_fault(
                0,
                DeviceFault::CapacityCollapse {
                    at_round: 2,
                    duration: 3,
                    factor: 0.5,
                },
            );
        assert!(!plan.is_noop());
        // Base spec stays a no-op, so no per-iteration injector is built.
        assert!(plan.injector_for(0).is_none());
        let rounds = plan.on_round_clock();
        assert!(rounds.injector_for(0).is_none());

        // Down window: [3, 5).
        assert_eq!(rounds.device_condition_at_ns(1, 2), DeviceCondition::Up);
        assert_eq!(rounds.device_condition_at_ns(1, 3), DeviceCondition::Down);
        assert_eq!(rounds.device_condition_at_ns(1, 4), DeviceCondition::Down);
        assert_eq!(rounds.device_condition_at_ns(1, 5), DeviceCondition::Up);
        // Lost is monotone.
        assert_eq!(rounds.device_condition_at_ns(2, 4), DeviceCondition::Up);
        assert!(rounds.is_lost_at_ns(2, 5));
        assert!(rounds.is_lost_at_ns(2, 5000));
        // Collapse affects capacity, not availability.
        assert_eq!(rounds.device_condition_at_ns(0, 3), DeviceCondition::Up);
        assert_eq!(rounds.capacity_factor_at_ns(0, 1), 1.0);
        assert_eq!(rounds.capacity_factor_at_ns(0, 2), 0.5);
        assert_eq!(rounds.capacity_factor_at_ns(0, 4), 0.5);
        assert_eq!(rounds.capacity_factor_at_ns(0, 5), 1.0);
        // Untouched device: always Up at nominal capacity.
        assert_eq!(rounds.device_condition_at_ns(3, 100), DeviceCondition::Up);
        assert_eq!(rounds.capacity_factor_at_ns(3, 100), 1.0);
    }

    #[test]
    fn lost_dominates_overlapping_down() {
        let plan = FleetFaultPlan::none(1)
            .with_device_fault(
                0,
                DeviceFault::Down {
                    at_round: 1,
                    duration: 10,
                },
            )
            .with_device_fault(0, DeviceFault::Lost { at_round: 4 })
            .on_round_clock();
        assert_eq!(plan.device_condition_at_ns(0, 2), DeviceCondition::Down);
        assert_eq!(plan.device_condition_at_ns(0, 4), DeviceCondition::Lost);
        assert_eq!(plan.device_condition_at_ns(0, 20), DeviceCondition::Lost);
    }

    #[test]
    fn next_transition_walks_every_boundary() {
        let plan = FleetFaultPlan::none(1)
            .with_device_fault(
                1,
                DeviceFault::Down {
                    at_round: 3,
                    duration: 2,
                },
            )
            .with_device_fault(2, DeviceFault::Lost { at_round: 8 })
            .on_round_clock();
        assert_eq!(plan.next_transition_after_ns(0), Some(3));
        assert_eq!(plan.next_transition_after_ns(3), Some(5));
        assert_eq!(plan.next_transition_after_ns(5), Some(8));
        assert_eq!(plan.next_transition_after_ns(8), None);
        assert_eq!(
            FleetFaultPlan::none(0)
                .on_round_clock()
                .next_transition_after_ns(0),
            None
        );
    }

    #[test]
    fn timed_faults_resolve_conditions_on_the_virtual_clock() {
        let plan = FleetFaultPlan::none(0)
            .with_timed_fault(
                0,
                TimedDeviceFault::Down {
                    at_ns: 1_000,
                    duration_ns: 500,
                },
            )
            .with_timed_fault(1, TimedDeviceFault::Lost { at_ns: 2_000 })
            .with_timed_fault(
                2,
                TimedDeviceFault::CapacityCollapse {
                    at_ns: 100,
                    duration_ns: 300,
                    factor: 0.5,
                },
            );
        assert!(!plan.is_noop());
        assert_eq!(plan.device_condition_at_ns(0, 999), DeviceCondition::Up);
        assert_eq!(plan.device_condition_at_ns(0, 1_000), DeviceCondition::Down);
        assert_eq!(plan.device_condition_at_ns(0, 1_499), DeviceCondition::Down);
        assert_eq!(plan.device_condition_at_ns(0, 1_500), DeviceCondition::Up);
        assert!(!plan.is_lost_at_ns(1, 1_999));
        assert!(plan.is_lost_at_ns(1, 2_000));
        assert!(plan.is_lost_at_ns(1, u64::MAX));
        // Capacity collapse leaves the device Up but halves usable bytes.
        assert_eq!(plan.device_condition_at_ns(2, 200), DeviceCondition::Up);
        assert!((plan.capacity_factor_at_ns(2, 200) - 0.5).abs() < 1e-12);
        assert!((plan.capacity_factor_at_ns(2, 400) - 1.0).abs() < 1e-12);
        // The round clock drops timed faults.
        let rounds = plan.on_round_clock();
        assert_eq!(rounds.device_condition_at_ns(0, 1_000), DeviceCondition::Up);
        assert_eq!(rounds.next_transition_after_ns(0), None);
    }

    #[test]
    fn timed_transitions_enumerate_every_boundary() {
        let plan = FleetFaultPlan::none(0)
            .with_timed_fault(
                0,
                TimedDeviceFault::Down {
                    at_ns: 1_000,
                    duration_ns: 500,
                },
            )
            .with_timed_fault(1, TimedDeviceFault::Lost { at_ns: 2_000 });
        assert_eq!(plan.next_transition_after_ns(0), Some(1_000));
        assert_eq!(plan.next_transition_after_ns(1_000), Some(1_500));
        assert_eq!(plan.next_transition_after_ns(1_500), Some(2_000));
        assert_eq!(plan.next_transition_after_ns(2_000), None);
        assert_eq!(FleetFaultPlan::none(0).next_transition_after_ns(0), None);
    }

    #[test]
    fn same_seed_same_iter_is_deterministic_and_order_independent() {
        let spec = FaultSpec {
            seed: 7,
            estimator_bias: 0.8,
            estimator_noise: 0.1,
            alloc_failure_rate: 0.5,
            alloc_failures_per_iter: 3,
            recompute_spike_rate: 0.3,
            ..FaultSpec::default()
        };
        let inj = FaultInjector::new(spec);
        // Forward order …
        let fwd: Vec<_> = (0..30).map(|i| inj.iteration_faults(i)).collect();
        // … reverse order, repeated queries interleaved.
        for i in (0..30).rev() {
            let f = inj.iteration_faults(i);
            assert_eq!(f, fwd[i], "iteration {i} diverged across query orders");
            assert_eq!(f, inj.iteration_faults(i), "repeat query diverged");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mk = |seed| {
            FaultInjector::new(FaultSpec {
                seed,
                alloc_failure_rate: 1.0,
                alloc_failures_per_iter: 4,
                ..FaultSpec::default()
            })
        };
        let a: Vec<_> = (0..20).map(|i| mk(1).iteration_faults(i)).collect();
        let b: Vec<_> = (0..20).map(|i| mk(2).iteration_faults(i)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn capacity_shrink_kicks_in_at_iter() {
        let inj = FaultInjector::new(FaultSpec {
            seed: 3,
            capacity_shrink: Some((10, 0.5)),
            ..FaultSpec::default()
        });
        assert_eq!(inj.iteration_faults(9).capacity_factor, 1.0);
        assert_eq!(inj.iteration_faults(10).capacity_factor, 0.5);
        assert_eq!(inj.iteration_faults(99).capacity_factor, 0.5);
    }

    #[test]
    fn fail_allocs_sorted_unique_in_span() {
        let inj = FaultInjector::new(FaultSpec {
            seed: 11,
            alloc_failure_rate: 1.0,
            alloc_failures_per_iter: 5,
            alloc_failure_span: 16,
            ..FaultSpec::default()
        });
        for iter in 0..100 {
            let f = inj.iteration_faults(iter);
            assert_eq!(f.fail_allocs.len(), 5);
            for w in f.fail_allocs.windows(2) {
                assert!(w[0] < w[1], "unsorted or duplicate ordinals");
            }
            assert!(f.fail_allocs.iter().all(|&o| (1..=16).contains(&o)));
        }
    }

    #[test]
    fn failure_rate_is_roughly_honoured() {
        let inj = FaultInjector::new(FaultSpec {
            seed: 5,
            alloc_failure_rate: 0.25,
            ..FaultSpec::default()
        });
        let n = 4000;
        let hits = (0..n)
            .filter(|&i| !inj.iteration_faults(i).fail_allocs.is_empty())
            .count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.03, "frac {frac}");
    }

    #[test]
    fn estimator_noise_stays_in_band() {
        let inj = FaultInjector::new(FaultSpec {
            seed: 9,
            estimator_bias: 0.8,
            estimator_noise: 0.1,
            ..FaultSpec::default()
        });
        for iter in 0..500 {
            let f = inj.iteration_faults(iter).estimator_factor;
            assert!(
                (0.8 * 0.9..=0.8 * 1.1).contains(&f),
                "factor {f} outside bias±noise band"
            );
        }
    }

    #[test]
    fn channels_are_independent_of_each_other() {
        // Turning the spike channel on must not change the alloc-failure
        // draw for the same (seed, iter).
        let base = FaultSpec {
            seed: 21,
            alloc_failure_rate: 0.5,
            alloc_failures_per_iter: 2,
            ..FaultSpec::default()
        };
        let with_spike = FaultSpec {
            recompute_spike_rate: 0.5,
            ..base
        };
        let a = FaultInjector::new(base);
        let b = FaultInjector::new(with_spike);
        for iter in 0..100 {
            assert_eq!(
                a.iteration_faults(iter).fail_allocs,
                b.iteration_faults(iter).fail_allocs,
                "spike channel perturbed alloc channel at iter {iter}"
            );
        }
    }
}
