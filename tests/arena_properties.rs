//! Property tests on the memory-arena substrate: no byte is ever lost, free
//! ranges stay disjoint and coalesced, and fragmentation accounting is
//! consistent under arbitrary alloc/free interleavings.
//!
//! The randomized scripts are seeded-deterministic (see `mimose::rng`), so
//! failures reproduce exactly.

use mimose::audit::{audit_exec_events, has_errors};
use mimose::rng::{Rng, SeedableRng, StdRng};
use mimose::runtime::{EngineCore, EventLog};
use mimose::simgpu::{AllocId, AllocPolicy, Arena, DeviceProfile};
use mimose_chaos::IterationFaults;

/// A random allocator script: sizes to allocate, and for each step whether
/// to free a previously live allocation (chosen by index).
#[derive(Debug, Clone)]
enum Step {
    Alloc(usize),
    FreeNth(usize),
}

fn random_script(rng: &mut StdRng, len: usize) -> Vec<Step> {
    (0..len)
        .map(|_| {
            if rng.gen_bool(0.55) {
                Step::Alloc(rng.gen_range(1usize..512 * 1024))
            } else {
                Step::FreeNth(rng.gen_range(0usize..64))
            }
        })
        .collect()
}

fn run_script(arena: &mut Arena, script: &[Step], mut each: impl FnMut(&Arena)) -> Vec<AllocId> {
    let mut live: Vec<AllocId> = Vec::new();
    for step in script {
        match *step {
            Step::Alloc(sz) => {
                if let Ok(id) = arena.alloc(sz) {
                    live.push(id);
                }
            }
            Step::FreeNth(n) => {
                if !live.is_empty() {
                    let id = live.swap_remove(n % live.len());
                    arena.free(id);
                }
            }
        }
        each(arena);
    }
    live
}

#[test]
fn invariants_hold_under_random_scripts() {
    let mut rng = StdRng::seed_from_u64(0xA3EA_0001);
    for _ in 0..48 {
        let len = 1 + rng.gen_range(0usize..200);
        let script = random_script(&mut rng, len);
        let mut arena = Arena::new(8 << 20);
        let live = run_script(&mut arena, &script, |arena| {
            arena.check_invariants().expect("invariant violated");
            assert!(arena.used_bytes() <= arena.capacity());
            assert!(arena.largest_free() <= arena.free_bytes());
            assert_eq!(
                arena.fragmentation_bytes(),
                arena.free_bytes() - arena.largest_free()
            );
        });
        // Free everything: the arena must return to one pristine range.
        for id in live {
            arena.free(id);
        }
        arena
            .check_invariants()
            .expect("invariant violated after drain");
        assert_eq!(arena.used_bytes(), 0);
        assert_eq!(arena.largest_free(), arena.capacity());
        assert_eq!(arena.fragmentation_bytes(), 0);
    }
}

#[test]
fn stats_are_monotone() {
    let mut rng = StdRng::seed_from_u64(0xA3EA_0002);
    for _ in 0..48 {
        let len = 1 + rng.gen_range(0usize..200);
        let script = random_script(&mut rng, len);
        let mut arena = Arena::new(4 << 20);
        let mut prev_peak = 0usize;
        run_script(&mut arena, &script, |arena| {
            let stats = arena.stats();
            assert!(stats.peak_used >= prev_peak);
            assert!(stats.peak_used >= arena.used_bytes());
            assert!(stats.peak_extent <= arena.capacity());
            assert!(stats.peak_footprint >= stats.peak_used);
            prev_peak = stats.peak_used;
        });
    }
}

#[test]
fn alloc_sizes_are_aligned_and_sufficient() {
    let mut rng = StdRng::seed_from_u64(0xA3EA_0003);
    for _ in 0..256 {
        let sz = rng.gen_range(1usize..1_000_000);
        let mut arena = Arena::new(16 << 20);
        let id = arena.alloc(sz).expect("fits");
        let got = arena.size_of(id).expect("live");
        assert!(got >= sz);
        assert_eq!(got % 512, 0);
    }
}

/// Differential check: random alloc/free scripts, recorded through the
/// engine core into an event stream and replayed by the stream auditor's
/// independent shadow allocator, must produce zero error-severity
/// diagnostics under both fit policies. Each script compacts the arena
/// every few steps and has a few of its allocation attempts fail
/// spuriously, and half the scripts drain the arena at the end while the
/// other half leave their allocations live. The arena and the auditor
/// derive the free-space structure by entirely different code paths, so
/// agreement here pins down coalescing, alignment, range accounting, the
/// compaction slide, and the `ArenaStats` high-watermarks all at once.
#[test]
fn trace_audit_is_clean_for_both_fit_policies() {
    let dev = DeviceProfile::v100();
    for (policy, seed) in [
        (AllocPolicy::FirstFit, 0xD1FF_0001u64),
        (AllocPolicy::BestFit, 0xD1FF_0002u64),
    ] {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut compactions, mut injected) = (0u64, 0u64);
        for case in 0..32 {
            // A small arena so OOM (and fragmentation-OOM) paths are hit too.
            let capacity = 2 << 20;
            let len = 1 + rng.gen_range(0usize..300);
            let mut script = random_script(&mut rng, len);
            // Guarantee at least one allocation so every stream has content.
            script.insert(0, Step::Alloc(4096));
            let compact_every = rng.gen_range(4usize..40);
            let mut fail_allocs: Vec<u64> = (0..rng.gen_range(0usize..4))
                .map(|_| rng.gen_range(1..=len as u64))
                .collect();
            fail_allocs.sort_unstable();
            let faults = IterationFaults {
                fail_allocs,
                ..IterationFaults::identity()
            };
            let mut log = EventLog::new();
            let stats = {
                let mut core = EngineCore::with_policy(capacity, policy, &dev, &mut log);
                core.arm_faults(Some(&faults));
                let mut live: Vec<AllocId> = Vec::new();
                for (i, step) in script.iter().enumerate() {
                    match *step {
                        Step::Alloc(sz) => {
                            if let Ok(id) = core.try_alloc(sz, "forward") {
                                live.push(id);
                            }
                        }
                        Step::FreeNth(n) => {
                            if !live.is_empty() {
                                let id = live.swap_remove(n % live.len());
                                core.free(id);
                            }
                        }
                    }
                    if (i + 1) % compact_every == 0 {
                        core.compact();
                    }
                }
                // Drain or leave live, so end-of-stream states vary.
                if case % 2 == 0 {
                    for id in live {
                        core.free(id);
                    }
                }
                core.arena.check_invariants().expect("invariant violated");
                core.arena.stats()
            };
            assert!(
                stats.allocs + stats.oom_events > 0,
                "script exercised nothing"
            );
            compactions += stats.compactions;
            injected += stats.injected_ooms;
            let diags = audit_exec_events(capacity, &log.events, Some(&stats));
            assert!(
                !has_errors(&diags),
                "{policy:?} case {case}: auditor disagrees with arena: {diags:?}"
            );
        }
        assert!(compactions > 0, "{policy:?}: no script compacted");
        assert!(injected > 0, "{policy:?}: no injected failure fired");
    }
}
