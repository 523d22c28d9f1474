//! Property tests on the memory-arena substrate: no byte is ever lost, free
//! ranges stay disjoint and coalesced, and fragmentation accounting is
//! consistent under arbitrary alloc/free interleavings. The arena and its
//! `BTreeMap` oracle (`ArenaReference`) agree after every call.
//!
//! The randomized scripts are seeded-deterministic (see `mimose::rng`), so
//! failures reproduce exactly.

use mimose::audit::{audit_exec_events, has_errors};
use mimose::rng::{Rng, SeedableRng, StdRng};
use mimose::runtime::{EngineCore, EventLog};
use mimose::simgpu::{AllocId, AllocPolicy, Arena, ArenaReference, DeviceProfile};
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

/// A small arena, so OOM (and fragmentation-OOM) paths are hit too.
const CASE_CAPACITY: usize = 2 << 20;

/// One random case of the stream-audit and differential tests: an
/// allocator script, how often to compact, and which alloc attempts fail
/// spuriously.
struct Case {
    script: Vec<Step>,
    compact_every: usize,
    fail_allocs: Vec<u64>,
}

fn random_case(rng: &mut StdRng) -> Case {
    let len = 1 + rng.gen_range(0usize..300);
    let mut script = random_script(rng, len);
    // Guarantee at least one allocation so every stream has content.
    script.insert(0, Step::Alloc(4096));
    let compact_every = rng.gen_range(4usize..40);
    let mut fail_allocs: Vec<u64> = (0..rng.gen_range(0usize..4))
        .map(|_| rng.gen_range(1..=len as u64))
        .collect();
    fail_allocs.sort_unstable();
    Case {
        script,
        compact_every,
        fail_allocs,
    }
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
            let Case {
                script,
                compact_every,
                fail_allocs,
            } = random_case(&mut rng);
            let faults = IterationFaults {
                fail_allocs,
                ..IterationFaults::identity()
            };
            let mut log = EventLog::new();
            let stats = {
                let mut core = EngineCore::with_policy(CASE_CAPACITY, policy, &dev, &mut log);
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
            let diags = audit_exec_events(CASE_CAPACITY, &log.events, Some(&stats));
            assert!(
                !has_errors(&diags),
                "{policy:?} case {case}: auditor disagrees with arena: {diags:?}"
            );
        }
        assert!(compactions > 0, "{policy:?}: no script compacted");
        assert!(injected > 0, "{policy:?}: no injected failure fired");
    }
}

/// An [`Arena`] and an [`ArenaReference`] driven through the same calls,
/// compared after every call on everything either one reports.
struct Lockstep {
    arena: Arena,
    reference: ArenaReference,
    live: Vec<AllocId>,
    steps: usize,
    what: String,
}

impl Lockstep {
    fn new(capacity: usize, policy: AllocPolicy, fail_allocs: &[u64], what: String) -> Self {
        let mut arena = Arena::with_policy(capacity, policy);
        let mut reference = ArenaReference::with_policy(capacity, policy);
        arena.set_spurious_failures(fail_allocs);
        reference.set_spurious_failures(fail_allocs);
        Lockstep {
            arena,
            reference,
            live: Vec::new(),
            steps: 0,
            what,
        }
    }

    fn alloc(&mut self, bytes: usize) -> Option<AllocId> {
        let got = self.arena.alloc(bytes);
        let want = self.reference.alloc(bytes);
        assert_eq!(
            got, want,
            "{} step {}: alloc({bytes})",
            self.what, self.steps
        );
        if let Ok(id) = got {
            self.live.push(id);
        }
        self.check();
        got.ok()
    }

    fn free(&mut self, id: AllocId) {
        let want = self.reference.range_of(id);
        self.reference.free(id);
        let got = self.arena.free(id);
        assert_eq!(Some(got), want, "{} step {}: free", self.what, self.steps);
        self.live.retain(|&l| l != id);
        self.check();
    }

    fn free_nth(&mut self, n: usize) {
        if !self.live.is_empty() {
            self.free(self.live[n % self.live.len()]);
        }
    }

    fn compact(&mut self) {
        let (got, want) = (self.arena.compact(), self.reference.compact());
        assert_eq!(got, want, "{} step {}: compact", self.what, self.steps);
        self.check();
    }

    fn check(&mut self) {
        let (a, r) = (&self.arena, &self.reference);
        let at = format!("{} step {}", self.what, self.steps);
        assert_eq!(a.stats(), r.stats(), "{at}");
        assert_eq!(
            (
                a.largest_free(),
                a.fragmentation_bytes(),
                a.used_bytes(),
                a.live_count(),
                a.alloc_attempts(),
                a.pending_injected_failures(),
            ),
            (
                r.largest_free(),
                r.fragmentation_bytes(),
                r.used_bytes(),
                r.live_count(),
                r.alloc_attempts(),
                r.pending_injected_failures(),
            ),
            "{at}"
        );
        for &id in &self.live {
            assert_eq!(a.range_of(id), r.range_of(id), "{at}: {id:?}");
        }
        a.check_invariants().unwrap_or_else(|e| panic!("{at}: {e}"));
        self.steps += 1;
    }
}

/// Differential check: the sorted-`Vec` arena and the `BTreeMap` oracle
/// return the same ids, offsets, errors and statistics after every call.
/// The scripts are the stream-audit test's random cases (compactions and
/// spurious failures mixed in) plus more from other seeds, and a
/// `frag_heavy`-shaped script that leaves ~384 holes for the fit policy to
/// search, all under both fit policies.
#[test]
fn arena_matches_the_reference_arena_after_every_call() {
    let mut steps = 0usize;
    for policy in [AllocPolicy::FirstFit, AllocPolicy::BestFit] {
        for seed in [0xD1FF_0001u64, 0xD1FF_0002, 0xD1FF_0003, 0xD1FF_0004] {
            let mut rng = StdRng::seed_from_u64(seed);
            for case in 0..96 {
                let c = random_case(&mut rng);
                let what = format!("{policy:?} seed {seed:#x} case {case}");
                let mut pair = Lockstep::new(CASE_CAPACITY, policy, &c.fail_allocs, what);
                for (i, step) in c.script.iter().enumerate() {
                    match *step {
                        Step::Alloc(sz) => {
                            pair.alloc(sz);
                        }
                        Step::FreeNth(n) => pair.free_nth(n),
                    }
                    if (i + 1) % c.compact_every == 0 {
                        pair.compact();
                    }
                }
                if case % 2 == 0 {
                    while !pair.live.is_empty() {
                        pair.free_nth(0);
                    }
                }
                steps += pair.steps;
            }
        }

        // `frag_heavy`: 768 varied carves, every other one freed, 512
        // small carves hunting through the holes, then a full teardown.
        let mut pair = Lockstep::new(1 << 30, policy, &[], format!("{policy:?} frag_heavy"));
        let carved: Vec<AllocId> = (0..768usize)
            .map(|i| pair.alloc(4096 + (i * 7919) % (768 << 10)).expect("fits"))
            .collect();
        for &id in carved.iter().step_by(2) {
            pair.free(id);
        }
        assert!(pair.arena.fragmentation_bytes() > 0);
        for i in 0..512usize {
            pair.alloc(1024 + (i * 104_729) % (12 << 10)).expect("fits");
        }
        while !pair.live.is_empty() {
            pair.free_nth(0);
        }
        assert_eq!(pair.arena.largest_free(), 1 << 30);
        steps += pair.steps;
    }
    assert!(steps > 100_000, "only {steps} calls compared");
}
