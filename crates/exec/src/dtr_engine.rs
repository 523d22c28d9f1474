//! Tensor-granularity iteration engine with DTR-style reactive eviction.
//!
//! This module only walks the iteration timeline over the shared
//! [`EngineCore`]; everything that makes it *DTR* — the slot table, the
//! h-DTR victim search, the uniformly charged per-tensor metadata
//! maintenance (~26 % of iteration time on average, Fig 5) — lives in
//! [`crate::eviction::DtrEvictionPolicy`]. Scattered frees fragment the
//! arena, so the address-space extent (what the device actually reserves)
//! exceeds the nominal budget — Fig 5's "actually 6.7/7/7.5/8 GB used".

use crate::eviction::DtrEvictionPolicy;
use crate::shadow::DtrShadow;
use crate::DtrIteration;
use mimose_runtime::{
    policy_alloc, AllocSite, EngineCore, EventLog, ExecEvent, IterationReport, NullRecorder,
    OomReport, Recorder, ReportMeta, Tee,
};
use mimose_simgpu::ArenaStats;

/// Run one DTR iteration as configured by `it`, recording it into `log`
/// when given; returns the report and the arena's final statistics.
pub(crate) fn run(
    it: &DtrIteration<'_>,
    log: Option<&mut EventLog>,
) -> (IterationReport, ArenaStats) {
    let (profile, budget, dev, iter) = (it.profile, it.budget, &it.device, it.iter);
    let mut null = NullRecorder;
    let rec: &mut dyn Recorder = match log {
        Some(log) => log,
        None => &mut null,
    };
    // Shadow checking (debug builds / MIMOSE_SHADOW_CHECK=1): a recorder
    // teed into the stream that cross-validates the arena-side live count
    // against the slot table at every boundary carrying a `live_hint`.
    let mut shadow = crate::shadow::shadow_check_enabled()
        .then(|| DtrShadow::new(profile.const_bytes, profile.input_bytes, budget));
    let mut tee;
    let rec: &mut dyn Recorder = match shadow.as_mut() {
        Some(s) => {
            tee = Tee(s, rec);
            &mut tee
        }
        None => rec,
    };

    let mut core = EngineCore::with_policy(it.device_capacity, it.alloc_policy, dev, rec);
    let mut pol = DtrEvictionPolicy::new(budget);

    let close = |core: EngineCore<'_>,
                 pol: &DtrEvictionPolicy,
                 oom: Option<OomReport>|
     -> (IterationReport, ArenaStats) {
        let (report, arena) = core.finish(ReportMeta {
            iter,
            input: profile.input,
            input_size: profile.input_size,
            dropped_units: pol.evictions,
            shuttle: false,
            oom,
            recovery: Vec::new(), // reactive eviction is DTR's own recovery
        });
        let stats = arena.stats();
        (report, stats)
    };
    macro_rules! bail {
        ($e:expr, $phase:expr) => {{
            let oom = $e.to_report(&core.arena, $phase);
            return close(core, &pol, Some(oom));
        }};
    }

    // Constant footprint (weights/grads/optimizer) — pinned, non-evictable.
    if profile.const_bytes + profile.input_bytes > budget {
        let oom = OomReport::from_arena(&core.arena, profile.const_bytes, "const");
        return close(core, &pol, Some(oom));
    }
    for (bytes, phase) in [
        (profile.const_bytes, "const"),
        (profile.input_bytes, "input"),
    ] {
        if let Err(e) = core.try_alloc(bytes, phase) {
            let oom = OomReport::from_error(&e, phase);
            return close(core, &pol, Some(oom));
        }
    }

    let n = profile.blocks.len();
    // Per block: its internal tensor slots, then its output slot.
    let mut block_slots: Vec<Vec<usize>> = Vec::with_capacity(n);
    let mut block_out: Vec<usize> = Vec::with_capacity(n);

    // -- forward --
    let fwd_site = AllocSite::setup("forward");
    for b in &profile.blocks {
        let fwd_ns = dev.exec_ns(b.fwd_flops, b.fwd_bytes_moved) as u64;
        core.charge_compute(fwd_ns);
        let mut ids = Vec::with_capacity(b.tensors.len());
        let per_tensor_ns = fwd_ns as f64 / (b.tensors.len() + 1) as f64;
        for t in &b.tensors {
            let compute_ns = dev
                .exec_ns(t.fwd_flops, t.bytes * 2)
                .max(per_tensor_ns * 0.5);
            let si = pol.new_slot(&mut core, t.bytes, compute_ns);
            if let Err(e) = pol.fill(&mut core, si, &fwd_site) {
                bail!(e, "forward");
            }
            ids.push(si);
        }
        let out_si = pol.new_slot(&mut core, b.out_bytes, fwd_ns as f64);
        if let Err(e) = pol.fill(&mut core, out_si, &fwd_site) {
            bail!(e, "forward");
        }
        // Unpin the previous block; this output stays pinned until consumed.
        for &si in block_slots.last().unwrap_or(&Vec::new()) {
            pol.slots[si].pinned = false;
        }
        if let Some(&prev_out) = block_out.last() {
            pol.slots[prev_out].pinned = false;
        }
        block_slots.push(ids);
        block_out.push(out_si);
    }
    if let Some(ids) = block_slots.last() {
        for &si in ids {
            pol.slots[si].pinned = false;
        }
    }
    if let Some(&o) = block_out.last() {
        pol.slots[o].pinned = false;
    }
    core.emit(ExecEvent::Boundary {
        phase: "end-of-forward",
        index: None,
        live_hint: Some(pol.live_slot_bytes()),
    });

    // -- backward --
    for (i, b) in profile.blocks.iter().enumerate().rev() {
        // Pin and materialise everything the block's backward needs.
        let needed: Vec<usize> = block_slots[i]
            .iter()
            .copied()
            .chain(std::iter::once(block_out[i]))
            .collect();
        for &si in &needed {
            pol.slots[si].pinned = true;
        }
        let remat_site = AllocSite::setup("rematerialize");
        for &si in &needed {
            if let Err(e) = pol.materialize(&mut core, si, &remat_site) {
                bail!(e, "rematerialize");
            }
        }
        let bwd_site = AllocSite::setup("backward");
        let mut grads = [None, None];
        for (g, bytes) in grads.iter_mut().zip([b.out_bytes, b.in_bytes]) {
            match policy_alloc(&mut core, &mut pol, bytes, &bwd_site) {
                Ok(id) => *g = Some(id),
                Err(e) => bail!(e, "backward"),
            }
        }
        core.charge_compute(dev.exec_ns(b.bwd_flops, 2 * b.fwd_bytes_moved) as u64);
        for id in grads.into_iter().flatten() {
            core.free(id);
        }
        // Consumed: free (scattered frees fragment DTR's address space).
        for &si in &needed {
            if let Some(id) = pol.slots[si].alloc.take() {
                core.free(id);
            }
            pol.slots[si].dead = true;
            pol.slots[si].pinned = false;
        }
        core.emit(ExecEvent::Boundary {
            phase: "backward",
            index: Some(i),
            live_hint: Some(pol.live_slot_bytes()),
        });
    }

    // Optimizer step.
    let p = profile.param_count as f64;
    core.charge_compute(dev.exec_ns(4.0 * p, profile.param_count * 16) as u64);

    close(core, &pol, None)
}
