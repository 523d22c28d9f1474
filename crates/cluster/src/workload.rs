//! Canonical device pools and workloads: the typed inputs to
//! [`Cluster::builder`](crate::Cluster), with every magic budget, seed and
//! priority hoisted into a named, documented constant so the report's
//! numbers trace back to something greppable.

use crate::job::{JobPolicy, JobSpec};
use mimose_data::presets;
use mimose_models::builders::{bert_base, resnet50_od, roberta_base, BertHead};
use mimose_planner::PolicyKind;
use mimose_simgpu::DeviceProfile;

const GIB: usize = 1 << 30;

/// A typed pool of devices for the builder. Wraps the raw
/// [`DeviceProfile`] list so call sites say what the pool *is*
/// (`DevicePool::v100(4)`) rather than how it is assembled.
#[derive(Debug, Clone)]
pub struct DevicePool {
    devices: Vec<DeviceProfile>,
}

impl DevicePool {
    /// A pool of `n` identical V100s — the canonical benchmark pool.
    #[must_use]
    pub fn v100(n: usize) -> Self {
        DevicePool {
            devices: (0..n).map(|_| DeviceProfile::v100()).collect(),
        }
    }

    /// A pool of explicit device profiles.
    #[must_use]
    pub fn custom(devices: Vec<DeviceProfile>) -> Self {
        DevicePool { devices }
    }

    /// Number of devices in the pool.
    #[must_use]
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the pool is empty (the builder rejects such pools).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    pub(crate) fn into_devices(self) -> Vec<DeviceProfile> {
        self.devices
    }
}

/// A typed job mix for the builder.
#[derive(Clone)]
pub struct Workload {
    jobs: Vec<JobSpec>,
}

impl Workload {
    /// Memory budget of the `bert-qqp-mimose` job: tight enough that the
    /// input-aware planner must checkpoint on long QQP batches.
    pub const BERT_QQP_MIMOSE_BUDGET: usize = 6 * GIB;
    /// Memory budget of the `roberta-squad-mimose` job.
    pub const ROBERTA_SQUAD_MIMOSE_BUDGET: usize = 7 * GIB;
    /// Memory budget of the `bert-swag-sublinear` static plan.
    pub const BERT_SWAG_SUBLINEAR_BUDGET: usize = 8 * GIB;
    /// Memory budget of the `resnet-coco-dtr` eviction policy.
    pub const RESNET_COCO_DTR_BUDGET: usize = 10 * GIB;
    /// Memory budget of the `roberta-qqp-capuchin` swap policy.
    pub const ROBERTA_QQP_CAPUCHIN_BUDGET: usize = 8 * GIB;
    /// Memory budget of the `resnet-coco-mimose` job.
    pub const RESNET_COCO_MIMOSE_BUDGET: usize = 9 * GIB;
    /// Memory budget of the `bert-squad-sublinear` static plan.
    pub const BERT_SQUAD_SUBLINEAR_BUDGET: usize = 7 * GIB;
    /// Per-image detection batch size of the `resnet-coco-dtr` job.
    pub const RESNET_DTR_BATCH: usize = 8;
    /// Per-image detection batch size of the `resnet-coco-mimose` job.
    pub const RESNET_MIMOSE_BATCH: usize = 6;
    /// Base data-stream seed of the mixed workload; job `i` uses
    /// `BASE_SEED + i`, so every job draws a distinct, reproducible
    /// batch-length sequence.
    pub const BASE_SEED: u64 = 11;
    /// Fleet priority of the input-aware (Mimose) jobs. Higher wins under
    /// degradation: a degraded pool sheds the static baselines
    /// (priority [`Self::BASELINE_PRIORITY`]) before the input-aware
    /// jobs — inert in clean runs.
    pub const MIMOSE_PRIORITY: u32 = 1;
    /// Fleet priority of everything else in the mix.
    pub const BASELINE_PRIORITY: u32 = 0;
    /// Seed stride between scaled-workload copies: copy `k` of job `i`
    /// uses `BASE_SEED + i + SCALED_SEED_STRIDE * k`, keeping every
    /// clone's batch-length draw distinct.
    pub const SCALED_SEED_STRIDE: u64 = 97;

    /// The eight-job mixed NLP/vision workload the cluster benchmarks
    /// run: BERT/RoBERTa fine-tuning and ResNet-50 detection across four
    /// datasets, under a spread of policies (Mimose, static planners,
    /// DTR, unconstrained baseline) and budgets. `iters` sets each job's
    /// length; seeds are fixed so the workload is one deterministic
    /// value. Its six distinct models are built once each; jobs training
    /// the same model share it.
    #[must_use]
    pub fn mixed(iters: usize) -> Self {
        let bert_cls2 = bert_base(BertHead::Classification { labels: 2 }).optimize();
        let resnet = resnet50_od().optimize();
        let seed = |i: u64| Self::BASE_SEED + i;
        Workload {
            jobs: vec![
                JobSpec::new(
                    "bert-qqp-mimose",
                    bert_cls2.clone(),
                    presets::glue_qqp(),
                    JobPolicy::Mimose {
                        budget: Self::BERT_QQP_MIMOSE_BUDGET,
                    },
                    iters,
                    seed(0),
                )
                .with_priority(Self::MIMOSE_PRIORITY),
                JobSpec::new(
                    "roberta-squad-mimose",
                    roberta_base(BertHead::QuestionAnswering).optimize(),
                    presets::squad(),
                    JobPolicy::Mimose {
                        budget: Self::ROBERTA_SQUAD_MIMOSE_BUDGET,
                    },
                    iters,
                    seed(1),
                )
                .with_priority(Self::MIMOSE_PRIORITY),
                JobSpec::new(
                    "bert-swag-sublinear",
                    bert_base(BertHead::Classification { labels: 4 }).optimize(),
                    presets::swag(),
                    JobPolicy::Planner(PolicyKind::Sublinear, Self::BERT_SWAG_SUBLINEAR_BUDGET),
                    iters,
                    seed(2),
                ),
                JobSpec::new(
                    "resnet-coco-dtr",
                    resnet.clone(),
                    presets::coco(Self::RESNET_DTR_BATCH),
                    JobPolicy::Planner(PolicyKind::Dtr, Self::RESNET_COCO_DTR_BUDGET),
                    iters,
                    seed(3),
                ),
                JobSpec::new(
                    "bert-qqp-baseline",
                    bert_cls2,
                    presets::glue_qqp(),
                    JobPolicy::Planner(PolicyKind::Baseline, 0),
                    iters,
                    seed(4),
                ),
                JobSpec::new(
                    "roberta-qqp-capuchin",
                    roberta_base(BertHead::Classification { labels: 2 }).optimize(),
                    presets::glue_qqp(),
                    JobPolicy::Planner(PolicyKind::Capuchin, Self::ROBERTA_QQP_CAPUCHIN_BUDGET),
                    iters,
                    seed(5),
                ),
                JobSpec::new(
                    "resnet-coco-mimose",
                    resnet,
                    presets::coco(Self::RESNET_MIMOSE_BATCH),
                    JobPolicy::Mimose {
                        budget: Self::RESNET_COCO_MIMOSE_BUDGET,
                    },
                    iters,
                    seed(6),
                )
                .with_priority(Self::MIMOSE_PRIORITY),
                JobSpec::new(
                    "bert-squad-sublinear",
                    bert_base(BertHead::QuestionAnswering).optimize(),
                    presets::squad(),
                    JobPolicy::Planner(PolicyKind::Sublinear, Self::BERT_SQUAD_SUBLINEAR_BUDGET),
                    iters,
                    seed(7),
                ),
            ],
        }
    }

    /// `n_jobs` jobs cycling through the mixed workload: copy `k` of job
    /// `i` is renamed `<name>-<k>` and reseeded with
    /// [`Self::SCALED_SEED_STRIDE`]` * k`, so an overload scenario's 200
    /// jobs are 200 distinct deterministic jobs, not 25 repeats of 8. The
    /// copies share the mixed workload's six models.
    #[must_use]
    pub fn scaled(iters: usize, n_jobs: usize) -> Self {
        let mixed = Self::mixed(iters).jobs;
        let jobs = (0..n_jobs)
            .map(|n| {
                let mut job = mixed[n % mixed.len()].clone();
                let cycle = (n / mixed.len()) as u64;
                if cycle > 0 {
                    job.name = format!("{}-{cycle}", job.name);
                    job.seed += Self::SCALED_SEED_STRIDE * cycle;
                }
                job
            })
            .collect();
        Workload { jobs }
    }

    /// An explicit job list.
    #[must_use]
    pub fn custom(jobs: Vec<JobSpec>) -> Self {
        Workload { jobs }
    }

    /// Number of jobs in the workload.
    #[must_use]
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the workload is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Consume the workload into its job list (submission order).
    #[must_use]
    pub fn into_jobs(self) -> Vec<JobSpec> {
        self.jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimose_models::ModelGraph;

    #[test]
    fn workload_is_well_formed() {
        let jobs = Workload::mixed(10).into_jobs();
        assert_eq!(jobs.len(), 8);
        for job in &jobs {
            job.worst_profile()
                .unwrap_or_else(|e| panic!("{}: {e}", job.name));
            assert!(job.iters <= job.dataset.iters_per_epoch(), "{}", job.name);
        }
        // Names are unique (report rows key on them).
        let mut names: Vec<_> = jobs.iter().map(|j| j.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 8);
    }

    #[test]
    fn scaled_jobs_share_the_six_mixed_models() {
        let jobs = Workload::scaled(2, 2000).into_jobs();
        let mut graphs: Vec<*const ModelGraph> = jobs
            .iter()
            .map(|j| std::ptr::from_ref(j.model.optimized()))
            .collect();
        graphs.sort_unstable();
        graphs.dedup();
        assert_eq!(graphs.len(), 6);
    }

    #[test]
    fn scaled_workload_is_distinct_and_deterministic() {
        let jobs = Workload::scaled(2, 20).into_jobs();
        assert_eq!(jobs.len(), 20);
        let mut names: Vec<_> = jobs.iter().map(|j| j.name.clone()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 20, "scaled names must be unique");
        let mut seeds: Vec<_> = jobs.iter().map(|j| j.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 20, "scaled seeds must be distinct");
        // First cycle is the mixed workload verbatim.
        let mixed = Workload::mixed(2).into_jobs();
        for (a, b) in jobs.iter().take(8).zip(&mixed) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.seed, b.seed);
        }
        // Determinism: same call, same value.
        let again = Workload::scaled(2, 20).into_jobs();
        for (a, b) in jobs.iter().zip(&again) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.seed, b.seed);
        }
    }
}
