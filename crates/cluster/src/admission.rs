//! Admission control: decide whether a job's next iteration fits a device
//! *before* dispatching it, using the policy's predicted peak and the
//! residency engine's what-if queries — the fleet-level analogue of the
//! planner's per-iteration budget check.

use mimose_models::ModelProfile;
use mimose_planner::memory_model::min_feasible_budget;
use mimose_simgpu::DeviceProfile;
use mimose_verify::SafetyCertificate;

/// What the controller decided for one (job, device) pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// The predicted peak fits under the device's headroom-discounted
    /// capacity: dispatch as-is.
    Admit,
    /// The prediction exceeds capacity but checkpointing more can bring
    /// the peak under it (per the residency model): dispatch with the
    /// recovery ladder armed so in-place demotion enforces the fit.
    Demote {
        /// The analytic peak the all-checkpoint configuration needs —
        /// the floor demotion can reach.
        floor: usize,
    },
    /// Even the all-checkpoint floor exceeds the device: the job can never
    /// run here.
    Reject {
        /// Bytes the job's minimum configuration needs.
        needed: usize,
        /// Bytes the device offers.
        capacity: usize,
    },
}

impl AdmissionDecision {
    /// Human-readable explanation of a non-trivial decision, for the
    /// fleet report: *why* a job was demoted or rejected, with the
    /// concrete numbers the controller compared. `None` for a plain
    /// admit. `predicted_peak` and `usable` are the values the decision
    /// was made against.
    #[must_use]
    pub fn reason(&self, predicted_peak: usize, usable: usize) -> Option<String> {
        match self {
            AdmissionDecision::Admit => None,
            AdmissionDecision::Demote { floor } => Some(format!(
                "predicted peak {predicted_peak} B exceeds usable capacity {usable} B; \
                 dispatched with the recovery ladder armed toward the \
                 {floor} B all-checkpoint floor"
            )),
            AdmissionDecision::Reject { needed, capacity } => Some(format!(
                "all-checkpoint floor {needed} B exceeds device capacity {capacity} B; \
                 no plan can ever fit this job here"
            )),
        }
    }
}

/// Running tally of admission outcomes and prediction quality — the
/// "admission accuracy" block of the cluster report.
#[derive(Debug, Clone, Default)]
pub struct AdmissionStats {
    /// Iterations dispatched on a plain Admit.
    pub admitted: usize,
    /// The subset of `admitted` backed by a static safety certificate: the
    /// verifier's sound peak bound (not just the policy's point prediction)
    /// fits the device, so the admit can never be contradicted by any input
    /// size the certificate's bucket covers.
    pub verified_admits: usize,
    /// Iterations dispatched with demotion armed.
    pub demoted: usize,
    /// (job, device) pairings rejected outright.
    pub rejected: usize,
    /// Job-rounds spent waiting because no device was free or admissible.
    pub deferred_rounds: usize,
    /// Predictions scored against an executed peak.
    pub predictions: usize,
    /// Predictions within ±10 % of the executed peak.
    pub within_10pct: usize,
    /// Sum of |predicted − actual| / actual over scored predictions,
    /// in 1e-4 units (kept integral so reports serialize exactly).
    pub abs_rel_err_sum_e4: u64,
}

impl AdmissionStats {
    /// Mean absolute relative prediction error, percent.
    #[must_use]
    pub fn mean_abs_rel_err_pct(&self) -> f64 {
        if self.predictions == 0 {
            return 0.0;
        }
        (self.abs_rel_err_sum_e4 as f64 / self.predictions as f64) / 100.0
    }

    /// Score one executed iteration against its admission-time prediction.
    pub fn score(&mut self, predicted: usize, actual: usize) {
        if actual == 0 {
            return;
        }
        self.predictions += 1;
        let err = predicted.abs_diff(actual) as f64 / actual as f64;
        if err <= 0.10 {
            self.within_10pct += 1;
        }
        self.abs_rel_err_sum_e4 += (err * 10_000.0) as u64;
    }
}

/// Fraction of device memory admission may plan into; the rest is
/// headroom for fragmentation and prediction error.
pub(crate) const ADMISSION_HEADROOM: f64 = 0.95;

/// The headroom-discounted capacity admission gates against.
pub(crate) fn usable_bytes(dev: &DeviceProfile) -> usize {
    (dev.total_mem_bytes as f64 * ADMISSION_HEADROOM) as usize
}

/// The admission controller: stateless decision function plus the fleet's
/// accuracy tally. It plans into a fixed 95 % of each device's memory.
#[derive(Debug, Clone, Default)]
pub struct AdmissionController {
    /// Outcome tally.
    pub stats: AdmissionStats,
}

impl AdmissionController {
    /// Decide whether an iteration predicted to peak at `predicted_peak`
    /// bytes, over `profile`, fits `device`.
    ///
    /// The demotion path asks the residency engine's what-if machinery
    /// (via [`min_feasible_budget`], the all-checkpoint floor) whether
    /// checkpointing harder can make the job fit — the same O(log L)
    /// incremental queries the planners use, aimed at a fleet decision.
    pub fn decide(
        &mut self,
        predicted_peak: usize,
        profile: &ModelProfile,
        device: &DeviceProfile,
    ) -> AdmissionDecision {
        self.decide_certified(predicted_peak, profile, device, None)
    }

    /// [`decide`], consulting a static safety certificate first: when the
    /// verifier's sound peak bound fits the usable capacity, the admit is
    /// *statically verified* — it holds for every input size in the
    /// certificate's bucket, not just the predicted one — and is scored
    /// separately in `stats.verified_admits`. Without a certificate (or
    /// with a bound that does not fit) the decision falls back to the
    /// predicted-peak path unchanged.
    ///
    /// [`decide`]: AdmissionController::decide
    pub fn decide_certified(
        &mut self,
        predicted_peak: usize,
        profile: &ModelProfile,
        device: &DeviceProfile,
        certificate: Option<&SafetyCertificate>,
    ) -> AdmissionDecision {
        let capacity = device.total_mem_bytes;
        let usable = usable_bytes(device);
        if let Some(cert) = certificate {
            if cert.fits(usable) {
                self.stats.admitted += 1;
                self.stats.verified_admits += 1;
                return AdmissionDecision::Admit;
            }
        }
        if predicted_peak <= usable {
            self.stats.admitted += 1;
            return AdmissionDecision::Admit;
        }
        let floor = min_feasible_budget(profile);
        if floor <= usable {
            self.stats.demoted += 1;
            return AdmissionDecision::Demote { floor };
        }
        self.stats.rejected += 1;
        AdmissionDecision::Reject {
            needed: floor,
            capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimose_models::builders::{bert_base, BertHead};
    use mimose_models::ModelInput;

    #[test]
    fn decisions_cover_the_three_regimes() {
        let m = bert_base(BertHead::Classification { labels: 2 });
        let p = m.profile(&ModelInput::tokens(32, 256)).unwrap();
        let dev = DeviceProfile::v100();
        let mut ctl = AdmissionController::default();

        // Small prediction → admit.
        assert_eq!(ctl.decide(1 << 30, &p, &dev), AdmissionDecision::Admit);
        // Over-capacity prediction but checkpointing can save it → demote.
        let over = dev.total_mem_bytes + (1 << 30);
        match ctl.decide(over, &p, &dev) {
            AdmissionDecision::Demote { floor } => {
                assert!(floor <= dev.total_mem_bytes);
            }
            other => panic!("expected Demote, got {other:?}"),
        }
        // A device smaller than the all-checkpoint floor → reject.
        let mut tiny = DeviceProfile::v100();
        tiny.total_mem_bytes = 1 << 20;
        match ctl.decide(over, &p, &tiny) {
            AdmissionDecision::Reject { needed, capacity } => {
                assert!(needed > capacity);
            }
            other => panic!("expected Reject, got {other:?}"),
        }
        assert_eq!(ctl.stats.admitted, 1);
        assert_eq!(ctl.stats.demoted, 1);
        assert_eq!(ctl.stats.rejected, 1);
    }

    #[test]
    fn graph_passes_flip_demote_to_admit() {
        // A device sized between the raw graph's predicted peak and the
        // optimized graph's: without the pass pipeline the job demotes,
        // with it the identical job admits outright.
        let opt = bert_base(BertHead::Classification { labels: 2 }).optimize();
        let input = ModelInput::tokens(32, 256);
        let raw_peak = opt.raw_profile(&input).unwrap().peak_no_checkpoint();
        let opt_peak = opt.profile(&input).unwrap().peak_no_checkpoint();
        assert!(opt_peak < raw_peak, "passes saved nothing on BERT");

        let p = opt.profile(&input).unwrap();
        let mut dev = DeviceProfile::v100();
        let mid = (raw_peak + opt_peak) / 2;
        dev.total_mem_bytes = (mid as f64 / ADMISSION_HEADROOM).ceil() as usize;
        let mut ctl = AdmissionController::default();

        match ctl.decide(raw_peak, &p, &dev) {
            AdmissionDecision::Demote { .. } => {}
            other => panic!("raw peak should demote, got {other:?}"),
        }
        assert_eq!(ctl.decide(opt_peak, &p, &dev), AdmissionDecision::Admit);
    }

    #[test]
    fn certified_admits_are_scored_separately() {
        use mimose_verify::{certify, SizeBucket};
        let m = bert_base(BertHead::Classification { labels: 2 });
        let p = m.profile(&ModelInput::tokens(32, 256)).unwrap();
        let dev = DeviceProfile::v100();
        let usable = usable_bytes(&dev);
        let mut ctl = AdmissionController::default();

        // A sound none-plan certificate under the usable capacity turns an
        // over-predicted job into a verified admit: the bound, not the
        // prediction, is what counts.
        let none = mimose_planner::CheckpointPlan::none(p.blocks.len());
        let bucket = SizeBucket::new(1, p.input_size);
        let cert = certify(std::slice::from_ref(&p), &none, bucket, usable).unwrap();
        let over = dev.total_mem_bytes + (1 << 30);
        assert_eq!(
            ctl.decide_certified(over, &p, &dev, Some(&cert)),
            AdmissionDecision::Admit
        );
        assert_eq!(ctl.stats.admitted, 1);
        assert_eq!(ctl.stats.verified_admits, 1);

        // A certificate whose bound exceeds capacity falls back to the
        // predicted-peak path: small prediction still admits, unverified.
        let mut big = cert;
        big.peak_upper_bound = usable + 1;
        assert_eq!(
            ctl.decide_certified(1 << 30, &p, &dev, Some(&big)),
            AdmissionDecision::Admit
        );
        assert_eq!(ctl.stats.admitted, 2);
        assert_eq!(ctl.stats.verified_admits, 1);

        // No certificate at all: plain decide is unchanged.
        assert_eq!(ctl.decide(1 << 30, &p, &dev), AdmissionDecision::Admit);
        assert_eq!(ctl.stats.verified_admits, 1);
    }

    #[test]
    fn reasons_explain_demote_and_reject_with_numbers() {
        assert_eq!(AdmissionDecision::Admit.reason(10, 20), None);
        let demote = AdmissionDecision::Demote { floor: 512 }
            .reason(2048, 1024)
            .unwrap();
        assert!(demote.contains("2048 B"), "{demote}");
        assert!(demote.contains("1024 B"), "{demote}");
        assert!(demote.contains("512 B"), "{demote}");
        let reject = AdmissionDecision::Reject {
            needed: 4096,
            capacity: 1024,
        }
        .reason(9999, 1024)
        .unwrap();
        assert!(reject.contains("4096 B"), "{reject}");
        assert!(reject.contains("1024 B"), "{reject}");
    }

    #[test]
    fn accuracy_scoring_tracks_relative_error() {
        let mut stats = AdmissionStats::default();
        stats.score(100, 100); // exact
        stats.score(109, 100); // within 10 %
        stats.score(150, 100); // off by 50 %
        assert_eq!(stats.predictions, 3);
        assert_eq!(stats.within_10pct, 2);
        let mean = stats.mean_abs_rel_err_pct();
        assert!((mean - (0.0 + 9.0 + 50.0) / 3.0).abs() < 0.1, "{mean}");
    }
}
