//! The daily mining pipeline of Fig. 10: fpDNS → Domain Name Tree Builder
//! → Disposable Domain Classifier → Disposable Zone Ranking.

use dnsnoise_dns::SuffixList;
use dnsnoise_resolver::{OverloadConfig, ResolverSim, SimConfig};
use dnsnoise_workload::{DayTrace, Scenario};

use crate::labeling::TrainingSetBuilder;
use crate::miner::{Miner, MinerConfig};
use crate::report::MiningReport;
use crate::tree::DomainTree;

/// An end-to-end daily pipeline: simulate the cluster, build the tree,
/// train (on day 0) and mine, then evaluate against ground truth.
///
/// The resolver's caches persist across days, like a production cluster;
/// the classifier is trained once on the first processed day and reused,
/// mirroring the paper's train-once / mine-daily deployment.
#[derive(Debug)]
pub struct DailyPipeline {
    config: MinerConfig,
    training: TrainingSetBuilder,
    sim: ResolverSim,
    psl: SuffixList,
    miner: Option<Miner>,
}

impl DailyPipeline {
    /// Creates a pipeline with a default resolver cluster.
    pub fn new(config: MinerConfig) -> Self {
        DailyPipeline::with_sim(config, ResolverSim::new(SimConfig::default()))
    }

    /// Creates a pipeline over a custom resolver simulation.
    pub fn with_sim(config: MinerConfig, sim: ResolverSim) -> Self {
        DailyPipeline {
            config,
            training: TrainingSetBuilder::default(),
            sim,
            psl: SuffixList::builtin(),
            miner: None,
        }
    }

    /// Access to the trained miner, once available.
    pub fn miner(&self) -> Option<&Miner> {
        self.miner.as_ref()
    }

    /// Consumes the pipeline and hands over the trained classifier — the
    /// train-once-offline, deploy-streaming handoff: train on seed days
    /// with the batch pipeline, then drive `dnsnoise-stream` with the
    /// resulting model.
    // lint:allow(dead-api): the stream tests' model handoff (tests/{conservation,determinism,golden_stream,stream_fidelity}.rs, crates/stream/tests/checkpoint_resume.rs)
    pub fn into_miner(self) -> Option<Miner> {
        self.miner
    }

    /// Processes one scenario day end to end and returns the evaluated
    /// mining report.
    pub fn run_day(&mut self, scenario: &Scenario, day: u64) -> MiningReport {
        let trace = scenario.generate_day(day);
        self.run_trace(&trace, scenario, None)
    }

    /// Processes a pre-built trace — e.g. one with injected attack
    /// traffic ([`AttackPlan::inject`](dnsnoise_workload::AttackPlan)) —
    /// optionally behind admission control, and returns the evaluated
    /// mining report. `scenario` supplies the ground truth the trace was
    /// generated from; the miner itself never sees it.
    pub fn run_trace(
        &mut self,
        trace: &DayTrace,
        scenario: &Scenario,
        overload: Option<&OverloadConfig>,
    ) -> MiningReport {
        let day = trace.day;
        let gt = scenario.ground_truth();
        let mut run = self.sim.day(trace).ground_truth(gt);
        if let Some(cfg) = overload {
            run = run.overload(cfg);
        }
        let report = run.run();
        let mut tree = DomainTree::from_day_stats(&report.rr_stats);

        if self.miner.is_none() {
            let labeled = self.training.build(&tree, gt);
            self.miner = Some(Miner::train(&labeled, self.config));
        }
        let miner = self.miner.as_ref().expect("trained above");

        // Evaluate on a pristine copy of the black/white state: mining
        // decolors the tree, so measure eligibility first.
        let found = miner.mine(&mut tree, &self.psl);
        // Rebuild an un-decolored tree for evaluation bookkeeping.
        let eval_tree = DomainTree::from_day_stats(&report.rr_stats);
        MiningReport::evaluate(day, found, &eval_tree, gt, &self.psl, self.config.min_group_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnsnoise_workload::ScenarioConfig;

    #[test]
    fn pipeline_finds_zones_with_good_accuracy() {
        let scenario = Scenario::new(ScenarioConfig::paper_epoch(1.0).with_scale(0.15), 21);
        let mut pipeline = DailyPipeline::new(MinerConfig::default());
        let report = pipeline.run_day(&scenario, 0);
        assert!(pipeline.miner().is_some());
        assert!(report.eligible_disposable > 20, "eligible {}", report.eligible_disposable);
        // In-sample day: the paper reports 97% TPR / 1% FPR out-of-fold;
        // require solid-but-looser bounds here.
        assert!(report.tpr() > 0.7, "tpr {}", report.tpr());
        assert!(report.fpr() < 0.15, "fpr {}", report.fpr());
    }

    #[test]
    fn flooded_day_under_admission_control_keeps_miner_accuracy() {
        use dnsnoise_workload::AttackPlan;

        let scenario = Scenario::new(ScenarioConfig::paper_epoch(1.0).with_scale(0.08), 21);
        let mut pipeline = DailyPipeline::new(MinerConfig::default());
        let clean = pipeline.run_day(&scenario, 0);

        // Day 1 carries a random-subdomain flood; the cluster sheds under
        // a tight admission budget. The flood is pure NXDOMAIN noise, so
        // the domain tree the miner walks must stay close to the clean
        // day and the classifier must not drift into false positives.
        let mut flooded = scenario.generate_day(1);
        let attack: AttackPlan =
            "seed=4; victim=flood-a.example; victim=flood-b.example; labellen=16; \
             surge=0,86400,6"
                .parse()
                .expect("static attack spec");
        attack.inject(&mut flooded);
        let overload =
            dnsnoise_resolver::OverloadConfig::default().with_queue_depth(32).with_rrl(5);
        let report = pipeline.run_trace(&flooded, &scenario, Some(&overload));

        assert!(report.tpr() > 0.5, "flooded-day tpr {}", report.tpr());
        assert!(report.fpr() < 0.15, "flooded-day fpr {}", report.fpr());
        assert!(
            report.eligible_disposable * 2 >= clean.eligible_disposable,
            "flood crushed eligibility: {} vs clean {}",
            report.eligible_disposable,
            clean.eligible_disposable
        );
    }

    #[test]
    fn second_day_reuses_the_trained_model() {
        let scenario = Scenario::new(ScenarioConfig::paper_epoch(1.0).with_scale(0.08), 21);
        let mut pipeline = DailyPipeline::new(MinerConfig::default());
        let r0 = pipeline.run_day(&scenario, 0);
        let r1 = pipeline.run_day(&scenario, 1);
        assert_eq!(r0.day, 0);
        assert_eq!(r1.day, 1);
        assert!(r1.tpr() > 0.5, "day-1 tpr {}", r1.tpr());
    }
}
