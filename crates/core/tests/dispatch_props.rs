//! Property-based stress tests for the queue dispatcher: random job
//! streams and co-scheduled job mixes must never violate the resource
//! invariants.

use clip_core::dispatch::{Dispatcher, QueuedJob};
use clip_core::{execute_concurrent, ClipScheduler, InflectionPredictor};
use cluster_sim::Cluster;
use proptest::prelude::*;
use simkit::{Power, SimRng, TimeSpan};
use workload::corpus;

fn predictor() -> &'static InflectionPredictor {
    use std::sync::OnceLock;
    static PRED: OnceLock<InflectionPredictor> = OnceLock::new();
    PRED.get_or_init(|| InflectionPredictor::train_default(5))
}

/// One random corpus application of any scalability class.
fn random_app(rng: &mut SimRng, i: usize) -> workload::AppModel {
    match rng.uniform_usize(0, 2) {
        0 => corpus::gen_linear(rng, i),
        1 => corpus::gen_logarithmic(rng, i),
        _ => corpus::gen_parabolic(rng, i),
    }
}

/// Build a sorted random job stream.
fn stream(seed: u64, count: usize, max_gap: f64) -> Vec<QueuedJob> {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut t = 0.0;
    (0..count)
        .map(|i| {
            let app = random_app(&mut rng, i);
            // Unique names keep the knowledge DB per-job.
            let app = app.with_preferred_node_counts(vec![1, 2, 4]);
            t += rng.uniform_range(0.0, max_gap);
            QueuedJob {
                app,
                arrival: TimeSpan::secs(t),
                iterations: 2,
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every job completes exactly once with sane timestamps, regardless of
    /// the stream shape and budget.
    #[test]
    fn all_jobs_complete(seed in any::<u64>(), count in 2usize..8,
                         budget_w in 700.0f64..2200.0, max_gap in 0.0f64..3.0)
    {
        let jobs = stream(seed, count, max_gap);
        let mut cluster = Cluster::homogeneous(8);
        let mut clip = ClipScheduler::new(predictor().clone());
        clip.coordinate_variability = false;
        let mut d = Dispatcher::new(clip, Power::watts(budget_w));
        let report = d.run(&mut cluster, &jobs, &mut clip_obs::NoopRecorder);

        prop_assert_eq!(report.outcomes.len(), count);
        for o in &report.outcomes {
            prop_assert!(o.start >= o.arrival);
            prop_assert!(o.finish > o.start);
            prop_assert!(o.finish <= report.makespan + TimeSpan::secs(1e-9));
            prop_assert!(o.nodes >= 1 && o.nodes <= 8);
            prop_assert!(o.performance > 0.0);
        }
    }

    /// Jobs are conserved: every submission either completes once or is
    /// reported unstarted (in submission order), whatever the budget —
    /// including budgets below the free-power floor — and however many
    /// nodes have crashed (the cluster keeps at least one alive).
    #[test]
    fn jobs_are_conserved(seed in any::<u64>(), count in 1usize..6,
                          starved in any::<bool>(), budget_frac in 0.0f64..1.0,
                          crashed in 0usize..8)
    {
        let jobs = stream(seed, count, 2.0);
        let mut cluster = Cluster::homogeneous(8);
        for id in 0..crashed {
            cluster.fail_node(id);
        }
        // Half the cases starve below the 50 W floor, the rest span a
        // working range.
        let budget_w = if starved { 50.0 * budget_frac } else { 700.0 + 1500.0 * budget_frac };
        let mut clip = ClipScheduler::new(predictor().clone());
        clip.coordinate_variability = false;
        let mut d = Dispatcher::new(clip, Power::watts(budget_w));
        let report = d.run(&mut cluster, &jobs, &mut clip_obs::NoopRecorder);

        prop_assert_eq!(report.outcomes.len() + report.unstarted.len(), count);
        prop_assert!(report.unstarted.windows(2).all(|w| w[0] < w[1]), "unstarted out of order");
        prop_assert!(report.unstarted.iter().all(|&i| i < count));
        if starved {
            prop_assert!(report.outcomes.is_empty());
        }
        let mut started: Vec<&str> = report.outcomes.iter().map(|o| o.job.as_str()).collect();
        started.sort_unstable();
        let mut expected: Vec<&str> = (0..count)
            .filter(|i| !report.unstarted.contains(i))
            .filter_map(|i| jobs.get(i).map(|j| j.app.name()))
            .collect();
        expected.sort_unstable();
        prop_assert_eq!(started, expected);
    }

    /// At every instant, concurrently running jobs hold disjoint node sets
    /// and their combined power grants fit the budget.
    #[test]
    fn concurrent_grants_fit(seed in any::<u64>(), count in 2usize..8,
                             budget_w in 700.0f64..2200.0)
    {
        let jobs = stream(seed, count, 1.0);
        let mut cluster = Cluster::homogeneous(8);
        let mut clip = ClipScheduler::new(predictor().clone());
        clip.coordinate_variability = false;
        let mut d = Dispatcher::new(clip, Power::watts(budget_w));
        let report = d.run(&mut cluster, &jobs, &mut clip_obs::NoopRecorder);

        // Instantaneous accounting: at every job-start instant, sum the
        // grants of all jobs active at that instant (starts are the only
        // points where concurrent load increases).
        for probe in &report.outcomes {
            let t = probe.start;
            let mut power = Power::ZERO;
            let mut nodes = 0usize;
            for o in &report.outcomes {
                if o.start <= t && t < o.finish {
                    power += o.granted_power;
                    nodes += o.nodes;
                }
            }
            prop_assert!(
                power <= Power::watts(budget_w) + Power::watts(1e-6),
                "at t={:.3}: grants {} exceed budget {budget_w}",
                t.as_secs(),
                power
            );
            prop_assert!(nodes <= 8, "node oversubscription at t={:.3}", t.as_secs());
        }
    }

    /// FCFS: a job never starts before an earlier-arriving
    /// job has started.
    #[test]
    fn fcfs_start_order(seed in any::<u64>(), count in 2usize..8) {
        let jobs = stream(seed, count, 2.0);
        let mut cluster = Cluster::homogeneous(8);
        let mut clip = ClipScheduler::new(predictor().clone());
        clip.coordinate_variability = false;
        let mut d = Dispatcher::new(clip, Power::watts(1200.0));
        let report = d.run(&mut cluster, &jobs, &mut clip_obs::NoopRecorder);

        let mut by_arrival = report.outcomes.clone();
        by_arrival.sort_by(|a, b| {
            a.arrival
                .partial_cmp(&b.arrival)
                .unwrap()
                .then(a.start.partial_cmp(&b.start).unwrap())
        });
        for w in by_arrival.windows(2) {
            prop_assert!(
                w[0].start <= w[1].start + TimeSpan::secs(1e-9),
                "FCFS violated: {:?} started after {:?}", w[0], w[1]
            );
        }
    }

    /// Co-scheduled mixes: whatever the mix, budget and crashed node, the
    /// plans hold pairwise-disjoint sets of alive nodes (at least one
    /// each), their caps fit the budget, and every job makes progress.
    #[test]
    fn concurrent_plans_fit(seed in any::<u64>(), count in 1usize..=4,
                            budget_w in 700.0f64..2200.0, crash in 0usize..12)
    {
        let mut rng = SimRng::seed_from_u64(seed);
        let jobs: Vec<workload::AppModel> = (0..count).map(|i| random_app(&mut rng, i)).collect();
        let mut cluster = Cluster::homogeneous(8);
        // Draws of 8..12 leave the fleet intact.
        if crash < cluster.len() {
            cluster.fail_node(crash);
        }
        let budget = Power::watts(budget_w);
        let mut d = Dispatcher::new(ClipScheduler::new(predictor().clone()), budget);
        let plans = d.plan_concurrent(&mut cluster, &jobs);

        prop_assert_eq!(plans.len(), count);
        let mut seen = std::collections::BTreeSet::new();
        for plan in &plans {
            prop_assert!(plan.nodes() >= 1, "empty plan {:?}", plan);
            for &id in &plan.node_ids {
                prop_assert!(cluster.is_alive(id), "plan uses crashed node {}", id);
                prop_assert!(seen.insert(id), "node {} in two plans", id);
            }
        }
        let caps: Power = plans.iter().map(|p| p.total_caps()).sum();
        prop_assert!(caps <= budget + Power::watts(1e-6), "caps {} exceed budget {}", caps, budget);

        let reports = execute_concurrent(&mut cluster, &jobs, &plans, 1, &mut clip_obs::NoopRecorder);
        for r in &reports {
            prop_assert!(r.performance() > 0.0);
        }
    }
}
