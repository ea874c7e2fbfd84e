//! Power-bounded job-queue dispatch.
//!
//! The paper's application execution module "creates a script to launch the
//! job … through our job scheduler" (§IV-B3); this module is that job
//! scheduler: a discrete-event FCFS dispatcher over the simulated cluster
//! that shares nodes *and* the power budget across whatever is running.
//!
//! When a job reaches the queue head and enough nodes/power are free, the
//! CLIP pipeline plans it against exactly those free resources
//! ([`ClipScheduler`]'s [`PowerScheduler::plan_subset`]) — so a job
//! arriving on a half-busy machine naturally gets fewer nodes with
//! per-node budgets in its acceptable range, instead of waiting for the
//! whole machine. A queue that can never start (the budget is below the
//! 50 W free-power floor) ends with its jobs in
//! [`DispatchReport::unstarted`], never silently dropped.
//!
//! Jobs that start together can instead be co-scheduled in one step
//! ([`Dispatcher::plan_concurrent`]): the POWshed scenario of §VI driven by
//! CLIP's models. Jobs get disjoint node sets, the node split is chosen by
//! proportional-fairness hill climbing on the *predicted* per-job
//! throughput (log-utility, the standard fairness objective), and each
//! job's nodes are then configured by the ordinary CLIP recommendation at
//! the resulting per-node budget. The search never executes the
//! applications, in keeping with CLIP's no-exhaustive-search design.

use crate::engine::EpochEngine;
use crate::recommend::recommend_node_config;
use crate::scheduler::{execute_plan, ClipScheduler, JobModels, PowerScheduler, SchedulePlan};
use clip_serve::ArrivalPlan;
use cluster_sim::{Cluster, JobReport};
use serde::{Deserialize, Serialize};
use simkit::{Power, TimeSpan};
use workload::AppModel;

/// Below this much free power no job can start: the dispatcher waits for a
/// completion, and service admission rejects a trial plan drawing less.
pub(crate) const FREE_POWER_FLOOR: Power = Power::watts(50.0);

/// A job submitted to the queue.
#[derive(Debug, Clone)]
pub struct QueuedJob {
    /// The application.
    pub app: AppModel,
    /// Submission time.
    pub arrival: TimeSpan,
    /// Iterations to run.
    pub iterations: usize,
}

/// Completion record of one dispatched job.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DispatchOutcome {
    /// Application name.
    pub job: String,
    /// Submission time.
    pub arrival: TimeSpan,
    /// Dispatch (start) time.
    pub start: TimeSpan,
    /// Completion time.
    pub finish: TimeSpan,
    /// Nodes the job ran on.
    pub nodes: usize,
    /// Threads per node.
    pub threads: usize,
    /// Power the job was allowed to draw (sum of its caps).
    pub granted_power: Power,
    /// Measured performance, iterations per second.
    pub performance: f64,
}

impl DispatchOutcome {
    /// Queue wait time.
    pub fn wait(&self) -> TimeSpan {
        self.start - self.arrival
    }

    /// Turnaround (submission → completion).
    pub fn turnaround(&self) -> TimeSpan {
        self.finish - self.arrival
    }
}

/// Aggregate statistics of a dispatched workload.
#[must_use = "a dispatch report carries completion and wait statistics"]
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DispatchReport {
    /// Per-job outcomes, in completion order.
    pub outcomes: Vec<DispatchOutcome>,
    /// Submission indices of the jobs that never started, in submission
    /// order: the queue was still blocked (free power below the 50 W
    /// floor, or no alive node free) when nothing was left running or
    /// arriving. `outcomes` plus `unstarted` are always the jobs
    /// submitted.
    pub unstarted: Vec<usize>,
    /// Time the last job finished.
    pub makespan: TimeSpan,
}

impl DispatchReport {
    /// Mean turnaround across jobs.
    pub fn mean_turnaround(&self) -> TimeSpan {
        let total: f64 = self.outcomes.iter().map(|o| o.turnaround().as_secs()).sum();
        TimeSpan::secs(total / self.outcomes.len().max(1) as f64)
    }

    /// Mean queue wait across jobs.
    pub fn mean_wait(&self) -> TimeSpan {
        let total: f64 = self.outcomes.iter().map(|o| o.wait().as_secs()).sum();
        TimeSpan::secs(total / self.outcomes.len().max(1) as f64)
    }
}

/// The FCFS power-bounded dispatcher.
#[derive(Debug)]
pub struct Dispatcher {
    scheduler: ClipScheduler,
    /// Total cluster power budget shared by everything running.
    pub budget: Power,
}

/// A job currently executing.
struct Running {
    finish: TimeSpan,
    node_ids: Vec<usize>,
    power: Power,
}

impl Dispatcher {
    /// New dispatcher over a shared budget.
    pub fn new(scheduler: ClipScheduler, budget: Power) -> Self {
        Self { scheduler, budget }
    }

    /// Trim a plan's caps to what the job can actually draw: stranded
    /// watts in a generous grant would block the rest of the queue. The
    /// ceiling comes from the application's fitted power model at the
    /// highest frequency, with headroom for model error and variability.
    /// The plan's own planning call cached the app's record, so this never
    /// profiles.
    fn trim_grant(&mut self, cluster: &mut Cluster, plan: &mut SchedulePlan, app: &AppModel) {
        let Some(&probe) = plan.node_ids.first() else {
            return;
        };
        let pm = self.scheduler.job_models(cluster, app, probe).power;
        let cpu_need = pm.cpu_power(plan.threads_per_node, pm.f_max) * 1.10 + Power::watts(2.0);
        for caps in &mut plan.caps {
            *caps = simnode::PowerCaps::new(caps.cpu.min(cpu_need), caps.dram);
        }
    }

    /// Run a submission list to completion and report. Jobs must be sorted
    /// by arrival time.
    ///
    /// Each job start is one [`EpochEngine`] coordinate + execute pair —
    /// the dispatcher is job arbitration layered on the engine's
    /// primitives, with the engine's epoch stamp carrying the dispatch
    /// order (0-based start index, deterministic for a fixed submission
    /// list). With a tracing recorder this emits a
    /// [`clip_obs::TraceEvent::JobDispatched`] for every start (plus the
    /// engine's own plan/actuation events), and observes per-job
    /// `job_wait_secs` / `job_turnaround_secs` histograms and a
    /// `jobs_dispatched_total` counter; with the
    /// [`clip_obs::NoopRecorder`] every hook compiles away.
    pub fn run<R: clip_obs::Recorder>(
        &mut self,
        cluster: &mut Cluster,
        jobs: &[QueuedJob],
        rec: &mut R,
    ) -> DispatchReport {
        assert!(!jobs.is_empty(), "empty submission list");
        assert!(
            jobs.iter()
                .zip(jobs.iter().skip(1))
                .all(|(a, b)| a.arrival <= b.arrival),
            "jobs must be sorted by arrival"
        );

        let mut engine = EpochEngine::new(self.budget, rec);
        self.scheduler.set_tracing(
            engine
                .recorder()
                .enabled_for(clip_obs::EventClass::Scheduler),
        );
        let mut arrivals = jobs.iter().enumerate().peekable();
        let mut pending: std::collections::VecDeque<(usize, &QueuedJob)> =
            std::collections::VecDeque::new();
        let mut running: Vec<Running> = Vec::new();
        let mut outcomes = Vec::new();
        let mut now = TimeSpan::ZERO;

        loop {
            // Admit everything that has arrived by `now`.
            while let Some(job) = arrivals.next_if(|(_, j)| j.arrival <= now) {
                pending.push_back(job);
            }

            // Start queued jobs strictly in arrival order (FCFS).
            while let Some(&(_, job)) = pending.front() {
                let free_nodes: Vec<usize> = cluster
                    .alive_nodes()
                    .into_iter()
                    .filter(|id| !running.iter().any(|r| r.node_ids.contains(id)))
                    .collect();
                let used_power: Power = running.iter().map(|r| r.power).sum();
                let free_power = self.budget - used_power;
                if free_nodes.is_empty() || free_power < FREE_POWER_FLOOR {
                    break; // nothing can start until something finishes
                }
                engine.set_epoch(outcomes.len() as u64);
                let mut plan = engine.coordinate(
                    &mut self.scheduler,
                    cluster,
                    &job.app,
                    free_power,
                    &free_nodes,
                );
                debug_assert!(plan.within_budget(free_power));
                self.trim_grant(cluster, &mut plan, &job.app);
                // A plan always fits by construction; start the job.
                let report = engine.execute(cluster, &job.app, &plan, job.iterations);
                let finish = now + report.total_time;
                let outcome = DispatchOutcome {
                    job: job.app.name().to_string(),
                    arrival: job.arrival,
                    start: now,
                    finish,
                    nodes: plan.nodes(),
                    threads: plan.threads_per_node,
                    granted_power: plan.total_caps(),
                    performance: report.performance(),
                };
                let rec = engine.recorder();
                if rec.enabled() {
                    let seq = outcomes.len() as u64;
                    rec.counter_add("jobs_dispatched_total", 1);
                    rec.observe("job_wait_secs", outcome.wait().as_secs());
                    rec.observe("job_turnaround_secs", outcome.turnaround().as_secs());
                    let name = outcome.job.clone();
                    let granted = outcome.granted_power;
                    let nodes = outcome.nodes;
                    rec.event_with(seq, clip_obs::EventClass::Scheduler, || {
                        clip_obs::TraceEvent::JobDispatched {
                            job: name,
                            start: now,
                            nodes,
                            granted,
                        }
                    });
                }
                outcomes.push(outcome);
                running.push(Running {
                    finish,
                    power: plan.total_caps(),
                    node_ids: plan.node_ids,
                });
                pending.pop_front();
            }

            // Advance to the next event.
            let next_finish = running
                .iter()
                .map(|r| r.finish)
                .fold(TimeSpan::secs(f64::INFINITY), TimeSpan::min);
            let next_arrive = arrivals
                .peek()
                .map(|(_, j)| j.arrival)
                .unwrap_or(TimeSpan::secs(f64::INFINITY));
            let next = next_finish.min(next_arrive);
            if !next.is_finite() {
                break; // no running jobs, no future arrivals: `pending` never starts
            }
            now = next;
            running.retain(|r| r.finish > now);
        }

        outcomes.sort_by(|a, b| a.finish.as_secs().total_cmp(&b.finish.as_secs()));
        let makespan = outcomes
            .iter()
            .map(|o| o.finish)
            .fold(TimeSpan::ZERO, TimeSpan::max);
        self.scheduler.set_tracing(false);
        DispatchReport {
            outcomes,
            unstarted: pending.into_iter().map(|(i, _)| i).collect(),
            makespan,
        }
    }

    /// Run a pre-resolved open-loop [`ArrivalPlan`] through the
    /// dispatcher: every event becomes a [`QueuedJob`] whose application
    /// is drawn from `catalog` and whose arrival time is
    /// `at_epoch × seconds_per_epoch`. The closed batch queue is the
    /// degenerate plan whose events all carry epoch 0 — both the batch
    /// examples and the service harness now share one arrival
    /// vocabulary.
    ///
    /// # Panics
    /// When the plan is empty or an event references an application
    /// outside `catalog`.
    pub fn run_plan<R: clip_obs::Recorder>(
        &mut self,
        cluster: &mut Cluster,
        plan: &ArrivalPlan,
        catalog: &[AppModel],
        seconds_per_epoch: TimeSpan,
        rec: &mut R,
    ) -> DispatchReport {
        let mut jobs: Vec<QueuedJob> = Vec::with_capacity(plan.len());
        for ev in plan.events() {
            assert!(
                ev.app < catalog.len(),
                "arrival names an app outside the catalog"
            );
            let Some(app) = catalog.get(ev.app) else {
                continue;
            };
            jobs.push(QueuedJob {
                app: app.clone(),
                arrival: TimeSpan::secs(ev.at_epoch as f64 * seconds_per_epoch.as_secs()),
                iterations: ev.iterations,
            });
        }
        self.run(cluster, &jobs, rec)
    }

    /// Co-schedule `jobs` on the cluster's alive nodes under the shared
    /// budget. Returns one plan per job, over pairwise-disjoint node sets
    /// whose caps sum to at most the budget. Panics if there are more jobs
    /// than alive nodes or no jobs at all.
    pub fn plan_concurrent(
        &mut self,
        cluster: &mut Cluster,
        jobs: &[AppModel],
    ) -> Vec<SchedulePlan> {
        assert!(!jobs.is_empty(), "need at least one job");
        let alive = cluster.alive_nodes();
        let n_total = alive.len();
        assert!(jobs.len() <= n_total, "more jobs than nodes");
        let probe = alive.first().copied().unwrap_or(0);
        let total_cores = cluster.node(probe).topology().total_cores();
        let budget = self.budget;

        let models: Vec<JobModels> = jobs
            .iter()
            .map(|app| self.scheduler.job_models(cluster, app, probe))
            .collect();

        // Proportional-fairness hill climbing over node assignments:
        // maximize Σ log(score_j) with Σ n_j ≤ N, n_j ≥ 1. The per-node
        // budget is uniform: p = budget / Σ n_j.
        let mut assign = vec![1usize; jobs.len()];
        let utility = |assign: &[usize]| -> f64 {
            let used: usize = assign.iter().sum();
            let per_node = budget / used as f64;
            assign
                .iter()
                .zip(&models)
                .map(|(&n, m)| predicted_score(m, n, per_node, total_cores).ln())
                .sum()
        };
        let mut best_u = utility(&assign);
        loop {
            let mut improved = false;
            // Move 1: grow a job if free nodes remain.
            let used: usize = assign.iter().sum();
            if used < n_total {
                for j in 0..jobs.len() {
                    let mut cand = assign.clone();
                    if let Some(n) = cand.get_mut(j) {
                        *n += 1;
                    }
                    let u = utility(&cand);
                    if u > best_u + 1e-9 {
                        assign = cand;
                        best_u = u;
                        improved = true;
                        break;
                    }
                }
            }
            // Move 2: transfer a node between jobs.
            if !improved {
                'transfer: for from in 0..jobs.len() {
                    if assign.get(from).is_none_or(|&n| n <= 1) {
                        continue;
                    }
                    for to in 0..jobs.len() {
                        if to == from {
                            continue;
                        }
                        let mut cand = assign.clone();
                        if let Some(n) = cand.get_mut(from) {
                            *n -= 1;
                        }
                        if let Some(n) = cand.get_mut(to) {
                            *n += 1;
                        }
                        let u = utility(&cand);
                        if u > best_u + 1e-9 {
                            assign = cand;
                            best_u = u;
                            improved = true;
                            break 'transfer;
                        }
                    }
                }
            }
            if !improved {
                break;
            }
        }

        // Materialize plans over disjoint runs of alive nodes.
        let used: usize = assign.iter().sum();
        let per_node = budget / used as f64;
        let mut free = alive.into_iter();
        assign
            .iter()
            .zip(&models)
            .map(|(&n, m)| {
                let cfg = recommend_node_config(
                    &m.record.profile,
                    &m.perf,
                    &m.power,
                    per_node,
                    total_cores,
                );
                SchedulePlan {
                    scheduler: "CLIP-multijob".to_string(),
                    node_ids: free.by_ref().take(n).collect(),
                    threads_per_node: cfg.threads,
                    policy: cfg.policy,
                    caps: vec![cfg.caps; n],
                }
            })
            .collect()
    }
}

/// Predicted relative throughput of one job given `nodes` at `per_node`
/// budget (strong scaling: n / t_node).
fn predicted_score(models: &JobModels, nodes: usize, per_node: Power, total_cores: usize) -> f64 {
    let cfg = recommend_node_config(
        &models.record.profile,
        &models.perf,
        &models.power,
        per_node,
        total_cores,
    );
    nodes as f64 / cfg.predicted_time
}

/// Execute concurrent plans (disjoint node sets run independently in the
/// simulator) and return the per-job reports.
///
/// Each job goes through [`execute_plan`], the single actuation path,
/// stamped with its index in `jobs`; a tracing recorder therefore sees
/// each job's plan, RAPL programming and power samples under that index.
pub fn execute_concurrent<R: clip_obs::Recorder>(
    cluster: &mut Cluster,
    jobs: &[AppModel],
    plans: &[SchedulePlan],
    iterations: usize,
    rec: &mut R,
) -> Vec<JobReport> {
    assert_eq!(jobs.len(), plans.len());
    // Verify disjointness — overlapping sets would share hardware, which
    // the simulator does not model.
    let mut seen = std::collections::HashSet::new();
    for plan in plans {
        for &id in &plan.node_ids {
            assert!(seen.insert(id), "node {id} assigned to two jobs");
        }
    }
    jobs.iter()
        .zip(plans)
        .enumerate()
        .map(|(i, (app, plan))| execute_plan(cluster, app, plan, iterations, i as u64, rec))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlr::InflectionPredictor;
    use simkit::stats::geomean;
    use workload::suite;

    fn dispatcher(budget_w: f64) -> Dispatcher {
        let mut clip = ClipScheduler::new(InflectionPredictor::train_default(5));
        clip.coordinate_variability = false;
        Dispatcher::new(clip, Power::watts(budget_w))
    }

    /// Untraced shorthand — these tests exercise allocation semantics,
    /// not telemetry.
    fn execute_concurrent(
        cluster: &mut Cluster,
        jobs: &[AppModel],
        plans: &[SchedulePlan],
        iterations: usize,
    ) -> Vec<JobReport> {
        super::execute_concurrent(
            cluster,
            jobs,
            plans,
            iterations,
            &mut clip_obs::NoopRecorder,
        )
    }

    fn batch(apps: Vec<AppModel>) -> Vec<QueuedJob> {
        apps.into_iter()
            .map(|app| QueuedJob {
                app,
                arrival: TimeSpan::ZERO,
                iterations: 3,
            })
            .collect()
    }

    #[test]
    fn run_plan_matches_equivalent_queued_jobs() {
        // The closed queue is the degenerate arrival plan: resolving the
        // same submissions through either entry must yield one report.
        let catalog = vec![suite::comd(), suite::lu_mz()];
        let jobs: Vec<QueuedJob> = vec![
            QueuedJob {
                app: suite::comd(),
                arrival: TimeSpan::ZERO,
                iterations: 3,
            },
            QueuedJob {
                app: suite::lu_mz(),
                arrival: TimeSpan::secs(4.0),
                iterations: 2,
            },
        ];
        let plan = ArrivalPlan::new(vec![
            clip_serve::ArrivalEvent {
                at_epoch: 0,
                tenant: 0,
                app: 0,
                iterations: 3,
            },
            clip_serve::ArrivalEvent {
                at_epoch: 2,
                tenant: 0,
                app: 1,
                iterations: 2,
            },
        ]);
        let mut cluster_a = Cluster::homogeneous(8);
        let a = dispatcher(1500.0).run(&mut cluster_a, &jobs, &mut clip_obs::NoopRecorder);
        let mut cluster_b = Cluster::homogeneous(8);
        let b = dispatcher(1500.0).run_plan(
            &mut cluster_b,
            &plan,
            &catalog,
            TimeSpan::secs(2.0),
            &mut clip_obs::NoopRecorder,
        );
        let ja = serde_json::to_string(&a).expect("serializes");
        let jb = serde_json::to_string(&b).expect("serializes");
        assert_eq!(ja, jb, "one dispatch path, two spellings");
    }

    #[test]
    fn single_job_runs_immediately() {
        let mut cluster = Cluster::homogeneous(8);
        let report = dispatcher(1600.0).run(
            &mut cluster,
            &batch(vec![suite::comd()]),
            &mut clip_obs::NoopRecorder,
        );
        assert_eq!(report.outcomes.len(), 1);
        assert_eq!(report.outcomes[0].wait(), TimeSpan::ZERO);
        assert!(report.makespan > TimeSpan::ZERO);
    }

    #[test]
    fn all_jobs_complete_exactly_once() {
        let mut cluster = Cluster::homogeneous(8);
        let jobs = batch(vec![
            suite::comd(),
            suite::lu_mz(),
            suite::sp_mz(),
            suite::tea_leaf(),
        ]);
        let report = dispatcher(1400.0).run(&mut cluster, &jobs, &mut clip_obs::NoopRecorder);
        assert_eq!(report.outcomes.len(), 4);
        let names: std::collections::HashSet<&str> =
            report.outcomes.iter().map(|o| o.job.as_str()).collect();
        assert_eq!(names.len(), 4);
    }

    #[test]
    fn concurrent_jobs_share_nodes_and_budget() {
        // Two decomposition-limited jobs submitted together on a big
        // budget should overlap in time on disjoint node halves.
        let mut cluster = Cluster::homogeneous(8);
        let jobs = batch(vec![
            suite::comd().with_preferred_node_counts(vec![1, 2, 4]),
            suite::amg().with_preferred_node_counts(vec![1, 2, 4]),
        ]);
        let report = dispatcher(1800.0).run(&mut cluster, &jobs, &mut clip_obs::NoopRecorder);
        let a = &report.outcomes[0];
        let b = &report.outcomes[1];
        let overlap = a.start < b.finish && b.start < a.finish;
        assert!(overlap, "jobs should space-share: {a:?} vs {b:?}");
        assert!(
            a.granted_power + b.granted_power <= Power::watts(1800.0 + 1e-6),
            "concurrent grants exceed the budget"
        );
    }

    #[test]
    fn later_arrivals_wait_for_capacity() {
        let mut cluster = Cluster::homogeneous(2);
        // Two all-machine jobs back to back: the second must queue.
        let jobs = vec![
            QueuedJob {
                app: suite::comd(),
                arrival: TimeSpan::ZERO,
                iterations: 4,
            },
            QueuedJob {
                app: suite::mini_md(),
                arrival: TimeSpan::secs(0.1),
                iterations: 2,
            },
        ];
        let report = dispatcher(520.0).run(&mut cluster, &jobs, &mut clip_obs::NoopRecorder);
        let second = report
            .outcomes
            .iter()
            .find(|o| o.job == "miniMD")
            .expect("ran");
        // CoMD takes both nodes (preferred counts 1,2); miniMD waits.
        assert!(second.wait() > TimeSpan::ZERO, "second job must queue");
    }

    #[test]
    fn turnaround_stats_consistent() {
        let mut cluster = Cluster::homogeneous(8);
        let jobs = batch(vec![suite::comd(), suite::tea_leaf(), suite::lu_mz()]);
        let report = dispatcher(1400.0).run(&mut cluster, &jobs, &mut clip_obs::NoopRecorder);
        for o in &report.outcomes {
            assert!(o.finish >= o.start);
            assert!(o.start >= o.arrival);
            assert!(o.turnaround() >= o.wait());
            assert!(o.finish <= report.makespan + TimeSpan::secs(1e-9));
        }
        assert!(report.mean_turnaround() >= report.mean_wait());
    }

    #[test]
    fn arrival_order_enforced() {
        let mut cluster = Cluster::homogeneous(4);
        let jobs = vec![
            QueuedJob {
                app: suite::comd(),
                arrival: TimeSpan::secs(5.0),
                iterations: 1,
            },
            QueuedJob {
                app: suite::amg(),
                arrival: TimeSpan::ZERO,
                iterations: 1,
            },
        ];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dispatcher(1000.0).run(&mut cluster, &jobs, &mut clip_obs::NoopRecorder)
        }));
        assert!(result.is_err(), "unsorted arrivals must be rejected");
    }

    #[test]
    fn crashed_nodes_are_never_scheduled() {
        for coordinate_variability in [true, false] {
            let mut cluster = Cluster::homogeneous(8);
            cluster.fail_node(0);
            let mut clip = ClipScheduler::new(InflectionPredictor::train_default(5));
            clip.coordinate_variability = coordinate_variability;
            let report = Dispatcher::new(clip, Power::watts(1600.0)).run(
                &mut cluster,
                &batch(vec![suite::comd()]),
                &mut clip_obs::NoopRecorder,
            );
            assert_eq!(report.outcomes.len(), 1);
        }

        let mut cluster = Cluster::homogeneous(4);
        cluster.fail_node(0);
        let jobs = vec![suite::comd(), suite::sp_mz()];
        let plans = dispatcher(1200.0).plan_concurrent(&mut cluster, &jobs);
        assert!(plans.iter().all(|p| !p.node_ids.contains(&0)));
        let reports = execute_concurrent(&mut cluster, &jobs, &plans, 1);
        assert!(reports.iter().all(|r| r.performance() > 0.0));
    }

    #[test]
    fn jobs_that_can_never_start_are_reported_unstarted() {
        // 40 W is below the free-power floor: nothing ever starts, and the
        // report still accounts for every submission.
        let jobs = vec![
            QueuedJob {
                app: suite::comd(),
                arrival: TimeSpan::ZERO,
                iterations: 3,
            },
            QueuedJob {
                app: suite::amg(),
                arrival: TimeSpan::secs(1.0),
                iterations: 3,
            },
        ];
        let mut cluster = Cluster::homogeneous(8);
        let report = dispatcher(40.0).run(&mut cluster, &jobs, &mut clip_obs::NoopRecorder);
        assert!(report.outcomes.is_empty());
        assert_eq!(report.unstarted, vec![0, 1]);
        assert_eq!(report.makespan, TimeSpan::ZERO);
    }

    #[test]
    fn plans_are_disjoint_and_within_budget() {
        let mut cluster = Cluster::homogeneous(8);
        let jobs = vec![suite::comd(), suite::lu_mz(), suite::sp_mz()];
        let budget = Power::watts(1600.0);
        let plans = dispatcher(1600.0).plan_concurrent(&mut cluster, &jobs);
        assert_eq!(plans.len(), 3);
        let total: Power = plans.iter().map(|p| p.total_caps()).sum();
        assert!(total <= budget + Power::watts(1e-6), "caps {total}");
        let mut all_ids = Vec::new();
        for p in &plans {
            assert!(p.nodes() >= 1);
            all_ids.extend(p.node_ids.clone());
        }
        let unique: std::collections::HashSet<_> = all_ids.iter().collect();
        assert_eq!(unique.len(), all_ids.len(), "node sets must be disjoint");
    }

    #[test]
    fn scalable_jobs_get_more_nodes() {
        let mut cluster = Cluster::homogeneous(8);
        // CoMD scales linearly; SP-MZ is parabolic with a per-node optimum.
        let jobs = vec![suite::comd(), suite::sp_mz()];
        let plans = dispatcher(1800.0).plan_concurrent(&mut cluster, &jobs);
        assert!(
            plans[0].nodes() >= plans[1].nodes(),
            "CoMD {} vs SP-MZ {}",
            plans[0].nodes(),
            plans[1].nodes()
        );
    }

    #[test]
    fn concurrent_execution_respects_budget() {
        let mut cluster = Cluster::homogeneous(8);
        let jobs = vec![suite::amg(), suite::tea_leaf()];
        let budget = Power::watts(1200.0);
        let plans = dispatcher(1200.0).plan_concurrent(&mut cluster, &jobs);
        let reports = execute_concurrent(&mut cluster, &jobs, &plans, 2);
        let total: Power = reports.iter().map(|r| r.cluster_power).sum();
        assert!(total <= budget + Power::watts(2.0), "measured {total}");
        assert!(reports.iter().all(|r| r.performance() > 0.0));
    }

    #[test]
    fn beats_equal_share_on_mixed_workloads() {
        // Equal-share: nodes split evenly, all cores, naive 30 W DRAM pin.
        let cluster = Cluster::homogeneous(8);
        let jobs = vec![suite::comd(), suite::sp_mz()];
        let budget = Power::watts(1400.0);

        let mut planning = cluster.clone();
        let plans = dispatcher(1400.0).plan_concurrent(&mut planning, &jobs);
        let mut exec = cluster.clone();
        let smart = execute_concurrent(&mut exec, &jobs, &plans, 2);

        let equal_plans: Vec<SchedulePlan> = (0..2)
            .map(|j| {
                let per_node = budget / 8.0;
                let dram = 30.0f64.min(per_node.as_watts() * 0.5);
                SchedulePlan {
                    scheduler: "equal-share".into(),
                    node_ids: (j * 4..(j + 1) * 4).collect(),
                    threads_per_node: 24,
                    policy: simnode::AffinityPolicy::Compact,
                    caps: vec![
                        simnode::PowerCaps::new(
                            Power::watts(per_node.as_watts() - dram),
                            Power::watts(dram),
                        );
                        4
                    ],
                }
            })
            .collect();
        let mut exec = cluster.clone();
        let naive = execute_concurrent(&mut exec, &jobs, &equal_plans, 2);

        let smart_score = geomean(
            &smart
                .iter()
                .zip(&naive)
                .map(|(s, n)| s.performance() / n.performance())
                .collect::<Vec<_>>(),
        );
        assert!(
            smart_score > 1.0,
            "multi-job CLIP should beat equal share (geomean ratio {smart_score:.3})"
        );
    }

    #[test]
    #[should_panic(expected = "more jobs than nodes")]
    fn too_many_jobs_rejected() {
        let mut cluster = Cluster::homogeneous(2);
        let jobs = vec![suite::comd(), suite::amg(), suite::lu_mz()];
        dispatcher(600.0).plan_concurrent(&mut cluster, &jobs);
    }

    #[test]
    #[should_panic(expected = "assigned to two jobs")]
    fn overlapping_plans_rejected() {
        let mut cluster = Cluster::homogeneous(4);
        let jobs = vec![suite::comd(), suite::amg()];
        let mut plans = dispatcher(900.0).plan_concurrent(&mut cluster, &jobs);
        plans[1].node_ids = plans[0].node_ids.clone();
        execute_concurrent(&mut cluster, &jobs, &plans, 1);
    }
}
