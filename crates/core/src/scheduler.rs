//! The CLIP scheduler and the common scheduler interface.
//!
//! [`PowerScheduler`] is the contract every coordination method in the
//! evaluation implements (CLIP here; All-In, Lower-Limit, Coordinated and
//! the Oracle in the `baselines` crate): given a cluster, an application
//! and a total power budget, produce a [`SchedulePlan`] — which nodes, how
//! many threads, which affinity, and the per-node RAPL caps.
//!
//! [`ClipScheduler`] implements the full Algorithm 1 pipeline:
//! knowledge-database lookup → smart profiling → classification → MLR
//! inflection prediction (+ the third sample at the predicted point) →
//! model fitting → cluster allocation → node selection → optional
//! variability coordination. [`ClipScheduler::plan_fixed`] plans a
//! user-pinned launch on the same knowledge database and node selection.
//! [`execute_plan`] programs the caps and runs the job, returning the
//! measured [`JobReport`].

use crate::allocate::allocate_cluster;
use crate::audit::BudgetLedger;
use crate::coordinate;
use crate::knowledge::{KnowledgeDb, KnowledgeRecord};
use crate::mlr::InflectionPredictor;
use crate::perfmodel::NodePerfModel;
use crate::powerfit::FittedPowerModel;
use crate::profile::SmartProfiler;
use crate::recommend::{bandwidth_estimate, is_bandwidth_saturated, split_node_budget};
use cluster_sim::{run_job, Cluster, JobReport, JobSpec};
use serde::{Deserialize, Serialize};
use simkit::Power;
use simnode::{AffinityPolicy, PowerCaps};
use workload::{AppModel, ScalabilityClass};

/// A fully resolved scheduling decision.
#[must_use = "a plan does nothing until executed or audited"]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchedulePlan {
    /// Which scheduler produced this plan.
    pub scheduler: String,
    /// Participating node indices.
    pub node_ids: Vec<usize>,
    /// OpenMP threads on every node.
    pub threads_per_node: usize,
    /// Affinity on every node.
    pub policy: AffinityPolicy,
    /// Per-node caps, parallel to `node_ids`.
    pub caps: Vec<PowerCaps>,
}

impl SchedulePlan {
    /// Participating node count.
    pub fn nodes(&self) -> usize {
        self.node_ids.len()
    }

    /// Sum of all programmed caps (the budget the plan can draw).
    pub fn total_caps(&self) -> Power {
        self.caps.iter().map(|c| c.total()).sum()
    }

    /// True when the plan cannot draw more than `budget`.
    pub fn within_budget(&self, budget: Power) -> bool {
        self.total_caps() <= budget + Power::watts(1e-6)
    }
}

/// Common interface for every power-bounded scheduling method.
pub trait PowerScheduler {
    /// Scheduler name as used in the paper's figures.
    fn name(&self) -> &str;

    /// Decide node count, concurrency, affinity and caps for `app` under
    /// a total cluster power budget.
    fn plan(&mut self, cluster: &mut Cluster, app: &AppModel, budget: Power) -> SchedulePlan;

    /// Plan over a restricted node pool — the re-coordination entry point
    /// the degradation harness calls after faults shrink or reshape the
    /// fleet. `allowed` holds the usable node indices; the full `budget`
    /// is still available (a dead node's share is reclaimed, not lost).
    ///
    /// The default implementation is a conservative fallback for external
    /// implementors: it plans as if the whole cluster were available and
    /// then re-maps the chosen slots onto the allowed pool, truncating if
    /// the pool is smaller. It never exceeds the budget, but it does not
    /// re-optimize for the pool either — every in-repo scheduler overrides
    /// it with a genuine subset-aware plan.
    fn plan_subset(
        &mut self,
        cluster: &mut Cluster,
        app: &AppModel,
        budget: Power,
        allowed: &[usize],
    ) -> SchedulePlan {
        assert!(!allowed.is_empty(), "no nodes available");
        let mut plan = self.plan(cluster, app, budget);
        let n = plan.node_ids.len().min(allowed.len());
        plan.node_ids = allowed.iter().copied().take(n).collect();
        plan.caps.truncate(n);
        plan
    }

    /// Ask the scheduler to buffer trace events at its internal decision
    /// points (coordinate, allocate) for the harness to drain after each
    /// plan call. The default ignores the request — a scheduler with no
    /// interesting decision points needs no tracing machinery.
    fn set_tracing(&mut self, on: bool) {
        let _ = on;
    }

    /// Hand over (and clear) the decision events buffered since the last
    /// drain. The default returns an empty `Vec`, which allocates nothing.
    fn drain_decisions(&mut self) -> Vec<clip_obs::TraceEvent> {
        Vec::new()
    }
}

/// Program a plan's caps and execute the job — the engine's single
/// actuation path (every harness, dispatcher and bench goes through here).
///
/// Generic over the telemetry recorder: emits the committed plan as one
/// [`clip_obs::TraceEvent::PlanComputed`] plus a
/// [`clip_obs::TraceEvent::PlanNode`] per slot, a
/// [`clip_obs::TraceEvent::RaplProgrammed`] per node as its caps are
/// written (programmed vs. jitter-adjusted effective cap), and executes
/// via [`cluster_sim::run_job`] (`DvfsResolved` and `NodePowerSample` per
/// node). With the [`clip_obs::NoopRecorder`] every hook compiles away.
pub fn execute_plan<R: clip_obs::Recorder>(
    cluster: &mut Cluster,
    app: &AppModel,
    plan: &SchedulePlan,
    iterations: usize,
    epoch: u64,
    rec: &mut R,
) -> JobReport {
    if rec.enabled_for(clip_obs::EventClass::Scheduler) {
        rec.event_with(epoch, clip_obs::EventClass::Scheduler, || {
            clip_obs::TraceEvent::PlanComputed {
                scheduler: plan.scheduler.clone(),
                nodes: plan.nodes(),
                threads_per_node: plan.threads_per_node,
                caps_total: plan.total_caps(),
            }
        });
        for (&node_id, caps) in plan.node_ids.iter().zip(&plan.caps) {
            rec.event_with(epoch, clip_obs::EventClass::Scheduler, || {
                clip_obs::TraceEvent::PlanNode {
                    node: node_id,
                    cpu: caps.cpu,
                    dram: caps.dram,
                }
            });
        }
    }
    for (&node_id, &caps) in plan.node_ids.iter().zip(&plan.caps) {
        let node = cluster.node_mut(node_id);
        node.set_caps(caps);
        if rec.enabled_for(clip_obs::EventClass::Actuation) {
            let effective = node.effective_caps();
            rec.event_with(epoch, clip_obs::EventClass::Actuation, || {
                clip_obs::TraceEvent::RaplProgrammed {
                    node: node_id,
                    cpu: caps.cpu,
                    dram: caps.dram,
                    effective_cpu: effective.cpu,
                }
            });
        }
    }
    let spec = JobSpec {
        app,
        // Borrowed, not cloned: the plan owns the ids for the epoch and
        // the job only reads them (hot-alloc — this ran every epoch).
        node_ids: std::borrow::Cow::Borrowed(&plan.node_ids),
        threads_per_node: plan.threads_per_node,
        policy: plan.policy,
        iterations,
    };
    run_job(cluster, &spec, epoch, rec)
}

/// Scheduler name on fixed-launch plans ([`ClipScheduler::plan_fixed`]).
const FIXED_LAUNCH: &str = "CLIP-runtime";

/// One application's knowledge-database record and the models fitted from
/// it — everything planning needs to predict the app at any configuration.
pub(crate) struct JobModels {
    pub(crate) record: KnowledgeRecord,
    pub(crate) perf: NodePerfModel,
    pub(crate) power: FittedPowerModel,
}

/// The CLIP scheduler (paper Algorithm 1).
///
/// ```
/// use clip_core::{ClipScheduler, InflectionPredictor, PowerScheduler, execute_plan};
/// use cluster_sim::Cluster;
/// use simkit::Power;
///
/// let mut cluster = Cluster::paper_testbed(42);
/// let mut clip = ClipScheduler::new(InflectionPredictor::train_default(42));
/// let app = workload::suite::tea_leaf();
/// let budget = Power::watts(1200.0);
/// let plan = clip.plan(&mut cluster, &app, budget);
/// assert!(plan.within_budget(budget));
/// let report = execute_plan(&mut cluster, &app, &plan, 5, 0, &mut clip_obs::NoopRecorder);
/// assert!(report.cluster_power <= budget);
/// ```
#[derive(Debug, Clone)]
pub struct ClipScheduler {
    profiler: SmartProfiler,
    predictor: InflectionPredictor,
    db: KnowledgeDb,
    /// Enable inter-node variability coordination (§III-B2).
    pub coordinate_variability: bool,
    /// Spread threshold above which coordination engages.
    pub variability_threshold: f64,
    /// Floor predicted inflection points to even values (§V-B2); the
    /// ablation harness disables this.
    pub floor_even: bool,
    profiles_performed: usize,
    trace_decisions: bool,
    decisions: Vec<clip_obs::TraceEvent>,
}

impl ClipScheduler {
    /// Build with a trained inflection predictor.
    pub fn new(predictor: InflectionPredictor) -> Self {
        Self {
            profiler: SmartProfiler::default(),
            predictor,
            db: KnowledgeDb::new(),
            coordinate_variability: true,
            variability_threshold: 0.02,
            floor_even: true,
            profiles_performed: 0,
            trace_decisions: false,
            decisions: Vec::new(),
        }
    }

    /// Build with a pre-populated knowledge database.
    pub fn with_knowledge_db(mut self, db: KnowledgeDb) -> Self {
        self.db = db;
        self
    }

    /// Read access to the knowledge database.
    pub fn knowledge(&self) -> &KnowledgeDb {
        &self.db
    }

    /// How many smart-profiling passes have run (cache misses).
    pub fn profiles_performed(&self) -> usize {
        self.profiles_performed
    }

    /// Profile on cluster node `probe` (or return the cached record) and
    /// predict the inflection point. The probe node must be one the caller
    /// is allowed to use — after a crash, profiling must not touch the
    /// dead node.
    fn record_for(
        &mut self,
        cluster: &mut Cluster,
        app: &AppModel,
        probe: usize,
    ) -> KnowledgeRecord {
        if let Some(r) = self.db.get(app.name()) {
            return r.clone();
        }
        self.profiles_performed += 1;
        let node = cluster.node_mut(probe);
        let mut profile = self.profiler.profile(node, app);
        let np = if self.floor_even {
            self.predictor.predict(&profile)
        } else {
            let raw = self.predictor.predict_raw(&profile);
            (raw.floor() as i64).clamp(2, self.predictor.total_cores() as i64) as usize
        };
        if profile.class != ScalabilityClass::Linear {
            // Third sample configuration at the predicted point (§IV-B1).
            self.profiler
                .sample_at(cluster.node_mut(probe), app, &mut profile, np);
        }
        let record = KnowledgeRecord { profile, np };
        self.db.insert(record.clone());
        record
    }

    /// The app's record (profiled on `probe` on a cache miss, as in
    /// [`Self::record_for`]) with its fitted performance and power models —
    /// the one profile → predict → fit pipeline every CLIP planner uses.
    pub(crate) fn job_models(
        &mut self,
        cluster: &mut Cluster,
        app: &AppModel,
        probe: usize,
    ) -> JobModels {
        let record = self.record_for(cluster, app, probe);
        let perf = NodePerfModel::from_profile(&record.profile, record.np);
        let power = FittedPowerModel::fit(&record.profile);
        JobModels {
            record,
            perf,
            power,
        }
    }
}

impl ClipScheduler {
    /// Coordinate power for a user-pinned launch (`mpirun -np nodes`,
    /// `OMP_NUM_THREADS=threads_per_node`) — the runtime the paper names
    /// as future work (§VII). The launch is honoured exactly; CLIP still
    /// chooses which alive nodes run, the per-node budget and its
    /// CPU/DRAM split at the pinned concurrency, the affinity, and the
    /// variability shift. The app's record comes from the same knowledge
    /// database as [`PowerScheduler::plan`], so it is profiled once
    /// whichever way it is planned; a cache miss probes an alive node.
    ///
    /// # Panics
    /// When `nodes` is zero or exceeds the alive node count, or
    /// `threads_per_node` is zero or exceeds a node's cores.
    pub fn plan_fixed(
        &mut self,
        cluster: &mut Cluster,
        app: &AppModel,
        budget: Power,
        nodes: usize,
        threads_per_node: usize,
    ) -> SchedulePlan {
        let alive = cluster.alive_nodes();
        assert!(nodes >= 1 && nodes <= alive.len(), "invalid node count");
        let probe = alive.first().copied().unwrap_or(0);
        let total_cores = cluster.node(probe).topology().total_cores();
        assert!(
            threads_per_node >= 1 && threads_per_node <= total_cores,
            "invalid thread count"
        );
        let models = self.job_models(cluster, app, probe);
        let profile = &models.record.profile;
        let split = split_node_budget(
            &models.power,
            bandwidth_estimate(profile, threads_per_node),
            is_bandwidth_saturated(profile),
            threads_per_node,
            budget / nodes as f64,
        );

        let ledger = BudgetLedger::new(FIXED_LAUNCH, budget);
        let (node_ids, caps) = self.select_nodes(cluster, &alive, nodes, split.caps, &ledger);
        let plan = SchedulePlan {
            scheduler: FIXED_LAUNCH.to_string(),
            node_ids,
            threads_per_node,
            policy: profile.policy,
            caps,
        };
        ledger.audit_plan(&plan);
        plan
    }

    /// Pick `n` of the `allowed` nodes and give each its caps, starting
    /// from `uniform`. With variability coordination on, the allowed nodes
    /// are ranked by measured efficiency (thriftiest first, stable on
    /// ties), the first `n` run, and CPU budget shifts onto the leaky ones
    /// if the spread warrants it (shift audited on `ledger`); only the
    /// allowed nodes are probed. With it off, the first `n` allowed nodes
    /// run on uniform caps.
    fn select_nodes(
        &mut self,
        cluster: &mut Cluster,
        allowed: &[usize],
        n: usize,
        uniform: PowerCaps,
        ledger: &BudgetLedger,
    ) -> (Vec<usize>, Vec<PowerCaps>) {
        if !self.coordinate_variability {
            return (allowed.iter().copied().take(n).collect(), vec![uniform; n]);
        }
        let factors = coordinate::measure_efficiencies(cluster, allowed);
        let mut ranked: Vec<(usize, f64)> = allowed.iter().copied().zip(factors).collect();
        ranked.sort_by(|a, b| a.1.total_cmp(&b.1));
        let (selected, sel_factors): (Vec<usize>, Vec<f64>) = ranked.into_iter().take(n).unzip();
        if self.trace_decisions {
            let spread = coordinate::spread(&sel_factors);
            self.decisions
                .push(clip_obs::TraceEvent::CoordinateMeasured {
                    pool: selected.clone(),
                    spread,
                    engaged: spread > self.variability_threshold,
                });
        }
        let before = vec![uniform; sel_factors.len()];
        let caps = coordinate::coordinate_caps(uniform, &sel_factors, self.variability_threshold);
        ledger.audit_shift(&before, &caps);
        (selected, caps)
    }
}

impl PowerScheduler for ClipScheduler {
    fn name(&self) -> &str {
        "CLIP"
    }

    fn plan(&mut self, cluster: &mut Cluster, app: &AppModel, budget: Power) -> SchedulePlan {
        // The unrestricted plan is the subset plan over the full pool:
        // measure the whole fleet, activate the thriftiest nodes, and shift
        // CPU budget onto leaky ones if the spread warrants it.
        let all_ids: Vec<usize> = (0..cluster.len()).collect();
        self.plan_subset(cluster, app, budget, &all_ids)
    }

    /// Plan against a *subset* of the cluster: only `allowed` nodes may be
    /// used and only `budget` may be drawn. This is the entry point the
    /// queue dispatcher uses when part of the machine is already busy.
    /// Profiling (on a cache miss) probes the first allowed node and
    /// variability coordination measures only the allowed nodes (the
    /// busy ones cannot run probes).
    fn plan_subset(
        &mut self,
        cluster: &mut Cluster,
        app: &AppModel,
        budget: Power,
        allowed: &[usize],
    ) -> SchedulePlan {
        assert!(!allowed.is_empty(), "no nodes available");
        for &id in allowed {
            assert!(id < cluster.len(), "node {id} out of range");
        }
        let probe = allowed.first().copied().unwrap_or(0);
        let total_cores = cluster.node(probe).topology().total_cores();
        let models = self.job_models(cluster, app, probe);

        let allocation = allocate_cluster(
            budget,
            allowed.len(),
            app.preferred_node_counts(),
            &models.record.profile,
            &models.perf,
            &models.power,
            total_cores,
        );
        let n = allocation.nodes;
        let uniform = allocation.node_config.caps;
        let ledger = BudgetLedger::new(self.name(), budget);
        if self.trace_decisions {
            self.decisions.push(clip_obs::TraceEvent::AllocateChosen {
                nodes: n,
                threads: allocation.node_config.threads,
                per_node_cap: uniform.total(),
            });
        }
        let (node_ids, caps) = self.select_nodes(cluster, allowed, n, uniform, &ledger);

        let plan = SchedulePlan {
            scheduler: self.name().to_string(),
            node_ids,
            threads_per_node: allocation.node_config.threads,
            policy: allocation.node_config.policy,
            caps,
        };
        ledger.audit_plan(&plan);
        plan
    }

    fn set_tracing(&mut self, on: bool) {
        self.trace_decisions = on;
        if !on {
            self.decisions.clear();
        }
    }

    fn drain_decisions(&mut self) -> Vec<clip_obs::TraceEvent> {
        std::mem::take(&mut self.decisions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::suite;

    fn scheduler() -> ClipScheduler {
        ClipScheduler::new(InflectionPredictor::train_default(5))
    }

    fn plan_for(app: &AppModel, budget_w: f64) -> (SchedulePlan, Cluster) {
        let mut cluster = Cluster::homogeneous(8);
        let mut clip = scheduler();
        let plan = clip.plan(&mut cluster, app, Power::watts(budget_w));
        (plan, cluster)
    }

    #[test]
    fn plan_respects_budget() {
        for app in [suite::comd(), suite::lu_mz(), suite::sp_mz()] {
            for budget in [800.0, 1200.0, 1800.0] {
                let (plan, _) = plan_for(&app, budget);
                assert!(
                    plan.within_budget(Power::watts(budget)),
                    "{} at {budget} W: caps {}",
                    app.name(),
                    plan.total_caps()
                );
            }
        }
    }

    #[test]
    fn generous_budget_uses_whole_cluster_for_linear_apps() {
        let (plan, _) = plan_for(&suite::comd(), 2400.0);
        assert_eq!(plan.nodes(), 8);
        assert_eq!(plan.threads_per_node, 24);
    }

    #[test]
    fn tight_budget_reduces_node_count() {
        let (generous, _) = plan_for(&suite::comd(), 2400.0);
        let (tight, _) = plan_for(&suite::comd(), 600.0);
        assert!(tight.nodes() < generous.nodes());
        assert!(tight.nodes() >= 1);
    }

    #[test]
    fn parabolic_apps_do_not_use_all_cores() {
        let (plan, _) = plan_for(&suite::sp_mz(), 1800.0);
        assert!(
            plan.threads_per_node <= 16,
            "threads {}",
            plan.threads_per_node
        );
        assert!(plan.threads_per_node >= 6);
    }

    #[test]
    fn memory_apps_get_scatter_affinity() {
        let (plan, _) = plan_for(&suite::lu_mz(), 1600.0);
        assert_eq!(plan.policy, AffinityPolicy::Scatter);
    }

    #[test]
    fn knowledge_db_prevents_reprofiling() {
        let mut cluster = Cluster::homogeneous(8);
        let mut clip = scheduler();
        let app = suite::tea_leaf();
        let _ = clip.plan(&mut cluster, &app, Power::watts(1500.0));
        assert_eq!(clip.profiles_performed(), 1);
        let _ = clip.plan(&mut cluster, &app, Power::watts(900.0));
        assert_eq!(clip.profiles_performed(), 1, "second plan must hit the DB");
        assert_eq!(clip.knowledge().len(), 1);
    }

    #[test]
    fn executed_plan_power_within_budget() {
        let mut cluster = Cluster::paper_testbed(7);
        let mut clip = scheduler();
        let app = suite::amg();
        let budget = Power::watts(1400.0);
        let plan = clip.plan(&mut cluster, &app, budget);
        let report = execute_plan(&mut cluster, &app, &plan, 2, 0, &mut clip_obs::NoopRecorder);
        assert!(
            report.cluster_power <= budget + Power::watts(1.0),
            "measured {} vs budget {}",
            report.cluster_power,
            budget
        );
        assert!(report.performance() > 0.0);
    }

    #[test]
    fn variability_coordination_selects_efficient_nodes() {
        let mut cluster =
            Cluster::with_variability(8, &cluster_sim::VariabilityModel::with_sigma(0.08), 21);
        let mut clip = scheduler();
        let app = suite::comd();
        let plan = clip.plan(&mut cluster, &app, Power::watts(900.0));
        assert!(plan.nodes() < 8, "tight budget drops nodes");
        // Selected nodes must be the most efficient ones.
        let eff = cluster.efficiencies();
        let mut sorted: Vec<usize> = (0..8).collect();
        sorted.sort_by(|&a, &b| eff[a].partial_cmp(&eff[b]).unwrap());
        let expected: std::collections::HashSet<usize> =
            sorted[..plan.nodes()].iter().copied().collect();
        let got: std::collections::HashSet<usize> = plan.node_ids.iter().copied().collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn coordination_preserves_total_budget() {
        let mut cluster =
            Cluster::with_variability(4, &cluster_sim::VariabilityModel::with_sigma(0.10), 31);
        let mut clip = scheduler();
        let app = suite::mini_md();
        let budget = Power::watts(800.0);
        let plan = clip.plan(&mut cluster, &app, budget);
        assert!(plan.within_budget(budget));
        // With 10% sigma the spread exceeds the threshold: caps differ.
        if plan.nodes() >= 2 {
            let all_same = plan.caps.windows(2).all(|w| w[0] == w[1]);
            assert!(!all_same, "coordination should differentiate caps");
        }
    }

    #[test]
    fn subset_plan_stays_inside_the_pool_and_keeps_the_budget() {
        let mut cluster = Cluster::paper_testbed(13);
        cluster.fail_node(0);
        let mut clip = scheduler();
        let app = suite::comd();
        let budget = Power::watts(1400.0);
        let allowed = cluster.alive_nodes();
        let plan = clip.plan_subset(&mut cluster, &app, budget, &allowed);
        assert!(plan.node_ids.iter().all(|id| allowed.contains(id)));
        assert!(!plan.node_ids.contains(&0), "dead node must not be used");
        assert!(plan.within_budget(budget));
        assert!(plan.nodes() >= 1);
    }

    #[test]
    fn subset_plan_profiles_on_an_allowed_node() {
        // With node 0 crashed, profiling must probe an allowed node.
        let mut cluster = Cluster::homogeneous(4);
        cluster.fail_node(0);
        let mut clip = scheduler();
        let app = suite::tea_leaf();
        let allowed = cluster.alive_nodes();
        let plan = clip.plan_subset(&mut cluster, &app, Power::watts(800.0), &allowed);
        assert_eq!(clip.profiles_performed(), 1);
        assert!(!plan.node_ids.contains(&0));
    }

    #[test]
    #[should_panic(expected = "no nodes available")]
    fn empty_subset_rejected() {
        let mut cluster = Cluster::homogeneous(2);
        let mut clip = scheduler();
        let app = suite::comd();
        let _ = clip.plan_subset(&mut cluster, &app, Power::watts(500.0), &[]);
    }

    #[test]
    fn disabled_coordination_gives_uniform_caps() {
        let mut cluster =
            Cluster::with_variability(4, &cluster_sim::VariabilityModel::with_sigma(0.10), 31);
        let mut clip = scheduler();
        clip.coordinate_variability = false;
        let app = suite::mini_md();
        let plan = clip.plan(&mut cluster, &app, Power::watts(800.0));
        assert!(plan.caps.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(plan.node_ids, (0..plan.nodes()).collect::<Vec<_>>());
    }

    #[test]
    fn fixed_launch_is_honored() {
        let mut cluster = Cluster::homogeneous(8);
        let mut clip = scheduler();
        let plan = clip.plan_fixed(&mut cluster, &suite::sp_mz(), Power::watts(1300.0), 6, 18);
        assert_eq!(plan.nodes(), 6);
        assert_eq!(plan.threads_per_node, 18);
    }

    #[test]
    fn fixed_launch_respects_budget() {
        let mut cluster = Cluster::homogeneous(8);
        let mut clip = scheduler();
        let budget = Power::watts(1100.0);
        let plan = clip.plan_fixed(&mut cluster, &suite::lu_mz(), budget, 8, 24);
        assert!(plan.within_budget(budget));
        let report = execute_plan(
            &mut cluster,
            &suite::lu_mz(),
            &plan,
            2,
            0,
            &mut clip_obs::NoopRecorder,
        );
        assert!(report.cluster_power <= budget + Power::watts(1.0));
    }

    #[test]
    fn fixed_launch_split_beats_naive_split_for_memory_apps() {
        // Even with everything pinned, coordinating the CPU/DRAM split
        // matters: compare against a naive 30 W DRAM pin.
        let cluster = Cluster::homogeneous(4);
        let app = suite::lu_mz();
        let budget = Power::watts(500.0);

        let mut clip = scheduler();
        clip.coordinate_variability = false;
        let mut planning = cluster.clone();
        let plan = clip.plan_fixed(&mut planning, &app, budget, 4, 24);
        let mut exec = cluster.clone();
        let coordinated =
            execute_plan(&mut exec, &app, &plan, 2, 0, &mut clip_obs::NoopRecorder).performance();

        let naive_caps = PowerCaps::new(
            Power::watts(budget.as_watts() / 4.0 - 30.0),
            Power::watts(30.0),
        );
        let naive_plan = SchedulePlan {
            scheduler: "naive".into(),
            node_ids: (0..4).collect(),
            threads_per_node: 24,
            policy: plan.policy,
            caps: vec![naive_caps; 4],
        };
        let mut exec = cluster.clone();
        let naive = execute_plan(
            &mut exec,
            &app,
            &naive_plan,
            2,
            0,
            &mut clip_obs::NoopRecorder,
        )
        .performance();
        assert!(
            coordinated >= naive * 0.98,
            "coordinated {coordinated:.4} vs naive {naive:.4}"
        );
    }

    #[test]
    fn fixed_launches_and_plans_share_one_profile() {
        let mut cluster = Cluster::homogeneous(8);
        let mut clip = scheduler();
        let app = suite::amg();
        let _ = clip.plan_fixed(&mut cluster, &app, Power::watts(900.0), 4, 24);
        let _ = clip.plan_fixed(&mut cluster, &app, Power::watts(1400.0), 8, 12);
        let _ = clip.plan(&mut cluster, &app, Power::watts(1200.0));
        assert_eq!(
            clip.profiles_performed(),
            1,
            "later plans reuse the profile"
        );
        assert_eq!(clip.knowledge().len(), 1);
    }

    #[test]
    fn fixed_launch_avoids_crashed_nodes() {
        for coordinate in [true, false] {
            let mut cluster = Cluster::homogeneous(8);
            cluster.fail_node(0);
            let mut clip = scheduler();
            clip.coordinate_variability = coordinate;
            let app = suite::lu_mz();
            let budget = Power::watts(900.0);
            let plan = clip.plan_fixed(&mut cluster, &app, budget, 4, 24);
            assert_eq!(plan.nodes(), 4);
            assert!(
                !plan.node_ids.contains(&0),
                "coordinate={coordinate}: dead node planned: {:?}",
                plan.node_ids
            );
            let report = execute_plan(&mut cluster, &app, &plan, 2, 0, &mut clip_obs::NoopRecorder);
            assert!(report.performance() > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "invalid node count")]
    fn fixed_launch_beyond_alive_nodes_rejected() {
        let mut cluster = Cluster::homogeneous(4);
        cluster.fail_node(3);
        let mut clip = scheduler();
        let _ = clip.plan_fixed(&mut cluster, &suite::comd(), Power::watts(900.0), 4, 24);
    }
}
