#![warn(missing_docs)]

//! # clip-core — Cluster-Level Intelligent Power coordination
//!
//! The paper's contribution: an application-aware, hierarchical power
//! coordination framework for power-bounded clusters (Zou et al., IEEE
//! CLUSTER 2017). The pipeline mirrors the paper's four steps (§I):
//!
//! 1. **Smart profiling** ([`profile`]): ≤3 short sample executions — all
//!    cores (affinity chosen from measured memory intensity), half cores,
//!    and a forced-lowest-frequency run — collecting Table I event rates and
//!    RAPL powers.
//! 2. **Classification** ([`workload::ScalabilityClass`], applied in
//!    [`profile`]): linear / logarithmic / parabolic from the half/all
//!    performance ratio.
//! 3. **Inflection-point prediction** ([`mlr`]): per-class multivariate
//!    linear regression over the eight event-rate predictors, trained on a
//!    synthetic corpus; predictions floored to even concurrency (§V-B2).
//! 4. **Hierarchical allocation**: [`powerfit`] inverts measured powers into
//!    an application-specific power model (Eqs. 5–9); [`perfmodel`] is the
//!    piecewise performance predictor (Eqs. 1–3); [`recommend`] picks the
//!    node-level concurrency/affinity/power split; [`allocate`] picks the
//!    node count and per-node budgets (Algorithm 1); [`coordinate`]
//!    rebalances budgets across nodes when manufacturing variability
//!    exceeds a threshold (§III-B2).
//!
//! [`scheduler::ClipScheduler`] glues everything behind the
//! [`scheduler::PowerScheduler`] trait that the baseline schedulers (in the
//! `baselines` crate) also implement, and [`knowledge::KnowledgeDb`] caches
//! profiles so repeat jobs skip the profiling runs (§IV-B3).
//!
//! Extensions go beyond the paper's evaluation while staying inside its
//! design space: [`phased`] recommends per-phase concurrency (the §V-B
//! BT-MZ treatment, generalized);
//! [`ClipScheduler::plan_fixed`] coordinates power for jobs with
//! user-pinned node/thread counts (the §VII future-work item) on the same
//! knowledge database and node selection as every other CLIP plan;
//! [`dispatch`] is the §IV-B3 job scheduler — an FCFS power-bounded queue
//! that also co-schedules concurrent jobs on one budget (the POWshed
//! scenario of §VI, driven by CLIP's models); [`degrade`] replays seeded
//! fault timelines (`cluster_sim::faults`) against any scheduler,
//! re-running Algorithm 1 over the survivors whenever the pool degrades;
//! and [`service`] runs an open-loop multi-tenant workload with admission,
//! preemption and autoscaling.
//!
//! The multi-epoch harnesses drive one mechanism: [`engine::EpochEngine`],
//! the recorder-generic owner of the canonical per-epoch cycle (fault
//! application → re-coordination → planning → RAPL/DVFS actuation → job
//! execution → ledger audit → trace emission). The fault and service
//! harnesses are [`engine::EpochPolicy`] configurations of it; the
//! dispatcher calls its coordinate and execute primitives per job.

pub mod allocate;
pub mod audit;
pub mod coordinate;
pub mod degrade;
pub mod dispatch;
pub mod engine;
pub mod hierarchy;
pub mod knowledge;
pub mod mlr;
pub mod perfmodel;
pub mod phased;
pub mod powerfit;
pub mod profile;
pub mod pwl;
pub mod recommend;
pub mod scheduler;
pub mod service;
pub mod tools;
pub mod validate;

pub use allocate::{choose_node_count, NodeBudgetRange};
pub use audit::{ActuationCheck, BudgetLedger};
pub use degrade::{run_with_faults, FaultTimeline};
pub use dispatch::{execute_concurrent, DispatchReport, Dispatcher, QueuedJob};
pub use engine::{
    Boundary, EpochEngine, EpochPolicy, FaultHarnessConfig, FaultRunReport, SteadyState,
};
pub use hierarchy::{
    run_sharded, run_sharded_service, BudgetArbiter, RackFault, RackReport, RackTimeline,
    ShardConfig, ShardRunReport,
};
pub use knowledge::KnowledgeDb;
pub use mlr::InflectionPredictor;
pub use perfmodel::NodePerfModel;
pub use powerfit::FittedPowerModel;
pub use profile::{ProfileData, SampleRun, SmartProfiler};
pub use recommend::{recommend_node_config, NodeConfig};
pub use scheduler::{execute_plan, ClipScheduler, PowerScheduler, SchedulePlan};
pub use service::{run_service, ServiceRunReport, ServiceTimeline};
