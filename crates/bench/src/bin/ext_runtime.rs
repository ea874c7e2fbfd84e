//! Extension harness: runtime power coordination for fixed launches (the
//! paper's §VII future-work item).
//!
//! Users often submit `mpirun -np N` with `OMP_NUM_THREADS` already chosen;
//! the runtime can still coordinate the per-node budgets, the CPU/DRAM
//! split, the affinity, and variability shifting. This harness compares the
//! runtime against a naive 30 W DRAM pin across launch shapes and budgets.

use clip_bench::{clip_scheduler, emit, testbed, EVAL_ITERATIONS};
use clip_core::{execute_plan, SchedulePlan};
use simkit::table::Table;
use simkit::Power;
use workload::suite;

fn main() {
    let cluster = testbed();
    let mut table = Table::new(
        "Extension: runtime coordination under fixed launches (LU-MZ)",
        &["launch", "budget (W)", "runtime perf", "naive perf", "gain"],
    );
    let app = suite::lu_mz();
    let mut clip = clip_scheduler();

    for (nodes, threads) in [(8usize, 24usize), (4, 24), (8, 12), (6, 16)] {
        for budget_w in [900.0, 1400.0] {
            let budget = Power::watts(budget_w);
            let mut planning = cluster.clone();
            let plan = clip.plan_fixed(&mut planning, &app, budget, nodes, threads);
            assert!(plan.within_budget(budget));
            let mut exec = cluster.clone();
            let smart = execute_plan(
                &mut exec,
                &app,
                &plan,
                EVAL_ITERATIONS,
                0,
                &mut clip_obs::NoopRecorder,
            )
            .performance();

            let per_node = budget / nodes as f64;
            let dram = 30.0f64.min(per_node.as_watts() * 0.5).max(1.0);
            let naive_plan = SchedulePlan {
                scheduler: "naive-fixed".into(),
                node_ids: (0..nodes).collect(),
                threads_per_node: threads,
                policy: plan.policy,
                caps: vec![
                    simnode::PowerCaps::new(
                        Power::watts((per_node.as_watts() - dram).max(1.0)),
                        Power::watts(dram),
                    );
                    nodes
                ],
            };
            let mut exec = cluster.clone();
            let naive = execute_plan(
                &mut exec,
                &app,
                &naive_plan,
                EVAL_ITERATIONS,
                0,
                &mut clip_obs::NoopRecorder,
            )
            .performance();

            table.row(&[
                format!("{nodes}n x {threads}t"),
                format!("{budget_w:.0}"),
                format!("{smart:.4}"),
                format!("{naive:.4}"),
                format!("{:+.1}%", (smart / naive - 1.0) * 100.0),
            ]);
        }
    }
    emit(&table);
}
