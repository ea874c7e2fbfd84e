//! System-interface helper tools (paper §IV-B4).
//!
//! "It includes several customized system tools such as a power meter
//! reader, a RAPL and DVFS power controller, and a performance event
//! collector." In the simulator the power meter and the event collector
//! are the node's own RAPL registers and PMU counters, which every
//! execution reports directly; what remains is the DVFS controller:
//!
//! - [`DvfsController`]: pin an application to a target P-state through the
//!   cap interface (pick the cap that makes the resolved frequency equal
//!   the target) — how the Figure 2 fixed-frequency samples are collected
//!   without a `cpufreq` backdoor.

use simkit::{Frequency, Power};
use simnode::{AffinityPolicy, Node, NodeWorkload, PowerCaps};

/// Frequency pinning through the cap interface.
#[derive(Debug, Clone, Copy, Default)]
pub struct DvfsController;

impl DvfsController {
    /// Program caps on `node` such that `workload` at `threads`/`policy`
    /// resolves to exactly the target P-state. Returns the programmed caps.
    /// Panics if the target is not on the node's ladder.
    pub fn pin_frequency<W: NodeWorkload + ?Sized>(
        node: &mut Node,
        workload: &W,
        threads: usize,
        policy: AffinityPolicy,
        target: Frequency,
    ) -> PowerCaps {
        assert!(
            node.pstates().states().contains(&target),
            "{target} is not a P-state of this node"
        );
        // Binary-search-free: the cap that admits exactly `target` is the
        // package power at `target` (the controller picks the highest
        // feasible state). A hair of headroom absorbs float noise.
        let placement = simnode::Placement::resolve(node.topology(), threads, policy);
        let pkg = node.power_model().pkg_power(
            placement.active_per_socket(),
            target,
            workload.cpu_activity(),
        );
        let caps = PowerCaps::new(pkg + Power::watts(0.01), Power::watts(1e9));
        node.set_caps(caps);
        caps
    }

    /// Release any pin: restore unlimited caps.
    pub fn unpin(node: &mut Node) {
        node.set_caps(PowerCaps::unlimited());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::suite;

    #[test]
    fn dvfs_pin_hits_every_ladder_state() {
        let mut node = Node::haswell();
        let app = suite::ep_like();
        for &f in node.pstates().clone().states() {
            DvfsController::pin_frequency(&mut node, &app, 24, AffinityPolicy::Compact, f);
            let op = node.resolve(&app, 24, AffinityPolicy::Compact);
            assert_eq!(op.frequency(), f, "pin missed {f}");
        }
        DvfsController::unpin(&mut node);
        let op = node.resolve(&app, 24, AffinityPolicy::Compact);
        assert_eq!(op.frequency(), node.pstates().f_max());
    }

    #[test]
    #[should_panic(expected = "not a P-state")]
    fn pin_rejects_off_ladder_targets() {
        let mut node = Node::haswell();
        let app = suite::ep_like();
        DvfsController::pin_frequency(
            &mut node,
            &app,
            24,
            AffinityPolicy::Compact,
            Frequency::ghz(2.35),
        );
    }
}
