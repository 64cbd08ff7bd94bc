//! The combined power plan: per-node roles and sleep schedules.

use wsn_net::{NodeId, NodeRole, SleepSchedule};
use wsn_sim::{Duration, SimTime};

/// The output of a power-management protocol, as consumed by the protocol
/// simulation: which nodes form the always-awake backbone and what schedule
/// the remaining duty-cycled nodes follow.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerPlan {
    roles: Vec<NodeRole>,
    schedule: SleepSchedule,
}

impl PowerPlan {
    /// Creates a plan from per-node roles and the shared duty-cycle schedule.
    pub fn new(roles: Vec<NodeRole>, schedule: SleepSchedule) -> Self {
        PowerPlan { roles, schedule }
    }

    /// A plan in which every node is a backbone node (no duty cycling);
    /// useful as a baseline and in unit tests.
    pub fn all_backbone(node_count: usize, schedule: SleepSchedule) -> Self {
        PowerPlan {
            roles: vec![NodeRole::Backbone; node_count],
            schedule,
        }
    }

    /// Number of nodes covered by the plan.
    pub fn node_count(&self) -> usize {
        self.roles.len()
    }

    /// The role of `node`.
    pub fn role(&self, node: NodeId) -> NodeRole {
        self.roles[node.index()]
    }

    /// Returns `true` when `node` is in the always-awake backbone.
    pub fn is_backbone(&self, node: NodeId) -> bool {
        self.roles[node.index()].is_backbone()
    }

    /// The duty-cycle schedule followed by non-backbone nodes.
    pub fn schedule(&self) -> SleepSchedule {
        self.schedule
    }

    /// All per-node roles, in node-id order.
    pub fn roles(&self) -> &[NodeRole] {
        &self.roles
    }

    /// Overwrites the role of `node` — the hook the incremental backbone
    /// repair uses to apply promotion/demotion flips in place instead of
    /// rebuilding the whole plan after every churn batch.
    pub fn set_role(&mut self, node: NodeId, role: NodeRole) {
        self.roles[node.index()] = role;
    }

    /// Mutable access to every per-node role, for
    /// [`crate::repair::RepairableBackbone::repair`] to apply its flips in
    /// place. Non-repair callers should use [`PowerPlan::set_role`].
    pub fn roles_mut(&mut self) -> &mut [NodeRole] {
        &mut self.roles
    }

    /// Iterator over backbone node ids.
    pub fn backbone_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.roles
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.is_backbone().then_some(NodeId(i)))
    }

    /// Iterator over duty-cycled (sleeping) node ids.
    pub fn sleeping_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.roles
            .iter()
            .enumerate()
            .filter_map(|(i, r)| (!r.is_backbone()).then_some(NodeId(i)))
    }

    /// Number of backbone nodes.
    pub fn backbone_count(&self) -> usize {
        self.roles.iter().filter(|r| r.is_backbone()).count()
    }

    /// Returns `true` when `node` is awake at time `t` under the plan's
    /// periodic schedule (backbone nodes are always awake).
    ///
    /// Protocol-requested wake overrides are tracked by the simulation on top
    /// of this baseline schedule.
    pub fn is_awake(&self, node: NodeId, t: SimTime) -> bool {
        self.is_backbone(node) || self.schedule.is_awake(t)
    }

    /// Delay before a frame handed off at `t` can be delivered to `node`
    /// (zero for backbone nodes, the PSM buffering delay otherwise).
    pub fn delivery_delay(&self, node: NodeId, t: SimTime) -> Duration {
        if self.is_backbone(node) {
            Duration::ZERO
        } else {
            self.schedule.delivery_delay(t)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> PowerPlan {
        let roles = vec![
            NodeRole::Backbone,
            NodeRole::DutyCycled,
            NodeRole::DutyCycled,
            NodeRole::Backbone,
        ];
        PowerPlan::new(roles, SleepSchedule::paper_default(15.0))
    }

    #[test]
    fn role_queries() {
        let p = plan();
        assert_eq!(p.node_count(), 4);
        assert!(p.is_backbone(NodeId(0)));
        assert!(!p.is_backbone(NodeId(1)));
        assert_eq!(p.backbone_count(), 2);
        assert_eq!(
            p.backbone_nodes().collect::<Vec<_>>(),
            vec![NodeId(0), NodeId(3)]
        );
        assert_eq!(
            p.sleeping_nodes().collect::<Vec<_>>(),
            vec![NodeId(1), NodeId(2)]
        );
    }

    #[test]
    fn backbone_nodes_are_always_awake() {
        let p = plan();
        for secs in [0u64, 1, 7, 14, 200] {
            assert!(p.is_awake(NodeId(0), SimTime::from_secs(secs)));
            assert_eq!(
                p.delivery_delay(NodeId(3), SimTime::from_secs(secs)),
                Duration::ZERO
            );
        }
    }

    #[test]
    fn sleeping_nodes_follow_the_schedule() {
        let p = plan();
        assert!(p.is_awake(NodeId(1), SimTime::from_millis(50)));
        assert!(!p.is_awake(NodeId(1), SimTime::from_secs(7)));
        assert_eq!(
            p.delivery_delay(NodeId(1), SimTime::from_secs(7)),
            Duration::from_secs(8)
        );
    }

    #[test]
    fn all_backbone_plan_never_sleeps() {
        let p = PowerPlan::all_backbone(3, SleepSchedule::paper_default(15.0));
        assert_eq!(p.backbone_count(), 3);
        assert_eq!(p.sleeping_nodes().count(), 0);
        assert!(p.is_awake(NodeId(2), SimTime::from_secs(7)));
    }
}
