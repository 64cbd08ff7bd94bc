//! Node identity and roles.

use std::fmt;

/// Identifier of a sensor node: an index into the deployment's node list.
///
/// Using a newtype (rather than a bare `usize`) keeps node indices from being
/// confused with hop counts, sequence numbers and the other small integers
/// that flow through protocol code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The underlying index.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(value: usize) -> Self {
        NodeId(value)
    }
}

impl From<NodeId> for usize {
    fn from(value: NodeId) -> Self {
        value.0
    }
}

/// The power-management role a node plays in the network.
///
/// The paper assumes a power-management protocol (CCP, SPAN or GAF) keeps a
/// small **backbone** of always-active nodes that preserves connectivity and
/// sensing coverage, while every other node runs a low duty cycle and sleeps
/// most of the time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeRole {
    /// Always-active backbone node; relays traffic with no wake-up delay.
    Backbone,
    /// Duty-cycled node: radio off except during periodic active windows
    /// (and explicitly re-scheduled wake-ups requested by the protocol).
    DutyCycled,
}

impl NodeRole {
    /// Returns `true` for backbone nodes.
    pub const fn is_backbone(self) -> bool {
        matches!(self, NodeRole::Backbone)
    }
}

impl fmt::Display for NodeRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeRole::Backbone => write!(f, "backbone"),
            NodeRole::DutyCycled => write!(f, "duty-cycled"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_round_trips_through_usize() {
        let id = NodeId::from(17usize);
        assert_eq!(id.index(), 17);
        assert_eq!(usize::from(id), 17);
        assert_eq!(format!("{id}"), "n17");
    }

    #[test]
    fn node_ids_are_ordered_by_index() {
        assert!(NodeId(1) < NodeId(2));
        assert_eq!(NodeId(3), NodeId(3));
    }

    #[test]
    fn role_predicates() {
        assert!(NodeRole::Backbone.is_backbone());
        assert!(!NodeRole::DutyCycled.is_backbone());
        assert_ne!(format!("{}", NodeRole::Backbone), "");
        assert_ne!(format!("{}", NodeRole::DutyCycled), "");
    }
}
