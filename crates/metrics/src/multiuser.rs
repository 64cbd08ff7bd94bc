//! Per-user aggregation for multi-user trials.
//!
//! A multi-user run produces one [`QueryLog`] per user; figures and the
//! bench document need the per-user view (is *every* user served, not just
//! the average?) plus fleet-level aggregates. This module reduces the logs
//! to one [`UserSummary`] per user, keyed by the user's fleet index.

use crate::query::QueryLog;

/// The per-user outcome of one multi-user trial.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UserSummary {
    /// Fleet index of the user.
    pub user: usize,
    /// Number of queries the user issued (its lifetime window, in periods).
    pub queries: usize,
    /// Fraction of the user's queries that met deadline and fidelity
    /// threshold.
    pub success_ratio: f64,
    /// Mean per-query fidelity over the user's queries (1.0 for a user that
    /// issued none — nothing was missed).
    pub mean_fidelity: f64,
}

/// Summarises one log per user into per-user records, in fleet order.
pub fn summarize_users(logs: &[QueryLog], fidelity_threshold: f64) -> Vec<UserSummary> {
    logs.iter()
        .enumerate()
        .map(|(user, log)| UserSummary {
            user,
            queries: log.len(),
            success_ratio: log.success_ratio(fidelity_threshold),
            mean_fidelity: if log.is_empty() {
                1.0
            } else {
                log.fidelity_summary().mean()
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryRecord;
    use wsn_sim::SimTime;

    fn record(seq: u64, contributing: usize, total: usize, delivered: bool) -> QueryRecord {
        let deadline = SimTime::from_secs(2 * seq);
        QueryRecord {
            seq,
            deadline,
            delivered_at: delivered.then_some(deadline),
            contributing_nodes: contributing,
            nodes_in_area: total,
        }
    }

    #[test]
    fn summaries_follow_fleet_order_and_log_contents() {
        let mut perfect = QueryLog::new();
        perfect.push(record(1, 10, 10, true));
        perfect.push(record(2, 9, 9, true));
        let mut poor = QueryLog::new();
        poor.push(record(1, 1, 10, true));
        poor.push(record(2, 0, 8, false));
        let summaries = summarize_users(&[perfect, poor], 0.95);
        assert_eq!(summaries.len(), 2);
        assert_eq!(summaries[0].user, 0);
        assert_eq!(summaries[0].queries, 2);
        assert_eq!(summaries[0].success_ratio, 1.0);
        assert_eq!(summaries[0].mean_fidelity, 1.0);
        assert_eq!(summaries[1].user, 1);
        assert_eq!(summaries[1].success_ratio, 0.0);
        assert!(summaries[1].mean_fidelity < 0.1);
    }

    #[test]
    fn empty_log_counts_as_perfect_fidelity_but_zero_success() {
        let summaries = summarize_users(&[QueryLog::new()], 0.95);
        assert_eq!(summaries[0].queries, 0);
        assert_eq!(summaries[0].mean_fidelity, 1.0);
        assert_eq!(summaries[0].success_ratio, 0.0);
    }
}
