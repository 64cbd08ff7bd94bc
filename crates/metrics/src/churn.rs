//! Per-batch records of node churn and incremental backbone repair.
//!
//! The churn-mode simulation applies one batch of deaths and joins at each
//! period boundary and repairs the backbone incrementally instead of
//! re-electing from scratch. One [`ChurnBatch`] captures what each batch did
//! and what the repair touched; [`ChurnSummary`] aggregates a run. The
//! deterministic fields (everything except the wall-clock timings) are what
//! the CI determinism gate compares across `--jobs` settings.

/// What one churn batch did and what its incremental repair cost.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnBatch {
    /// Period boundary the batch fired at.
    pub boundary: u64,
    /// Nodes killed in the batch.
    pub deaths: usize,
    /// Nodes joined in the batch.
    pub joins: usize,
    /// Alive nodes seeded into the repair worklist (disks touching a dirty
    /// cell).
    pub candidates: usize,
    /// Total repair evaluations (candidates plus flip-propagated re-checks).
    pub evaluated: usize,
    /// Nodes the repair promoted to the backbone.
    pub promoted: usize,
    /// Nodes the repair demoted to duty cycling.
    pub demoted: usize,
    /// Lattice cells whose coverage the batch changed.
    pub dirty_cells: usize,
    /// Wall-clock spent applying the batch (grid and plan updates), in
    /// milliseconds. A timing observation, not simulation state.
    pub apply_ms: f64,
    /// Wall-clock spent in the incremental repair, in milliseconds.
    pub repair_ms: f64,
    /// Whether this batch's repaired backbone was verified bit-identical to
    /// a full re-election (`None` when verification was off).
    pub verified: Option<bool>,
}

/// Aggregate of a run's [`ChurnBatch`] records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnSummary {
    /// Number of churn batches applied.
    pub batches: usize,
    /// Total deaths across the run.
    pub deaths: usize,
    /// Total joins across the run.
    pub joins: usize,
    /// Total repair evaluations across the run.
    pub evaluated: usize,
    /// Total promotions across the run.
    pub promoted: usize,
    /// Total demotions across the run.
    pub demoted: usize,
    /// Total wall-clock spent in incremental repair, in milliseconds.
    pub repair_ms: f64,
    /// Mean wall-clock per repair, in milliseconds.
    pub mean_repair_ms: f64,
}

impl ChurnSummary {
    /// Aggregates a run's batch records (all fields zero for an empty run).
    pub fn from_batches(batches: &[ChurnBatch]) -> Self {
        let repair_ms: f64 = batches.iter().map(|b| b.repair_ms).sum();
        ChurnSummary {
            batches: batches.len(),
            deaths: batches.iter().map(|b| b.deaths).sum(),
            joins: batches.iter().map(|b| b.joins).sum(),
            evaluated: batches.iter().map(|b| b.evaluated).sum(),
            promoted: batches.iter().map(|b| b.promoted).sum(),
            demoted: batches.iter().map(|b| b.demoted).sum(),
            repair_ms,
            mean_repair_ms: if batches.is_empty() {
                0.0
            } else {
                repair_ms / batches.len() as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(boundary: u64, deaths: usize, repair_ms: f64) -> ChurnBatch {
        ChurnBatch {
            boundary,
            deaths,
            joins: deaths,
            candidates: 4 * deaths,
            evaluated: 5 * deaths,
            promoted: 1,
            demoted: 2,
            dirty_cells: 100,
            apply_ms: 0.1,
            repair_ms,
            verified: Some(true),
        }
    }

    #[test]
    fn summary_aggregates_batches() {
        let s = ChurnSummary::from_batches(&[batch(1, 3, 2.0), batch(2, 5, 4.0)]);
        assert_eq!(s.batches, 2);
        assert_eq!(s.deaths, 8);
        assert_eq!(s.joins, 8);
        assert_eq!(s.evaluated, 40);
        assert_eq!(s.promoted, 2);
        assert_eq!(s.demoted, 4);
        assert!((s.repair_ms - 6.0).abs() < 1e-12);
        assert!((s.mean_repair_ms - 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_summary_is_all_zero() {
        let s = ChurnSummary::from_batches(&[]);
        assert_eq!(s.batches, 0);
        assert_eq!(s.mean_repair_ms, 0.0);
    }
}
