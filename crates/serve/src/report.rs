//! The deterministic output of one serve run, and the bookkeeping that
//! folds into it.
//!
//! Every field is computed from integer virtual-time quantities in a
//! fixed order, so serializing a [`ServeReport`] yields byte-identical
//! JSON for the same (workload, config) regardless of host thread count.
//!
//! [`crate::ServeNode`] and [`crate::ClusterSession`] keep their
//! counters in the same crate-private `Tallies`: a node
//! tallies its own admissions and outcomes, and a cluster tallies
//! admission cluster-wide and merges the nodes' completion side at the
//! end of the run.

use crate::job::{AdmissionError, JobOutcome, JobRecord};
use crate::policy::PolicyKind;
use accelsoc_observe::{percentile_ps, TenantId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Per-tenant aggregate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantReport {
    pub tenant: TenantId,
    /// Jobs this tenant submitted (admitted + rejected).
    pub submitted: u64,
    pub admitted: u64,
    pub rejected: u64,
    pub completed: u64,
    /// Queue expiries + late finishes.
    pub deadline_missed: u64,
    /// Latency percentiles over completed (on-time or late) jobs.
    pub p50_latency_ps: u64,
    pub p99_latency_ps: u64,
    pub mean_latency_ps: u64,
}

/// Counts of admission rejections by typed reason.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RejectionCounts {
    pub queue_full: u64,
    pub job_too_large: u64,
    pub deadline_impossible: u64,
    pub invalid_graph: u64,
    pub unknown_tenant: u64,
    pub too_many_boards: u64,
}

impl RejectionCounts {
    /// Count one rejection under its typed reason.
    pub fn count(&mut self, err: &AdmissionError) {
        let slot = match err {
            AdmissionError::QueueFull { .. } => &mut self.queue_full,
            AdmissionError::JobTooLarge { .. } => &mut self.job_too_large,
            AdmissionError::DeadlineImpossible { .. } => &mut self.deadline_impossible,
            AdmissionError::InvalidGraph { .. } => &mut self.invalid_graph,
            AdmissionError::UnknownTenant(_) => &mut self.unknown_tenant,
            AdmissionError::TooManyBoards { .. } => &mut self.too_many_boards,
        };
        *slot += 1;
    }

    pub fn total(&self) -> u64 {
        self.queue_full
            + self.job_too_large
            + self.deadline_impossible
            + self.invalid_graph
            + self.unknown_tenant
            + self.too_many_boards
    }
}

/// The tenants of one serving configuration, in report order: interned
/// ids plus a name lookup for handles whose index is missing or stale.
#[derive(Debug, Clone)]
pub(crate) struct TenantIndex {
    ids: Vec<TenantId>,
    lookup: HashMap<String, usize>,
}

impl TenantIndex {
    pub fn new(names: &[String]) -> Self {
        TenantIndex {
            ids: (0..)
                .zip(names)
                .map(|(i, t)| TenantId::new(i, t.as_str()))
                .collect(),
            lookup: (0..).zip(names).map(|(i, t)| (t.clone(), i)).collect(),
        }
    }

    pub fn ids(&self) -> &[TenantId] {
        &self.ids
    }

    /// Registration index of `tenant`: its own index when that names
    /// the same tenant here, else a lookup by name.
    pub fn resolve(&self, tenant: &TenantId) -> Option<usize> {
        let i = tenant.index() as usize;
        match self.ids.get(i) {
            Some(id) if id.name() == tenant.name() => Some(i),
            _ => self.lookup.get(tenant.name()).copied(),
        }
    }
}

/// One tenant's share of a [`Tallies`].
#[derive(Debug, Clone, Default)]
pub(crate) struct TenantTally {
    pub submitted: u64,
    pub rejected: u64,
    /// Latencies of completed (on-time or late) jobs.
    pub latencies: Vec<u64>,
    /// Late finishes + queue expiries.
    pub missed: u64,
}

impl TenantTally {
    fn report(&self, tenant: &TenantId) -> TenantReport {
        let completed = self.latencies.len() as u64;
        TenantReport {
            tenant: tenant.clone(),
            submitted: self.submitted,
            admitted: self.submitted - self.rejected,
            rejected: self.rejected,
            completed,
            deadline_missed: self.missed,
            p50_latency_ps: percentile_ps(&self.latencies, 50),
            p99_latency_ps: percentile_ps(&self.latencies, 99),
            mean_latency_ps: self.latencies.iter().sum::<u64>() / completed.max(1),
        }
    }
}

/// The counters a node keeps and a cluster folds into its report.
/// `ti` arguments are registration indices from a [`TenantIndex`]
/// (`None` for a tenant the configuration does not know).
#[derive(Debug, Clone)]
pub(crate) struct Tallies {
    pub submitted: u64,
    pub admitted: u64,
    pub rejections: RejectionCounts,
    pub completed: u64,
    pub completed_late: u64,
    pub timed_out: u64,
    /// Latest finish (or expiry) time of any recorded outcome.
    pub makespan_ps: u64,
    pub tenants: Vec<TenantTally>,
}

impl Tallies {
    pub fn new(tenants: usize) -> Self {
        Tallies {
            submitted: 0,
            admitted: 0,
            rejections: RejectionCounts::default(),
            completed: 0,
            completed_late: 0,
            timed_out: 0,
            makespan_ps: 0,
            tenants: vec![TenantTally::default(); tenants],
        }
    }

    pub fn submit(&mut self, ti: Option<usize>) {
        self.submitted += 1;
        if let Some(ti) = ti {
            self.tenants[ti].submitted += 1;
        }
    }

    pub fn reject(&mut self, ti: Option<usize>, err: &AdmissionError) {
        self.rejections.count(err);
        if let Some(ti) = ti {
            self.tenants[ti].rejected += 1;
        }
    }

    /// Count one terminal outcome.
    pub fn finish(&mut self, ti: Option<usize>, rec: &JobRecord) {
        self.makespan_ps = self.makespan_ps.max(rec.finish_ps);
        let counter = match rec.outcome {
            JobOutcome::Completed => &mut self.completed,
            JobOutcome::CompletedLate => &mut self.completed_late,
            JobOutcome::TimedOut => &mut self.timed_out,
        };
        *counter += 1;
        if let Some(ti) = ti {
            let t = &mut self.tenants[ti];
            if rec.outcome != JobOutcome::TimedOut {
                t.latencies.push(rec.latency_ps);
            }
            if rec.outcome != JobOutcome::Completed {
                t.missed += 1;
            }
        }
    }

    /// Add another tally's completion side (outcome counters, makespan,
    /// per-tenant latencies and misses). Percentiles sort and means are
    /// integer sums, so the merge order cannot change a report byte.
    pub fn merge_completions(&mut self, other: &Tallies) {
        self.completed += other.completed;
        self.completed_late += other.completed_late;
        self.timed_out += other.timed_out;
        self.makespan_ps = self.makespan_ps.max(other.makespan_ps);
        for (t, o) in self.tenants.iter_mut().zip(&other.tenants) {
            t.latencies.extend_from_slice(&o.latencies);
            t.missed += o.missed;
        }
    }

    /// One report row per tenant, in `index` order.
    pub fn tenant_reports(&self, index: &TenantIndex) -> Vec<TenantReport> {
        index
            .ids()
            .iter()
            .zip(&self.tenants)
            .map(|(id, t)| t.report(id))
            .collect()
    }

    /// Completed jobs (on time or late) per virtual second of makespan;
    /// 0 for an empty run.
    pub fn throughput_jobs_per_s(&self) -> f64 {
        if self.makespan_ps == 0 {
            return 0.0;
        }
        (self.completed + self.completed_late) as f64 / (self.makespan_ps as f64 * 1e-12)
    }
}

/// Everything one serve run produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    pub policy: PolicyKind,
    pub boards: usize,
    pub seed: u64,
    pub submitted: u64,
    pub admitted: u64,
    pub rejections: RejectionCounts,
    pub completed: u64,
    pub completed_late: u64,
    pub timed_out: u64,
    /// `completed_late + timed_out`.
    pub deadline_misses: u64,
    pub retries: u64,
    /// Board phases dispatched (a batch of n jobs is one phase).
    pub batches: u64,
    /// Virtual time of the last completion (or expiry).
    pub makespan_ps: u64,
    /// Completed jobs per virtual second (0 for an empty run).
    pub throughput_jobs_per_s: f64,
    /// Jain fairness index over per-tenant completion counts, in (0, 1];
    /// 1.0 = perfectly even service.
    pub fairness: f64,
    pub tenants: Vec<TenantReport>,
    /// Busy virtual time per board, by board index.
    pub board_busy_ps: Vec<u64>,
    /// Per-job records in completion/expiry order (the determinism
    /// witness: this order is part of the report equality).
    pub records: Vec<JobRecord>,
}

impl ServeReport {
    /// Jain fairness index over per-tenant completion counts: tenants
    /// that submitted nothing are excluded.
    pub fn jain_fairness(tenants: &[TenantReport]) -> f64 {
        let xs: Vec<u64> = tenants
            .iter()
            .filter(|t| t.submitted > 0)
            .map(|t| t.completed)
            .collect();
        if xs.is_empty() {
            return 1.0;
        }
        let sum: u64 = xs.iter().sum();
        if sum == 0 {
            return 1.0;
        }
        let sum_sq: u64 = xs.iter().map(|&x| x * x).sum();
        (sum as f64 * sum as f64) / (xs.len() as f64 * sum_sq as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(tenant: &str, outcome: JobOutcome, latency_ps: u64) -> JobRecord {
        JobRecord {
            id: 0,
            tenant: tenant.into(),
            arch: "Arch1".into(),
            side: 16,
            board: Some(0),
            outcome,
            submit_ps: 0,
            finish_ps: latency_ps,
            latency_ps,
            retries: 0,
        }
    }

    fn index() -> TenantIndex {
        TenantIndex::new(&["a".into(), "b".into()])
    }

    /// `counts[i]` completed jobs of latency 1 for tenant `i`.
    fn completions(counts: [u64; 2]) -> Tallies {
        let mut t = Tallies::new(2);
        for (ti, &n) in counts.iter().enumerate() {
            for _ in 0..n {
                t.submit(Some(ti));
                t.finish(Some(ti), &record("", JobOutcome::Completed, 1));
            }
        }
        t
    }

    #[test]
    fn tallies_fold_outcomes() {
        let mut t = Tallies::new(2);
        for _ in 0..4 {
            t.submit(Some(0));
        }
        t.submit(Some(1));
        t.reject(
            Some(0),
            &AdmissionError::QueueFull {
                tenant: "a".into(),
                depth: 1,
            },
        );
        t.finish(Some(0), &record("a", JobOutcome::Completed, 100));
        t.finish(Some(0), &record("a", JobOutcome::CompletedLate, 300));
        t.finish(Some(0), &record("a", JobOutcome::TimedOut, 50));
        t.finish(Some(1), &record("b", JobOutcome::Completed, 200));
        let rows = t.tenant_reports(&index());
        assert_eq!(rows[0].completed, 2, "late still counts as completed");
        assert_eq!(rows[0].deadline_missed, 2, "late + timed out");
        assert_eq!(rows[0].admitted, 3);
        assert_eq!(rows[0].p50_latency_ps, 100);
        assert_eq!(rows[0].p99_latency_ps, 300);
        assert_eq!(rows[0].mean_latency_ps, 200);
        assert_eq!(rows[1].completed, 1);
        assert_eq!(rows[1].deadline_missed, 0);
        assert_eq!(t.rejections.queue_full, 1);
        assert_eq!((t.completed, t.completed_late, t.timed_out), (2, 1, 1));
        assert_eq!(t.makespan_ps, 300);
    }

    #[test]
    fn merging_completions_is_order_independent() {
        let mut x = Tallies::new(2);
        x.finish(Some(0), &record("a", JobOutcome::Completed, 500));
        x.finish(Some(1), &record("b", JobOutcome::TimedOut, 70));
        let mut y = Tallies::new(2);
        y.finish(Some(0), &record("a", JobOutcome::CompletedLate, 20));
        let mut xy = Tallies::new(2);
        xy.merge_completions(&x);
        xy.merge_completions(&y);
        let mut yx = Tallies::new(2);
        yx.merge_completions(&y);
        yx.merge_completions(&x);
        assert_eq!(xy.tenant_reports(&index()), yx.tenant_reports(&index()));
        assert_eq!(xy.makespan_ps, 500);
        assert_eq!((xy.completed, xy.completed_late, xy.timed_out), (1, 1, 1));
    }

    #[test]
    fn tenant_index_resolves_by_index_then_name() {
        let idx = index();
        assert_eq!(idx.resolve(&TenantId::new(1, "b")), Some(1));
        assert_eq!(idx.resolve(&TenantId::unresolved("b")), Some(1));
        assert_eq!(idx.resolve(&TenantId::new(0, "b")), Some(1), "stale index");
        assert_eq!(idx.resolve(&TenantId::unresolved("c")), None);
    }

    #[test]
    fn jain_index_bounds() {
        let even = completions([2, 2]).tenant_reports(&index());
        assert_eq!(ServeReport::jain_fairness(&even), 1.0);
        let mut skewed = completions([4, 0]);
        for _ in 0..4 {
            skewed.submit(Some(1));
        }
        let j = ServeReport::jain_fairness(&skewed.tenant_reports(&index()));
        assert!(j < 0.6 && j > 0.0, "one-sided service: {j}");
        assert_eq!(ServeReport::jain_fairness(&[]), 1.0);
    }
}
