//! Deterministic N-node serving cluster.
//!
//! A [`ClusterSession`] composes N embeddable [`ServeNode`]s — each
//! owning its own board pool and admission queues — under **one**
//! integer-picosecond calendar with the total event order
//! `(ps, node, rank, seq)`. Jobs route to their consistent-hash home
//! ([`crate::routing::HashRing`]), cross the modeled network
//! ([`crate::net::NetModel`]) on every inter-node hop, and flow between
//! nodes three ways:
//!
//! * **load shedding** — a job whose home queue is full is forwarded
//!   once to the least-loaded alive peer; a second full queue drops it
//!   (terminal `Shed`);
//! * **work stealing** — an alive node with an idle board, empty queues
//!   and nothing already in flight toward it steals the newest job from
//!   the back of the most-loaded peer's longest queue;
//! * **failure re-dispatch** — killing a node orphans its queued and
//!   in-flight jobs; each is re-dispatched (bounded by
//!   `max_redispatch`) to the ring successor, or counted `Failed` when
//!   the budget or the cluster is exhausted.
//!
//! Determinism follows the PR 4 argument unchanged: the only parallel
//! stage is the pure, slot-ordered latency precompute (shared by all
//! nodes via [`SimTables`]); the event loop is sequential over a total
//! order no host thread can perturb. The same `(workload, config)`
//! yields a byte-identical [`ClusterReport`] for any `--threads`.
//!
//! **Accounting invariant** (pinned by [`ClusterReport::accounting_ok`]
//! and the cluster test suite): every submitted job reaches exactly one
//! terminal state —
//!
//! ```text
//! submitted == admitted + rejected + shed
//! admitted  == completed + completed_late + timed_out + failed
//! ```

use crate::job::{AdmissionError, JobOutcome, JobSpec};
use crate::net::NetModel;
use crate::node::{Admit, ServeNode, SimTables};
use crate::policy::PolicyKind;
use crate::queue::ActiveJob;
use crate::report::{RejectionCounts, ServeReport, Tallies, TenantIndex, TenantReport};
use crate::routing::HashRing;
use crate::scheduler::{ServeConfig, ServeError};
use accelsoc_observe::{FlowEvent, FlowObserver, TenantId};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::Arc;

/// Kill node `node` at virtual time `at_ps`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeFailure {
    pub node: usize,
    pub at_ps: u64,
}

/// Knobs of one cluster run: per-node [`ServeConfig`]s plus the
/// cluster-level routing/stealing/failure model.
///
/// `#[non_exhaustive]`: construct with [`ClusterConfig::builder`].
#[non_exhaustive]
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// One [`ServeConfig`] per node. All nodes must share the tenant
    /// set, DRAM capacity and dispatch overhead (validated by the
    /// builder); boards, queue depth and even policy may differ.
    pub nodes: Vec<ServeConfig>,
    pub net: NetModel,
    /// Enable work-stealing between nodes.
    pub steal: bool,
    /// Enable shed-forwarding of queue-full jobs (one hop).
    pub shed: bool,
    /// Failure injections, applied in calendar order.
    pub failures: Vec<NodeFailure>,
    /// Re-dispatches allowed per job before it counts as `Failed`.
    pub max_redispatch: u32,
    /// Host threads for the shared latency precompute (no effect on
    /// results).
    pub threads: usize,
    /// Workload seed, stamped into the report.
    pub seed: u64,
    /// Keep the per-job [`ClusterJobRecord`] ledger (and per-node
    /// records). Off by default — million-job sweeps want aggregates.
    pub keep_records: bool,
}

impl ClusterConfig {
    pub fn builder() -> ClusterConfigBuilder {
        ClusterConfigBuilder {
            cfg: ClusterConfig {
                nodes: Vec::new(),
                net: NetModel::default(),
                steal: true,
                shed: true,
                failures: Vec::new(),
                max_redispatch: 1,
                threads: 1,
                seed: 0,
                keep_records: false,
            },
        }
    }

    /// Check that the configuration describes a runnable cluster.
    /// [`ClusterConfigBuilder::build`] calls this, and so does
    /// [`ClusterSession::run`], because the fields stay public after
    /// `build`.
    pub fn validate(&self) -> Result<(), ClusterConfigError> {
        let Some(first) = self.nodes.first() else {
            return Err(ClusterConfigError::NoNodes);
        };
        for (i, n) in self.nodes.iter().enumerate() {
            if n.boards == 0 {
                return Err(ClusterConfigError::NoBoards { node: i });
            }
            if n.tenants != first.tenants {
                return Err(ClusterConfigError::TenantMismatch { node: i });
            }
            if n.app.dram_bytes != first.app.dram_bytes
                || n.app.stream_fifo_depth != first.app.stream_fifo_depth
                || n.dispatch_overhead_ps != first.dispatch_overhead_ps
            {
                return Err(ClusterConfigError::BoardModelMismatch { node: i });
            }
        }
        match self.failures.iter().find(|f| f.node >= self.nodes.len()) {
            Some(f) => Err(ClusterConfigError::BadFailureNode {
                node: f.node,
                nodes: self.nodes.len(),
            }),
            None => Ok(()),
        }
    }
}

/// A [`ClusterConfig`] that cannot describe a runnable cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterConfigError {
    /// The cluster has no nodes.
    NoNodes,
    /// Node `node` has an empty board pool.
    NoBoards { node: usize },
    /// Node `node`'s tenant list differs from node 0's — routing is
    /// cluster-wide, so every node must know every tenant.
    TenantMismatch { node: usize },
    /// Node `node`'s board DRAM / FIFO knobs or dispatch overhead
    /// differ from node 0's — the shared latency tables assume one
    /// board model.
    BoardModelMismatch { node: usize },
    /// A failure injection names a node outside the cluster.
    BadFailureNode { node: usize, nodes: usize },
}

impl fmt::Display for ClusterConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterConfigError::NoNodes => write!(f, "cluster needs at least one node"),
            ClusterConfigError::NoBoards { node } => {
                write!(f, "node {node} needs at least one board")
            }
            ClusterConfigError::TenantMismatch { node } => {
                write!(f, "node {node} has a different tenant list than node 0")
            }
            ClusterConfigError::BoardModelMismatch { node } => {
                write!(f, "node {node} has a different board model than node 0")
            }
            ClusterConfigError::BadFailureNode { node, nodes } => {
                write!(
                    f,
                    "failure injection names node {node}, cluster has {nodes}"
                )
            }
        }
    }
}

impl std::error::Error for ClusterConfigError {}

/// Chained-setter builder for [`ClusterConfig`]; `build` validates.
#[derive(Debug, Clone)]
pub struct ClusterConfigBuilder {
    cfg: ClusterConfig,
}

impl ClusterConfigBuilder {
    /// Append one node.
    pub fn node(mut self, cfg: ServeConfig) -> Self {
        self.cfg.nodes.push(cfg);
        self
    }

    /// Replace the node list with `n` copies of `template`.
    pub fn nodes(mut self, n: usize, template: &ServeConfig) -> Self {
        self.cfg.nodes = (0..n).map(|_| template.clone()).collect();
        self
    }

    pub fn net(mut self, net: NetModel) -> Self {
        self.cfg.net = net;
        self
    }

    pub fn steal(mut self, on: bool) -> Self {
        self.cfg.steal = on;
        self
    }

    pub fn shed(mut self, on: bool) -> Self {
        self.cfg.shed = on;
        self
    }

    /// Inject a node failure at `at_ps`.
    pub fn fail_node(mut self, node: usize, at_ps: u64) -> Self {
        self.cfg.failures.push(NodeFailure { node, at_ps });
        self
    }

    pub fn max_redispatch(mut self, n: u32) -> Self {
        self.cfg.max_redispatch = n;
        self
    }

    pub fn threads(mut self, threads: usize) -> Self {
        self.cfg.threads = threads;
        self
    }

    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    pub fn keep_records(mut self, keep: bool) -> Self {
        self.cfg.keep_records = keep;
        self
    }

    pub fn build(self) -> Result<ClusterConfig, ClusterConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

impl From<JobOutcome> for ClusterOutcome {
    fn from(outcome: JobOutcome) -> Self {
        match outcome {
            JobOutcome::Completed => ClusterOutcome::Completed,
            JobOutcome::CompletedLate => ClusterOutcome::CompletedLate,
            JobOutcome::TimedOut => ClusterOutcome::TimedOut,
        }
    }
}

/// Terminal state of one job, cluster-wide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClusterOutcome {
    Completed,
    CompletedLate,
    TimedOut,
    Rejected,
    Shed,
    Failed,
}

/// One ledger entry: where and how a job reached its terminal state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterJobRecord {
    pub id: u64,
    pub tenant: TenantId,
    /// Node of the terminal event (`None` when the whole cluster was
    /// dead at arrival).
    pub node: Option<usize>,
    pub outcome: ClusterOutcome,
    pub finish_ps: u64,
}

/// Everything one cluster run produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterReport {
    pub policy: PolicyKind,
    pub seed: u64,
    pub nodes: usize,
    pub submitted: u64,
    pub admitted: u64,
    /// Terminal admission rejections (shed-reclassified queue-fulls are
    /// *not* counted here).
    pub rejected: u64,
    /// Dropped by load shedding before admission.
    pub shed: u64,
    pub completed: u64,
    pub completed_late: u64,
    pub timed_out: u64,
    /// Admitted jobs lost to node failure (budget or cluster exhausted).
    pub failed: u64,
    /// Pre-admission forwards between nodes (shed hops + dead-home
    /// re-routes).
    pub forwarded: u64,
    pub stolen: u64,
    pub redispatched: u64,
    pub node_failures: u64,
    /// Typed breakdown of the terminal `rejected` counter.
    pub rejections: RejectionCounts,
    pub makespan_ps: u64,
    pub throughput_jobs_per_s: f64,
    /// Jain fairness over per-tenant completion counts.
    pub fairness: f64,
    /// Cluster-wide per-tenant rows (shed jobs count into `rejected`).
    pub tenants: Vec<TenantReport>,
    /// Each node's local view, in node order ([`ServeNode`] reports;
    /// transfers in/out are cluster-accounted, not node-accounted).
    pub per_node: Vec<ServeReport>,
    /// Per-job terminal ledger in event order (only when
    /// `keep_records`).
    pub records: Vec<ClusterJobRecord>,
}

impl ClusterReport {
    /// The job-accounting invariant: every submitted job reached
    /// exactly one terminal state.
    pub fn accounting_ok(&self) -> bool {
        self.submitted == self.admitted + self.rejected + self.shed
            && self.admitted == self.completed + self.completed_late + self.timed_out + self.failed
    }
}

/// Calendar ranks within one `(ps, node)` instant: board completions
/// free capacity first, failures strike before new work lands, then
/// client arrivals, then inter-node deliveries.
const RANK_BATCH_DONE: u8 = 0;
const RANK_FAIL: u8 = 1;
const RANK_ARRIVE: u8 = 2;
const RANK_DELIVER: u8 = 3;

/// Calendar key: the total event order `(ps, node, rank, seq)`.
type Key = (u64, u32, u8, u64);

/// A calendar entry ordered by `key` alone — the payload never
/// participates in the comparison, so the heap stays cheap while
/// preserving the total key order.
struct Scheduled {
    key: Key,
    ev: CEv,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for Scheduled {}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

enum DeliverKind {
    /// Pre-admission forward of job index `idx` (a shed bounce or a
    /// dead-home re-route); a full queue at its destination is terminal.
    Forward { idx: u32 },
    /// A stolen job in transit to its thief.
    Steal(Box<ActiveJob>),
    /// A failure-orphaned job in transit to a survivor.
    Redispatch(Box<ActiveJob>),
}

enum CEv {
    BatchDone { node: u32, board: u32 },
    Fail { node: u32 },
    Deliver { node: u32, kind: DeliverKind },
}

/// One configured cluster: the entry point for running job streams
/// against N serve nodes. See the [module docs](self).
pub struct ClusterSession {
    cfg: ClusterConfig,
}

impl ClusterSession {
    pub fn new(cfg: ClusterConfig) -> Self {
        ClusterSession { cfg }
    }

    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Run the cluster over an arrival-ordered job stream.
    pub fn run(
        &self,
        jobs: &[JobSpec],
        observer: &dyn FlowObserver,
    ) -> Result<ClusterReport, ServeError> {
        let cfg = &self.cfg;
        cfg.validate()?;
        let n_nodes = cfg.nodes.len();

        // Shared precompute: one table set for every node (node 0's
        // board model — `validate` checked homogeneity).
        let tables = Arc::new(SimTables::build(jobs, &cfg.nodes[0], cfg.threads)?);
        let nodes: Vec<ServeNode> = cfg
            .nodes
            .iter()
            .enumerate()
            .map(|(i, node_cfg)| {
                let mut node_cfg = node_cfg.clone();
                node_cfg.seed = cfg.seed;
                node_cfg.keep_records = cfg.keep_records;
                ServeNode::new(i, node_cfg, Arc::clone(&tables))
            })
            .collect();
        let ring = HashRing::new(n_nodes);

        // Arrivals stay out of the heap: indices pre-sorted by the full
        // calendar key keep a million-job calendar at O(live events).
        let home: Vec<u32> = jobs.iter().map(|j| ring.home(&j.tenant) as u32).collect();
        let arrive_key = |i: usize| -> Key {
            (
                jobs[i].submit_ps + cfg.net.ingress_ps,
                home[i],
                RANK_ARRIVE,
                i as u64,
            )
        };
        let mut order: Vec<u32> = (0..jobs.len() as u32).collect();
        order.sort_unstable_by_key(|&i| arrive_key(i as usize));

        let mut run = Run {
            cfg,
            jobs,
            observer,
            ring,
            tenants: TenantIndex::new(&cfg.nodes[0].tenants),
            tally: Tallies::new(cfg.nodes[0].tenants.len()),
            records_seen: vec![0; n_nodes],
            nodes,
            alive: vec![true; n_nodes],
            alive_count: n_nodes,
            heap: BinaryHeap::new(),
            next_seq: jobs.len() as u64,
            counts: ClusterCounts::default(),
            records: Vec::new(),
        };
        for f in &cfg.failures {
            let node = f.node as u32;
            run.schedule((f.at_ps, node, RANK_FAIL), CEv::Fail { node });
        }

        let mut cursor = 0usize;
        let mut sched_buf: Vec<(usize, u64)> = Vec::new();
        loop {
            // Merge the arrival cursor with the live-event heap on the
            // total key order.
            let next_arrival = order.get(cursor).map(|&i| arrive_key(i as usize));
            let take_arrival = match (next_arrival, run.heap.peek()) {
                (Some(a), Some(Reverse(s))) => a < s.key,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let (now_ps, touched) = if take_arrival {
                let i = order[cursor] as usize;
                cursor += 1;
                let now_ps = arrive_key(i).0;
                (now_ps, run.arrive(i, home[i] as usize, now_ps))
            } else {
                let Reverse(Scheduled { key, ev }) = run.heap.pop().expect("peeked above");
                (key.0, run.handle(ev, key.0))
            };
            // Service the node this event touched: dispatch freed
            // capacity and copy its new outcomes into the ledger.
            if let Some(id) = touched {
                run.service(id, now_ps, &mut sched_buf);
            }
            if cfg.steal && run.alive_count >= 2 {
                run.steal_scan(now_ps);
            }
        }
        Ok(run.into_report())
    }
}

/// Cluster-level counters with no node-side counterpart.
#[derive(Default)]
struct ClusterCounts {
    shed: u64,
    failed: u64,
    forwarded: u64,
    stolen: u64,
    redispatched: u64,
    node_failures: u64,
}

/// The mutable state of one cluster run; the event handlers are its
/// methods.
struct Run<'a> {
    cfg: &'a ClusterConfig,
    jobs: &'a [JobSpec],
    observer: &'a dyn FlowObserver,
    ring: HashRing,
    nodes: Vec<ServeNode>,
    alive: Vec<bool>,
    alive_count: usize,
    heap: BinaryHeap<Reverse<Scheduled>>,
    next_seq: u64,
    tenants: TenantIndex,
    /// Admission side, counted cluster-wide: a queue-full at the end of
    /// a forward is a node rejection but a cluster `Shed`. The
    /// completion side is merged from the nodes at the end of the run.
    tally: Tallies,
    counts: ClusterCounts,
    /// Per node, how many of its records the ledger already holds.
    records_seen: Vec<usize>,
    records: Vec<ClusterJobRecord>,
}

impl<'a> Run<'a> {
    /// The job stream, borrowed for the run rather than from `self`.
    fn jobs(&self) -> &'a [JobSpec] {
        self.jobs
    }

    /// Push `ev` at `(ps, node, rank)`; the sequence number breaks ties.
    fn schedule(&mut self, (ps, node, rank): (u64, u32, u8), ev: CEv) {
        self.heap.push(Reverse(Scheduled {
            key: (ps, node, rank, self.next_seq),
            ev,
        }));
        self.next_seq += 1;
    }

    /// Put a job on the wire to `node`, landing at `at_ps`.
    fn send(&mut self, node: usize, at_ps: u64, kind: DeliverKind) {
        self.nodes[node].pending_incoming += 1;
        let node = node as u32;
        self.schedule((at_ps, node, RANK_DELIVER), CEv::Deliver { node, kind });
    }

    fn ledger(
        &mut self,
        id: u64,
        tenant: &TenantId,
        node: Option<usize>,
        outcome: ClusterOutcome,
        finish_ps: u64,
    ) {
        if self.cfg.keep_records {
            self.records.push(ClusterJobRecord {
                id,
                tenant: tenant.clone(),
                node,
                outcome,
                finish_ps,
            });
        }
    }

    /// Client arrival of job `idx` at its home node. Returns the node to
    /// service.
    fn arrive(&mut self, idx: usize, home: usize, now_ps: u64) -> Option<usize> {
        self.tally
            .submit(self.tenants.resolve(&self.jobs[idx].tenant));
        if self.alive[home] {
            self.deliver(home, idx, false, now_ps);
            Some(home)
        } else {
            self.forward_or_shed(home, idx, now_ps);
            None
        }
    }

    /// Apply one calendar event. Returns the node to service.
    fn handle(&mut self, ev: CEv, now_ps: u64) -> Option<usize> {
        match ev {
            CEv::BatchDone { node, board } => {
                let node = node as usize;
                if !self.alive[node] {
                    return None;
                }
                self.nodes[node].batch_done(board as usize, self.observer);
                Some(node)
            }
            CEv::Fail { node } => {
                let node = node as usize;
                if self.alive[node] {
                    self.alive[node] = false;
                    self.alive_count -= 1;
                    self.counts.node_failures += 1;
                    for job in self.nodes[node].fail(now_ps, self.observer) {
                        self.redispatch(node, job, now_ps);
                    }
                }
                None
            }
            CEv::Deliver { node, kind } => {
                let node = node as usize;
                self.nodes[node].pending_incoming -= 1;
                match kind {
                    DeliverKind::Forward { idx } if self.alive[node] => {
                        self.deliver(node, idx as usize, true, now_ps);
                        Some(node)
                    }
                    DeliverKind::Forward { idx } => {
                        self.forward_or_shed(node, idx as usize, now_ps);
                        None
                    }
                    // The receiver died mid-transfer: the job is
                    // orphaned again.
                    DeliverKind::Steal(job) | DeliverKind::Redispatch(job) if !self.alive[node] => {
                        self.redispatch(node, *job, now_ps);
                        None
                    }
                    DeliverKind::Steal(job) => {
                        self.nodes[node].transfer_in(*job, false);
                        Some(node)
                    }
                    DeliverKind::Redispatch(job) => {
                        self.nodes[node].transfer_in(*job, true);
                        Some(node)
                    }
                }
            }
        }
    }

    /// Deliver job `idx` to `node`'s admission control. A client
    /// arrival may bounce a queue-full job to the least-loaded peer; a
    /// forwarded job that finds a full queue is terminally `Shed`.
    fn deliver(&mut self, node: usize, idx: usize, forwarded: bool, now_ps: u64) {
        let job = &self.jobs()[idx];
        let probe = self.cfg.shed && !forwarded && self.alive_count >= 2;
        match self.nodes[node].admit(job, now_ps, probe, self.observer) {
            Admit::Queued(_) => self.tally.admitted += 1,
            Admit::Rejected(AdmissionError::QueueFull { .. }) if forwarded => {
                self.shed(idx, node, Some(node), now_ps)
            }
            Admit::Rejected(err) => {
                self.tally.reject(self.tenants.resolve(&job.tenant), &err);
                self.ledger(
                    job.id,
                    &job.tenant,
                    Some(node),
                    ClusterOutcome::Rejected,
                    now_ps,
                );
            }
            Admit::WouldOverflow => {
                // Least-loaded alive peer (queued + inbound, id as
                // tie-break) takes the bounce.
                let nodes = &self.nodes;
                let target = (0..nodes.len())
                    .filter(|&v| v != node && self.alive[v])
                    .min_by_key(|&v| {
                        (
                            nodes[v].queued_total() + nodes[v].pending_incoming as usize,
                            v,
                        )
                    })
                    .expect("alive_count >= 2 checked by probe");
                self.forward(idx, node, target, now_ps);
            }
        }
    }

    /// Forward job `idx` from `from` to `to` before admission.
    fn forward(&mut self, idx: usize, from: usize, to: usize, now_ps: u64) {
        let job = &self.jobs()[idx];
        self.counts.forwarded += 1;
        self.observer.on_event(&FlowEvent::JobForwarded {
            job: job.id,
            tenant: job.tenant.clone(),
            from_node: from,
            to_node: to,
        });
        let at_ps = now_ps + self.cfg.net.forward_ps;
        self.send(to, at_ps, DeliverKind::Forward { idx: idx as u32 });
    }

    /// Job `idx` reached dead node `from` before admission: re-route it
    /// along the ring, or shed it when the whole cluster is dead.
    fn forward_or_shed(&mut self, from: usize, idx: usize, now_ps: u64) {
        match self.ring.successor(from, &self.alive) {
            Some(to) => self.forward(idx, from, to, now_ps),
            None => self.shed(idx, from, None, now_ps),
        }
    }

    /// Drop job `idx` unadmitted at `node`; `ledger_node` is `None` when
    /// no node could take it.
    fn shed(&mut self, idx: usize, node: usize, ledger_node: Option<usize>, now_ps: u64) {
        let job = &self.jobs()[idx];
        self.counts.shed += 1;
        self.observer.on_event(&FlowEvent::JobShed {
            job: job.id,
            tenant: job.tenant.clone(),
            node,
        });
        self.ledger(
            job.id,
            &job.tenant,
            ledger_node,
            ClusterOutcome::Shed,
            now_ps,
        );
    }

    /// Re-dispatch a failure-orphaned job, or count it `Failed` when
    /// the budget or the cluster is exhausted.
    fn redispatch(&mut self, from_node: usize, mut job: ActiveJob, now_ps: u64) {
        job.redispatches += 1;
        let target = if job.redispatches > self.cfg.max_redispatch {
            None
        } else {
            self.ring.route(&job.spec.tenant, &self.alive)
        };
        let Some(to) = target else {
            self.counts.failed += 1;
            self.observer.on_event(&FlowEvent::JobFailed {
                job: job.spec.id,
                tenant: job.spec.tenant.clone(),
                node: from_node,
            });
            self.ledger(
                job.spec.id,
                &job.spec.tenant,
                Some(from_node),
                ClusterOutcome::Failed,
                now_ps,
            );
            return;
        };
        self.counts.redispatched += 1;
        self.observer.on_event(&FlowEvent::JobRedispatched {
            job: job.spec.id,
            tenant: job.spec.tenant.clone(),
            from_node,
            to_node: to,
        });
        let at_ps = now_ps + self.cfg.net.redispatch_ps;
        self.send(to, at_ps, DeliverKind::Redispatch(Box::new(job)));
    }

    /// Dispatch freed capacity on (alive) node `id`, then copy its new
    /// outcomes into the ledger.
    fn service(&mut self, id: usize, now_ps: u64, sched_buf: &mut Vec<(usize, u64)>) {
        self.nodes[id].dispatch(now_ps, self.observer, sched_buf);
        for (board, done_ps) in sched_buf.drain(..) {
            let (node, board) = (id as u32, board as u32);
            self.schedule(
                (done_ps, node, RANK_BATCH_DONE),
                CEv::BatchDone { node, board },
            );
        }
        if self.cfg.keep_records {
            let new = &self.nodes[id].records()[self.records_seen[id]..];
            self.records_seen[id] += new.len();
            self.records.extend(new.iter().map(|rec| ClusterJobRecord {
                id: rec.id,
                tenant: rec.tenant.clone(),
                node: Some(id),
                outcome: rec.outcome.into(),
                finish_ps: rec.finish_ps,
            }));
        }
    }

    /// Work-stealing scan: idle, empty, nothing inbound → steal the
    /// newest job from the most-loaded alive peer.
    fn steal_scan(&mut self, now_ps: u64) {
        let n_nodes = self.nodes.len();
        for thief in 0..n_nodes {
            let t = &self.nodes[thief];
            if !self.alive[thief]
                || t.pending_incoming > 0
                || t.idle_boards() == 0
                || t.queued_total() > 0
            {
                continue;
            }
            let mut victim: Option<(usize, usize)> = None; // (queued, id)
            for v in 0..n_nodes {
                if v == thief || !self.alive[v] {
                    continue;
                }
                let q = self.nodes[v].queued_total();
                if q > victim.map_or(0, |(q, _)| q) {
                    victim = Some((q, v));
                }
            }
            let Some((_, v)) = victim else { continue };
            let Some(job) = self.nodes[v].steal_out() else {
                continue;
            };
            self.counts.stolen += 1;
            self.observer.on_event(&FlowEvent::JobStolen {
                job: job.spec.id,
                tenant: job.spec.tenant.clone(),
                from_node: v,
                to_node: thief,
            });
            let at_ps = now_ps + self.cfg.net.steal_ps;
            self.send(thief, at_ps, DeliverKind::Steal(Box::new(job)));
        }
    }

    /// Merge the nodes' completion tallies into the cluster's and fold
    /// everything into the report.
    fn into_report(self) -> ClusterReport {
        let Run {
            cfg,
            nodes,
            tenants,
            mut tally,
            counts,
            records,
            ..
        } = self;
        for node in &nodes {
            tally.merge_completions(&node.tally);
        }
        let rows = tally.tenant_reports(&tenants);
        ClusterReport {
            policy: cfg.nodes[0].policy,
            seed: cfg.seed,
            nodes: nodes.len(),
            submitted: tally.submitted,
            admitted: tally.admitted,
            rejected: tally.rejections.total(),
            shed: counts.shed,
            completed: tally.completed,
            completed_late: tally.completed_late,
            timed_out: tally.timed_out,
            failed: counts.failed,
            forwarded: counts.forwarded,
            stolen: counts.stolen,
            redispatched: counts.redispatched,
            node_failures: counts.node_failures,
            makespan_ps: tally.makespan_ps,
            throughput_jobs_per_s: tally.throughput_jobs_per_s(),
            rejections: tally.rejections,
            fairness: ServeReport::jain_fairness(&rows),
            tenants: rows,
            per_node: nodes.into_iter().map(ServeNode::into_report).collect(),
            records,
        }
    }
}
