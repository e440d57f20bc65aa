//! The partitioning vocabulary: what a multi-board cut of an HTG looks
//! like, and the invariants every plan must satisfy.

use accelsoc_hls::resource::ResourceEstimate;
use accelsoc_htg::graph::Htg;
use accelsoc_integration::device::Device;
use accelsoc_platform::multiboard::{MbLink, MbNode, MultiBoardSpec};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// One board of the plan: which top-level nodes it hosts and what they
/// cost. `area` includes the per-board infrastructure overhead (DMA +
/// interconnects) the packer was configured with.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoardAssignment {
    pub board: usize,
    /// Node names hosted on this board, in topological order.
    pub nodes: Vec<String>,
    /// Aggregate PL area, infrastructure included.
    pub area: ResourceEstimate,
    /// Utilisation fraction of the binding dimension on the target part.
    pub utilization: f64,
}

/// A modeled inter-board stream link: one cut edge compiled into a
/// tx endpoint on the source board and an rx endpoint on the destination
/// board, joined by a serial wire with a bounded FIFO at the receiver.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoardLink {
    /// Dense link id — doubles as the deterministic arbitration tie-break.
    pub id: usize,
    pub src_board: usize,
    pub dst_board: usize,
    /// Names of the cut edge's endpoints in the HTG.
    pub src_node: String,
    pub dst_node: String,
    /// Payload bytes the cut edge moves per activation.
    pub bytes: u64,
    /// Serialization width of the physical link in bits per word.
    pub width_bits: u32,
    /// Time to put one word on the wire, in integer picoseconds.
    pub word_ps: u64,
    /// Flight latency of the wire, in integer picoseconds.
    pub latency_ps: u64,
    /// Bounded receive-FIFO depth in words.
    pub fifo_depth: usize,
}

impl BoardLink {
    /// Payload words per activation at the link's serialization width.
    pub fn words(&self) -> u64 {
        let word_bytes = u64::from(self.width_bits.div_ceil(8)).max(1);
        self.bytes.div_ceil(word_bytes).max(1)
    }
}

/// A complete multi-board cut: per-board subgraphs plus the links that
/// stitch the cut edges back together.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoardPlan {
    pub part: String,
    pub boards: Vec<BoardAssignment>,
    pub links: Vec<BoardLink>,
    /// Total payload bytes crossing board boundaries.
    pub cut_bytes: u64,
    /// Seed the refinement sweep ran with (provenance).
    pub seed: u64,
}

impl BoardPlan {
    pub fn board_count(&self) -> usize {
        self.boards.len()
    }

    pub fn cut_edges(&self) -> usize {
        self.links.len()
    }

    /// Which board hosts `node`, if any.
    pub fn board_of(&self, node: &str) -> Option<usize> {
        self.boards
            .iter()
            .find(|b| b.nodes.iter().any(|n| n == node))
            .map(|b| b.board)
    }

    /// Check every plan invariant against the graph it was cut from:
    ///
    /// 1. every HTG node appears in **exactly one** board subgraph (and
    ///    no board names an unknown node);
    /// 2. no board overflows the device capacity;
    /// 3. cut edges and links correspond **one-to-one**: every edge whose
    ///    endpoints land on different boards has exactly one link with
    ///    matching endpoints and board ids, and there are no extra links
    ///    (parallel edges between the same pair each get their own link);
    /// 4. every edge runs forward in board order (`board(src) <=
    ///    board(dst)`), so the board-level quotient graph is acyclic.
    pub fn validate(&self, htg: &Htg, device: &Device) -> Result<(), PlanError> {
        let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
        for b in &self.boards {
            for node in &b.nodes {
                if htg.lookup(node).is_none() {
                    return Err(PlanError::UnknownNode(node.clone()));
                }
                if seen.insert(node.as_str(), b.board).is_some() {
                    return Err(PlanError::NodeOnMultipleBoards(node.clone()));
                }
            }
            if !b.area.fits_in(&device.capacity) {
                return Err(PlanError::BoardOverflow {
                    board: b.board,
                    area: b.area,
                    capacity: device.capacity,
                });
            }
        }
        for id in htg.node_ids() {
            if !seen.contains_key(htg.name(id)) {
                return Err(PlanError::NodeUnassigned(htg.name(id).to_string()));
            }
        }
        // Cut edges ↔ links, one-to-one, and forward board order. The
        // HTG is a multigraph, so parallel cut edges between the same
        // node pair are matched by multiplicity, not presence.
        let mut expected: BTreeMap<(usize, usize, &str, &str), usize> = BTreeMap::new();
        let mut cut_edges = 0usize;
        for e in htg.edges() {
            let (sn, dn) = (htg.name(e.src), htg.name(e.dst));
            let (sb, db) = (seen[sn], seen[dn]);
            if sb > db {
                return Err(PlanError::BackwardEdge {
                    src: sn.to_string(),
                    dst: dn.to_string(),
                });
            }
            if sb != db {
                *expected.entry((sb, db, sn, dn)).or_default() += 1;
                cut_edges += 1;
            }
        }
        if cut_edges != self.links.len() {
            return Err(PlanError::LinkCountMismatch {
                cut_edges,
                links: self.links.len(),
            });
        }
        for ((sb, db, sn, dn), want) in expected {
            let matching = self
                .links
                .iter()
                .filter(|l| {
                    l.src_board == sb && l.dst_board == db && l.src_node == sn && l.dst_node == dn
                })
                .count();
            if matching != want {
                return Err(PlanError::LinkMismatch {
                    src: sn.to_string(),
                    dst: dn.to_string(),
                    matching,
                });
            }
        }
        Ok(())
    }
}

/// Lower a validated plan + per-node compute times into the platform's
/// board-neutral co-simulation spec. A node missing from `compute_ps`
/// computes for 0 ps.
pub(crate) fn lower_spec(
    htg: &Htg,
    plan: &BoardPlan,
    compute_ps: &BTreeMap<String, u64>,
) -> MultiBoardSpec {
    let nodes: Vec<MbNode> = htg
        .node_ids()
        .map(|id| {
            let name = htg.name(id);
            MbNode {
                name: name.to_string(),
                board: plan.board_of(name).expect("plan covers every node"),
                compute_ps: compute_ps.get(name).copied().unwrap_or(0),
            }
        })
        .collect();
    let edges: Vec<(usize, usize)> = htg
        .edges()
        .iter()
        .map(|e| (e.src.0 as usize, e.dst.0 as usize))
        .collect();
    let links: Vec<MbLink> = plan
        .links
        .iter()
        .map(|l| MbLink {
            id: l.id,
            src: htg.lookup(&l.src_node).expect("link endpoints exist").0 as usize,
            dst: htg.lookup(&l.dst_node).expect("link endpoints exist").0 as usize,
            words: l.words(),
            width_bits: l.width_bits,
            word_ps: l.word_ps,
            latency_ps: l.latency_ps,
            fifo_depth: l.fifo_depth,
        })
        .collect();
    MultiBoardSpec {
        boards: plan.board_count(),
        nodes,
        edges,
        links,
    }
}

/// Why a graph could not be cut into a valid plan (or why a plan fails
/// validation).
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// The graph has no nodes to place.
    EmptyGraph,
    /// The top-level precedence graph is cyclic — no topological packing
    /// order exists.
    CyclicGraph,
    /// A node has no area estimate in the supplied map.
    MissingArea(String),
    /// One node alone (plus board infrastructure) exceeds the device —
    /// no number of boards helps.
    NodeTooLarge {
        node: String,
        area: ResourceEstimate,
        capacity: ResourceEstimate,
    },
    /// The graph needs more boards than the budget allows.
    ExceedsBoardBudget { needed: usize, max_boards: usize },
    /// Validation: a board names a node missing from the graph.
    UnknownNode(String),
    /// Validation: a node appears in more than one board subgraph.
    NodeOnMultipleBoards(String),
    /// Validation: a graph node appears in no board subgraph.
    NodeUnassigned(String),
    /// Validation: a board's aggregate area exceeds device capacity.
    BoardOverflow {
        board: usize,
        area: ResourceEstimate,
        capacity: ResourceEstimate,
    },
    /// Validation: an edge runs from a later board to an earlier one.
    BackwardEdge { src: String, dst: String },
    /// Validation: the number of links differs from the number of cut
    /// edges.
    LinkCountMismatch { cut_edges: usize, links: usize },
    /// Validation: a cut edge has `matching` links instead of exactly 1.
    LinkMismatch {
        src: String,
        dst: String,
        matching: usize,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::EmptyGraph => write!(f, "graph has no nodes"),
            PlanError::CyclicGraph => write!(f, "precedence graph is cyclic"),
            PlanError::MissingArea(n) => write!(f, "node `{n}` has no area estimate"),
            PlanError::NodeTooLarge {
                node,
                area,
                capacity,
            } => write!(
                f,
                "node `{node}` alone exceeds one board: needs {area}, device has {capacity}"
            ),
            PlanError::ExceedsBoardBudget { needed, max_boards } => write!(
                f,
                "graph needs at least {needed} boards, budget is {max_boards}"
            ),
            PlanError::UnknownNode(n) => write!(f, "plan names unknown node `{n}`"),
            PlanError::NodeOnMultipleBoards(n) => {
                write!(f, "node `{n}` assigned to more than one board")
            }
            PlanError::NodeUnassigned(n) => write!(f, "node `{n}` assigned to no board"),
            PlanError::BoardOverflow {
                board,
                area,
                capacity,
            } => write!(
                f,
                "board {board} over capacity: uses {area}, device has {capacity}"
            ),
            PlanError::BackwardEdge { src, dst } => {
                write!(f, "edge `{src}` -> `{dst}` runs backward in board order")
            }
            PlanError::LinkCountMismatch { cut_edges, links } => {
                write!(f, "{cut_edges} cut edges but {links} links")
            }
            PlanError::LinkMismatch { src, dst, matching } => write!(
                f,
                "cut edge `{src}` -> `{dst}` has {matching} links (expected exactly 1)"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_words_round_up_and_never_zero() {
        let mut l = BoardLink {
            id: 0,
            src_board: 0,
            dst_board: 1,
            src_node: "a".into(),
            dst_node: "b".into(),
            bytes: 10,
            width_bits: 32,
            word_ps: 10_000,
            latency_ps: 50_000,
            fifo_depth: 16,
        };
        assert_eq!(l.words(), 3); // 10 bytes over 4-byte words
        l.bytes = 0;
        assert_eq!(l.words(), 1); // even an empty transfer costs one word
        l.bytes = 3;
        l.width_bits = 8;
        assert_eq!(l.words(), 3);
    }
}
