//! # accelsoc-platform — simulated ZedBoard
//!
//! The paper evaluates on an AVNET ZedBoard (Xilinx Zynq-7020: dual-core
//! ARM Cortex-A9 "PS" + Artix-7-class programmable logic "PL", joined by
//! AXI interconnects and high-performance DMA ports into shared DRAM). We
//! have no board, so this crate simulates one at the granularity the
//! paper's flow needs:
//!
//! * [`memory::Dram`] — shared DDR3 with a latency + bandwidth model;
//! * [`cpu::Cpu`] — the ARM PS as a cost model over interpreter
//!   statistics (software tasks execute natively/via the kernel
//!   interpreter; the model converts operation counts into cycles);
//! * [`accel::AccelInstance`] — a PL accelerator whose *function* runs on
//!   the lane VM and whose *timing* comes from its HLS report
//!   (initiation interval × tokens + startup);
//! * [`board::Board`] — the assembled system: AXI-Stream topology, DMA
//!   engines, DRAM, accelerators; it executes memory-mapped core
//!   invocations (with an AXI-Lite transaction cost model) and streaming
//!   phases (DMA bytes unpacked into tokens, cores fired in feed-forward
//!   order, results packed back) functionally, and times them;
//! * [`cosim`] — the co-scheduled bounded-FIFO cycle simulation behind
//!   streaming-phase timing: every DMA endpoint and accelerator steps one
//!   PL cycle at a time over integer-occupancy FIFOs, surfacing
//!   backpressure, starvation and HP-port contention stalls;
//! * [`sim`] — the integer-picosecond tick conversions every
//!   discrete-event calendar in the workspace shares;
//! * [`multiboard`] — whole-system co-simulation of several boards at
//!   once, joined by modeled serial stream links, on one deterministic
//!   `(ps, board, rank, seq)` calendar (used by `accelsoc-partition`
//!   when a design overflows a single device).
//!
//! Clocks: the PL runs at 100 MHz (10 ns/cycle), the PS at 666.7 MHz
//! (1.5 ns/cycle), matching ZedBoard defaults. All times are reported in
//! nanoseconds so the two domains compose.

pub mod accel;
pub mod board;
pub mod cosim;
pub mod cpu;
pub mod memory;
pub mod multiboard;
pub mod sim;
pub mod trace;

pub use accel::AccelInstance;
pub use board::{Board, BoardError, PhaseStats};
pub use cosim::CosimResult;
pub use cpu::Cpu;
pub use memory::Dram;
pub use multiboard::{
    BoardStats, LinkStats, MbLink, MbNode, MultiBoardError, MultiBoardReport, MultiBoardSpec,
    NodeTrace,
};
pub use trace::{trace_phase, Trace, TraceError};

/// PL fabric clock period in nanoseconds (100 MHz).
pub const PL_CLK_NS: f64 = 10.0;
/// PS (ARM) clock period in nanoseconds (666.7 MHz).
pub const PS_CLK_NS: f64 = 1.5;
