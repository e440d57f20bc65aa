//! # accelsoc-axi — DMA transfers over a memory port
//!
//! The paper's flow puts an `axi_dma` core on every `'soc`-terminated
//! AXI-Stream link: MM2S reads a DRAM buffer into the head of an
//! accelerator pipeline, S2MM writes the tail back.
//!
//! This crate models that DMA at transaction level: descriptors and
//! their validation, the functional MM2S unpack / S2MM pack between DRAM
//! bytes and stream tokens, the per-transfer cycle cost model, and the
//! [`MemoryPort`] contract the platform's DRAM implements. Stream timing
//! (FIFO occupancy, backpressure, HP-port contention) lives in the
//! platform's token-count cycle simulation (`accelsoc-platform`).

pub mod dma;
pub mod protocol;

pub use dma::{DmaDescriptor, DmaEngine, DmaError, DmaStats};
pub use protocol::{MemError, MemoryPort};
