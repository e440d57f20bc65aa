//! DMA engine model (the `axi_dma` core the paper's flow instantiates per
//! `'soc`-terminated stream link).
//!
//! Two independent channels, as in the Xilinx AXI DMA:
//!
//! * **MM2S** (memory-mapped to stream): reads a buffer from DRAM through
//!   an HP port and unpacks it into stream tokens, one little-endian
//!   `beat_bytes`-byte beat per token ([`DmaEngine::mm2s`]).
//! * **S2MM** (stream to memory-mapped): packs stream tokens back into
//!   beats and writes them to a DRAM buffer, ending at the last token
//!   (TLAST) ([`DmaEngine::s2mm`]).
//!
//! Both are functional transfers: one validated memory access each. How
//! the beats interleave with the accelerators over bounded FIFOs is the
//! platform's token-count cycle simulation's business, so no beat-level
//! channel exists here, and a transfer's outcome cannot depend on FIFO
//! depth.
//!
//! Timing model: `setup + ceil(bytes/beat_bytes)` beats, each beat costing
//! one bus cycle, plus a DRAM burst overhead per `burst_beats` chunk
//! ([`DmaEngine::cycles_for`]).

use crate::protocol::{MemError, MemoryPort};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One DMA transfer request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DmaDescriptor {
    /// DRAM byte address.
    pub addr: u64,
    /// Transfer length in bytes.
    pub len: u64,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DmaError {
    Mem(MemError),
    /// S2MM: the stream carries more bytes than the destination buffer
    /// holds.
    BufferOverrun {
        got: u64,
        capacity: u64,
    },
    /// Transfer length not a multiple of the stream beat size.
    LengthMisaligned {
        len: u64,
        beat_bytes: u32,
    },
    ZeroLength,
    /// S2MM: the stream produced no data at all — the transfer would
    /// silently complete with 0 bytes, which a real driver reports as an
    /// underrun/timeout rather than success.
    Underrun {
        expected: u64,
    },
}

impl From<MemError> for DmaError {
    fn from(e: MemError) -> Self {
        DmaError::Mem(e)
    }
}

impl fmt::Display for DmaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DmaError::Mem(e) => write!(f, "DMA memory fault: {e}"),
            DmaError::BufferOverrun { got, capacity } => {
                write!(
                    f,
                    "S2MM overrun: stream produced {got} bytes into {capacity}-byte buffer"
                )
            }
            DmaError::LengthMisaligned { len, beat_bytes } => {
                write!(f, "length {len} not a multiple of beat size {beat_bytes}")
            }
            DmaError::ZeroLength => write!(f, "zero-length DMA transfer"),
            DmaError::Underrun { expected } => {
                write!(
                    f,
                    "S2MM underrun: stream delivered no data ({expected} bytes expected)"
                )
            }
        }
    }
}

impl std::error::Error for DmaError {}

/// Statistics of a completed transfer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DmaStats {
    pub bytes: u64,
    pub beats: u64,
    /// Modelled bus cycles for the whole transfer.
    pub cycles: u64,
}

/// Descriptor checks shared by both channels: a non-empty, beat-aligned
/// length.
fn validate(desc: DmaDescriptor, beat_bytes: u32) -> Result<(), DmaError> {
    if desc.len == 0 {
        return Err(DmaError::ZeroLength);
    }
    if !desc.len.is_multiple_of(u64::from(beat_bytes)) {
        return Err(DmaError::LengthMisaligned {
            len: desc.len,
            beat_bytes,
        });
    }
    Ok(())
}

/// The little-endian value of one beat (bytes past the eighth carry no
/// token bits).
fn unpack(beat: &[u8]) -> i64 {
    let mut word = [0u8; 8];
    let n = beat.len().min(8);
    word[..n].copy_from_slice(&beat[..n]);
    u64::from_le_bytes(word) as i64
}

/// A two-channel DMA engine: its cost-model parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DmaEngine {
    /// Fixed per-transfer setup cost (descriptor fetch, channel start).
    pub setup_cycles: u32,
    /// Beats per DRAM burst (AXI4 max 256).
    pub burst_beats: u32,
    /// Extra cycles of DRAM latency per burst.
    pub burst_overhead_cycles: u32,
}

impl Default for DmaEngine {
    fn default() -> Self {
        DmaEngine {
            setup_cycles: 30,
            burst_beats: 16,
            burst_overhead_cycles: 8,
        }
    }
}

impl DmaEngine {
    pub fn cycles_for(&self, beats: u64) -> u64 {
        self.setup_cycles as u64 + beats + self.bursts(beats) * self.burst_overhead_cycles as u64
    }

    /// DRAM bursts a `beats`-beat transfer issues.
    pub fn bursts(&self, beats: u64) -> u64 {
        beats.div_ceil(self.burst_beats as u64)
    }

    fn stats(&self, bytes: u64, beats: u64) -> DmaStats {
        DmaStats {
            bytes,
            beats,
            cycles: self.cycles_for(beats),
        }
    }

    /// MM2S: read `desc` from memory in one access and unpack it into one
    /// token per `beat_bytes`-byte little-endian beat.
    pub fn mm2s(
        &self,
        mem: &mut dyn MemoryPort,
        desc: DmaDescriptor,
        beat_bytes: u32,
    ) -> Result<(Vec<i64>, DmaStats), DmaError> {
        validate(desc, beat_bytes)?;
        // A descriptor longer than the memory is out of range before it
        // is an allocation of `desc.len` bytes.
        if desc.len > mem.size() {
            return Err(DmaError::Mem(MemError::OutOfRange {
                addr: desc.addr,
                len: usize::try_from(desc.len).unwrap_or(usize::MAX),
                size: mem.size(),
            }));
        }
        let mut buf = vec![0u8; desc.len as usize];
        mem.read(desc.addr, &mut buf)?;
        let tokens: Vec<i64> = buf.chunks_exact(beat_bytes as usize).map(unpack).collect();
        let beats = tokens.len() as u64;
        Ok((tokens, self.stats(desc.len, beats)))
    }

    /// S2MM: pack `tokens` into little-endian `beat_bytes`-byte beats and
    /// write them at `desc.addr` in one access. The transfer ends at the
    /// last token, so it may fill less than `desc.len`; a stream longer
    /// than the buffer is a [`DmaError::BufferOverrun`] and an empty one
    /// a [`DmaError::Underrun`], both before memory is touched.
    pub fn s2mm(
        &self,
        mem: &mut dyn MemoryPort,
        desc: DmaDescriptor,
        beat_bytes: u32,
        tokens: &[i64],
    ) -> Result<DmaStats, DmaError> {
        validate(desc, beat_bytes)?;
        if tokens.is_empty() {
            return Err(DmaError::Underrun { expected: desc.len });
        }
        let bytes = (tokens.len() as u64).saturating_mul(u64::from(beat_bytes));
        if bytes > desc.len {
            return Err(DmaError::BufferOverrun {
                got: bytes,
                capacity: desc.len,
            });
        }
        let bb = beat_bytes as usize;
        let mut buf = vec![0u8; bytes as usize];
        for (beat, t) in buf.chunks_exact_mut(bb).zip(tokens) {
            let n = bb.min(8);
            beat[..n].copy_from_slice(&t.to_le_bytes()[..n]);
        }
        mem.write(desc.addr, &buf)?;
        Ok(self.stats(bytes, tokens.len() as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::VecMemory;

    #[test]
    fn descriptors_past_the_address_space_are_typed_errors() {
        let mut mem = VecMemory::new(256);
        let dma = DmaEngine::default();
        let out_of_range = |e: DmaError| matches!(e, DmaError::Mem(MemError::OutOfRange { .. }));
        for desc in [
            DmaDescriptor {
                addr: u64::MAX - 3,
                len: 8,
            },
            DmaDescriptor {
                addr: 0,
                len: u64::MAX,
            },
            DmaDescriptor {
                addr: u64::MAX,
                len: u64::MAX,
            },
        ] {
            assert!(
                out_of_range(dma.mm2s(&mut mem, desc, 1).unwrap_err()),
                "{desc:?}"
            );
        }
        let tokens: Vec<i64> = (0..8).collect();
        let desc = DmaDescriptor {
            addr: u64::MAX - 3,
            len: 8,
        };
        assert!(out_of_range(
            dma.s2mm(&mut mem, desc, 1, &tokens).unwrap_err()
        ));
        assert!(mem.as_slice().iter().all(|&b| b == 0), "nothing written");
    }

    #[test]
    fn mm2s_then_s2mm_roundtrips_data() {
        let mut mem = VecMemory::new(256);
        mem.write(0, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        let dma = DmaEngine::default();
        let (tokens, st) = dma
            .mm2s(&mut mem, DmaDescriptor { addr: 0, len: 8 }, 1)
            .unwrap();
        assert_eq!(st.bytes, 8);
        assert_eq!(st.beats, 8);
        assert_eq!(tokens, vec![1, 2, 3, 4, 5, 6, 7, 8]);
        let st = dma
            .s2mm(&mut mem, DmaDescriptor { addr: 0x40, len: 8 }, 1, &tokens)
            .unwrap();
        assert_eq!(st, dma.stats(8, 8));
        let mut out = [0u8; 8];
        mem.read(0x40, &mut out).unwrap();
        assert_eq!(out, [1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn wide_beats_pack_little_endian() {
        let mut mem = VecMemory::new(64);
        mem.write(0, &[0x11, 0x22, 0x33, 0x44]).unwrap();
        let dma = DmaEngine::default();
        let (tokens, _) = dma
            .mm2s(&mut mem, DmaDescriptor { addr: 0, len: 4 }, 4)
            .unwrap();
        assert_eq!(tokens, vec![0x4433_2211]);
        dma.s2mm(&mut mem, DmaDescriptor { addr: 8, len: 4 }, 4, &tokens)
            .unwrap();
        let mut out = [0u8; 4];
        mem.read(8, &mut out).unwrap();
        assert_eq!(out, [0x11, 0x22, 0x33, 0x44]);
    }

    #[test]
    fn s2mm_stops_at_tlast() {
        let mut mem = VecMemory::new(64);
        let dma = DmaEngine::default();
        let st = dma
            .s2mm(&mut mem, DmaDescriptor { addr: 0, len: 16 }, 1, &[7, 9])
            .unwrap();
        assert_eq!((st.bytes, st.beats), (2, 2));
        assert_eq!(&mem.as_slice()[..3], &[7, 9, 0]);
    }

    #[test]
    fn s2mm_overrun_detected() {
        let mut mem = VecMemory::new(64);
        let dma = DmaEngine::default();
        let tokens: Vec<i64> = (0..8).collect();
        let err = dma
            .s2mm(&mut mem, DmaDescriptor { addr: 0, len: 4 }, 1, &tokens)
            .unwrap_err();
        assert_eq!(
            err,
            DmaError::BufferOverrun {
                got: 8,
                capacity: 4
            }
        );
        assert!(mem.as_slice().iter().all(|&b| b == 0), "nothing written");
    }

    #[test]
    fn misaligned_and_zero_lengths_rejected() {
        let mut mem = VecMemory::new(64);
        let dma = DmaEngine::default();
        assert_eq!(
            dma.mm2s(&mut mem, DmaDescriptor { addr: 0, len: 6 }, 4)
                .unwrap_err(),
            DmaError::LengthMisaligned {
                len: 6,
                beat_bytes: 4
            }
        );
        assert_eq!(
            dma.mm2s(&mut mem, DmaDescriptor { addr: 0, len: 0 }, 4)
                .unwrap_err(),
            DmaError::ZeroLength
        );
    }

    #[test]
    fn s2mm_validates_like_mm2s() {
        let mut mem = VecMemory::new(64);
        let dma = DmaEngine::default();
        assert_eq!(
            dma.s2mm(&mut mem, DmaDescriptor { addr: 0, len: 6 }, 4, &[1])
                .unwrap_err(),
            DmaError::LengthMisaligned {
                len: 6,
                beat_bytes: 4
            }
        );
        assert_eq!(
            dma.s2mm(&mut mem, DmaDescriptor { addr: 0, len: 0 }, 4, &[1])
                .unwrap_err(),
            DmaError::ZeroLength
        );
        // Aligned descriptor, but the stream never produces a token.
        let err = dma
            .s2mm(&mut mem, DmaDescriptor { addr: 0, len: 8 }, 4, &[])
            .unwrap_err();
        assert_eq!(err, DmaError::Underrun { expected: 8 });
    }

    #[test]
    fn out_of_range_surfaces_memory_fault() {
        let mut mem = VecMemory::new(8);
        let dma = DmaEngine::default();
        let err = dma
            .mm2s(&mut mem, DmaDescriptor { addr: 4, len: 8 }, 1)
            .unwrap_err();
        assert!(matches!(err, DmaError::Mem(_)));
    }

    #[test]
    fn cycle_model_includes_setup_and_bursts() {
        let mut mem = VecMemory::new(1024);
        let dma = DmaEngine::default();
        let (_, st) = dma
            .mm2s(&mut mem, DmaDescriptor { addr: 0, len: 256 }, 1)
            .unwrap();
        // 256 beats, 16 bursts: 30 + 256 + 16*8 = 414.
        assert_eq!(st.cycles, 30 + 256 + 16 * 8);
        assert_eq!(dma.bursts(st.beats), 16);
    }
}
