//! DMA engine model (the `axi_dma` core the paper's flow instantiates per
//! `'soc`-terminated stream link).
//!
//! Two independent channels, as in the Xilinx AXI DMA:
//!
//! * **MM2S** (memory-mapped to stream): reads a buffer from DRAM through
//!   an HP port and pushes it, beat by beat, into an AXI-Stream channel,
//!   asserting TLAST on the final beat.
//! * **S2MM** (stream to memory-mapped): drains an AXI-Stream channel into
//!   a DRAM buffer, terminating at TLAST or when the buffer is full.
//!
//! Both channels are **resumable transfer state machines**
//! ([`Mm2sTransfer`], [`S2mmTransfer`]): a co-scheduling simulator pumps
//! them a bounded number of beats at a time, and a full (or empty) FIFO
//! *stalls* the channel — it never bypasses capacity. The batch
//! convenience wrappers [`DmaEngine::mm2s`]/[`DmaEngine::s2mm`] drive the
//! state machines to completion in one call for TLM-style use where the
//! channel is known to have room, and fail with [`DmaError::Stalled`]
//! rather than overrunning the FIFO.
//!
//! Timing model: `setup + ceil(bytes/beat_bytes)` beats, each beat costing
//! one bus cycle, plus a DRAM burst overhead per `burst_beats` chunk. The
//! platform simulator schedules these cycle counts; functional data
//! movement is exact.

use crate::protocol::{MemError, MemoryPort};
use crate::stream::{AxiStreamChannel, Beat};
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
    /// S2MM: destination buffer filled before TLAST arrived.
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
    /// A batch-mode transfer could not make progress: the channel is
    /// full (MM2S) or empty (S2MM) and no co-scheduled peer will drain
    /// or fill it within this call. `done_beats` beats moved before the
    /// stall.
    Stalled {
        done_beats: u64,
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
                    "S2MM overrun: stream produced >{got} bytes into {capacity}-byte buffer"
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
            DmaError::Stalled { done_beats } => {
                write!(
                    f,
                    "DMA stalled after {done_beats} beats: channel backpressure with no \
                     co-scheduled peer"
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

/// Resumable MM2S transfer: memory has been read into a staging buffer
/// (the descriptor fetch + burst read), and beats are pushed into the
/// stream as the FIFO accepts them. `pump` moves at most `max_beats`
/// beats and stops early — without error — when the FIFO fills, so a
/// co-scheduler can interleave producer and consumer.
#[derive(Debug, Clone)]
pub struct Mm2sTransfer {
    buf: Vec<u8>,
    beat_bytes: u32,
    beats_total: u64,
    next_beat: u64,
}

impl Mm2sTransfer {
    /// Validate the descriptor and fetch the source buffer from memory.
    pub fn start(
        mem: &mut dyn MemoryPort,
        desc: DmaDescriptor,
        beat_bytes: u32,
    ) -> Result<Self, DmaError> {
        if desc.len == 0 {
            return Err(DmaError::ZeroLength);
        }
        if !desc.len.is_multiple_of(beat_bytes as u64) {
            return Err(DmaError::LengthMisaligned {
                len: desc.len,
                beat_bytes,
            });
        }
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
        Ok(Mm2sTransfer {
            buf,
            beat_bytes,
            beats_total: desc.len / beat_bytes as u64,
            next_beat: 0,
        })
    }

    /// Push up to `max_beats` beats into `stream`; returns how many were
    /// accepted. Fewer than `max_beats` (including 0) means the FIFO
    /// filled: the transfer is stalled, not failed — call `pump` again
    /// once the consumer drains.
    pub fn pump(&mut self, stream: &mut AxiStreamChannel, max_beats: u64) -> u64 {
        let mut moved = 0;
        while moved < max_beats && self.next_beat < self.beats_total {
            if !stream.can_push() {
                break;
            }
            let i = self.next_beat as usize;
            let bb = self.beat_bytes as usize;
            let chunk = &self.buf[i * bb..(i + 1) * bb];
            let mut data = 0u64;
            for (j, b) in chunk.iter().enumerate() {
                data |= (*b as u64) << (8 * j);
            }
            let beat = Beat {
                data,
                last: self.next_beat + 1 == self.beats_total,
            };
            // `can_push` was just checked, but treat a refused push as a
            // stall (the beat is re-derived from `next_beat` on resume)
            // rather than a panic — a scheduler must survive any FIFO
            // state a malformed job puts it in.
            if stream.push(beat).is_err() {
                break;
            }
            self.next_beat += 1;
            moved += 1;
        }
        moved
    }

    pub fn is_done(&self) -> bool {
        self.next_beat == self.beats_total
    }

    pub fn beats_total(&self) -> u64 {
        self.beats_total
    }

    pub fn beats_moved(&self) -> u64 {
        self.next_beat
    }
}

/// Resumable S2MM transfer: beats are drained from the stream into an
/// incrementally grown buffer; the DRAM write happens once at `finish`
/// (the model's burst write-back). The buffer grows beat by beat —
/// nothing is reserved up front, so a descriptor advertising a huge
/// `len` costs nothing until data actually arrives.
#[derive(Debug, Clone)]
pub struct S2mmTransfer {
    desc: DmaDescriptor,
    beat_bytes: u32,
    buf: Vec<u8>,
    beats: u64,
    saw_last: bool,
}

impl S2mmTransfer {
    /// Validate the descriptor (same checks as MM2S: zero-length and
    /// beat alignment are rejected symmetrically).
    pub fn start(desc: DmaDescriptor, beat_bytes: u32) -> Result<Self, DmaError> {
        if desc.len == 0 {
            return Err(DmaError::ZeroLength);
        }
        if !desc.len.is_multiple_of(beat_bytes as u64) {
            return Err(DmaError::LengthMisaligned {
                len: desc.len,
                beat_bytes,
            });
        }
        Ok(S2mmTransfer {
            desc,
            beat_bytes,
            buf: Vec::new(),
            beats: 0,
            saw_last: false,
        })
    }

    /// Drain up to `max_beats` beats from `stream`. Returns how many
    /// moved; stops early at TLAST or on an empty FIFO (stall — resume
    /// later). Errors if the buffer would overrun before TLAST.
    pub fn pump(&mut self, stream: &mut AxiStreamChannel, max_beats: u64) -> Result<u64, DmaError> {
        let bb = self.beat_bytes as u64;
        let mut moved = 0;
        while moved < max_beats && !self.saw_last {
            let Some(beat) = stream.pop() else {
                break;
            };
            if self.buf.len() as u64 + bb > self.desc.len {
                return Err(DmaError::BufferOverrun {
                    got: self.buf.len() as u64 + bb,
                    capacity: self.desc.len,
                });
            }
            for j in 0..bb {
                self.buf.push(((beat.data >> (8 * j)) & 0xff) as u8);
            }
            self.beats += 1;
            moved += 1;
            if beat.last {
                self.saw_last = true;
            }
        }
        Ok(moved)
    }

    /// TLAST seen or buffer exactly full: nothing more to drain.
    pub fn is_done(&self) -> bool {
        self.saw_last || self.buf.len() as u64 == self.desc.len
    }

    pub fn beats_moved(&self) -> u64 {
        self.beats
    }

    /// Commit the received bytes to memory. An empty transfer (no beats
    /// ever arrived) is an **underrun error**, not a silent 0-byte `Ok`.
    pub fn finish(self, mem: &mut dyn MemoryPort) -> Result<(u64, u64), DmaError> {
        if self.beats == 0 {
            return Err(DmaError::Underrun {
                expected: self.desc.len,
            });
        }
        mem.write(self.desc.addr, &self.buf)?;
        Ok((self.buf.len() as u64, self.beats))
    }
}

/// A two-channel DMA engine.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DmaEngine {
    pub name: String,
    /// Fixed per-transfer setup cost (descriptor fetch, channel start).
    pub setup_cycles: u32,
    /// Beats per DRAM burst (AXI4 max 256).
    pub burst_beats: u32,
    /// Extra cycles of DRAM latency per burst.
    pub burst_overhead_cycles: u32,
    /// Cumulative statistics across transfers.
    pub total: DmaStats,
}

impl DmaEngine {
    pub fn new(name: &str) -> Self {
        DmaEngine {
            name: name.to_string(),
            setup_cycles: 30,
            burst_beats: 16,
            burst_overhead_cycles: 8,
            total: DmaStats::default(),
        }
    }

    pub fn cycles_for(&self, beats: u64) -> u64 {
        let bursts = beats.div_ceil(self.burst_beats as u64);
        self.setup_cycles as u64 + beats + bursts * self.burst_overhead_cycles as u64
    }

    /// MM2S batch mode: move `desc` from memory into `stream` in one
    /// call. The channel must have room for the whole transfer (batch
    /// callers size it; co-scheduled callers use [`Mm2sTransfer`]
    /// directly): a full FIFO is a [`DmaError::Stalled`] error, never a
    /// capacity bypass.
    pub fn mm2s(
        &mut self,
        mem: &mut dyn MemoryPort,
        desc: DmaDescriptor,
        stream: &mut AxiStreamChannel,
    ) -> Result<DmaStats, DmaError> {
        let mut xfer = Mm2sTransfer::start(mem, desc, stream.beat_bytes())?;
        while !xfer.is_done() {
            if xfer.pump(stream, u64::MAX) == 0 {
                return Err(DmaError::Stalled {
                    done_beats: xfer.beats_moved(),
                });
            }
        }
        let beats = xfer.beats_total();
        let stats = DmaStats {
            bytes: desc.len,
            beats,
            cycles: self.cycles_for(beats),
        };
        self.accumulate(stats);
        Ok(stats)
    }

    /// S2MM batch mode: drain `stream` into memory at `desc`, stopping at
    /// TLAST or after `desc.len` bytes. Errors if the stream carries more
    /// data than the buffer before TLAST, and — symmetrically with MM2S —
    /// rejects misaligned lengths and reports an empty stream as an
    /// underrun instead of a silent 0-byte success.
    pub fn s2mm(
        &mut self,
        mem: &mut dyn MemoryPort,
        desc: DmaDescriptor,
        stream: &mut AxiStreamChannel,
    ) -> Result<DmaStats, DmaError> {
        let mut xfer = S2mmTransfer::start(desc, stream.beat_bytes())?;
        loop {
            let moved = xfer.pump(stream, u64::MAX)?;
            if xfer.is_done() || moved == 0 {
                break;
            }
        }
        let (bytes, beats) = xfer.finish(mem)?;
        let stats = DmaStats {
            bytes,
            beats,
            cycles: self.cycles_for(beats),
        };
        self.accumulate(stats);
        Ok(stats)
    }

    /// Record a transfer driven externally through the resumable state
    /// machines ([`Mm2sTransfer`]/[`S2mmTransfer`]) in the engine's
    /// cumulative statistics.
    pub fn record(&mut self, s: DmaStats) {
        self.accumulate(s);
    }

    fn accumulate(&mut self, s: DmaStats) {
        self.total.bytes += s.bytes;
        self.total.beats += s.beats;
        self.total.cycles += s.cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::VecMemory;

    #[test]
    fn descriptors_past_the_address_space_are_typed_errors() {
        let mut mem = VecMemory::new(256);
        let mut dma = DmaEngine::new("dma0");
        let out_of_range = |r: Result<DmaStats, DmaError>| {
            matches!(r, Err(DmaError::Mem(MemError::OutOfRange { .. })))
        };
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
            let mut ch = AxiStreamChannel::new("s", 8, 64);
            assert!(out_of_range(dma.mm2s(&mut mem, desc, &mut ch)), "{desc:?}");
            assert!(ch.pop().is_none(), "nothing may be streamed");
        }
        let mut ch = AxiStreamChannel::new("s", 8, 64);
        for i in 0..8u64 {
            ch.push(Beat {
                data: i,
                last: i == 7,
            })
            .unwrap();
        }
        let desc = DmaDescriptor {
            addr: u64::MAX - 3,
            len: 8,
        };
        assert!(out_of_range(dma.s2mm(&mut mem, desc, &mut ch)));
        assert_eq!(
            dma.total,
            DmaStats::default(),
            "failed transfers count nothing"
        );
    }

    #[test]
    fn mm2s_then_s2mm_roundtrips_data() {
        let mut mem = VecMemory::new(256);
        mem.write(0, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        let mut dma = DmaEngine::new("dma0");
        let mut ch = AxiStreamChannel::new("s", 8, 64);
        let st = dma
            .mm2s(&mut mem, DmaDescriptor { addr: 0, len: 8 }, &mut ch)
            .unwrap();
        assert_eq!(st.bytes, 8);
        assert_eq!(st.beats, 8);
        // Last beat carries TLAST.
        let beats: Vec<Beat> = std::iter::from_fn(|| ch.pop()).collect();
        assert!(beats.last().unwrap().last);
        assert!(!beats[0].last);
        // Round-trip through S2MM.
        let mut ch2 = AxiStreamChannel::new("s2", 8, 64);
        for b in &beats {
            ch2.push(*b).unwrap();
        }
        dma.s2mm(&mut mem, DmaDescriptor { addr: 0x40, len: 8 }, &mut ch2)
            .unwrap();
        let mut out = [0u8; 8];
        mem.read(0x40, &mut out).unwrap();
        assert_eq!(out, [1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn wide_beats_pack_little_endian() {
        let mut mem = VecMemory::new(64);
        mem.write(0, &[0x11, 0x22, 0x33, 0x44]).unwrap();
        let mut dma = DmaEngine::new("d");
        let mut ch = AxiStreamChannel::new("s", 32, 8);
        dma.mm2s(&mut mem, DmaDescriptor { addr: 0, len: 4 }, &mut ch)
            .unwrap();
        let b = ch.pop().unwrap();
        assert_eq!(b.data, 0x4433_2211);
        assert!(b.last);
    }

    #[test]
    fn s2mm_stops_at_tlast() {
        let mut mem = VecMemory::new(64);
        let mut dma = DmaEngine::new("d");
        let mut ch = AxiStreamChannel::new("s", 8, 16);
        for i in 0..4 {
            ch.push(Beat {
                data: i,
                last: i == 1,
            })
            .unwrap(); // TLAST after 2 beats
        }
        let st = dma
            .s2mm(&mut mem, DmaDescriptor { addr: 0, len: 16 }, &mut ch)
            .unwrap();
        assert_eq!(st.bytes, 2);
        assert_eq!(ch.len(), 2, "post-TLAST beats remain queued");
    }

    #[test]
    fn s2mm_overrun_detected() {
        let mut mem = VecMemory::new(64);
        let mut dma = DmaEngine::new("d");
        let mut ch = AxiStreamChannel::new("s", 8, 16);
        for i in 0..8 {
            ch.push(Beat {
                data: i,
                last: i == 7,
            })
            .unwrap();
        }
        let err = dma
            .s2mm(&mut mem, DmaDescriptor { addr: 0, len: 4 }, &mut ch)
            .unwrap_err();
        assert!(matches!(err, DmaError::BufferOverrun { .. }));
    }

    #[test]
    fn misaligned_and_zero_lengths_rejected() {
        let mut mem = VecMemory::new(64);
        let mut dma = DmaEngine::new("d");
        let mut ch = AxiStreamChannel::new("s", 32, 8);
        assert_eq!(
            dma.mm2s(&mut mem, DmaDescriptor { addr: 0, len: 6 }, &mut ch)
                .unwrap_err(),
            DmaError::LengthMisaligned {
                len: 6,
                beat_bytes: 4
            }
        );
        assert_eq!(
            dma.mm2s(&mut mem, DmaDescriptor { addr: 0, len: 0 }, &mut ch)
                .unwrap_err(),
            DmaError::ZeroLength
        );
    }

    #[test]
    fn s2mm_validates_like_mm2s() {
        // The seed's S2MM accepted any `len` and returned Ok(0 bytes) on
        // an empty stream; both are now rejected symmetrically.
        let mut mem = VecMemory::new(64);
        let mut dma = DmaEngine::new("d");
        let mut ch = AxiStreamChannel::new("s", 32, 8);
        assert_eq!(
            dma.s2mm(&mut mem, DmaDescriptor { addr: 0, len: 6 }, &mut ch)
                .unwrap_err(),
            DmaError::LengthMisaligned {
                len: 6,
                beat_bytes: 4
            }
        );
        assert_eq!(
            dma.s2mm(&mut mem, DmaDescriptor { addr: 0, len: 0 }, &mut ch)
                .unwrap_err(),
            DmaError::ZeroLength
        );
        // Aligned descriptor, but the stream never produces a beat.
        let err = dma
            .s2mm(&mut mem, DmaDescriptor { addr: 0, len: 8 }, &mut ch)
            .unwrap_err();
        assert_eq!(err, DmaError::Underrun { expected: 8 });
    }

    #[test]
    fn mm2s_into_full_channel_stalls_instead_of_overrunning() {
        let mut mem = VecMemory::new(64);
        let mut dma = DmaEngine::new("d");
        // Capacity 4 < 16 beats: with nobody draining, batch mode must
        // stop at the FIFO boundary and report the stall.
        let mut ch = AxiStreamChannel::new("s", 8, 4);
        let err = dma
            .mm2s(&mut mem, DmaDescriptor { addr: 0, len: 16 }, &mut ch)
            .unwrap_err();
        assert_eq!(err, DmaError::Stalled { done_beats: 4 });
        assert_eq!(ch.len(), 4, "FIFO holds exactly its capacity");
    }

    #[test]
    fn resumable_mm2s_s2mm_pump_in_lockstep() {
        // Co-scheduled style: a depth-2 FIFO between producer and
        // consumer, pumped alternately — the whole transfer completes
        // without the FIFO ever exceeding its capacity.
        let mut mem = VecMemory::new(128);
        let data: Vec<u8> = (0..32).collect();
        mem.write(0, &data).unwrap();
        let mut ch = AxiStreamChannel::new("s", 8, 2);
        let mut src = Mm2sTransfer::start(&mut mem, DmaDescriptor { addr: 0, len: 32 }, 1).unwrap();
        let mut dst = S2mmTransfer::start(DmaDescriptor { addr: 64, len: 32 }, 1).unwrap();
        let mut rounds = 0;
        while !(src.is_done() && dst.is_done()) {
            src.pump(&mut ch, 1);
            dst.pump(&mut ch, 1).unwrap();
            assert!(ch.len() <= 2, "bounded FIFO never overruns");
            rounds += 1;
            assert!(rounds < 1000, "must terminate");
        }
        assert_eq!(dst.beats_moved(), 32);
        let (bytes, beats) = dst.finish(&mut mem).unwrap();
        assert_eq!((bytes, beats), (32, 32));
        let mut out = vec![0u8; 32];
        mem.read(64, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn out_of_range_surfaces_memory_fault() {
        let mut mem = VecMemory::new(8);
        let mut dma = DmaEngine::new("d");
        let mut ch = AxiStreamChannel::new("s", 8, 64);
        let err = dma
            .mm2s(&mut mem, DmaDescriptor { addr: 4, len: 8 }, &mut ch)
            .unwrap_err();
        assert!(matches!(err, DmaError::Mem(_)));
    }

    #[test]
    fn cycle_model_includes_setup_and_bursts() {
        let mut mem = VecMemory::new(1024);
        let mut dma = DmaEngine::new("d");
        let mut ch = AxiStreamChannel::new("s", 8, 2048);
        let st = dma
            .mm2s(&mut mem, DmaDescriptor { addr: 0, len: 256 }, &mut ch)
            .unwrap();
        // 256 beats, 16 bursts: 30 + 256 + 16*8 = 414.
        assert_eq!(st.cycles, 30 + 256 + 16 * 8);
        assert_eq!(dma.total.cycles, st.cycles);
    }

    #[test]
    fn stats_accumulate_across_transfers() {
        let mut mem = VecMemory::new(64);
        let mut dma = DmaEngine::new("d");
        let mut ch = AxiStreamChannel::new("s", 8, 256);
        dma.mm2s(&mut mem, DmaDescriptor { addr: 0, len: 16 }, &mut ch)
            .unwrap();
        ch.clear();
        dma.mm2s(&mut mem, DmaDescriptor { addr: 0, len: 16 }, &mut ch)
            .unwrap();
        assert_eq!(dma.total.bytes, 32);
        assert_eq!(dma.total.beats, 32);
    }
}
