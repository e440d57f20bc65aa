//! Property-based tests on the DMA model: data integrity and the cycle
//! model.

use accelsoc_axi::dma::{DmaDescriptor, DmaEngine};
use accelsoc_axi::protocol::{MemoryPort, VecMemory};
use proptest::prelude::*;

proptest! {
    /// MM2S -> S2MM round-trips arbitrary buffers exactly, for any beat
    /// width dividing the length, one token per beat.
    #[test]
    fn dma_roundtrip_preserves_bytes(data in proptest::collection::vec(any::<u8>(), 1..256),
                                     width_sel in 0usize..3) {
        let widths = [8u32, 16, 32];
        let width = widths[width_sel];
        let bb = width / 8;
        // Pad to a whole number of beats.
        let mut data = data;
        while data.len() % bb as usize != 0 {
            data.push(0);
        }
        let len = data.len() as u64;
        let mut mem = VecMemory::new(2 * data.len() + 64);
        mem.write(0, &data).unwrap();
        let dma = DmaEngine::default();
        let (tokens, st) = dma.mm2s(&mut mem, DmaDescriptor { addr: 0, len }, bb).unwrap();
        prop_assert_eq!(tokens.len() as u64, len / bb as u64);
        prop_assert_eq!(st.beats, tokens.len() as u64);
        // Round-trip.
        let dst = data.len() as u64;
        let back = dma.s2mm(&mut mem, DmaDescriptor { addr: dst, len }, bb, &tokens).unwrap();
        prop_assert_eq!(back, st);
        let mut out = vec![0u8; data.len()];
        mem.read(dst, &mut out).unwrap();
        prop_assert_eq!(out, data);
    }

    /// Cycle model is monotone in transfer size.
    #[test]
    fn dma_cycles_monotone(a in 1u64..64, b in 1u64..64) {
        let (small, large) = (a.min(b), a.max(b));
        prop_assume!(small < large);
        let mut mem = VecMemory::new(4096);
        let dma = DmaEngine::default();
        let (_, s1) = dma.mm2s(&mut mem, DmaDescriptor { addr: 0, len: small }, 1).unwrap();
        let (_, s2) = dma.mm2s(&mut mem, DmaDescriptor { addr: 0, len: large }, 1).unwrap();
        prop_assert!(s2.cycles > s1.cycles);
    }
}
