//! The memory-port contract DMA transfers read and write through.

use std::fmt;

/// Errors raised by memory-port accesses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemError {
    /// Access beyond the end of the memory region.
    OutOfRange { addr: u64, len: usize, size: u64 },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfRange { addr, len, size } => write!(
                f,
                "memory access at 0x{addr:x}+{len} exceeds region size 0x{size:x}"
            ),
        }
    }
}

impl std::error::Error for MemError {}

/// A byte-addressable memory port — the contract DMA engines and the CPU
/// model use to touch DRAM. Implementations may track access statistics
/// and latency.
pub trait MemoryPort {
    /// Fill `buf` from `addr`.
    fn read(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), MemError>;
    /// Write `data` at `addr`.
    fn write(&mut self, addr: u64, data: &[u8]) -> Result<(), MemError>;
    /// Size of the region in bytes.
    fn size(&self) -> u64;
}

/// A plain in-process memory, usable in tests and as the backing store of
/// the platform DRAM model.
#[derive(Debug, Clone)]
pub struct VecMemory {
    data: Vec<u8>,
}

impl VecMemory {
    pub fn new(size: usize) -> Self {
        VecMemory {
            data: vec![0; size],
        }
    }

    pub fn as_slice(&self) -> &[u8] {
        &self.data
    }

    /// The byte range `[addr, addr + len)`, or `OutOfRange` if any of it
    /// lies past the end — including when `addr + len` would overflow.
    fn range(&self, addr: u64, len: usize) -> Result<std::ops::Range<usize>, MemError> {
        usize::try_from(addr)
            .ok()
            .and_then(|start| Some(start..start.checked_add(len)?))
            .filter(|r| r.end <= self.data.len())
            .ok_or(MemError::OutOfRange {
                addr,
                len,
                size: self.data.len() as u64,
            })
    }
}

impl MemoryPort for VecMemory {
    fn read(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), MemError> {
        let range = self.range(addr, buf.len())?;
        buf.copy_from_slice(&self.data[range]);
        Ok(())
    }

    fn write(&mut self, addr: u64, data: &[u8]) -> Result<(), MemError> {
        let range = self.range(addr, data.len())?;
        self.data[range].copy_from_slice(data);
        Ok(())
    }

    fn size(&self) -> u64 {
        self.data.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_memory_roundtrip() {
        let mut m = VecMemory::new(64);
        m.write(8, &[1, 2, 3, 4]).unwrap();
        let mut buf = [0u8; 4];
        m.read(8, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3, 4]);
        assert_eq!(m.size(), 64);
    }

    #[test]
    fn out_of_range_detected() {
        let mut m = VecMemory::new(16);
        let err = m.write(14, &[0; 4]).unwrap_err();
        assert_eq!(
            err,
            MemError::OutOfRange {
                addr: 14,
                len: 4,
                size: 16
            }
        );
        let mut buf = [0u8; 8];
        assert!(m.read(12, &mut buf).is_err());
    }

    #[test]
    fn addresses_near_u64_max_are_out_of_range_not_a_panic() {
        let mut m = VecMemory::new(16);
        for addr in [u64::MAX, u64::MAX - 3, 1 << 63] {
            let err = m.write(addr, &[0; 8]).unwrap_err();
            assert_eq!(
                err,
                MemError::OutOfRange {
                    addr,
                    len: 8,
                    size: 16
                }
            );
            let mut buf = [0u8; 8];
            assert!(matches!(
                m.read(addr, &mut buf),
                Err(MemError::OutOfRange { .. })
            ));
        }
    }

    #[test]
    fn boundary_access_ok() {
        let mut m = VecMemory::new(16);
        m.write(12, &[9; 4]).unwrap();
        let mut buf = [0u8; 4];
        m.read(12, &mut buf).unwrap();
        assert_eq!(buf, [9; 4]);
    }
}
