//! File data structure (paper §5.1).
//!
//! A Jiffy file is an ordered collection of fixed-size chunks, one per
//! block. Writes are append-only at the file level; the client routes a
//! write to the chunk covering the target offset, splitting any write
//! that spans a chunk boundary. Because chunks never shrink or move,
//! files need no data repartitioning — scaling up simply links a fresh
//! chunk (`SplitSpec::FileAppend`).

use jiffy_block::Partition;
use jiffy_common::{JiffyError, Result};
use jiffy_proto::{Blob, DsOp, DsResult, DsType, SplitSpec};
use jiffy_sync::Mutex;

/// Buffers of dropped chunks, kept for the chunks created next. A file
/// lives briefly next to its server — a shuffle creates, fills and
/// removes one per task — and the allocator hands a freed
/// multi-megabyte buffer back to the kernel, so without this list every
/// new chunk is written into pages that fault in one at a time.
static SPARE_CHUNKS: Mutex<Vec<Vec<u8>>> = Mutex::new(Vec::new());

/// Most bytes [`SPARE_CHUNKS`] holds; a buffer that would exceed it is
/// freed.
const SPARE_CHUNK_BYTES: usize = 64 << 20;

/// One chunk of a Jiffy file.
pub struct FilePartition {
    capacity: usize,
    chunk_index: u64,
    data: Vec<u8>,
}

impl FilePartition {
    /// Creates an empty chunk with the given byte capacity.
    pub fn new(capacity: usize, chunk_index: u64) -> Self {
        // Never a spare larger than this chunk may grow: a small chunk
        // must not pin a large buffer.
        let mut spares = SPARE_CHUNKS.lock();
        let data = match spares.iter().position(|b| b.capacity() <= capacity) {
            Some(i) => spares.swap_remove(i),
            None => Vec::new(),
        };
        Self {
            capacity,
            chunk_index,
            data,
        }
    }

    /// The chunk's position in the file's block list.
    pub fn chunk_index(&self) -> u64 {
        self.chunk_index
    }

    fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<DsResult> {
        let offset = offset as usize;
        if offset > self.data.len() {
            // Writes must be contiguous within a chunk (append-only file
            // semantics: the next byte written is the current length).
            return Err(JiffyError::OutOfRange {
                offset: offset as u64,
                len: self.data.len() as u64,
            });
        }
        let end = offset + data.len();
        if end > self.capacity {
            return Err(JiffyError::BlockFull {
                capacity: self.capacity,
                requested: end - self.data.len(),
            });
        }
        if end > self.data.len() {
            self.data.resize(end, 0);
        }
        self.data[offset..end].copy_from_slice(data);
        Ok(DsResult::Size(self.data.len() as u64))
    }

    fn read_at(&self, offset: u64, len: u64) -> Result<DsResult> {
        let start = offset as usize;
        if start > self.data.len() {
            return Err(JiffyError::OutOfRange {
                offset,
                len: self.data.len() as u64,
            });
        }
        let end = (start + len as usize).min(self.data.len());
        Ok(DsResult::Data(Blob::new(self.data[start..end].to_vec())))
    }
}

impl Drop for FilePartition {
    fn drop(&mut self) {
        let mut data = std::mem::take(&mut self.data);
        // Length zero: the next chunk reads nothing this one wrote.
        data.clear();
        let mut spares = SPARE_CHUNKS.lock();
        let held: usize = spares.iter().map(Vec::capacity).sum();
        if data.capacity() > 0 && held + data.capacity() <= SPARE_CHUNK_BYTES {
            spares.push(data);
        }
    }
}

impl Partition for FilePartition {
    fn ds_type(&self) -> DsType {
        DsType::File
    }

    fn execute(&mut self, op: &DsOp) -> Result<DsResult> {
        match op {
            DsOp::FileWrite { offset, data } => self.write_at(*offset, data),
            DsOp::FileAppend { data } => self.write_at(self.data.len() as u64, data),
            DsOp::FileRead { offset, len } => self.read_at(*offset, *len),
            DsOp::FileSize => Ok(DsResult::Size(self.data.len() as u64)),
            other => Err(JiffyError::WrongDataStructure {
                expected: "file".into(),
                found: format!("{other:?}"),
            }),
        }
    }

    fn used_bytes(&self) -> usize {
        self.data.len()
    }

    fn export(&self) -> Result<Vec<u8>> {
        jiffy_proto::to_bytes(&(self.chunk_index, Blob::new(self.data.clone())))
    }

    fn absorb(&mut self, payload: &[u8]) -> Result<()> {
        let (chunk_index, blob): (u64, Blob) = jiffy_proto::from_bytes(payload)?;
        if blob.len() > self.capacity {
            return Err(JiffyError::BlockFull {
                capacity: self.capacity,
                requested: blob.len(),
            });
        }
        self.chunk_index = chunk_index;
        self.data = blob.into_inner();
        Ok(())
    }

    fn split_out(&mut self, spec: &SplitSpec) -> Result<Vec<u8>> {
        match spec {
            // Append-only files never move data on scale-up: the new
            // chunk starts empty.
            SplitSpec::FileAppend { .. } => Ok(Vec::new()),
            other => Err(JiffyError::Internal(format!(
                "file partition cannot split with {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(offset: u64, bytes: &[u8]) -> DsOp {
        DsOp::FileWrite {
            offset,
            data: bytes.into(),
        }
    }

    #[test]
    fn append_and_read_back() {
        let mut f = FilePartition::new(64, 0);
        f.execute(&write(0, b"hello ")).unwrap();
        f.execute(&write(6, b"world")).unwrap();
        let r = f.execute(&DsOp::FileRead { offset: 0, len: 11 }).unwrap();
        assert_eq!(r, DsResult::Data(b"hello world".as_slice().into()));
        assert_eq!(f.execute(&DsOp::FileSize).unwrap(), DsResult::Size(11));
    }

    #[test]
    fn overwrite_within_written_region_is_allowed() {
        // Seek-style rewrites of already-written bytes are permitted;
        // only writing past the end (holes) is rejected.
        let mut f = FilePartition::new(64, 0);
        f.execute(&write(0, b"aaaa")).unwrap();
        f.execute(&write(1, b"bb")).unwrap();
        let r = f.execute(&DsOp::FileRead { offset: 0, len: 4 }).unwrap();
        assert_eq!(r, DsResult::Data(b"abba".as_slice().into()));
    }

    #[test]
    fn holes_are_rejected() {
        let mut f = FilePartition::new(64, 0);
        let err = f.execute(&write(10, b"x")).unwrap_err();
        assert!(matches!(err, JiffyError::OutOfRange { offset: 10, len: 0 }));
    }

    #[test]
    fn capacity_is_enforced() {
        let mut f = FilePartition::new(8, 0);
        f.execute(&write(0, b"12345678")).unwrap();
        let err = f.execute(&write(8, b"9")).unwrap_err();
        assert!(matches!(err, JiffyError::BlockFull { capacity: 8, .. }));
    }

    #[test]
    fn read_past_end_truncates_read_beyond_start_errors() {
        let mut f = FilePartition::new(64, 0);
        f.execute(&write(0, b"abc")).unwrap();
        // Read overlapping the end: truncated.
        let r = f.execute(&DsOp::FileRead { offset: 2, len: 10 }).unwrap();
        assert_eq!(r, DsResult::Data(b"c".as_slice().into()));
        // Read starting past the end: error.
        assert!(f.execute(&DsOp::FileRead { offset: 4, len: 1 }).is_err());
    }

    #[test]
    fn wrong_ops_are_rejected() {
        let mut f = FilePartition::new(64, 0);
        assert!(matches!(
            f.execute(&DsOp::Dequeue).unwrap_err(),
            JiffyError::WrongDataStructure { .. }
        ));
        assert!(f.execute(&DsOp::Get { key: "k".into() }).is_err());
    }

    #[test]
    fn export_absorb_round_trips() {
        let mut f = FilePartition::new(64, 3);
        f.execute(&write(0, b"persisted")).unwrap();
        let payload = f.export().unwrap();
        let mut g = FilePartition::new(64, 0);
        g.absorb(&payload).unwrap();
        assert_eq!(g.chunk_index(), 3);
        assert_eq!(g.used_bytes(), 9);
        let r = g.execute(&DsOp::FileRead { offset: 0, len: 9 }).unwrap();
        assert_eq!(r, DsResult::Data(b"persisted".as_slice().into()));
    }

    #[test]
    fn absorb_respects_capacity() {
        let mut f = FilePartition::new(64, 0);
        f.execute(&write(0, &[7u8; 50])).unwrap();
        let payload = f.export().unwrap();
        let mut small = FilePartition::new(16, 0);
        assert!(small.absorb(&payload).is_err());
    }

    #[test]
    fn a_dropped_chunks_buffer_serves_a_later_chunk_empty() {
        const CAP: usize = 1 << 20;
        let mut f = FilePartition::new(CAP, 0);
        f.execute(&write(0, &[0xAB; 300 << 10])).unwrap();
        let grown = f.data.capacity();
        drop(f);
        // Other tests' small buffers may sit in the list ahead of it.
        let mut held = Vec::new();
        let reused = loop {
            let g = FilePartition::new(CAP, 0);
            if g.data.capacity() >= grown {
                break g;
            }
            assert!(held.len() < 64, "the dropped buffer never came back");
            held.push(g);
        };
        assert_eq!(reused.used_bytes(), 0);
        assert_eq!(
            reused.read_at(0, 1).unwrap(),
            DsResult::Data(Blob::default())
        );
        // A chunk never takes a buffer larger than it may grow.
        drop(reused);
        assert!(FilePartition::new(64, 0).data.capacity() <= 64);
    }

    #[test]
    fn split_is_a_no_op_for_files() {
        let mut f = FilePartition::new(64, 0);
        f.execute(&write(0, b"data")).unwrap();
        let moved = f
            .split_out(&SplitSpec::FileAppend { chunk_index: 1 })
            .unwrap();
        assert!(moved.is_empty());
        assert_eq!(f.used_bytes(), 4);
        assert!(f.split_out(&SplitSpec::QueueLink).is_err());
    }
}
