//! Open file descriptions and `lseek`.

use crate::config::VfsConfig;
use crate::inode::{Inode, InodeKind};
use crate::stats::VfsStats;
use crate::superblock::OpenFileId;
use crate::VfsError;
use pk_percpu::CoreId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// `lseek` origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Whence {
    /// Absolute offset (`SEEK_SET`).
    Set,
    /// Relative to the current offset (`SEEK_CUR`).
    Cur,
    /// Relative to end of file (`SEEK_END`).
    End,
}

/// An open file description: an inode plus a file offset.
///
/// `lseek(SEEK_END)` must read the inode size. In the stock kernel that
/// "acquires a mutex on the corresponding inode," and because "Linux's
/// adaptive mutex implementation suffers from starvation under intense
/// contention," PostgreSQL collapses at 36+ cores (§5.5). "The mutex
/// acquisition turns out not to be necessary, and PK eliminates it" with
/// an atomic size read — [`VfsConfig::atomic_lseek`] selects the path.
#[derive(Debug)]
pub struct OpenFile {
    /// The open-file id registered with the super block.
    pub id: OpenFileId,
    /// The core whose open-file list holds this file.
    pub home_core: CoreId,
    /// The underlying inode.
    pub inode: Arc<Inode>,
    offset: AtomicU64,
    config: VfsConfig,
    stats: Arc<VfsStats>,
}

impl OpenFile {
    /// Creates an open file description at offset 0.
    pub fn new(
        id: OpenFileId,
        home_core: CoreId,
        inode: Arc<Inode>,
        config: VfsConfig,
        stats: Arc<VfsStats>,
    ) -> Self {
        Self {
            id,
            home_core,
            inode,
            offset: AtomicU64::new(0),
            config,
            stats,
        }
    }

    /// Returns the current file offset.
    pub fn offset(&self) -> u64 {
        self.offset.load(Ordering::Acquire)
    }

    /// Repositions the file offset, returning the new value.
    ///
    /// `SEEK_END` reads the inode size via the stock mutex path or the PK
    /// atomic path, depending on configuration.
    pub fn lseek(&self, offset: i64, whence: Whence) -> Result<u64, VfsError> {
        let base: i64 = match whence {
            Whence::Set => 0,
            Whence::Cur => self.offset() as i64,
            Whence::End => {
                if self.config.atomic_lseek {
                    self.stats.lseek_atomic_reads.bump();
                    self.inode.size() as i64
                } else {
                    self.stats.lseek_mutex_acquisitions.bump();
                    self.inode.size_locked() as i64
                }
            }
        };
        let target = base + offset;
        if target < 0 {
            return Err(VfsError::InvalidArgument);
        }
        self.offset.store(target as u64, Ordering::Release);
        Ok(target as u64)
    }

    /// Reads up to `len` bytes at the current offset, advancing it.
    pub fn read(&self, len: usize) -> Result<Vec<u8>, VfsError> {
        if self.inode.kind == InodeKind::Dir {
            return Err(VfsError::IsADirectory);
        }
        let off = self.offset();
        let data = self.inode.read_at(off, len);
        self.offset.fetch_add(data.len() as u64, Ordering::AcqRel);
        Ok(data)
    }

    /// Reads up to `len` bytes at an explicit offset (`pread`).
    pub fn read_at(&self, offset: u64, len: usize) -> Result<Vec<u8>, VfsError> {
        if self.inode.kind == InodeKind::Dir {
            return Err(VfsError::IsADirectory);
        }
        Ok(self.inode.read_at(offset, len))
    }

    /// Writes `buf` at the current offset, advancing it.
    pub fn write(&self, buf: &[u8]) -> Result<usize, VfsError> {
        if self.inode.kind == InodeKind::Dir {
            return Err(VfsError::IsADirectory);
        }
        let off = self.offset();
        let n = self.inode.write_at(off, buf);
        self.offset.fetch_add(n as u64, Ordering::AcqRel);
        Ok(n)
    }

    /// Appends `buf` at end of file (`O_APPEND` semantics).
    pub fn append(&self, buf: &[u8]) -> Result<u64, VfsError> {
        if self.inode.kind == InodeKind::Dir {
            return Err(VfsError::IsADirectory);
        }
        let off = self.inode.append(buf);
        self.offset.store(off + buf.len() as u64, Ordering::Release);
        Ok(off)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inode::InodeId;

    fn file(atomic_lseek: bool) -> (OpenFile, Arc<VfsStats>) {
        let stats = Arc::new(VfsStats::new());
        let mut cfg = VfsConfig::pk(4);
        cfg.atomic_lseek = atomic_lseek;
        let inode = Arc::new(Inode::new(InodeId(1), InodeKind::File));
        inode.append(b"0123456789");
        (
            OpenFile::new(OpenFileId(1), CoreId(0), inode, cfg, Arc::clone(&stats)),
            stats,
        )
    }

    #[test]
    fn seek_set_cur_end() {
        let (f, _) = file(true);
        assert_eq!(f.lseek(4, Whence::Set).unwrap(), 4);
        assert_eq!(f.lseek(2, Whence::Cur).unwrap(), 6);
        assert_eq!(f.lseek(-1, Whence::End).unwrap(), 9);
        assert_eq!(f.lseek(-100, Whence::Set), Err(VfsError::InvalidArgument));
    }

    #[test]
    fn lseek_paths_are_instrumented() {
        let (f, stats) = file(true);
        f.lseek(0, Whence::End).unwrap();
        assert_eq!(stats.lseek_atomic_reads.load(Ordering::Relaxed), 1);
        assert_eq!(stats.lseek_mutex_acquisitions.load(Ordering::Relaxed), 0);

        let (f2, stats2) = file(false);
        f2.lseek(0, Whence::End).unwrap();
        assert_eq!(stats2.lseek_mutex_acquisitions.load(Ordering::Relaxed), 1);
        assert_eq!(f2.inode.i_mutex().stats().acquisitions(), 1);
    }

    #[test]
    fn sequential_reads_advance() {
        let (f, _) = file(true);
        assert_eq!(f.read(4).unwrap(), b"0123");
        assert_eq!(f.read(4).unwrap(), b"4567");
        assert_eq!(f.read(4).unwrap(), b"89");
        assert_eq!(f.read(4).unwrap(), b"");
    }

    #[test]
    fn writes_advance_offset() {
        let (f, _) = file(true);
        f.lseek(0, Whence::End).unwrap();
        f.write(b"ab").unwrap();
        assert_eq!(f.offset(), 12);
        assert_eq!(f.read_at(10, 2).unwrap(), b"ab");
    }

    #[test]
    fn append_lands_at_eof() {
        let (f, _) = file(true);
        assert_eq!(f.append(b"xy").unwrap(), 10);
        assert_eq!(f.inode.size(), 12);
    }
}
