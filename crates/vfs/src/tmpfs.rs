//! The in-memory backing file system.

use crate::inode::{Inode, InodeId, InodeKind};
use crate::VfsError;
use parking_lot::RwLock;
use pk_percpu::IntKeyMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A shard of the inode table. Keys are inode numbers this file system
/// handed out itself, so the multiply-and-fold [`IntKeyMap`] hasher
/// replaces SipHash on [`Tmpfs::get`].
type Shard = RwLock<IntKeyMap<u64, Arc<Inode>>>;

/// An in-memory file system, standing in for Linux's tmpfs.
///
/// The paper runs every application "on an in-memory tmpfs file system to
/// avoid disk bottlenecks" (§3, §5.1); all MOSBENCH file traffic lands
/// here. The inode table is a sharded read-mostly map; directories hold
/// their own children under per-directory locks (see [`Inode`]).
#[derive(Debug)]
pub struct Tmpfs {
    shards: Vec<Shard>,
    next: AtomicU64,
    root: InodeId,
    /// Test-only count of [`Tmpfs::get`] calls: pins how many inode-table
    /// fetches a path walk performs.
    #[cfg(test)]
    gets: AtomicU64,
}

const SHARDS: usize = 16;

impl Tmpfs {
    /// Creates a file system with an empty root directory.
    pub fn new() -> Self {
        let fs = Self {
            shards: (0..SHARDS).map(|_| Shard::default()).collect(),
            next: AtomicU64::new(1),
            root: InodeId(1),
            #[cfg(test)]
            gets: AtomicU64::new(0),
        };
        let root = fs.alloc(InodeKind::Dir);
        debug_assert_eq!(root.id, fs.root);
        fs
    }

    fn shard(&self, id: InodeId) -> &Shard {
        &self.shards[(id.0 as usize) % SHARDS]
    }

    /// Returns the root directory inode id.
    pub fn root(&self) -> InodeId {
        self.root
    }

    /// Allocates a fresh inode of `kind`.
    pub fn alloc(&self, kind: InodeKind) -> Arc<Inode> {
        let id = InodeId(self.next.fetch_add(1, Ordering::Relaxed));
        let inode = Arc::new(Inode::new(id, kind));
        self.shard(id).write().insert(id.0, Arc::clone(&inode));
        inode
    }

    /// Fetches an inode by id.
    pub fn get(&self, id: InodeId) -> Result<Arc<Inode>, VfsError> {
        #[cfg(test)]
        self.gets.fetch_add(1, Ordering::Relaxed);
        self.shard(id)
            .read()
            .get(&id.0)
            .cloned()
            .ok_or(VfsError::Stale)
    }

    /// How many times [`Tmpfs::get`] has run.
    #[cfg(test)]
    pub(crate) fn gets(&self) -> u64 {
        self.gets.load(Ordering::Relaxed)
    }

    /// Creates a child of `parent` named `name`.
    pub fn create_child(
        &self,
        parent: &Inode,
        name: &str,
        kind: InodeKind,
    ) -> Result<Arc<Inode>, VfsError> {
        if parent.kind != InodeKind::Dir {
            return Err(VfsError::NotADirectory);
        }
        if name.is_empty() || name.contains('/') {
            return Err(VfsError::InvalidArgument);
        }
        let inode = self.alloc(kind);
        if parent.insert_child(name, inode.id) {
            Ok(inode)
        } else {
            // Lost the race (or the name pre-existed): roll back.
            self.drop_inode(inode.id);
            Err(VfsError::Exists)
        }
    }

    /// Looks up `name` within `parent`.
    pub fn lookup_child(&self, parent: &Inode, name: &str) -> Result<Arc<Inode>, VfsError> {
        if parent.kind != InodeKind::Dir {
            return Err(VfsError::NotADirectory);
        }
        let id = parent.child(name).ok_or(VfsError::NotFound)?;
        self.get(id)
    }

    /// Unlinks `name` from `parent`. Directories must be empty. When the
    /// link count reaches zero the inode is freed and its cached pages
    /// are released with it.
    pub fn unlink_child(&self, parent: &Inode, name: &str) -> Result<InodeId, VfsError> {
        if parent.kind != InodeKind::Dir {
            return Err(VfsError::NotADirectory);
        }
        let id = parent.child(name).ok_or(VfsError::NotFound)?;
        let inode = self.get(id)?;
        if inode.kind == InodeKind::Dir && inode.child_count() > 0 {
            return Err(VfsError::NotEmpty);
        }
        parent.remove_child(name).ok_or(VfsError::NotFound)?;
        if inode.dec_nlink() == 0 {
            inode.invalidate_pages();
            self.drop_inode(id);
        }
        Ok(id)
    }

    /// Removes an inode from the table.
    fn drop_inode(&self, id: InodeId) {
        self.shard(id).write().remove(&id.0);
    }

    /// Returns the number of live inodes.
    pub fn inode_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }
}

impl Default for Tmpfs {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_exists() {
        let fs = Tmpfs::new();
        let root = fs.get(fs.root()).unwrap();
        assert_eq!(root.kind, InodeKind::Dir);
        assert_eq!(fs.inode_count(), 1);
    }

    #[test]
    fn create_lookup_unlink() {
        let fs = Tmpfs::new();
        let root = fs.get(fs.root()).unwrap();
        let f = fs.create_child(&root, "a.txt", InodeKind::File).unwrap();
        f.append(b"hi");
        let found = fs.lookup_child(&root, "a.txt").unwrap();
        assert_eq!(found.id, f.id);
        fs.unlink_child(&root, "a.txt").unwrap();
        assert_eq!(
            fs.lookup_child(&root, "a.txt").unwrap_err(),
            VfsError::NotFound
        );
        assert_eq!(fs.inode_count(), 1, "file inode freed");
    }

    #[test]
    fn duplicate_create_fails_and_rolls_back() {
        let fs = Tmpfs::new();
        let root = fs.get(fs.root()).unwrap();
        fs.create_child(&root, "x", InodeKind::File).unwrap();
        let before = fs.inode_count();
        assert_eq!(
            fs.create_child(&root, "x", InodeKind::File).unwrap_err(),
            VfsError::Exists
        );
        assert_eq!(fs.inode_count(), before, "no leaked inode");
    }

    #[test]
    fn non_empty_directory_cannot_be_unlinked() {
        let fs = Tmpfs::new();
        let root = fs.get(fs.root()).unwrap();
        let dir = fs.create_child(&root, "d", InodeKind::Dir).unwrap();
        fs.create_child(&dir, "inner", InodeKind::File).unwrap();
        assert_eq!(fs.unlink_child(&root, "d").unwrap_err(), VfsError::NotEmpty);
        fs.unlink_child(&dir, "inner").unwrap();
        fs.unlink_child(&root, "d").unwrap();
    }

    #[test]
    fn invalid_names_rejected() {
        let fs = Tmpfs::new();
        let root = fs.get(fs.root()).unwrap();
        assert_eq!(
            fs.create_child(&root, "", InodeKind::File).unwrap_err(),
            VfsError::InvalidArgument
        );
        assert_eq!(
            fs.create_child(&root, "a/b", InodeKind::File).unwrap_err(),
            VfsError::InvalidArgument
        );
    }

    #[test]
    fn files_are_not_directories() {
        let fs = Tmpfs::new();
        let root = fs.get(fs.root()).unwrap();
        let f = fs.create_child(&root, "f", InodeKind::File).unwrap();
        assert_eq!(
            fs.create_child(&f, "c", InodeKind::File).unwrap_err(),
            VfsError::NotADirectory
        );
        assert_eq!(
            fs.lookup_child(&f, "c").unwrap_err(),
            VfsError::NotADirectory
        );
    }

    #[test]
    fn concurrent_creates_in_one_directory() {
        let fs = Arc::new(Tmpfs::new());
        let root = fs.get(fs.root()).unwrap();
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let fs = Arc::clone(&fs);
                let root = Arc::clone(&root);
                std::thread::spawn(move || {
                    for i in 0..100 {
                        fs.create_child(&root, &format!("t{t}-{i}"), InodeKind::File)
                            .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(root.child_count(), 400);
        assert_eq!(fs.inode_count(), 401);
    }
}
