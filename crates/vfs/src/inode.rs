//! Inodes: files and directories.

use crate::pagecache::{CachedPage, Mapping, PageCache, PAGE_BYTES};
use pk_sync::{AdaptiveMutex, SpinLock};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Lock classes of the per-directory child map, of `i_mutex` and of the
/// file data, registered (in this order) by the first inode constructed.
static DIR_CHILDREN_CLASS: pk_lockdep::LazyClass = pk_lockdep::LazyClass::new(
    "vfs.inode.dir_children",
    "pk-vfs",
    pk_lockdep::LockKind::Spin,
);
static I_MUTEX_CLASS: pk_lockdep::LazyClass = pk_lockdep::LazyClass::new(
    "vfs.inode.i_mutex",
    "pk-vfs",
    pk_lockdep::LockKind::Blocking,
);
static DATA_CLASS: pk_lockdep::LazyClass =
    pk_lockdep::LazyClass::new("vfs.inode.data", "pk-vfs", pk_lockdep::LockKind::Spin);

/// A unique inode number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InodeId(pub u64);

impl fmt::Display for InodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ino:{}", self.0)
    }
}

/// Whether an inode is a regular file or a directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InodeKind {
    /// Regular file with byte contents.
    File,
    /// Directory mapping names to child inodes.
    Dir,
}

/// Hasher of a directory's entry names: FNV-1a ([`pk_fault::fnv64`])
/// continued over each write. Unkeyed, like Linux's `full_name_hash`,
/// so an empty map costs no `RandomState` keys, and a short name hashes
/// in a few multiplies instead of a SipHash-1-3 digest. The names come
/// from this program's own drivers, so no key is chosen to collide.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NameHasher(u64);

impl Default for NameHasher {
    fn default() -> Self {
        Self(pk_fault::FNV64_BASIS)
    }
}

impl Hasher for NameHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.0 = pk_fault::fnv64_continue(self.0, bytes);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A directory's entries: name → (inode, kind). The kind rides along so
/// an unlink tells a file from a directory without fetching the inode.
type Children = HashMap<String, (InodeId, InodeKind), BuildHasherDefault<NameHasher>>;

/// An in-memory inode.
///
/// Two contention points from the paper live here:
///
/// * `i_mutex` — the per-inode mutex `lseek` acquires in the stock kernel
///   (§5.5). It is an [`AdaptiveMutex`] so the starvation diagnostic is
///   observable.
/// * the per-directory lock — directory modifications lock
///   the directory's child map, which is what makes Exim's spool directories an
///   *application-level* bottleneck even on PK (§5.2).
#[derive(Debug)]
pub struct Inode {
    /// The inode number.
    pub id: InodeId,
    /// File or directory.
    pub kind: InodeKind,
    /// File size in bytes, readable atomically (the PK lseek fix).
    size: AtomicU64,
    /// Link count.
    nlink: AtomicU64,
    /// File contents (empty for directories). Also what keeps the page
    /// cache coherent: writers drop the pages they changed before they
    /// release it, fills read and publish under it. Never taken inside
    /// an RCU read-side section.
    data: SpinLock<Vec<u8>>,
    /// The page-cache mapping (`address_space`), made by the first fill:
    /// a file never read through the cache has none.
    pub(crate) mapping: OnceLock<Mapping>,
    /// Directory entries (empty for files); the lock is the per-directory
    /// lock serializing creation/removal in that directory.
    children: SpinLock<Children>,
    /// Names removed from `children` so far, bumped under its lock: a
    /// dcache fill that read a name re-validates it with one load.
    removals: AtomicU64,
    /// The per-inode mutex (`i_mutex`); stock `lseek` takes it.
    i_mutex: AdaptiveMutex<()>,
}

impl Inode {
    /// Creates a fresh inode of the given kind.
    pub fn new(id: InodeId, kind: InodeKind) -> Self {
        let inode = Self {
            id,
            kind,
            size: AtomicU64::new(0),
            nlink: AtomicU64::new(1),
            data: SpinLock::new(Vec::new()),
            mapping: OnceLock::new(),
            children: SpinLock::new(Children::default()),
            removals: AtomicU64::new(0),
            i_mutex: AdaptiveMutex::new(()),
        };
        inode.children.set_class(DIR_CHILDREN_CLASS.id());
        inode.i_mutex.set_class(I_MUTEX_CLASS.id());
        inode.data.set_class(DATA_CLASS.id());
        inode
    }

    /// Returns the file size (atomic read — the PK fast path).
    pub fn size(&self) -> u64 {
        self.size.load(Ordering::Acquire)
    }

    /// Returns the file size while holding the per-inode mutex — the
    /// stock `lseek` path. The returned guard models the serialization.
    pub fn size_locked(&self) -> u64 {
        let _g = self.i_mutex.lock();
        self.size.load(Ordering::Acquire)
    }

    /// Exposes the per-inode mutex (for stats and direct locking).
    pub fn i_mutex(&self) -> &AdaptiveMutex<()> {
        &self.i_mutex
    }

    /// Returns the current link count.
    pub fn nlink(&self) -> u64 {
        self.nlink.load(Ordering::Acquire)
    }

    /// Decrements the link count, returning the new value.
    pub fn dec_nlink(&self) -> u64 {
        self.nlink.fetch_sub(1, Ordering::AcqRel) - 1
    }

    /// Reads up to `len` bytes at `offset` into a fresh buffer.
    pub fn read_at(&self, offset: u64, len: usize) -> Vec<u8> {
        let data = self.data.lock();
        let start = (offset as usize).min(data.len());
        let end = start.saturating_add(len).min(data.len());
        data[start..end].to_vec()
    }

    /// Writes `buf` at `offset`, growing the file if needed. Returns the
    /// number of bytes written.
    pub fn write_at(&self, offset: u64, buf: &[u8]) -> usize {
        let mut data = self.data.lock();
        let (old_len, start) = (data.len(), offset as usize);
        let end = start + buf.len();
        if data.len() < end {
            data.resize(end, 0);
        }
        data[start..end].copy_from_slice(buf);
        // A write past the end also zero-fills from the old end.
        self.drop_pages(start.min(old_len), end);
        self.size.store(data.len() as u64, Ordering::Release);
        buf.len()
    }

    /// Appends `buf`, returning the offset it was written at.
    pub fn append(&self, buf: &[u8]) -> u64 {
        let mut data = self.data.lock();
        let off = data.len();
        data.extend_from_slice(buf);
        self.drop_pages(off, data.len());
        self.size.store(data.len() as u64, Ordering::Release);
        off as u64
    }

    /// Truncates the file to `len` bytes.
    pub fn truncate(&self, len: u64) {
        let mut data = self.data.lock();
        let old_len = data.len();
        data.truncate(len as usize);
        data.shrink_to_fit();
        self.drop_pages(data.len(), old_len);
        self.size.store(data.len() as u64, Ordering::Release);
    }

    /// Drops the cached pages that overlap the changed bytes
    /// `from..to`. The caller holds the data lock, so no fill can
    /// republish the old bytes behind it. One load for a file that was
    /// never read through the cache.
    fn drop_pages(&self, from: usize, to: usize) {
        if from < to {
            if let Some(mapping) = self.mapping.get() {
                mapping.drop_range((from / PAGE_BYTES) as u64..=((to - 1) / PAGE_BYTES) as u64);
            }
        }
    }

    /// Drops every cached page (the last name is gone).
    pub(crate) fn invalidate_pages(&self) {
        if let Some(mapping) = self.mapping.get() {
            let _data = self.data.lock();
            mapping.drop_range(0..=u64::MAX);
        }
    }

    /// Reads page `index` from the file and publishes it in `cache`,
    /// both under the data lock: the page cannot be older than a
    /// write that completed before it was published.
    pub(crate) fn fill_page(&self, cache: &PageCache, index: u64) -> Arc<CachedPage> {
        let data = self.data.lock();
        let start = (index as usize * PAGE_BYTES).min(data.len());
        let end = (start + PAGE_BYTES).min(data.len());
        cache.fill(self, index, data[start..end].to_vec())
    }

    /// Looks up a child by name (directories only).
    pub fn child(&self, name: &str) -> Option<InodeId> {
        self.children.lock().get(name).map(|&(id, _)| id)
    }

    /// Inserts a child entry for inode `id` of `kind`; returns `false` if
    /// the name already exists.
    pub fn insert_child(&self, name: &str, id: InodeId, kind: InodeKind) -> bool {
        use std::collections::hash_map::Entry;
        match self.children.lock().entry(name.to_string()) {
            Entry::Occupied(_) => false,
            Entry::Vacant(v) => {
                v.insert((id, kind));
                true
            }
        }
    }

    /// Removes a child entry, returning its inode id if present.
    pub fn remove_child(&self, name: &str) -> Option<InodeId> {
        let mut children = self.children.lock();
        let removed = children.remove(name).map(|(id, _)| id);
        if removed.is_some() {
            pk_percpu::owner_add(&self.removals, 1);
        }
        removed
    }

    /// Removes `name` if it names a file, in one hold of the children
    /// lock, and returns the entry it found: a directory's entry stays,
    /// for the caller to check its emptiness first. `None` when there is
    /// no such name.
    pub(crate) fn remove_file_child(&self, name: &str) -> Option<(InodeId, InodeKind)> {
        let mut children = self.children.lock();
        let entry = *children.get(name)?;
        if entry.1 == InodeKind::File {
            children.remove(name);
            pk_percpu::owner_add(&self.removals, 1);
        }
        Some(entry)
    }

    /// How many names have been removed from this directory. A name read
    /// while this was `n` still maps to the same inode for as long as it
    /// reads `n`: insertions never replace an entry.
    ///
    /// The count publishes no data, so the load is relaxed. Whatever
    /// orders a removal before a later read of this count (the
    /// `children` lock, or the dcache bucket lock an `unlink` takes
    /// after its removal) makes that read see it.
    pub(crate) fn removals(&self) -> u64 {
        self.removals.load(Ordering::Relaxed)
    }

    /// Returns the number of directory entries.
    pub fn child_count(&self) -> usize {
        self.children.lock().len()
    }

    /// Returns a snapshot of all child names (sorted, for determinism).
    pub fn child_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.children.lock().keys().cloned().collect();
        names.sort_unstable();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_round_trip() {
        let ino = Inode::new(InodeId(1), InodeKind::File);
        assert_eq!(ino.write_at(0, b"hello"), 5);
        assert_eq!(ino.size(), 5);
        assert_eq!(ino.read_at(1, 3), b"ell");
        assert_eq!(ino.read_at(10, 3), b"");
    }

    #[test]
    fn write_past_end_zero_fills() {
        let ino = Inode::new(InodeId(1), InodeKind::File);
        ino.write_at(3, b"x");
        assert_eq!(ino.size(), 4);
        assert_eq!(ino.read_at(0, 4), vec![0, 0, 0, b'x']);
    }

    #[test]
    fn append_returns_offsets() {
        let ino = Inode::new(InodeId(1), InodeKind::File);
        assert_eq!(ino.append(b"ab"), 0);
        assert_eq!(ino.append(b"cd"), 2);
        assert_eq!(ino.read_at(0, 4), b"abcd");
    }

    #[test]
    fn truncate_shrinks() {
        let ino = Inode::new(InodeId(1), InodeKind::File);
        ino.append(b"abcdef");
        ino.truncate(2);
        assert_eq!(ino.size(), 2);
        assert_eq!(ino.read_at(0, 10), b"ab");
    }

    #[test]
    fn directory_children() {
        let dir = Inode::new(InodeId(2), InodeKind::Dir);
        assert!(dir.insert_child("a", InodeId(3), InodeKind::File));
        assert!(
            !dir.insert_child("a", InodeId(4), InodeKind::File),
            "duplicate rejected"
        );
        assert_eq!(dir.child("a"), Some(InodeId(3)));
        assert_eq!(dir.child_count(), 1);
        assert_eq!(dir.remove_child("a"), Some(InodeId(3)));
        assert_eq!(dir.child("a"), None);
        assert_eq!(dir.removals(), 1);
    }

    #[test]
    fn only_a_file_entry_is_removed_in_one_hold() {
        let dir = Inode::new(InodeId(2), InodeKind::Dir);
        dir.insert_child("f", InodeId(3), InodeKind::File);
        dir.insert_child("d", InodeId(4), InodeKind::Dir);
        let holds = dir.children.stats().acquisitions();
        assert_eq!(
            dir.remove_file_child("f"),
            Some((InodeId(3), InodeKind::File))
        );
        assert_eq!(dir.children.stats().acquisitions() - holds, 1);
        assert_eq!(
            dir.remove_file_child("d"),
            Some((InodeId(4), InodeKind::Dir))
        );
        assert_eq!(dir.remove_file_child("f"), None);
        assert_eq!(dir.child_names(), ["d"], "a directory's entry stays");
        assert_eq!(dir.removals(), 1);
    }

    #[test]
    fn nlink_counts() {
        let ino = Inode::new(InodeId(1), InodeKind::File);
        assert_eq!(ino.nlink(), 1);
        assert_eq!(ino.dec_nlink(), 0);
    }

    #[test]
    fn size_locked_matches_atomic() {
        let ino = Inode::new(InodeId(1), InodeKind::File);
        ino.append(b"12345678");
        assert_eq!(ino.size_locked(), ino.size());
        assert_eq!(ino.i_mutex().stats().acquisitions(), 1);
    }
}
