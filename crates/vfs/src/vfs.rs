//! The VFS facade: syscall-shaped operations over all the pieces.

use crate::config::VfsConfig;
use crate::dcache::Dcache;
use crate::dentry::DentryProbe;
use crate::file::OpenFile;
use crate::inode::{InodeId, InodeKind};
use crate::mount::MountTable;
use crate::namei::PathWalker;
use crate::pagecache::{PageCache, PAGE_BYTES};
use crate::stats::VfsStats;
use crate::superblock::SuperBlock;
use crate::tmpfs::Tmpfs;
use crate::VfsError;
use pk_percpu::CoreId;
use std::sync::Arc;

/// Metadata returned by [`Vfs::stat`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stat {
    /// Inode number.
    pub ino: InodeId,
    /// File or directory.
    pub kind: InodeKind,
    /// Size in bytes.
    pub size: u64,
    /// Link count.
    pub nlink: u64,
}

/// The assembled virtual file system: tmpfs + dcache + mount table +
/// super block, all driven by one [`VfsConfig`].
///
/// Operations take an explicit [`CoreId`] — the acting CPU — because
/// every Figure-1 fix is about *which core's* data gets touched.
///
/// # Examples
///
/// ```
/// use pk_percpu::CoreId;
/// use pk_vfs::{Vfs, VfsConfig, Whence};
///
/// let vfs = Vfs::new(VfsConfig::pk(4));
/// let core = CoreId(0);
/// vfs.mkdir_p("/var/spool", core).unwrap();
/// let f = vfs.create("/var/spool/msg1", core).unwrap();
/// f.append(b"mail body").unwrap();
/// assert_eq!(f.lseek(0, Whence::End).unwrap(), 9);
/// vfs.close(&f, core);
/// vfs.unlink("/var/spool/msg1", core).unwrap();
/// ```
#[derive(Debug)]
pub struct Vfs {
    config: VfsConfig,
    stats: Arc<VfsStats>,
    fs: Tmpfs,
    dcache: Dcache,
    mounts: MountTable,
    sb: SuperBlock,
    pages: PageCache,
}

impl Vfs {
    /// Creates an empty file system under `config`.
    pub fn new(config: VfsConfig) -> Self {
        Self::with_faults(config, &pk_fault::FaultPlane::disabled())
    }

    /// Like [`Vfs::new`], with dentry-allocation failure and dcache
    /// pressure injectable through `faults` (`vfs.dentry_alloc`,
    /// `vfs.dcache_pressure`).
    pub fn with_faults(config: VfsConfig, faults: &pk_fault::FaultPlane) -> Self {
        let stats = Arc::new(VfsStats::new());
        Self {
            config,
            fs: Tmpfs::new(),
            dcache: Dcache::with_faults(4096, config, Arc::clone(&stats), faults),
            mounts: MountTable::new(config, Arc::clone(&stats)),
            sb: SuperBlock::new(config, Arc::clone(&stats)),
            pages: PageCache::default(),
            stats,
        }
    }

    fn walker(&self) -> PathWalker<'_> {
        PathWalker::new(&self.fs, &self.dcache, &self.mounts)
    }

    /// Returns the contention diagnostics.
    pub fn stats(&self) -> &Arc<VfsStats> {
        &self.stats
    }

    /// Returns the mount table (to add mounts for workloads).
    pub fn mounts(&self) -> &MountTable {
        &self.mounts
    }

    /// Returns the super block.
    pub fn superblock(&self) -> &SuperBlock {
        &self.sb
    }

    /// Returns the backing file system.
    pub fn tmpfs(&self) -> &Tmpfs {
        &self.fs
    }

    /// Returns the dentry cache.
    pub fn dcache(&self) -> &Dcache {
        &self.dcache
    }

    /// Returns the page (buffer) cache.
    pub fn page_cache(&self) -> &PageCache {
        &self.pages
    }

    /// Reads a whole file through the buffer cache: pages are filled
    /// from tmpfs on first access and served lock-free afterwards —
    /// the way Apache's static file "resides in the kernel buffer
    /// cache" (§5.4).
    pub fn read_cached(&self, path: &str, core: CoreId) -> Result<Vec<u8>, VfsError> {
        let inode = self.walker().resolve(path, core)?;
        if inode.kind == InodeKind::Dir {
            return Err(VfsError::IsADirectory);
        }
        let size = inode.size() as usize;
        let mut out = Vec::with_capacity(size);
        let pages = size.div_ceil(PAGE_BYTES).max(1);
        for idx in 0..pages as u64 {
            let page = match self.pages.lookup(&inode, idx) {
                Some(p) => p,
                None => inode.fill_page(&self.pages, idx),
            };
            out.extend_from_slice(&page.data);
            self.pages.put(&page);
        }
        out.truncate(size);
        Ok(out)
    }

    /// Creates all missing directories along `path`.
    pub fn mkdir_p(&self, path: &str, _core: CoreId) -> Result<(), VfsError> {
        let comps = PathWalker::components(path)?;
        let mut cur = self.fs.get(self.fs.root())?;
        for comp in comps {
            cur = match self.fs.lookup_child(&cur, comp) {
                Ok(next) => next,
                Err(VfsError::NotFound) => {
                    self.sb.inode_list_bookkeeping(true);
                    match self.fs.create_child(&cur, comp, InodeKind::Dir) {
                        Ok(d) => d,
                        // Lost a race with a concurrent mkdir.
                        Err(VfsError::Exists) => self.fs.lookup_child(&cur, comp)?,
                        Err(e) => return Err(e),
                    }
                }
                Err(e) => return Err(e),
            };
            if cur.kind != InodeKind::Dir {
                return Err(VfsError::NotADirectory);
            }
        }
        Ok(())
    }

    /// Creates and opens a new file (`O_CREAT | O_EXCL`).
    pub fn create(&self, path: &str, core: CoreId) -> Result<Arc<OpenFile>, VfsError> {
        if self.sb.is_read_only() {
            return Err(VfsError::ReadOnly);
        }
        let pl = self.walker().resolve_parent(path, core)?;
        self.sb.inode_list_bookkeeping(true); // new inode joins the list
        let seen = pl.parent.removals();
        let inode = self.fs.create_child(&pl.parent, pl.name, InodeKind::File)?;
        let probe = DentryProbe::new(pl.parent.id, pl.name);
        // A racing unlink of the new name leaves it uncached; the create
        // still happened, before that unlink.
        if let Err(e) = self.walker().fill(&pl.parent, probe, inode.id, seen, core) {
            // Error-path resource release: undo the creation so the
            // failed syscall leaves no half-made file behind.
            let _ = self.fs.unlink_child(&pl.parent, pl.name);
            return Err(e);
        }
        let (id, home) = self.sb.add_open_file(core);
        Ok(Arc::new(OpenFile::new(
            id,
            home,
            inode,
            self.config,
            Arc::clone(&self.stats),
        )))
    }

    /// Opens an existing file.
    pub fn open(&self, path: &str, core: CoreId) -> Result<Arc<OpenFile>, VfsError> {
        let inode = self.walker().resolve(path, core)?;
        if inode.kind == InodeKind::Dir {
            return Err(VfsError::IsADirectory);
        }
        // Opening an existing file does not change inode-list membership;
        // PK skips the global list lock here (Figure 1: "avoid acquiring
        // the locks when not necessary").
        self.sb.inode_list_bookkeeping(false);
        let (id, home) = self.sb.add_open_file(core);
        Ok(Arc::new(OpenFile::new(
            id,
            home,
            inode,
            self.config,
            Arc::clone(&self.stats),
        )))
    }

    /// Closes an open file on `core` (which may differ from the core it
    /// was opened on — the expensive case for per-core open lists).
    pub fn close(&self, file: &OpenFile, core: CoreId) {
        self.sb.remove_open_file(file.id, file.home_core, core);
    }

    /// Removes the file at `path`.
    pub fn unlink(&self, path: &str, core: CoreId) -> Result<(), VfsError> {
        if self.sb.is_read_only() {
            return Err(VfsError::ReadOnly);
        }
        let pl = self.walker().resolve_parent(path, core)?;
        self.sb.dcache_list_bookkeeping(true); // dentry leaves the cache
        self.sb.inode_list_bookkeeping(true); // inode may be freed

        // The name leaves the directory before its dentry leaves the
        // cache, as in `rename`: a fill that read the name either caches
        // it before the removal below or sees the directory's removal
        // count move (see `PathWalker::fill`).
        self.fs.unlink_child(&pl.parent, pl.name)?;
        self.dcache
            .remove(DentryProbe::new(pl.parent.id, pl.name), core);
        Ok(())
    }

    /// Renames `old` to `new` (both absolute paths; `new` must not
    /// exist). This is the `mv foo bar` that parks dentry generations.
    pub fn rename(&self, old: &str, new: &str, core: CoreId) -> Result<(), VfsError> {
        let old_pl = self.walker().resolve_parent(old, core)?;
        let new_pl = self.walker().resolve_parent(new, core)?;
        let inode = self.fs.lookup_child(&old_pl.parent, old_pl.name)?;
        if !new_pl
            .parent
            .insert_child(new_pl.name, inode.id, inode.kind)
        {
            return Err(VfsError::Exists);
        }
        old_pl.parent.remove_child(old_pl.name);
        // Invalidate the old name in the dcache; populate the new one
        // lazily on the next lookup.
        self.sb.dcache_list_bookkeeping(true);
        self.dcache
            .remove(DentryProbe::new(old_pl.parent.id, old_pl.name), core);
        Ok(())
    }

    /// Returns metadata for `path` — the `stat` every Apache request
    /// performs (§3.3).
    pub fn stat(&self, path: &str, core: CoreId) -> Result<Stat, VfsError> {
        let inode = self.walker().resolve(path, core)?;
        Ok(Stat {
            ino: inode.id,
            kind: inode.kind,
            size: inode.size(),
            nlink: inode.nlink(),
        })
    }

    /// Convenience: writes an entire file (creating it if missing).
    pub fn write_file(&self, path: &str, data: &[u8], core: CoreId) -> Result<(), VfsError> {
        let file = match self.create(path, core) {
            Ok(f) => f,
            Err(VfsError::Exists) => self.open(path, core)?,
            Err(e) => return Err(e),
        };
        file.inode.truncate(0);
        file.write(data)?;
        self.close(&file, core);
        Ok(())
    }

    /// Convenience: reads an entire file.
    pub fn read_file(&self, path: &str, core: CoreId) -> Result<Vec<u8>, VfsError> {
        let file = self.open(path, core)?;
        let data = file.read_at(0, file.inode.size() as usize)?;
        self.close(&file, core);
        Ok(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dentry::DentryKey;
    use crate::file::Whence;

    fn pk() -> Vfs {
        Vfs::new(VfsConfig::pk(4))
    }

    #[test]
    fn create_write_read_cycle() {
        let vfs = pk();
        let core = CoreId(0);
        vfs.mkdir_p("/home/user", core).unwrap();
        vfs.write_file("/home/user/f.txt", b"content", core)
            .unwrap();
        assert_eq!(vfs.read_file("/home/user/f.txt", core).unwrap(), b"content");
        let st = vfs.stat("/home/user/f.txt", core).unwrap();
        assert_eq!(st.size, 7);
        assert_eq!(st.kind, InodeKind::File);
    }

    #[test]
    fn open_missing_is_enoent() {
        let vfs = pk();
        assert_eq!(
            vfs.open("/nope", CoreId(0)).unwrap_err(),
            VfsError::NotFound
        );
    }

    #[test]
    fn create_duplicate_is_eexist() {
        let vfs = pk();
        let core = CoreId(0);
        let f = vfs.create("/a", core).unwrap();
        vfs.close(&f, core);
        assert_eq!(vfs.create("/a", core).unwrap_err(), VfsError::Exists);
    }

    #[test]
    fn unlink_removes_and_invalidates_cache() {
        let vfs = pk();
        let core = CoreId(0);
        let f = vfs.create("/tmp1", core).unwrap();
        vfs.close(&f, core);
        vfs.stat("/tmp1", core).unwrap(); // warm the dcache
        vfs.unlink("/tmp1", core).unwrap();
        assert_eq!(vfs.stat("/tmp1", core).unwrap_err(), VfsError::NotFound);
    }

    #[test]
    fn a_racing_walkers_insert_does_not_poison_the_name() {
        for cfg in [VfsConfig::stock(4), VfsConfig::pk(4)] {
            let vfs = Vfs::new(cfg);
            let core = CoreId(0);
            vfs.write_file("/f", b"1", core).unwrap();
            let ino = vfs.stat("/f", core).unwrap().ino;
            // What a walker that missed `f` alongside the creator does.
            let key = DentryKey::new(vfs.tmpfs().root(), "f");
            vfs.dcache().insert(key, ino, core).unwrap().put(core);
            vfs.unlink("/f", core).unwrap();
            assert_eq!(vfs.stat("/f", core).unwrap_err(), VfsError::NotFound);
            vfs.write_file("/f", b"22", core).unwrap();
            assert_eq!(vfs.stat("/f", core).unwrap().size, 2);
            assert_eq!(vfs.read_file("/f", core).unwrap(), b"22");
        }
    }

    #[test]
    fn a_fill_racing_an_unlink_does_not_poison_the_name() {
        use crate::namei::FILL_SITE;
        use pk_lockdep::probe;
        for cfg in [VfsConfig::stock(4), VfsConfig::pk(4)] {
            let vfs = Arc::new(Vfs::new(cfg));
            let core = CoreId(0);
            // The probe runs between a fill's directory read and its
            // dcache fill: `unlink` finishes in that window.
            let unlink = |path: &'static str| {
                let vfs = Arc::clone(&vfs);
                probe::once(move || vfs.unlink(path, core).unwrap())
            };

            // A cold walk reads `f` from the directory.
            vfs.write_file("/f", b"1", core).unwrap();
            vfs.dcache().shrink(usize::MAX, core);
            let raced = probe::with(FILL_SITE, unlink("/f"), || vfs.stat("/f", core));
            assert_eq!(raced.unwrap_err(), VfsError::NotFound, "{cfg:?}");
            assert_eq!(vfs.stat("/f", core).unwrap_err(), VfsError::NotFound);
            vfs.write_file("/f", b"22", core).unwrap();
            assert_eq!(vfs.read_file("/f", core).unwrap(), b"22");

            // `create` put the name in the directory itself.
            let f = probe::with(FILL_SITE, unlink("/g"), || vfs.create("/g", core)).unwrap();
            vfs.close(&f, core);
            assert_eq!(vfs.stat("/g", core).unwrap_err(), VfsError::NotFound);
            let f = vfs.create("/g", core).unwrap();
            vfs.close(&f, core);
            vfs.open("/g", core).map(|f| vfs.close(&f, core)).unwrap();
            assert_eq!(vfs.superblock().open_files(), 0);
        }
    }

    #[test]
    fn two_walkers_missing_the_same_cold_path_cache_it_once() {
        for cfg in [VfsConfig::stock(4), VfsConfig::pk(4)] {
            let vfs = Vfs::new(cfg);
            vfs.mkdir_p("/a/b/c", CoreId(0)).unwrap();
            vfs.write_file("/a/b/c/f", b"x", CoreId(0)).unwrap();
            // `write_file` cached the whole path; start cold again.
            vfs.dcache().shrink(usize::MAX, CoreId(0));
            assert!(vfs.dcache().is_empty());
            let start = std::sync::Barrier::new(2);
            std::thread::scope(|s| {
                for t in 0..2 {
                    let (vfs, start) = (&vfs, &start);
                    s.spawn(move || {
                        start.wait();
                        assert_eq!(vfs.stat("/a/b/c/f", CoreId(t)).unwrap().size, 1);
                    });
                }
            });
            assert_eq!(vfs.dcache().len(), 4, "one dentry per component");
            vfs.unlink("/a/b/c/f", CoreId(0)).unwrap();
            assert_eq!(
                vfs.stat("/a/b/c/f", CoreId(1)).unwrap_err(),
                VfsError::NotFound
            );
        }
    }

    #[test]
    fn rename_moves_the_file() {
        let vfs = pk();
        let core = CoreId(0);
        vfs.mkdir_p("/a/b", core).unwrap();
        vfs.write_file("/a/b/x", b"1", core).unwrap();
        vfs.stat("/a/b/x", core).unwrap();
        vfs.rename("/a/b/x", "/a/y", core).unwrap();
        assert_eq!(vfs.stat("/a/b/x", core).unwrap_err(), VfsError::NotFound);
        assert_eq!(vfs.stat("/a/y", core).unwrap().size, 1);
    }

    #[test]
    fn rename_to_existing_fails() {
        let vfs = pk();
        let core = CoreId(0);
        vfs.write_file("/p", b"1", core).unwrap();
        vfs.write_file("/q", b"2", core).unwrap();
        assert_eq!(vfs.rename("/p", "/q", core).unwrap_err(), VfsError::Exists);
    }

    #[test]
    fn remount_read_only_blocks_writes() {
        let vfs = pk();
        let core = CoreId(0);
        let f = vfs.create("/f", core).unwrap();
        assert_eq!(vfs.superblock().remount_read_only(), Err(VfsError::Busy));
        vfs.close(&f, core);
        vfs.superblock().remount_read_only().unwrap();
        assert_eq!(vfs.create("/g", core).unwrap_err(), VfsError::ReadOnly);
        assert_eq!(vfs.unlink("/f", core).unwrap_err(), VfsError::ReadOnly);
        vfs.superblock().remount_read_write();
        vfs.unlink("/f", core).unwrap();
    }

    #[test]
    fn lseek_end_works_through_facade() {
        for cfg in [VfsConfig::stock(4), VfsConfig::pk(4)] {
            let vfs = Vfs::new(cfg);
            let core = CoreId(1);
            vfs.write_file("/data", b"0123456789", core).unwrap();
            let f = vfs.open("/data", core).unwrap();
            assert_eq!(f.lseek(0, Whence::End).unwrap(), 10);
            vfs.close(&f, core);
        }
    }

    #[test]
    fn stock_and_pk_agree_functionally() {
        // The same operation sequence must produce identical results
        // under every config — the fixes change performance, not
        // semantics.
        for cfg in [VfsConfig::stock(4), VfsConfig::pk(4)] {
            let vfs = Vfs::new(cfg);
            let core = CoreId(2);
            vfs.mkdir_p("/var/spool/input", core).unwrap();
            for i in 0..10 {
                vfs.write_file(&format!("/var/spool/input/m{i}"), b"msg", core)
                    .unwrap();
            }
            for i in 0..10 {
                assert_eq!(
                    vfs.read_file(&format!("/var/spool/input/m{i}"), core)
                        .unwrap(),
                    b"msg"
                );
                vfs.unlink(&format!("/var/spool/input/m{i}"), core).unwrap();
            }
            assert_eq!(
                vfs.stat("/var/spool/input", core).unwrap().kind,
                InodeKind::Dir
            );
        }
    }

    #[test]
    fn read_cached_round_trips_and_hits() {
        let vfs = pk();
        let core = CoreId(0);
        let body: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        vfs.write_file("/big", &body, core).unwrap();
        assert_eq!(vfs.read_cached("/big", core).unwrap(), body);
        let misses = vfs
            .page_cache()
            .stats()
            .misses
            .load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(misses, 3, "10000 bytes = 3 pages filled");
        assert_eq!(vfs.read_cached("/big", core).unwrap(), body);
        assert_eq!(
            vfs.page_cache()
                .stats()
                .misses
                .load(std::sync::atomic::Ordering::Relaxed),
            misses,
            "second read is all hits"
        );
        // Rewrite invalidates.
        vfs.write_file("/big", b"short", core).unwrap();
        assert_eq!(vfs.read_cached("/big", core).unwrap(), b"short");
    }

    #[test]
    fn unlink_invalidates_pages() {
        let vfs = pk();
        let core = CoreId(0);
        vfs.write_file("/f", b"cache me", core).unwrap();
        vfs.read_cached("/f", core).unwrap();
        assert_eq!(vfs.page_cache().len(), 1);
        vfs.unlink("/f", core).unwrap();
        assert_eq!(vfs.page_cache().len(), 0);
    }

    /// `read_cached` and `read_file` agree, and both equal `want`.
    fn assert_coherent(vfs: &Vfs, path: &str, want: &[u8]) {
        let core = CoreId(0);
        assert_eq!(vfs.read_file(path, core).unwrap(), want);
        assert_eq!(vfs.read_cached(path, core).unwrap(), want);
    }

    #[test]
    fn writes_through_an_open_file_reach_read_cached() {
        // Neither write below passes through `write_file`: the inode
        // itself has to drop the pages, or `read_cached` serves "hello".
        for cfg in [VfsConfig::stock(4), VfsConfig::pk(4)] {
            let vfs = Vfs::new(cfg);
            let core = CoreId(0);
            vfs.write_file("/f", b"hello", core).unwrap();
            assert_coherent(&vfs, "/f", b"hello");
            let f = vfs.open("/f", core).unwrap();
            f.append(b" world").unwrap();
            vfs.close(&f, core);
            assert_coherent(&vfs, "/f", b"hello world");
            let f = vfs.open("/f", core).unwrap();
            f.write(b"J").unwrap();
            vfs.close(&f, core);
            assert_coherent(&vfs, "/f", b"Jello world");
        }
    }

    #[test]
    fn truncate_below_a_cached_page_drops_it() {
        let vfs = pk();
        let core = CoreId(0);
        let body: Vec<u8> = (0..3 * PAGE_BYTES).map(|i| (i % 251) as u8).collect();
        vfs.write_file("/f", &body, core).unwrap();
        assert_coherent(&vfs, "/f", &body);
        assert_eq!(vfs.page_cache().len(), 3);
        let f = vfs.open("/f", core).unwrap();
        // Into page 1: page 0 is untouched and stays, pages 1 and 2 go.
        f.inode.truncate(PAGE_BYTES as u64 + 10);
        assert_eq!(vfs.page_cache().len(), 1);
        assert_coherent(&vfs, "/f", &body[..PAGE_BYTES + 10]);
        // Growing back zero-fills; the short page 1 must not survive.
        f.inode.write_at(2 * PAGE_BYTES as u64, b"tail");
        let mut grown = body[..PAGE_BYTES + 10].to_vec();
        grown.resize(2 * PAGE_BYTES, 0);
        grown.extend_from_slice(b"tail");
        assert_coherent(&vfs, "/f", &grown);
        f.inode.truncate(0);
        assert_eq!(vfs.page_cache().len(), 0);
        assert_coherent(&vfs, "/f", b"");
        vfs.close(&f, core);
    }

    #[test]
    fn readers_see_whole_records_while_a_writer_appends() {
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
        const RECORD: usize = 1000; // not a divisor of the page size
        const RECORDS: usize = 40;
        fn record(i: usize) -> Vec<u8> {
            vec![i as u8; RECORD]
        }
        for cfg in [VfsConfig::stock(4), VfsConfig::pk(4)] {
            let vfs = Vfs::new(cfg);
            vfs.write_file("/log", b"", CoreId(0)).unwrap();
            let (done, reads) = (AtomicBool::new(false), AtomicUsize::new(0));
            std::thread::scope(|s| {
                let readers: Vec<_> = (1..4)
                    .map(|t| {
                        let (vfs, done, reads) = (&vfs, &done, &reads);
                        s.spawn(move || {
                            while !done.load(SeqCst) {
                                let got = vfs.read_cached("/log", CoreId(t)).unwrap();
                                reads.fetch_add(1, SeqCst);
                                assert_eq!(got.len() % RECORD, 0, "torn tail");
                                for (i, rec) in got.chunks(RECORD).enumerate() {
                                    assert_eq!(rec, record(i), "record {i} of {}", got.len());
                                }
                            }
                        })
                    })
                    .collect();
                let f = vfs.open("/log", CoreId(0)).unwrap();
                for i in 0..RECORDS {
                    f.append(&record(i)).unwrap();
                    // Each append is followed by at least one cached read,
                    // so appends land on pages a reader has just filled
                    // (unless every reader already failed: then just end).
                    let seen = reads.load(SeqCst);
                    while reads.load(SeqCst) == seen && !readers.iter().all(|r| r.is_finished()) {
                        std::thread::yield_now();
                    }
                }
                vfs.close(&f, CoreId(0));
                done.store(true, SeqCst);
            });
            let want: Vec<u8> = (0..RECORDS).flat_map(record).collect();
            assert_coherent(&vfs, "/log", &want);
        }
    }

    #[test]
    fn failed_create_rolls_back_the_inode() {
        let faults = pk_fault::FaultPlane::with_seed(3);
        faults.set("vfs.dentry_alloc", pk_fault::FaultSchedule::OneShot(0));
        faults.enable();
        let vfs = Vfs::with_faults(VfsConfig::pk(4), &faults);
        let core = CoreId(0);
        assert_eq!(
            vfs.create("/f", core).unwrap_err(),
            VfsError::OutOfMemory,
            "dentry allocation failure surfaces as ENOMEM"
        );
        // The rollback removed the half-created file: a later create of
        // the same name succeeds (no phantom EEXIST) and opens cleanly.
        let f = vfs.create("/f", core).unwrap();
        vfs.close(&f, core);
        assert_eq!(vfs.superblock().open_files(), 0);
    }

    #[test]
    fn dcache_pressure_degrades_to_uncached_resolution() {
        let faults = pk_fault::FaultPlane::with_seed(5);
        faults.set("vfs.dcache_pressure", pk_fault::FaultSchedule::EveryNth(1));
        faults.set("vfs.dentry_alloc", pk_fault::FaultSchedule::EveryNth(1));
        let vfs = Vfs::with_faults(VfsConfig::pk(4), &faults);
        let core = CoreId(0);
        vfs.mkdir_p("/deep/dir", core).unwrap();
        vfs.write_file("/deep/dir/f", b"still here", core).unwrap();
        // Arm only after the tree exists; now every lookup misses and
        // every re-populate fails.
        faults.enable();
        // Every lookup misses and every re-populate fails, but reads
        // still succeed via the backing fs — slower, never wrong.
        assert_eq!(vfs.read_file("/deep/dir/f", core).unwrap(), b"still here");
        let s = vfs.stats();
        assert!(
            s.dcache_pressure_misses
                .load(std::sync::atomic::Ordering::Relaxed)
                > 0
        );
        assert!(
            s.dentry_alloc_failures
                .load(std::sync::atomic::Ordering::Relaxed)
                > 0
        );
    }

    #[test]
    fn concurrent_spool_traffic() {
        let vfs = Arc::new(pk());
        vfs.mkdir_p("/spool", CoreId(0)).unwrap();
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let vfs = Arc::clone(&vfs);
                std::thread::spawn(move || {
                    let core = CoreId(t);
                    for i in 0..50 {
                        let path = format!("/spool/t{t}-{i}");
                        vfs.write_file(&path, b"mail", core).unwrap();
                        assert_eq!(vfs.read_file(&path, core).unwrap(), b"mail");
                        vfs.unlink(&path, core).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(vfs.stat("/spool", CoreId(0)).unwrap().kind, InodeKind::Dir);
        assert_eq!(vfs.superblock().open_files(), 0);
    }

    #[test]
    fn the_rcu_walk_fetches_one_inode_however_deep_the_path() {
        let vfs = pk();
        let core = CoreId(0);
        vfs.mkdir_p("/a/b/c/d", core).unwrap();
        vfs.write_file("/a/b/c/d/e", b"leaf", core).unwrap();
        vfs.mkdir_p("/htdocs", core).unwrap();
        vfs.write_file("/htdocs/index.html", b"<html>", core)
            .unwrap();
        // Warm the dcache and this core's mount snapshot.
        vfs.stat("/a/b/c/d/e", core).unwrap();
        vfs.stat("/htdocs/index.html", core).unwrap();

        let before = vfs.tmpfs().gets();
        let ino = vfs.walker().resolve_rcu("/a/b/c/d/e", core);
        assert_eq!(ino.unwrap().unwrap().read_at(0, 4), b"leaf");
        assert_eq!(
            vfs.tmpfs().gets() - before,
            1,
            "five components, one inode-table fetch: the result's"
        );

        // One Apache request: stat, open, read of the cached file.
        let before = vfs.tmpfs().gets();
        vfs.stat("/htdocs/index.html", core).unwrap();
        let file = vfs.open("/htdocs/index.html", core).unwrap();
        assert_eq!(
            vfs.read_cached("/htdocs/index.html", core).unwrap(),
            b"<html>"
        );
        assert_eq!(vfs.tmpfs().gets() - before, 3, "one fetch per syscall");
        vfs.close(&file, core);

        // The reference walk carries numbers too: one fetch for the
        // result, plus one per cold component for the directory it is
        // filled from.
        let refwalk = VfsConfig {
            rcu_path_walk: false,
            ..VfsConfig::pk(4)
        };
        for cfg in [VfsConfig::stock(4), refwalk] {
            let vfs = Vfs::new(cfg);
            vfs.mkdir_p("/a/b/c/d", core).unwrap();
            vfs.write_file("/a/b/c/d/e", b"leaf", core).unwrap();
            let w = vfs.walker();
            let gets = |f: &dyn Fn()| {
                let before = vfs.tmpfs().gets();
                f();
                vfs.tmpfs().gets() - before
            };
            let leaf = || assert_eq!(w.resolve_ref("/a/b/c/d/e", core).unwrap().size(), 4);
            let parent = || assert_eq!(w.resolve_parent("/a/b/c/d/e", core).unwrap().name, "e");
            for path in ["/", "/a", "/a/b/c/d/e"] {
                let walk = || assert!(w.resolve_ref(path, core).is_ok());
                assert_eq!(gets(&walk), 1, "{cfg:?}: warm {path}");
            }
            assert_eq!(gets(&parent), 1, "{cfg:?}: warm parent walk");
            vfs.dcache().shrink(usize::MAX, core);
            assert_eq!(gets(&parent), 1 + 4, "{cfg:?}: four cold directories");
            assert_eq!(gets(&leaf), 1 + 1, "{cfg:?}: the leaf's directory");
            assert_eq!(gets(&leaf), 1, "{cfg:?}: warm again");
        }
    }

    #[test]
    fn a_path_through_a_regular_file_is_enotdir_on_every_config() {
        use std::sync::atomic::Ordering::Relaxed;
        for cfg in [VfsConfig::stock(4), VfsConfig::pk(4)] {
            let vfs = Vfs::new(cfg);
            let core = CoreId(1);
            vfs.mkdir_p("/htdocs", core).unwrap();
            vfs.write_file("/htdocs/index.html", b"<html>", core)
                .unwrap();
            vfs.stat("/htdocs/index.html", core).unwrap(); // warm
            let s = vfs.stats();
            let (walks, fallbacks) = (
                s.rcu_walks.load(Relaxed),
                s.rcu_walk_fallbacks.load(Relaxed),
            );
            let counts = || {
                [
                    &s.dcache_hits,
                    &s.dcache_misses,
                    &s.lockfree_lookups,
                    &s.dentry_lock_acquisitions,
                ]
                .map(|t| t.load(Relaxed))
            };
            let before = counts();
            assert_eq!(
                vfs.stat("/htdocs/index.html/x", core).unwrap_err(),
                VfsError::NotADirectory
            );
            // The reference walk carries numbers, not kinds, too: `x` is
            // probed under the file's number and misses (one
            // `dcache_misses`, plus on stock a `d_lock` per dentry in that
            // bucket — none here), and the miss path fetches the file
            // and names the error.
            let after = counts();
            let delta: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
            let want = if cfg.lockfree_dlookup {
                // hits: two RCU-leg peeks, two reference-walk lookups.
                [4, 1, 2, 0]
            } else {
                [2, 1, 0, 2]
            };
            assert_eq!(delta, want, "{cfg:?}: hits, misses, lock-free, d_lock");
            // The RCU walk carries inode numbers, not kinds: nothing is
            // cached under a file's number, so its probe for `x` misses
            // and the reference walk names the error. That is one
            // fallback on PK (stock never tries the RCU leg) and never a
            // completed RCU walk.
            assert_eq!(s.rcu_walks.load(Relaxed), walks);
            assert_eq!(
                s.rcu_walk_fallbacks.load(Relaxed) - fallbacks,
                u64::from(cfg.rcu_path_walk)
            );
        }
    }

    #[test]
    fn stats_tallies_are_exact_under_real_threads() {
        use std::sync::atomic::Ordering::Relaxed;
        const STATS: u64 = 20_000;
        const DEPTH: u64 = 3;
        let rcu = VfsConfig::pk(4);
        let refwalk = VfsConfig {
            rcu_path_walk: false,
            ..rcu
        };
        for cfg in [rcu, refwalk] {
            let vfs = Vfs::new(cfg);
            vfs.mkdir_p("/var/www", CoreId(0)).unwrap();
            vfs.write_file("/var/www/index.html", b"x", CoreId(0))
                .unwrap();
            // Warm-up, one thread: every core's mount snapshot and the
            // dcache. Whatever shared events happen, happen here.
            for core in 0..4 {
                vfs.stat("/var/www/index.html", CoreId(core)).unwrap();
            }
            let s = vfs.stats();
            let base = |t: &pk_percpu::Tally| t.load(Relaxed);
            let (lockfree, walks, mount_hits, hits, shared) = (
                base(&s.lockfree_lookups),
                base(&s.rcu_walks),
                base(&s.mount_percore_hits),
                base(&s.dcache_hits),
                s.shared_events(),
            );
            std::thread::scope(|sc| {
                for core in 0..4 {
                    let vfs = &vfs;
                    sc.spawn(move || {
                        for _ in 0..STATS {
                            vfs.stat("/var/www/index.html", CoreId(core)).unwrap();
                        }
                    });
                }
            });
            // Four threads bumped with load + store, each on its own row:
            // not one event may be missing.
            let (walked, looked_up) = if cfg.rcu_path_walk {
                (4 * STATS, 0)
            } else {
                (0, 4 * STATS * DEPTH)
            };
            assert_eq!(s.rcu_walks.load(Relaxed) - walks, walked);
            assert_eq!(s.lockfree_lookups.load(Relaxed) - lockfree, looked_up);
            assert_eq!(s.mount_percore_hits.load(Relaxed) - mount_hits, 4 * STATS);
            assert_eq!(s.dcache_hits.load(Relaxed) - hits, 4 * STATS * DEPTH);
            assert_eq!(s.shared_events(), shared, "warm PK stats share nothing");
            s.reset();
            let after_reset = std::thread::scope(|sc| {
                sc.spawn(|| {
                    (
                        s.local_events(),
                        s.shared_events(),
                        s.dcache_hits.load(Relaxed),
                    )
                })
                .join()
                .unwrap()
            });
            assert_eq!(after_reset, (0, 0, 0), "reset reaches every thread's row");
        }
    }
}
