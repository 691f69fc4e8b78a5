//! Structural guard for the regression the per-inode page cache
//! removed: writing and unlinking a file that was never read through
//! the cache must not touch any other inode's cached pages, and must not
//! pay a grace period. (The global table republished all of its buckets
//! behind a blocking `synchronize()` each, twice per Exim message.)
//!
//! One test in a file of its own: the RCU counters are process-wide.

use pk_percpu::CoreId;
use pk_sync::rcu;
use pk_vfs::{Vfs, VfsConfig};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

#[test]
fn spool_traffic_leaves_other_inodes_pages_alone() {
    for cfg in [VfsConfig::stock(4), VfsConfig::pk(4)] {
        let vfs = Vfs::new(cfg);
        let core = CoreId(0);
        vfs.mkdir_p("/htdocs", core).unwrap();
        vfs.mkdir_p("/spool", core).unwrap();
        let cached: Vec<_> = (0..1000)
            .map(|i| {
                let path = format!("/htdocs/{i}");
                vfs.write_file(&path, b"static", core).unwrap();
                vfs.read_cached(&path, core).unwrap();
                let f = vfs.open(&path, core).unwrap();
                vfs.close(&f, core);
                let page = vfs.page_cache().lookup(&f.inode, 0).expect("cached");
                vfs.page_cache().put(&page);
                (Arc::clone(&f.inode), page)
            })
            .collect();
        assert_eq!(vfs.page_cache().len(), 1000);

        let invalidated = vfs.page_cache().stats().invalidated.load(Relaxed);
        let rcu_before = rcu::stats_snapshot();
        for i in 0..50 {
            let path = format!("/spool/msg{i}");
            vfs.write_file(&path, b"mail body", core).unwrap();
            vfs.unlink(&path, core).unwrap();
        }
        let rcu_after = rcu::stats_snapshot();

        assert_eq!(
            rcu_after.synchronize_calls, rcu_before.synchronize_calls,
            "no grace period waited out"
        );
        assert_eq!(
            vfs.page_cache().stats().invalidated.load(Relaxed),
            invalidated
        );
        assert_eq!(vfs.page_cache().len(), 1000);
        for (inode, page) in &cached {
            let now = vfs.page_cache().lookup(inode, 0).expect("still cached");
            vfs.page_cache().put(&now);
            assert!(Arc::ptr_eq(&now, page), "{} was republished", inode.id);
        }
    }
}
