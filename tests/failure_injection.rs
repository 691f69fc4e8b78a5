//! Failure injection: drive the error paths end-to-end and verify the
//! system degrades predictably instead of corrupting state.

use mosbench::kernel::{Kernel, KernelConfig};
use mosbench::mm::{AddressSpace, FaultError, MmConfig, MmStats, NumaAllocator, PageSize};
use mosbench::percpu::CoreId;
use mosbench::vfs::VfsError;
use std::sync::Arc;

/// Physical memory exhaustion mid-workload: faults report OOM, the
/// allocator stays consistent, and freeing memory unblocks progress.
#[test]
fn oom_during_fault_storm() {
    let stats = Arc::new(MmStats::new());
    let mut cfg = MmConfig::pk(4);
    cfg.numa_nodes = 2;
    cfg.pages_per_node = 8; // tiny machine: 16 pages total
    let alloc = Arc::new(NumaAllocator::new(cfg, Arc::clone(&stats)));
    let asp = AddressSpace::new(cfg, Arc::clone(&alloc), stats);
    let region = asp.mmap(32 * 4096, PageSize::Base4K).unwrap();
    let mut populated = 0;
    let mut oom_at = None;
    for p in 0..32 {
        match asp.page_fault(region, p, 0) {
            Ok(true) => populated += 1,
            Ok(false) => unreachable!("no racing faults here"),
            Err(FaultError::Oom(_)) => {
                oom_at = Some(p);
                break;
            }
            Err(e) => panic!("unexpected: {e}"),
        }
    }
    assert_eq!(populated, 16, "exactly the physical capacity");
    assert_eq!(oom_at, Some(16));
    // Freeing the region returns every page.
    asp.munmap(region, 0).unwrap();
    assert_eq!(alloc.free_pages(0) + alloc.free_pages(1), 16);
    // And a fresh mapping faults fine again.
    let r2 = asp.mmap(4096, PageSize::Base4K).unwrap();
    assert!(asp.page_fault(r2, 0, 1).unwrap());
}

/// Remounting read-only mid-delivery: in-flight writes fail cleanly with
/// `EROFS`, reads keep working, and going read-write resumes service.
#[test]
fn read_only_remount_mid_workload() {
    let k = Kernel::new(KernelConfig::pk(4));
    let core = CoreId(0);
    k.vfs().mkdir_p("/spool", core).unwrap();
    k.vfs().write_file("/spool/m1", b"queued", core).unwrap();
    k.vfs().superblock().remount_read_only().unwrap();
    assert_eq!(
        k.vfs().write_file("/spool/m2", b"x", core).unwrap_err(),
        VfsError::ReadOnly
    );
    assert_eq!(
        k.vfs().unlink("/spool/m1", core).unwrap_err(),
        VfsError::ReadOnly
    );
    // Reads still work; nothing was corrupted.
    assert_eq!(k.vfs().read_file("/spool/m1", core).unwrap(), b"queued");
    k.vfs().superblock().remount_read_write();
    k.vfs().write_file("/spool/m2", b"x", core).unwrap();
    k.vfs().unlink("/spool/m1", core).unwrap();
}

/// NIC receive-queue overflow: packets drop (counted), accounting stays
/// balanced, and the stack keeps serving after the burst.
#[test]
fn rx_overflow_burst_then_recovery() {
    use bytes::Bytes;
    use mosbench::net::SockAddr;
    let k = Kernel::new(KernelConfig::pk(2));
    let sock = k.net().udp_bind(9999, CoreId(0)).unwrap();
    let mut accepted = 0u64;
    let mut dropped = 0u64;
    for i in 0..6_000u32 {
        match k.net().udp_send(
            CoreId(1),
            SockAddr::new(i, 1),
            SockAddr::new(1, 9999),
            Bytes::from_static(b"burst"),
        ) {
            Ok(()) => accepted += 1,
            Err(mosbench::net::NetError::Backpressure) => dropped += 1,
            Err(e) => panic!("unexpected drop reason: {e}"),
        }
    }
    assert!(dropped > 0, "burst must overflow the 4096-deep queue");
    assert_eq!(accepted + dropped, 6_000);
    // Drain: every accepted packet is deliverable. Refused sends release
    // their buffer and protocol charge at the refusal, so after the
    // drain the accounting balances to zero.
    k.net().process_rx(CoreId(0), usize::MAX);
    let mut got = 0u64;
    while let Some(d) = sock.recv() {
        k.net().release(CoreId(0), d.skb);
        got += 1;
    }
    assert_eq!(got, accepted);
    assert_eq!(
        k.net().proto().usage(mosbench::net::Protocol::Udp),
        0,
        "dropped packets must not leak protocol charges"
    );
    // Service continues normally after the burst.
    k.net()
        .udp_send(
            CoreId(1),
            SockAddr::new(7, 7),
            SockAddr::new(1, 9999),
            Bytes::from_static(b"after"),
        )
        .unwrap();
    k.net().process_rx(CoreId(0), usize::MAX);
    assert!(sock.recv().is_some());
}

/// Process-table misuse: forking from a dead parent, double exits and
/// execs of a dead process all fail without damaging the table.
#[test]
fn process_lifecycle_misuse() {
    use mosbench::proc::{Pid, ProcError};
    let k = Kernel::new(KernelConfig::pk(2));
    let child = k.fork(Pid(1), CoreId(0)).unwrap();
    k.exit(child, CoreId(0)).unwrap();
    // The child is gone: further operations on it fail.
    let err = k.fork(child, CoreId(0)).unwrap_err();
    assert_eq!(
        err,
        mosbench::kernel::KernelError::Proc(ProcError::NoSuchProcess)
    );
    assert!(!err.is_transient(), "a dead parent is not worth retrying");
    assert_eq!(
        k.exit(child, CoreId(0)).unwrap_err(),
        mosbench::kernel::KernelError::Proc(ProcError::NoSuchProcess)
    );
    assert_eq!(k.procs().exec(child).unwrap_err(), ProcError::NoSuchProcess);
    assert_eq!(k.procs().len(), 1);
    // The table still works.
    let again = k.fork(Pid(1), CoreId(1)).unwrap();
    k.exit(again, CoreId(1)).unwrap();
}

/// Dentry teardown vs lookup race, forced serially: a dealloc'd dentry
/// can never be revived by the lock-free path.
#[test]
fn dead_dentry_is_not_revived() {
    use mosbench::vfs::{Dcache, DentryKey, InodeId, VfsConfig, VfsStats};
    let cfg = VfsConfig::pk(4);
    let cache = Dcache::new(16, cfg, Arc::new(VfsStats::new()));
    let key = DentryKey::new(InodeId(1), "victim");
    let d = cache.insert(key.clone(), InodeId(2), CoreId(0)).unwrap();
    d.put(CoreId(0)); // drop caller ref; cache-only
    assert_eq!(cache.shrink(1, CoreId(0)), 1);
    // The evicted object is dead and unhashed: both protocols report a
    // definitive miss.
    assert_eq!(d.compare_lockfree(&key.probe(), CoreId(1)), Some(false));
    assert!(!d.compare_locked(&key.probe(), CoreId(1)));
    assert!(cache.lookup(&key, CoreId(1)).is_none());
}

/// Sloppy counter misuse: deallocating twice, getting after death, and
/// the invariant surviving an error storm.
#[test]
fn sloppy_refcount_error_paths() {
    use mosbench::sloppy::{DeallocError, SloppyRefCount};
    let rc = SloppyRefCount::new(4);
    rc.put(CoreId(0));
    rc.try_dealloc().unwrap();
    assert_eq!(rc.try_dealloc().unwrap_err(), DeallocError::AlreadyDead);
    for core in 0..4 {
        assert_eq!(rc.get(CoreId(core)).unwrap_err(), DeallocError::AlreadyDead);
    }
    assert_eq!(rc.references(), 0, "failed gets never leak references");
}

/// mmap misuse: zero-length mappings, double unmap, faults past the end.
#[test]
fn mmap_misuse() {
    use mosbench::mm::{MmapError, RegionId};
    let k = Kernel::new(KernelConfig::pk(2));
    let asp = k.new_address_space();
    assert_eq!(
        asp.mmap(0, PageSize::Base4K).unwrap_err(),
        MmapError::EmptyMapping
    );
    let r = asp.mmap(4096, PageSize::Base4K).unwrap();
    assert_eq!(asp.page_fault(r, 5, 0).unwrap_err(), FaultError::Segfault);
    asp.munmap(r, 0).unwrap();
    assert_eq!(asp.munmap(r, 0).unwrap_err(), MmapError::NoSuchRegion);
    assert_eq!(
        asp.page_fault(r, 0, 0).unwrap_err(),
        FaultError::Segfault,
        "faulting an unmapped region is a segfault"
    );
    assert_eq!(
        asp.munmap(RegionId(424242), 0).unwrap_err(),
        MmapError::NoSuchRegion
    );
}
