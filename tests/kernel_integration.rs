//! Cross-crate integration: the assembled kernel behaving as one system.

use mosbench::kernel::{FixId, Kernel, KernelConfig, FIXES};
use mosbench::percpu::CoreId;
use mosbench::proc::Pid;
use mosbench::vfs::{InodeKind, VfsError, Whence};

/// The full Exim-shaped pipeline — forks, spool churn, mailbox appends,
/// logging — must leave the system clean on both kernels.
#[test]
fn mail_pipeline_leaves_no_residue() {
    for cfg in [KernelConfig::stock(4), KernelConfig::pk(4)] {
        let k = Kernel::new(cfg);
        let core = CoreId(1);
        k.vfs().mkdir_p("/var/spool", core).unwrap();
        k.vfs().mkdir_p("/var/mail", core).unwrap();
        for msg in 0..25 {
            let conn = k.fork(Pid(1), core).unwrap();
            let spool = format!("/var/spool/m{msg}");
            k.vfs().write_file(&spool, b"body", core).unwrap();
            let mbox = k.vfs().create(&format!("/var/mail/u{msg}"), core).unwrap();
            mbox.append(b"body").unwrap();
            k.vfs().close(&mbox, core);
            k.vfs().unlink(&spool, core).unwrap();
            k.exit(conn, core).unwrap();
        }
        assert_eq!(k.procs().len(), 1, "all processes reaped");
        assert_eq!(k.vfs().superblock().open_files(), 0, "all files closed");
        assert_eq!(
            k.vfs().stat("/var/spool", core).unwrap().kind,
            InodeKind::Dir
        );
        // The spool directory is empty again.
        assert_eq!(
            k.vfs().stat("/var/spool/m0", core).unwrap_err(),
            VfsError::NotFound
        );
    }
}

/// Every one of the 16 fixes can be enabled in isolation without
/// changing functional behaviour — the fixes are performance-only.
#[test]
fn each_fix_is_semantically_invisible() {
    let run = |cfg: KernelConfig| -> Vec<u8> {
        let k = Kernel::new(cfg);
        let core = CoreId(0);
        k.vfs().mkdir_p("/d/e", core).unwrap();
        k.vfs().write_file("/d/e/f", b"hello world", core).unwrap();
        let file = k.vfs().open("/d/e/f", core).unwrap();
        file.lseek(-5, Whence::End).unwrap();
        let tail = file.read(5).unwrap();
        k.vfs().close(&file, core);
        k.vfs().rename("/d/e/f", "/d/g", core).unwrap();
        let mut out = k.vfs().read_file("/d/g", core).unwrap();
        out.extend(tail);
        k.vfs().unlink("/d/g", core).unwrap();
        out
    };
    let baseline = run(KernelConfig::stock(4));
    assert_eq!(baseline, b"hello worldworld");
    for fix in FIXES {
        let cfg = KernelConfig::stock(4).with_fix(fix.id, true);
        assert_eq!(run(cfg), baseline, "fix {:?} changed behaviour", fix.id);
        // And disabling just one from PK.
        let cfg = KernelConfig::pk(4).with_fix(fix.id, false);
        assert_eq!(
            run(cfg),
            baseline,
            "removing {:?} changed behaviour",
            fix.id
        );
    }
}

/// The lseek fix specifically: same results, different instrumentation.
#[test]
fn lseek_fix_changes_only_the_path_taken() {
    let stock = Kernel::new(KernelConfig::stock(2));
    let pk = Kernel::new(KernelConfig::stock(2).with_fix(FixId::AtomicLseek, true));
    for k in [&stock, &pk] {
        let core = CoreId(0);
        k.vfs().write_file("/t", b"0123456789", core).unwrap();
        let f = k.vfs().open("/t", core).unwrap();
        assert_eq!(f.lseek(0, Whence::End).unwrap(), 10);
        k.vfs().close(&f, core);
    }
    let s = stock.vfs().stats();
    let p = pk.vfs().stats();
    use std::sync::atomic::Ordering::Relaxed;
    assert_eq!(s.lseek_mutex_acquisitions.load(Relaxed), 1);
    assert_eq!(s.lseek_atomic_reads.load(Relaxed), 0);
    assert_eq!(p.lseek_mutex_acquisitions.load(Relaxed), 0);
    assert_eq!(p.lseek_atomic_reads.load(Relaxed), 1);
}

/// Network + VFS under one kernel: an HTTP-ish accept/stat/read flow.
#[test]
fn accept_and_serve_across_subsystems() {
    let k = Kernel::new(KernelConfig::pk(4));
    let core = CoreId(2);
    k.vfs().mkdir_p("/www", core).unwrap();
    k.vfs()
        .write_file("/www/i.html", &[b'x'; 300], core)
        .unwrap();
    k.net().listen(80);
    let flow = mosbench::net::FlowHash {
        src_ip: 9,
        src_port: 1234,
        dst_ip: 1,
        dst_port: 80,
    };
    assert!(k.net().incoming_connection(80, flow));
    let steered = CoreId(k.net().steer(&flow));
    let conn = k.net().accept(80, steered).expect("backlogged connection");
    assert!(conn.local);
    let st = k.vfs().stat("/www/i.html", steered).unwrap();
    assert_eq!(st.size, 300);
    let f = k.vfs().open("/www/i.html", steered).unwrap();
    assert_eq!(f.read_at(0, 300).unwrap().len(), 300);
    k.vfs().close(&f, steered);
}

/// Remount read-only interacts correctly with in-flight opens from any
/// core (the reason the open-file lists exist at all).
#[test]
fn remount_read_only_scans_per_core_lists() {
    let k = Kernel::new(KernelConfig::pk(8));
    k.vfs().write_file("/f", b"x", CoreId(0)).unwrap();
    let handles: Vec<_> = (0..8)
        .map(|c| k.vfs().open("/f", CoreId(c)).unwrap())
        .collect();
    assert_eq!(
        k.vfs().superblock().remount_read_only(),
        Err(VfsError::Busy),
        "files open on other cores must block remount"
    );
    for (c, f) in handles.iter().enumerate() {
        // Close half on a different core (the expensive cross-core case).
        k.vfs().close(f, CoreId((c + 4) % 8));
    }
    k.vfs().superblock().remount_read_only().unwrap();
    assert_eq!(
        k.vfs().write_file("/g", b"y", CoreId(1)).unwrap_err(),
        VfsError::ReadOnly
    );
}

/// Per-fix lowering reaches the right subsystem: the config matrix is
/// wired through end to end.
#[test]
fn fix_lowering_reaches_subsystems() {
    let cfg = KernelConfig::stock(48)
        .with_fix(FixId::SloppyDentryRefs, true)
        .with_fix(FixId::LocalDmaBuffers, true)
        .with_fix(FixId::SuperPageFineLocking, true);
    assert!(cfg.vfs().sloppy_dentry_refs);
    assert!(!cfg.vfs().lockfree_dlookup);
    assert!(cfg.net().local_dma_alloc);
    assert!(!cfg.net().percore_accept_queues);
    assert!(cfg.mm().per_mapping_superpage_mutex);
    assert!(!cfg.mm().nocache_superpage_zeroing);
    assert_eq!(cfg.enabled_count(), 3);
}
