//! Negative tests: the workload drivers must *degrade*, never panic,
//! when the kernel's syscall surface starts failing underneath them.
//!
//! Every test arms real fault points (`vfs.dentry_alloc`,
//! `mm.alloc_enomem`) on a seeded plane and drives the exact paths
//! that used to `unwrap()`/`expect()` kernel results: driver boot,
//! per-message delivery, per-query execution, the gmake build and the
//! pedsort index/merge cycle. A failure must come back as a typed
//! [`KernelError`] (or be absorbed by the driver's retry/bounce
//! accounting) — a panic fails the test by failing the harness.

use pk_fault::{FaultPlane, FaultSchedule};
use pk_kernel::{Kernel, KernelError, Personality};
use pk_percpu::CoreId;
use pk_workloads::exim::EximDriver;
use pk_workloads::gmake_exec::{BuildGraph, ParallelMake};
use pk_workloads::metis::{MetisDriver, MetisVariant};
use pk_workloads::pedsort_indexer::{load_final_index, Indexer};
use pk_workloads::postgres::{PgVariant, PostgresDriver};
use pk_workloads::roster;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A plane that fails every Nth check at the named points.
fn plane(seed: u64, every: u64, points: &[&'static str]) -> Arc<FaultPlane> {
    let plane = Arc::new(FaultPlane::with_seed(seed));
    for p in points {
        plane.set(p, FaultSchedule::EveryNth(every));
    }
    plane.enable();
    plane
}

#[test]
fn exim_boot_survives_dentry_alloc_faults() {
    // Arm the plane *before* construction: the spool layout itself now
    // propagates instead of panicking on "spool layout".
    let faults = plane(11, 3, &["vfs.dentry_alloc"]);
    match EximDriver::with_faults(Personality::Pk, 4, faults) {
        // EveryNth(3) across 60+ mkdirs must trip at least once.
        Ok(_) => panic!("boot was expected to hit an injected fault"),
        Err(e) => assert!(e.is_transient(), "ENOMEM is transient: {e}"),
    }
}

#[test]
fn exim_delivery_absorbs_midstream_faults() {
    for choice in [Personality::Stock, Personality::Pk] {
        // Boot fault-free, then arm: failures land mid-delivery.
        let faults = Arc::new(FaultPlane::with_seed(7));
        let d = EximDriver::with_faults(choice, 4, Arc::clone(&faults)).unwrap();
        faults.set("vfs.dentry_alloc", FaultSchedule::Probability(0.02));
        faults.set("mm.alloc_enomem", FaultSchedule::Probability(0.02));
        faults.enable();
        for conn in 0..8 {
            // Transient errors are retried then bounced inside the
            // driver; only a permanent error surfaces, and never a
            // panic.
            if let Err(e) = d.run_connection(CoreId(conn % 4), conn) {
                assert!(!e.is_transient(), "transients are bounced: {e}");
            }
        }
        faults.disable();
        assert!(faults.injected_total() > 0, "mix never fired");
        assert_eq!(
            d.delivered() + d.bounced(),
            d.attempted(),
            "every attempted message was delivered or bounced"
        );
    }
}

#[test]
fn postgres_boot_fails_typed_under_dentry_alloc_faults() {
    // Table + index loading mkdir/write dozens of fresh dentries, so a
    // boot-time allocation fault must surface as a typed transient
    // error — this path used to `expect("pg layout")`.
    let faults = plane(19, 3, &["vfs.dentry_alloc"]);
    match PostgresDriver::with_faults(PgVariant::PkModPg, 4, 64, faults) {
        Ok(_) => panic!("boot was expected to hit an injected fault"),
        Err(e) => assert!(e.is_transient(), "ENOMEM is transient: {e}"),
    }
}

#[test]
fn postgres_queries_degrade_gracefully_under_dcache_faults() {
    // Boot fault-free, then put the per-query open path under memory
    // pressure: `vfs.dcache_pressure` forces lookup misses on the two
    // hot paths, pushing each walk back through `Dcache::cache`, and
    // `vfs.dentry_alloc` fails those re-insertions. The namei contract
    // is that a failed dentry *cache fill* degrades to uncached
    // resolution rather than failing the walk with ENOMEM — so every
    // query must still succeed, with the absorbed failures visible in
    // the dcache stats instead of as errors (and never as a panic).
    let faults = Arc::new(FaultPlane::with_seed(13));
    let d = PostgresDriver::with_faults(PgVariant::PkModPg, 4, 512, Arc::clone(&faults)).unwrap();
    faults.set("vfs.dcache_pressure", FaultSchedule::EveryNth(3));
    faults.set("vfs.dentry_alloc", FaultSchedule::EveryNth(2));
    faults.enable();
    for q in 0..64u64 {
        match d.query((q % 4) as usize, q, q % 16 == 0) {
            Ok(()) => {}
            Err(e) => assert!(e.is_transient(), "injected ENOMEM is transient: {e}"),
        }
    }
    faults.disable();
    let absorbed = d
        .kernel()
        .vfs()
        .stats()
        .dentry_alloc_failures
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(
        faults.injected_total() > 0 && absorbed > 0,
        "pressure-forced misses over 64 queries must trip dentry_alloc \
         (injected={}, absorbed={absorbed})",
        faults.injected_total()
    );
    // Degraded walks must not leak descriptors or wedge rows: the same
    // rows are queryable once the faults stop, and every file opened
    // during the faulted run was closed.
    for q in 0..64u64 {
        d.query((q % 4) as usize, q, false).unwrap();
    }
    assert_eq!(
        d.kernel().vfs().superblock().open_files(),
        0,
        "descriptors leaked"
    );
}

#[test]
fn pedsort_run_fails_typed_under_alloc_faults() {
    // Stock's threads share one address space, PK's processes each own
    // one: both map every input file in phase 1.
    for choice in [Personality::Stock, Personality::Pk] {
        let faults = Arc::new(FaultPlane::with_seed(23));
        let kernel = Arc::new(Kernel::with_faults(choice.config(4), Arc::clone(&faults)));
        let core = CoreId(0);
        kernel.vfs().mkdir_p("/corpus", core).unwrap();
        for i in 0..6 {
            kernel
                .vfs()
                .write_file(
                    &format!("/corpus/doc{i}"),
                    format!("alpha beta gamma doc{i} token{}", i * 3).as_bytes(),
                    core,
                )
                .unwrap();
        }
        let indexer =
            Indexer::with_limits(Arc::clone(&kernel), roster::pairing(choice).pedsort, 8, 8);
        faults.set("vfs.dentry_alloc", FaultSchedule::EveryNth(4));
        faults.set("mm.alloc_enomem", FaultSchedule::EveryNth(4));
        faults.enable();
        // The phase-1/phase-2 workers ferry errors back through the scope
        // join instead of `expect("phase 1")`-ing inside the thread.
        match indexer.run("/corpus", "/out", 2) {
            Ok(_) => panic!("{choice:?}: EveryNth(4) across the index run must fire"),
            Err(e) => assert!(e.is_transient(), "alloc faults are transient: {e}"),
        }
        faults.disable();
        assert!(faults.injected_total() > 0);
        // A file whose pages failed to fault in still unmapped its
        // input: every mmap has its munmap.
        let mm = kernel.mm_stats();
        assert_eq!(
            mm.mmaps.load(Ordering::Relaxed),
            mm.munmaps.load(Ordering::Relaxed),
            "{choice:?}: a failed file left its mapping behind"
        );
        assert_eq!(indexer.run("/corpus", "/out", 2).unwrap().files, 6);
    }
}

#[test]
fn gmake_build_fails_typed_under_fork_faults() {
    // Lay the sources out fault-free, then make every other fork fail
    // with EAGAIN: the first compile whose fork fails stops the build.
    let faults = Arc::new(FaultPlane::with_seed(31));
    let kernel = Arc::new(Kernel::with_faults(
        Personality::Pk.config(4),
        Arc::clone(&faults),
    ));
    kernel.vfs().mkdir_p("/src", CoreId(0)).unwrap();
    for i in 0..8 {
        let source = format!("int f{i}();");
        kernel
            .vfs()
            .write_file(&format!("/src/f{i}.c"), source.as_bytes(), CoreId(0))
            .unwrap();
    }
    let graph = BuildGraph::kernel_build(8);
    faults.set("proc.fork_fail", FaultSchedule::EveryNth(2));
    faults.enable();
    match ParallelMake::new(8).build(&kernel, &graph) {
        Ok(_) => panic!("EveryNth(2) across the build's forks must fire"),
        Err(e) => assert!(e.is_transient(), "EAGAIN is transient: {e}"),
    }
    faults.disable();
    assert!(faults.injected_total() > 0);
    // Failed forks leaked nothing; a fresh build completes once the
    // pressure lifts.
    let report = ParallelMake::new(8).build(&kernel, &graph).unwrap();
    assert_eq!(report.rules_run, graph.len());
    assert_eq!(kernel.procs().len(), 1, "compiler processes leaked");
}

#[test]
fn metis_job_fails_typed_under_alloc_faults() {
    // Every table-memory page fault hits an injected ENOMEM: the map
    // phase must ferry the error out of its worker threads instead of
    // `expect("table fault")`-ing inside them.
    let faults = Arc::new(FaultPlane::with_seed(37));
    let d = MetisDriver::with_faults(MetisVariant::StockSmallPages, 2, Arc::clone(&faults));
    let docs: Vec<String> = (0..8)
        .map(|i| format!("{i}\tthe quick brown fox {i} jumps over lazy dogs"))
        .collect();
    faults.set("mm.alloc_enomem", FaultSchedule::EveryNth(1));
    faults.enable();
    match d.run_job(&docs, 2) {
        Ok(_) => panic!("every allocation was armed to fail"),
        Err(e) => assert!(e.is_transient(), "ENOMEM is transient: {e}"),
    }
    faults.disable();
    assert!(faults.injected_total() > 0);
    // The same driver recovers once allocations succeed again.
    assert!(d.run_job(&docs, 2).unwrap() >= 8);
}

#[test]
fn corrupt_index_surfaces_as_typed_error() {
    let kernel = Arc::new(Kernel::new(Personality::Pk.config(2)));
    let core = CoreId(0);
    kernel.vfs().mkdir_p("/out", core).unwrap();
    // A chunk whose line has no term/postings tab: the deserializer
    // used to `expect("tab")`.
    kernel
        .vfs()
        .write_file("/out/w0-final0.db", b"garbage-without-tab\n", core)
        .unwrap();
    match load_final_index(&kernel, "/out") {
        Ok(_) => panic!("corrupt chunk must not parse"),
        Err(e) => {
            assert!(matches!(e, KernelError::Corrupt(_)), "got {e}");
            assert!(!e.is_transient(), "re-reading corrupt bytes never helps");
        }
    }
}
