//! A miniature Exim: mail delivery through the userspace kernel.
//!
//! Run with: `cargo run --example mailserver`
//!
//! Reproduces the paper's Exim workload shape (§3.1/§5.2) on the real
//! substrate — process forks, spool-file churn across 62 directories,
//! per-user mailbox appends — on both the stock and PK kernels, then
//! prints the shared-cache-line traffic each kernel generated. The
//! difference is the whole point of the paper: the PK kernel does the
//! same work while barely touching shared lines.

use mosbench::kernel::Personality;
use mosbench::percpu::CoreId;
use mosbench::workloads::exim::EximDriver;
use std::sync::atomic::Ordering;
use std::sync::Arc;

fn run(personality: Personality) {
    println!("--- {} kernel ---", personality.legend());
    let driver = Arc::new(EximDriver::new(personality, 4).expect("boot exim"));

    // Four "SMTP client" threads, each hammering its own core with
    // connections (10 messages per connection, like the paper's driver).
    std::thread::scope(|s| {
        for core in 0..4 {
            let driver = Arc::clone(&driver);
            s.spawn(move || {
                for conn in 0..5 {
                    driver
                        .run_connection(CoreId(core), core * 100 + conn)
                        .expect("delivery");
                }
            });
        }
    });

    println!("messages delivered: {}", driver.delivered());
    let k = driver.kernel();
    println!("processes forked:   {}", k.procs().fork_count());
    let vstats = k.vfs().stats();
    println!(
        "vfsmount lookups:   {} central (shared lock), {} per-core cache hits",
        vstats.mount_central_lookups.load(Ordering::Relaxed),
        vstats.mount_percore_hits.load(Ordering::Relaxed),
    );
    println!(
        "dlookup:            {} lock-free, {} per-dentry lock acquisitions",
        vstats.lockfree_lookups.load(Ordering::Relaxed),
        vstats.dentry_lock_acquisitions.load(Ordering::Relaxed),
    );
    println!(
        "open-file lists:    {} global-lock ops, {} per-core ops",
        vstats.open_list_global_ops.load(Ordering::Relaxed),
        vstats.open_list_percore_ops.load(Ordering::Relaxed),
    );
    println!(
        "shared events total: {}   core-local events total: {}\n",
        vstats.shared_events(),
        vstats.local_events()
    );
}

fn main() {
    println!("Exim-style mail delivery, stock vs PK (4 cores, 20 connections)\n");
    run(Personality::Stock);
    run(Personality::Pk);
    println!(
        "Same mail, same syscalls — the PK kernel routes nearly all of the \
         bookkeeping through per-core structures."
    );
}
