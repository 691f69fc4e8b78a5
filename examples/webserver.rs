//! A miniature Apache: accept/stat/open/read/close over the userspace
//! kernel, showing the §4.2 per-core accept queues at work.
//!
//! Run with: `cargo run --example webserver`

use mosbench::kernel::Personality;
use mosbench::workloads::apache::ApacheDriver;
use std::sync::atomic::Ordering;

fn run(personality: Personality, connections: u32) {
    println!("--- {} kernel ---", personality.legend());
    let driver = ApacheDriver::new(personality, 4);

    // Clients connect; the NIC steers each handshake to a core's queue.
    for i in 0..connections {
        driver.client_connect(0xc0a8_0000 + i);
    }

    // Worker processes (one per core) serve round-robin, stealing only
    // when their own backlog runs dry.
    let mut served_local = 0u32;
    let mut served_total = 0u32;
    loop {
        let mut progress = false;
        for core in 0..4 {
            if let Some(local) = driver.serve_one(core) {
                progress = true;
                served_total += 1;
                if local {
                    served_local += 1;
                }
            }
        }
        if !progress {
            break;
        }
    }
    println!("requests served:    {served_total} ({served_local} entirely on their arrival core)");
    let nstats = driver.kernel().net().stats();
    println!(
        "accepts:            {} from local queues, {} stolen, {} from the shared backlog",
        nstats.accept_local_queue.load(Ordering::Relaxed),
        nstats.accept_steals.load(Ordering::Relaxed),
        nstats.accept_shared_queue.load(Ordering::Relaxed),
    );
    let vstats = driver.kernel().vfs().stats();
    println!(
        "per-request VFS:    {} dcache hits, {} dentry-lock acquisitions\n",
        vstats.dcache_hits.load(Ordering::Relaxed),
        vstats.dentry_lock_acquisitions.load(Ordering::Relaxed),
    );
}

fn main() {
    println!("Apache-style static file serving, stock vs PK (4 cores)\n");
    run(Personality::Stock, 200);
    run(Personality::Pk, 200);
    println!(
        "With per-core backlogs + hash flow steering, a connection is \
         accepted and processed on the core its packets arrive on."
    );
}
