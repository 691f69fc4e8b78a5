//! A miniature memcached: per-core UDP key-value instances over the
//! network-stack substrate, showing the dst_entry refcount fix.
//!
//! Run with: `cargo run --example keyvalue`

use mosbench::kernel::Personality;
use mosbench::workloads::memcached::MemcachedDriver;
use std::sync::atomic::Ordering;

fn run(personality: Personality) {
    println!("--- {} kernel ---", personality.legend());
    let driver = MemcachedDriver::new(personality, 4);

    // 20 clients send batches of 20 requests, spread deterministically
    // over the 4 per-core instances (as the paper's clients do).
    for client in 0..20u32 {
        driver.client_batch(client, (client % 4) as usize);
    }
    let served = driver.drain_all();
    println!("requests served:    {served}");

    let stats = driver.kernel().net().stats();
    println!(
        "steering:           {} to the owning core, {} misdirected",
        stats.rx_steered_local.load(Ordering::Relaxed),
        stats.rx_misdirected.load(Ordering::Relaxed),
    );
    println!(
        "skb allocation:     {} per-core, {} via the global node-0 pool",
        stats.skb_percore_allocs.load(Ordering::Relaxed),
        stats.skb_global_allocs.load(Ordering::Relaxed),
    );
    // One hot destination: every response routes through the same
    // dst_entry. Its refcount is the §5.3 "final bottleneck".
    let dst = driver.kernel().net().dst_cache();
    println!("routes cached:      {}", dst.len());
    println!(
        "proto accounting:   UDP usage now {} bytes (balanced)\n",
        driver
            .kernel()
            .net()
            .proto()
            .usage(mosbench::net::Protocol::Udp)
    );
}

fn main() {
    println!("memcached-style key-value serving, stock vs PK (4 cores)\n");
    run(Personality::Stock);
    run(Personality::Pk);
    println!(
        "PK allocates buffers from per-core pools on the local NUMA node \
         and counts dst_entry references sloppily."
    );
}
