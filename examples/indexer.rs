//! pedsort end to end: index a generated corpus through the real
//! two-phase indexer (§3.6) and query the result.
//!
//! Run with: `cargo run --example indexer`

use mosbench::kernel::{Kernel, KernelConfig};
use mosbench::percpu::CoreId;
use mosbench::workloads::pedsort::PedsortVariant;
use mosbench::workloads::pedsort_indexer::{load_final_index, Indexer};
use std::sync::atomic::Ordering;
use std::sync::Arc;

fn main() {
    let kernel = Arc::new(Kernel::new(KernelConfig::pk(4)));
    let core = CoreId(0);

    // A small synthetic corpus: 120 "source files" with overlapping
    // vocabulary, sized unevenly so the sorted work queue matters.
    kernel.vfs().mkdir_p("/corpus", core).unwrap();
    let vocab = ["lock", "mutex", "dentry", "socket", "page", "counter"];
    for i in 0..120 {
        let mut text = String::new();
        for w in 0..(5 + (i % 40)) {
            text.push_str(vocab[(i + w) % vocab.len()]);
            text.push(' ');
            text.push_str(&format!("sym{i}_{w} "));
        }
        kernel
            .vfs()
            .write_file(&format!("/corpus/src{i:03}.c"), text.as_bytes(), core)
            .unwrap();
    }

    // Index with 4 worker processes, each mapping its input files
    // through its own address space; small limits so phases 1 and 2
    // both do real work on this corpus size.
    let variant = PedsortVariant::ProcsRoundRobin;
    let indexer = Indexer::with_limits(Arc::clone(&kernel), variant, 256, 512);
    let stats = indexer.run("/corpus", "/index", 4).expect("index run");
    println!("indexed {} files, {} tokens", stats.files, stats.tokens);
    println!(
        "phase 1 flushed {} intermediate indexes; phase 2 wrote {} final chunks",
        stats.intermediate_flushes, stats.final_chunks
    );
    println!("distinct terms: {}", stats.distinct_terms);

    // Query the index.
    let index = load_final_index(&kernel, "/index").expect("load index");
    for term in ["dentry", "mutex"] {
        let postings = index.get(term).map(Vec::len).unwrap_or(0);
        println!("'{term}' appears {postings} times across the corpus");
    }

    // The file-system side of phase 1 is visible in the kernel stats.
    let vstats = kernel.vfs().stats();
    println!(
        "\nVFS traffic: {} dcache hits, {} misses, all lookups lock-free: {}",
        vstats.dcache_hits.load(Ordering::Relaxed),
        vstats.dcache_misses.load(Ordering::Relaxed),
        vstats.dentry_lock_acquisitions.load(Ordering::Relaxed) == 0,
    );
}
