//! `ablate <threshold|dlookup|accept|fixes|flowsteer>`: the design-choice
//! ablations behind the paper's fixes.

use super::header;
use bytes::Bytes;
use pk_kernel::{KernelConfig, FIXES};
use pk_net::{FlowHash, Listener, NetConfig, NetStack, NetStats, Nic, Skb};
use pk_percpu::CoreId;
use pk_sim::{CoreSweep, MachineSpec, WorkloadModel};
use pk_sloppy::{SloppyConfig, SloppyCounter};
use pk_vfs::{Vfs, VfsConfig};
use pk_workloads::roster;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Ablation: sloppy-counter threshold and prefetch sweep.
///
/// The paper notes spare references are returned to the central counter
/// "if the local count grows above some threshold" but does not publish
/// the value; this sweep shows the trade-off between central-counter
/// traffic (scalability) and banked spares (slop / memory).
pub fn threshold() {
    header(
        "Ablation: sloppy counter tuning",
        "A churn workload (get/put of 4 refs/iteration on 8 cores, with \
         1-in-8 cross-core releases) under varying threshold/prefetch.",
    );
    println!(
        "{:>9} {:>9} {:>14} {:>14} {:>12}",
        "threshold", "prefetch", "central ops", "local ops", "max spares"
    );
    for threshold in [0, 1, 2, 4, 8, 16, 32, 64] {
        for prefetch in [0, 4] {
            let c = SloppyCounter::with_config(
                8,
                SloppyConfig {
                    threshold,
                    prefetch,
                },
            );
            let mut max_spares = 0;
            for i in 0..10_000u64 {
                let core = CoreId((i % 8) as usize);
                c.acquire(core, 4);
                // Occasionally a reference migrates and is released on a
                // different core (the put-on-another-core pattern).
                let release_core = if i % 8 == 0 {
                    CoreId(((i + 1) % 8) as usize)
                } else {
                    core
                };
                c.release(release_core, 4);
                max_spares = max_spares.max(c.spares());
            }
            let (central, local) = c.op_counts();
            println!("{threshold:>9} {prefetch:>9} {central:>14} {local:>14} {max_spares:>12}");
            assert_eq!(c.reconcile(), 0);
        }
    }
    println!(
        "\nHigher thresholds push work off the shared cache line (fewer \
         central ops) at the cost of more banked spares."
    );
}

fn dlookup_run(lockfree: bool, renames_per_100_lookups: usize) -> (u64, u64, u64) {
    let mut cfg = VfsConfig::pk(8);
    cfg.lockfree_dlookup = lockfree;
    let vfs = Arc::new(Vfs::new(cfg));
    let core = CoreId(0);
    vfs.mkdir_p("/usr/lib", core).unwrap();
    for i in 0..64 {
        vfs.write_file(&format!("/usr/lib/lib{i}.so"), b"elf", core)
            .unwrap();
    }
    let mut rename_round = 0usize;
    for round in 0..100usize {
        for i in 0..64 {
            vfs.stat(&format!("/usr/lib/lib{i}.so"), CoreId(i % 8))
                .unwrap();
        }
        if renames_per_100_lookups > 0 && round % (100 / renames_per_100_lookups.max(1)) == 0 {
            let a = format!("/usr/lib/lib{}.so", rename_round % 64);
            let b = format!("/usr/lib/renamed{rename_round}.so");
            vfs.rename(&a, &b, core).unwrap();
            vfs.rename(&b, &a, core).unwrap();
            rename_round += 1;
        }
    }
    let s = vfs.stats();
    (
        s.lockfree_lookups.load(Ordering::Relaxed),
        s.lockfree_fallbacks.load(Ordering::Relaxed),
        s.dentry_lock_acquisitions.load(Ordering::Relaxed),
    )
}

/// Ablation: locked vs lock-free dentry comparison under rename storms.
///
/// Measures how often the section-4.4 lock-free protocol completes
/// without touching the per-dentry spin lock while a writer keeps
/// renaming entries in the same directory.
pub fn dlookup() {
    header(
        "Ablation: dlookup comparison protocol",
        "6400 lookups of 64 names in one directory, with varying rename \
         pressure; PK's lock-free protocol vs the stock per-dentry lock.",
    );
    println!(
        "{:>10} {:>10} {:>12} {:>12} {:>12}",
        "protocol", "renames", "lock-free", "fallbacks", "d_lock taken"
    );
    for renames in [0, 10, 50] {
        for lockfree in [false, true] {
            let (lf, fb, locked) = dlookup_run(lockfree, renames);
            println!(
                "{:>10} {renames:>10} {lf:>12} {fb:>12} {locked:>12}",
                if lockfree { "lock-free" } else { "locked" }
            );
        }
    }
    println!("\nThe lock-free protocol eliminates nearly all d_lock traffic.");
}

fn accept_run(percore: bool, skew: bool) -> (u64, u64, u64, u64) {
    let mut cfg = if percore {
        NetConfig::pk(8)
    } else {
        NetConfig::stock(8)
    };
    cfg.percore_accept_queues = percore;
    let stats = Arc::new(NetStats::new());
    let l = Listener::new(80, cfg, Arc::clone(&stats));
    // 8000 connections arrive, steered uniformly or 80% onto 2 cores.
    for i in 0..8000u32 {
        let arrive = if skew && i % 5 != 0 {
            (i % 2) as usize
        } else {
            (i % 8) as usize
        };
        let flow = FlowHash {
            src_ip: i,
            src_port: (i % 60000) as u16,
            dst_ip: 1,
            dst_port: 80,
        };
        l.enqueue(flow, CoreId(arrive));
    }
    // All 8 workers drain round-robin.
    let mut local_conns = 0u64;
    loop {
        let mut progress = false;
        for c in 0..8 {
            if let Some(conn) = l.accept(CoreId(c)) {
                progress = true;
                if conn.local {
                    local_conns += 1;
                }
            }
        }
        if !progress {
            break;
        }
    }
    (
        local_conns,
        stats.accept_local_queue.load(Ordering::Relaxed),
        stats.accept_steals.load(Ordering::Relaxed),
        stats.accept_shared_queue.load(Ordering::Relaxed),
    )
}

/// Ablation: accept-queue organization (section 4.2).
///
/// Single shared backlog vs per-core backlogs (with stealing), under
/// uniform and skewed flow steering.
pub fn accept() {
    header(
        "Ablation: accept queues",
        "8000 connections over 8 cores; shared backlog vs per-core \
         backlogs with steal-on-empty, uniform vs skewed arrival.",
    );
    println!(
        "{:>10} {:>8} {:>12} {:>12} {:>8} {:>8}",
        "queues", "skew", "local conns", "local pops", "steals", "shared"
    );
    for skew in [false, true] {
        for percore in [false, true] {
            let (local, pops, steals, shared) = accept_run(percore, skew);
            println!(
                "{:>10} {:>8} {local:>12} {pops:>12} {steals:>8} {shared:>8}",
                if percore { "per-core" } else { "shared" },
                if skew { "80/2" } else { "uniform" }
            );
        }
    }
    println!(
        "\nPer-core backlogs keep connections on their arrival core; \
         stealing preserves work conservation under skew."
    );
}

fn ratio(model: &dyn WorkloadModel) -> f64 {
    CoreSweep::figure3_ratio(model, 48)
}

/// Prints `workload`'s ablation rows under the heading `label`.
fn sweep_app(label: &str, workload: &str) {
    let make = |c: KernelConfig| {
        roster::model_with_config(workload, &c, MachineSpec::paper()).expect("on the roster")
    };
    let stock = ratio(make(KernelConfig::stock(48)).as_ref());
    let pk = ratio(make(KernelConfig::pk(48)).as_ref());
    println!("\n{label}: stock={stock:.3}  PK={pk:.3}");
    println!("{:<46} {:>12} {:>14}", "fix", "stock + fix", "PK - fix");
    for fix in FIXES {
        let plus = ratio(make(KernelConfig::stock(48).with_fix(fix.id, true)).as_ref());
        let minus = ratio(make(KernelConfig::pk(48).with_fix(fix.id, false)).as_ref());
        // Only print fixes that move this application at all.
        if (plus - stock).abs() > 1e-6 || (minus - pk).abs() > 1e-6 {
            println!("{:<46} {:>12.3} {:>14.3}", fix.name, plus, minus);
        }
    }
}

/// Ablation: one fix at a time, and leave-one-out.
///
/// The paper applies all 16 fixes together; this harness asks which ones
/// actually carry each application: (a) enable a single fix on top of
/// stock, (b) remove a single fix from PK, and report the Figure-3
/// scalability ratio each configuration achieves at 48 cores.
pub fn fixes() {
    header(
        "Ablation: per-fix contribution",
        "Figure-3 ratio (per-core throughput at 48 cores relative to 1) \
         when each fix is enabled alone (stock + fix) or removed from PK \
         (PK - fix). Rows that don't affect the application are omitted.",
    );
    sweep_app("Exim", "exim");
    sweep_app("memcached", "memcached");
    sweep_app("Apache", "apache");
    println!(
        "\nEach application has one make-or-break fix (Exim: the vfsmount \
         table; memcached/Apache: their dominant shared line) — removing \
         it from PK collapses the application again, while the smaller \
         fixes only trim the residual. The full set is needed because \
         every application bottlenecks on a different line."
    );
}

/// Simulates `conns` connections of `pkts_per_conn` packets each.
///
/// Under PK, the serving core is the steering target (per-core accept
/// queues mean the connection is accepted where its handshake landed).
/// Under stock, accepts pop a shared backlog, so the serving thread ends
/// up on an arbitrary core — and only after the driver samples ~20
/// outgoing packets does the flow table point the flow there.
fn flowsteer_run(hash_steering: bool, conns: u32, pkts_per_conn: u32) -> f64 {
    let mut cfg = if hash_steering {
        NetConfig::pk(8)
    } else {
        NetConfig::stock(8)
    };
    cfg.hash_flow_steering = hash_steering;
    let stats = Arc::new(NetStats::new());
    let nic = Nic::new(cfg, Arc::clone(&stats));
    for c in 0..conns {
        let flow = FlowHash {
            src_ip: 0x0a00_0000 + c,
            src_port: (1024 + (c % 60000)) as u16,
            dst_ip: 1,
            dst_port: 80,
        };
        // PK: accepted on the arrival core. Stock: accepted by whichever
        // worker popped the shared backlog (round-robin here).
        let owner = if hash_steering {
            CoreId(nic.steer(&flow, None))
        } else {
            CoreId((c % 8) as usize)
        };
        for _ in 0..pkts_per_conn {
            nic.rx(
                flow,
                Skb {
                    data: Bytes::from_static(b"p"),
                    node: 0,
                },
                owner,
                None,
            )
            .expect("queues are drained every iteration");
            // Drain so queues never overflow, and reply (TX drives the
            // stock sampler's flow-table updates).
            while nic.poll(owner).is_some() {}
            for c2 in 0..8 {
                while nic.poll(CoreId(c2)).is_some() {}
            }
            nic.tx(owner, flow);
        }
    }
    1.0 - stats.steering_accuracy()
}

/// Ablation: flow-director policies for short vs long connections
/// (section 4.2).
///
/// The stock IXGBE driver samples every 20th outgoing TCP packet to
/// update the flow table, which "typically performs well for long-lived
/// connections, but poorly for short ones ... it is likely that the
/// majority of packets on a given short connection will be misdirected."
/// PK instead hashes headers so every packet of a connection (including
/// the handshake) reaches one core. This ablation measures misdirection
/// for both policies across connection lengths, plus the software-RFS
/// hybrid.
pub fn flowsteer() {
    header(
        "Ablation: flow steering policy",
        "Fraction of packets misdirected away from the connection's \
         serving core, by policy and connection length (2000 connections).",
    );
    println!(
        "{:>22} {:>12} {:>12} {:>12}",
        "policy", "3 pkts/conn", "30 pkts/conn", "300 pkts/conn"
    );
    for (name, hash) in [("sampling (stock)", false), ("header hash (PK)", true)] {
        let mis: Vec<String> = [3u32, 30, 300]
            .into_iter()
            .map(|p| format!("{:.1}%", 100.0 * flowsteer_run(hash, 2000, p)))
            .collect();
        println!("{:>22} {:>12} {:>12} {:>12}", name, mis[0], mis[1], mis[2]);
    }
    // The software hybrid: even misdirected packets reach the right
    // socket, at the cost of a cross-core hop.
    let mut cfg = NetConfig::stock(4);
    cfg.software_rfs = true;
    let stack = NetStack::new(cfg);
    let server = stack.udp_bind(6000, CoreId(2)).unwrap();
    stack.pin_port(6000, 0); // force hardware misdelivery
    for i in 0..100u32 {
        stack
            .udp_send(
                CoreId(0),
                pk_net::SockAddr::new(50 + i, 999),
                pk_net::SockAddr::new(1, 6000),
                Bytes::from_static(b"x"),
            )
            .expect("100 packets fit the queue");
    }
    for c in 0..4 {
        stack.process_rx(CoreId(c), usize::MAX);
    }
    stack.process_rx(CoreId(2), usize::MAX);
    let mut got = 0;
    while let Some(d) = server.recv() {
        stack.release(CoreId(2), d.skb);
        got += 1;
    }
    println!(
        "\nsoftware RFS hybrid: 100 hardware-misdirected packets, {got} \
         delivered to the owning core after one software hop each."
    );
    println!(
        "\nHash steering keeps every packet of every connection local; \
         sampling misdirects most packets of short connections."
    );
}
