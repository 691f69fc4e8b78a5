//! Property tests for the network stack.

use bytes::Bytes;
use pk_net::{FlowHash, Listener, NetConfig, NetStack, NetStats, SockAddr};
use pk_percpu::CoreId;
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    /// Every enqueued connection is accepted exactly once, in any
    /// configuration and under any arrival pattern.
    #[test]
    fn listeners_conserve_connections(
        arrivals in proptest::collection::vec(0..8usize, 1..200),
        percore in prop::bool::ANY,
    ) {
        let mut cfg = NetConfig::pk(8);
        cfg.percore_accept_queues = percore;
        let l = Listener::new(80, cfg, Arc::new(NetStats::new()));
        for (i, &core) in arrivals.iter().enumerate() {
            l.enqueue(
                FlowHash { src_ip: i as u32, src_port: 1, dst_ip: 2, dst_port: 80 },
                CoreId(core),
            );
        }
        let mut seen = std::collections::HashSet::new();
        let mut accepted = 0;
        loop {
            let mut progress = false;
            for c in 0..8 {
                if let Some(conn) = l.accept(CoreId(c)) {
                    progress = true;
                    accepted += 1;
                    prop_assert!(seen.insert(conn.flow.src_ip), "double accept");
                }
            }
            if !progress {
                break;
            }
        }
        prop_assert_eq!(accepted, arrivals.len());
        prop_assert_eq!(l.backlog(), 0);
    }

    /// Flow-hash steering is deterministic and total: every flow maps to
    /// a valid queue, identical across calls.
    #[test]
    fn steering_is_a_pure_function(
        src_ip in any::<u32>(),
        src_port in any::<u16>(),
        dst_ip in any::<u32>(),
        dst_port in any::<u16>(),
    ) {
        let nic = pk_net::Nic::new(NetConfig::pk(48), Arc::new(NetStats::new()));
        let f = FlowHash { src_ip, src_port, dst_ip, dst_port };
        let q = nic.steer(&f, None);
        prop_assert!(q < 48);
        prop_assert_eq!(nic.steer(&f, None), q);
    }

    /// Protocol accounting balances for any send/receive/release
    /// interleaving: after draining, usage returns to zero.
    #[test]
    fn accounting_balances(
        sends in proptest::collection::vec((0..4usize, 1..64usize), 1..60),
        stock in prop::bool::ANY,
    ) {
        let cfg = if stock { NetConfig::stock(4) } else { NetConfig::pk(4) };
        let stack = NetStack::new(cfg);
        let socks: Vec<_> = (0..4)
            .map(|c| stack.udp_bind(4000 + c as u16, CoreId(c)).unwrap())
            .collect();
        for (i, &(target, len)) in sends.iter().enumerate() {
            stack.udp_send(
                CoreId(i % 4),
                SockAddr::new(i as u32, 999),
                SockAddr::new(1, 4000 + target as u16),
                Bytes::from(vec![0u8; len]),
            ).unwrap();
        }
        for c in 0..4 {
            stack.process_rx(CoreId(c), usize::MAX);
        }
        let mut received = 0;
        for (c, s) in socks.iter().enumerate() {
            while let Some(d) = s.recv() {
                stack.release(CoreId(c), d.skb);
                received += 1;
            }
        }
        prop_assert_eq!(received, sends.len());
        prop_assert_eq!(stack.proto().usage(pk_net::Protocol::Udp), 0);
        prop_assert_eq!(stack.nic().pending(), 0);
    }

    /// The skb pool never loses buffers: free count equals frees minus
    /// recycled allocations.
    #[test]
    fn skb_pool_conserves_buffers(ops in proptest::collection::vec((0..4usize, prop::bool::ANY), 1..100)) {
        let stats = Arc::new(NetStats::new());
        let pool = pk_net::SkbPool::new(NetConfig::pk(4), stats);
        let mut held: Vec<(usize, pk_net::Skb)> = Vec::new();
        for &(core, alloc) in &ops {
            if alloc || held.is_empty() {
                let skb = pool.alloc(CoreId(core), Bytes::from_static(b"b"));
                held.push((core, skb));
            } else {
                let (c, skb) = held.pop().unwrap();
                pool.free(CoreId(c), skb);
            }
        }
        let freed_now = held.len();
        for (c, skb) in held {
            pool.free(CoreId(c), skb);
        }
        prop_assert!(pool.free_count() >= freed_now);
    }
}

/// The stock sampling director eventually converges for a long-lived
/// connection: after the sampling period, packets follow the TX core.
#[test]
fn sampling_converges_for_long_flows() {
    let stats = Arc::new(NetStats::new());
    let nic = pk_net::Nic::new(NetConfig::stock(8), Arc::clone(&stats));
    let flow = FlowHash {
        src_ip: 42,
        src_port: 4242,
        dst_ip: 1,
        dst_port: 80,
    };
    let serving = CoreId(5);
    let mut local_after_convergence = true;
    for pkt in 0..100 {
        let steered = nic.steer(&flow, None);
        if pkt > 25 && steered != serving.index() {
            local_after_convergence = false;
        }
        nic.tx(serving, flow);
    }
    assert!(
        local_after_convergence,
        "after 20+ TX samples the flow must follow core 5"
    );
}
