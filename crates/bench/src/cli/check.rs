//! `check <machine|sim|udpmicro>`: methodology checks that make the
//! simulated substitution auditable.

use super::header;
use bytes::Bytes;
use pk_kernel::Personality;
use pk_net::{NetConfig, NetStack, SockAddr};
use pk_percpu::CoreId;
use pk_sim::{des, DramModel, L3Model, MachineSpec, NicModel, WorkloadModel};
use pk_workloads::roster;
use std::sync::atomic::Ordering;

/// Prints the simulated machine's parameters next to the paper's
/// published numbers (section 5.1) so the substitution is auditable.
pub fn machine() {
    header(
        "Machine parameters (section 5.1)",
        "Every constant the simulator uses, traced to the paper.",
    );
    let m = MachineSpec::paper();
    println!(
        "sockets x cores/socket:   {} x {} = {} cores",
        m.sockets,
        m.cores_per_socket,
        m.cores()
    );
    println!("clock:                    {:.1} GHz", m.clock_hz / 1e9);
    println!(
        "L1 / L2 / L3 latency:     {} / {} / {} cycles",
        m.l1_cycles, m.l2_cycles, m.l3_cycles
    );
    println!(
        "DRAM local / far:         {} / {} cycles",
        m.dram_local_cycles, m.dram_far_cycles
    );
    println!(
        "coherence miss estimate:  {} cycles",
        m.coherence_miss_cycles
    );
    println!(
        "usable L3 per socket:     {} MB (6 MB - 1 MB probe filter)",
        m.l3_bytes_per_socket >> 20
    );
    println!(
        "DRAM peak bandwidth:      {:.1} GB/s",
        m.dram_peak_bytes_per_sec / 1e9
    );
    println!(
        "NIC wire rate:            {:.0} Gbit/s",
        m.nic_wire_bits_per_sec / 1e9
    );
    let nic = NicModel::new(m);
    println!("NIC pps, 1 queue:         {:.1} Mpps", nic.max_pps(1) / 1e6);
    println!(
        "NIC pps, 48 queues:       {:.1} Mpps",
        nic.max_pps(48) / 1e6
    );
    let dram = DramModel::new(m);
    println!(
        "DRAM-bound ops at 1 KB:   {:.1} Mops/s",
        dram.max_ops_per_sec(1024.0) / 1e6
    );
    let l3 = L3Model::new(m);
    println!(
        "L3 miss fraction at 2x capacity working set: {:.2}",
        l3.miss_fraction((m.l3_bytes_per_socket * 2) as f64)
    );
}

fn validate(name: &str, model: &dyn WorkloadModel) {
    println!("\n{name}:");
    println!(
        "{:>6} {:>16} {:>16} {:>9}",
        "cores", "MVA ops/s", "DES ops/s", "diff"
    );
    for cores in [1, 8, 16, 32, 48] {
        let net = model.network(cores);
        let mva = net.solve(cores).ops_per_cycle * model.machine().clock_hz;
        let sim =
            des::simulate(&net, cores, 3_000, 0xC0FFEE).ops_per_cycle * model.machine().clock_hz;
        println!(
            "{cores:>6} {mva:>16.0} {sim:>16.0} {:>8.1}%",
            100.0 * (sim - mva) / mva
        );
    }
}

/// Methodology check: the figure sweeps are solved analytically (MVA);
/// this check re-runs the same networks through the discrete-event
/// simulator and prints both, so the solver the figures depend on is
/// auditable against a direct simulation.
pub fn sim() {
    header(
        "Simulator validation: MVA vs discrete-event",
        "Same queueing networks, two independent solvers. (DES uses \
         exponential service times; single-digit-percent deviations are \
         expected, and larger ones right at a non-scalable lock's \
         collapse knee, where the two solvers' load-dependence \
         approximations differ most.)",
    );
    for (name, workload, personality) in [
        ("Exim/Stock", "exim", Personality::Stock),
        ("Exim/PK", "exim", Personality::Pk),
        ("memcached/Stock", "memcached", Personality::Stock),
    ] {
        validate(
            name,
            &*roster::model(workload, personality).expect("on the roster"),
        );
    }
    println!(
        "\nThe des_validates_mva unit tests pin the two solvers against \
         each other on canonical networks; this binary shows the match on \
         the actual MOSBENCH models."
    );
}

/// The section-5.4 UDP microbenchmark: clients flood the server with
/// UDP packets "as fast as possible"; the card delivers a similar packet
/// rate as in the Apache benchmark and drops the rest, demonstrating
/// that the NIC — not the kernel — limits Apache past 36 cores.
pub fn udpmicro() {
    header(
        "UDP microbenchmark (section 5.4)",
        "Functional: flood a bounded RX queue and count FIFO drops. \
         Model: the card's deliverable packet rate vs offered load.",
    );
    // Functional part: overflow a single queue.
    let stack = NetStack::new(NetConfig::pk(2));
    stack.udp_bind(7000, CoreId(0)).unwrap();
    let offered = 10_000u32;
    let mut accepted = 0u32;
    for i in 0..offered {
        if stack
            .udp_send(
                CoreId(1),
                SockAddr::new(i, 1000),
                SockAddr::new(1, 7000),
                Bytes::from_static(b"flood"),
            )
            .is_ok()
        {
            accepted += 1;
        }
    }
    let drops = stack.stats().rx_fifo_drops.load(Ordering::Relaxed);
    println!("offered {offered} packets to one queue: {accepted} enqueued, {drops} FIFO drops");
    assert_eq!(accepted as u64 + drops, offered as u64);

    // Model part: deliverable packets/sec by queue count.
    let nic = NicModel::new(MachineSpec::paper());
    println!("\ncard deliverable packet rate by active queue count:");
    println!("{:>8} {:>14}", "queues", "Mpps");
    for q in [1, 8, 16, 24, 36, 48] {
        println!("{q:>8} {:>14.2}", nic.max_pps(q) / 1e6);
    }
    println!(
        "\nAt 48 queues the card delivers ~2.8 Mpps no matter the offered \
         load — the Apache ceiling of Figure 6."
    );
}
