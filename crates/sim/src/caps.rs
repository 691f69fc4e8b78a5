//! Hardware ceilings outside the queueing network: NIC, DRAM, and L3.

use crate::machine::MachineSpec;

/// The NIC throughput model (§5.3–§5.4).
///
/// Two effects bound network workloads:
///
/// * the 10 Gbit wire itself (why Apache serves a 300-byte file);
/// * the card's internal packet engine, which "appears to handle fewer
///   packets as the number of virtual queues increases" — memcached's
///   residual bottleneck past 16 cores — and whose "internal receive
///   packet FIFO overflows" in the Apache benchmark even below wire rate.
///
/// The packet-rate curve interpolates between the measured endpoints:
/// `nic_peak_pps` with one queue and `nic_pps_at_max_queues` with all 48.
#[derive(Debug, Clone, Copy)]
pub struct NicModel {
    spec: MachineSpec,
}

impl NicModel {
    /// Creates the model for `spec`.
    pub fn new(spec: MachineSpec) -> Self {
        Self { spec }
    }

    /// Maximum packets/second the card sustains with `queues` active
    /// virtual queues.
    pub fn max_pps(&self, queues: usize) -> f64 {
        let max_q = self.spec.cores() as f64;
        let q = (queues.max(1) as f64).min(max_q);
        // Linear degradation in queue count between the two measured
        // points (1 queue → peak, 48 queues → degraded).
        let frac = (q - 1.0) / (max_q - 1.0);
        self.spec.nic_peak_pps + frac * (self.spec.nic_pps_at_max_queues - self.spec.nic_peak_pps)
    }

    /// Maximum request rate for a request/response workload where one
    /// request costs `packets_per_op` packets through the card and
    /// `bits_per_op` on the wire.
    pub fn max_ops_per_sec(&self, queues: usize, packets_per_op: f64, bits_per_op: f64) -> f64 {
        let pps_bound = self.max_pps(queues) / packets_per_op.max(1e-9);
        let wire_bound = self.spec.nic_wire_bits_per_sec / bits_per_op.max(1e-9);
        pps_bound.min(wire_bound)
    }
}

/// The DRAM bandwidth ceiling (§5.8).
#[derive(Debug, Clone, Copy)]
pub struct DramModel {
    spec: MachineSpec,
}

impl DramModel {
    /// Creates the model for `spec`.
    pub fn new(spec: MachineSpec) -> Self {
        Self { spec }
    }

    /// Maximum operations/second when each op moves `bytes_per_op` bytes
    /// of DRAM traffic. Metis' reduce phase runs at 50.0 of the 51.5
    /// GB/s ceiling at 48 cores.
    pub fn max_ops_per_sec(&self, bytes_per_op: f64) -> f64 {
        self.spec.dram_peak_bytes_per_sec / bytes_per_op.max(1e-9)
    }
}

/// The per-socket L3 capacity model (§5.7–§5.8).
///
/// pedsort "is bottlenecked by cache capacity": as the per-socket working
/// set outgrows the shared L3, `msort_with_tmp` takes more misses and
/// user time rises. `check machine` prints the miss fraction; the
/// pedsort model itself inflates user time linearly in active cores per
/// socket, calibrated to Figure 10.
#[derive(Debug, Clone, Copy)]
pub struct L3Model {
    spec: MachineSpec,
}

impl L3Model {
    /// Creates the model for `spec`.
    pub fn new(spec: MachineSpec) -> Self {
        Self { spec }
    }

    /// Fraction of cache accesses that miss L3 given the aggregate
    /// working set on one socket.
    pub fn miss_fraction(&self, working_set_bytes_per_socket: f64) -> f64 {
        let cap = self.spec.l3_bytes_per_socket as f64;
        if working_set_bytes_per_socket <= cap {
            0.0
        } else {
            (1.0 - cap / working_set_bytes_per_socket).clamp(0.0, 1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nic_pps_degrades_with_queues() {
        let nic = NicModel::new(MachineSpec::paper());
        assert!((nic.max_pps(1) - 5.0e6).abs() < 1.0);
        assert!((nic.max_pps(48) - 2.8e6).abs() < 1.0);
        assert!(nic.max_pps(16) < nic.max_pps(8));
        assert!(nic.max_pps(0) == nic.max_pps(1), "clamped below 1");
        assert!(nic.max_pps(64) == nic.max_pps(48), "clamped above 48");
    }

    #[test]
    fn nic_ops_bound_takes_the_tighter_limit() {
        let nic = NicModel::new(MachineSpec::paper());
        // Tiny packets: pps-bound.
        let small = nic.max_ops_per_sec(48, 2.0, 2.0 * 68.0 * 8.0);
        assert!((small - 2.8e6 / 2.0).abs() / small < 1e-6);
        // Huge responses: wire-bound.
        let big = nic.max_ops_per_sec(1, 2.0, 1e6);
        assert!((big - 10e9 / 1e6).abs() / big < 1e-6);
    }

    #[test]
    fn dram_bound() {
        let dram = DramModel::new(MachineSpec::paper());
        let x = dram.max_ops_per_sec(1024.0);
        assert!((x - 51.5e9 / 1024.0).abs() / x < 1e-9);
    }

    #[test]
    fn l3_miss_fraction_kicks_in_past_capacity() {
        let l3 = L3Model::new(MachineSpec::paper());
        let cap = (5u64 << 20) as f64;
        assert_eq!(l3.miss_fraction(cap * 0.5), 0.0);
        assert_eq!(l3.miss_fraction(cap), 0.0);
        assert!(l3.miss_fraction(cap * 2.0) > 0.49);
        assert!(l3.miss_fraction(cap * 2.0) < 0.51);
    }
}
