//! The evaluation machine's published constants (§5.1), plus sweepable
//! topologies for the beyond-48-core extrapolations (§7).

/// A topology request the machine model cannot satisfy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// More active cores requested than the topology provides. The old
    /// behaviour silently clamped to the socket count, which made an
    /// oversubscribed sweep produce confidently wrong cache-pressure
    /// numbers; now it is a typed error callers must surface.
    Oversubscribed {
        /// Cores requested.
        requested: usize,
        /// Sockets in the topology.
        sockets: usize,
        /// Cores per socket in the topology.
        cores_per_socket: usize,
    },
    /// Zero cores requested (or a zero-sized topology axis).
    Empty,
    /// A topology string that is not `<sockets>x<cores_per_socket>`.
    Malformed(String),
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Oversubscribed {
                requested,
                sockets,
                cores_per_socket,
            } => write!(
                f,
                "{requested} cores oversubscribe the {sockets}x{cores_per_socket} topology \
                 ({} cores total)",
                sockets * cores_per_socket
            ),
            Self::Empty => write!(f, "topology axes and core counts must be nonzero"),
            Self::Malformed(s) => {
                write!(
                    f,
                    "malformed topology {s:?} (expected <sockets>x<cores_per_socket>)"
                )
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// The 48-core machine from the paper: a Tyan Thunder S4985 with eight
/// 2.4 GHz 6-core AMD Opteron 8431 chips and a dual-port Intel 82599
/// 10 Gbit NIC.
///
/// All latencies are in cycles at 2.4 GHz, exactly as the paper reports
/// them; deriving everything from this one struct keeps the model honest
/// and lets ablations vary the hardware.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineSpec {
    /// Number of sockets (chips).
    pub sockets: usize,
    /// Cores per socket.
    pub cores_per_socket: usize,
    /// Clock frequency in Hz.
    pub clock_hz: f64,
    /// L1 hit latency in cycles ("3 cycles").
    pub l1_cycles: f64,
    /// L2 hit latency in cycles ("14 cycles").
    pub l2_cycles: f64,
    /// Shared L3 hit latency in cycles ("28 cycles").
    pub l3_cycles: f64,
    /// Local DRAM read latency in cycles ("122 cycles").
    pub dram_local_cycles: f64,
    /// Farthest-chip DRAM read latency in cycles ("503 cycles").
    pub dram_far_cycles: f64,
    /// Cost of pulling a cache line another core has modified, in cycles.
    /// "About the same time as loading data from off-chip RAM (hundreds
    /// of cycles)" (§4.1); we use the mean of the near/far DRAM costs.
    pub coherence_miss_cycles: f64,
    /// Usable L3 per socket in bytes (6 MB minus the 1 MB HT Assist probe
    /// filter).
    pub l3_bytes_per_socket: u64,
    /// DRAM per socket in bytes (8 GB).
    pub dram_bytes_per_socket: u64,
    /// Peak achievable DRAM bandwidth in bytes/second ("51.5
    /// Gbyte/second measured by our microbenchmarks", §5.8).
    pub dram_peak_bytes_per_sec: f64,
    /// NIC wire rate in bits/second (one 10 Gbit port).
    pub nic_wire_bits_per_sec: f64,
    /// NIC peak packet rate with few queues ("5 million packets per
    /// second", §5.4).
    pub nic_peak_pps: f64,
    /// Packet rate the card actually sustains at 48 virtual queues
    /// ("2.8 million packets per second" delivered while overflowing,
    /// §5.4).
    pub nic_pps_at_max_queues: f64,
}

impl MachineSpec {
    /// The paper's machine.
    pub fn paper() -> Self {
        Self {
            sockets: 8,
            cores_per_socket: 6,
            clock_hz: 2.4e9,
            l1_cycles: 3.0,
            l2_cycles: 14.0,
            l3_cycles: 28.0,
            dram_local_cycles: 122.0,
            dram_far_cycles: 503.0,
            coherence_miss_cycles: (122.0 + 503.0) / 2.0,
            l3_bytes_per_socket: 5 << 20,
            dram_bytes_per_socket: 8 << 30,
            dram_peak_bytes_per_sec: 51.5e9,
            nic_wire_bits_per_sec: 10e9,
            nic_peak_pps: 5.0e6,
            nic_pps_at_max_queues: 2.8e6,
        }
    }

    /// The paper's machine scaled to a different `sockets` ×
    /// `cores_per_socket` topology — the §7 "would the fixes hold past
    /// 48 cores" axis. Per-socket constants (L3, DRAM capacity and
    /// bandwidth, cache latencies) are per-socket already, so they
    /// scale with the socket count automatically; only the shape
    /// changes.
    pub fn with_topology(sockets: usize, cores_per_socket: usize) -> Result<Self, TopologyError> {
        if sockets == 0 || cores_per_socket == 0 {
            return Err(TopologyError::Empty);
        }
        Ok(Self {
            sockets,
            cores_per_socket,
            ..Self::paper()
        })
    }

    /// Parses a `<sockets>x<cores_per_socket>` topology string (e.g.
    /// `8x6`, `16x12`) into a scaled paper machine.
    pub fn parse_topology(s: &str) -> Result<Self, TopologyError> {
        let malformed = || TopologyError::Malformed(s.to_string());
        let (sockets, cps) = s.split_once(['x', 'X']).ok_or_else(malformed)?;
        let sockets: usize = sockets.trim().parse().map_err(|_| malformed())?;
        let cps: usize = cps.trim().parse().map_err(|_| malformed())?;
        Self::with_topology(sockets, cps)
    }

    /// Total core count.
    pub fn cores(&self) -> usize {
        self.sockets * self.cores_per_socket
    }

    /// Checks that `cores` active cores fit this topology.
    pub fn validate_cores(&self, cores: usize) -> Result<(), TopologyError> {
        if cores == 0 {
            return Err(TopologyError::Empty);
        }
        if cores > self.cores() {
            return Err(TopologyError::Oversubscribed {
                requested: cores,
                sockets: self.sockets,
                cores_per_socket: self.cores_per_socket,
            });
        }
        Ok(())
    }

    /// Converts cycles to microseconds.
    pub fn cycles_to_usecs(&self, cycles: f64) -> f64 {
        cycles * 1e6 / self.clock_hz
    }

    /// How many sockets are active when `cores` cores are enabled,
    /// filling sockets in order (the default enablement pattern).
    /// Oversubscription is a [`TopologyError`], not a clamp: the old
    /// clamping answer under-counted cores-per-socket cache pressure
    /// for any request past the machine's size.
    pub fn sockets_for(&self, cores: usize) -> Result<usize, TopologyError> {
        self.validate_cores(cores)?;
        Ok(cores.div_ceil(self.cores_per_socket))
    }

    /// How many sockets are active when `cores` are spread round-robin
    /// over sockets (the "RR" placement of §5.7/§5.8). Errors like
    /// [`MachineSpec::sockets_for`] on oversubscription.
    pub fn sockets_for_rr(&self, cores: usize) -> Result<usize, TopologyError> {
        self.validate_cores(cores)?;
        Ok(cores.min(self.sockets))
    }
}

impl Default for MachineSpec {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_machine_has_48_cores() {
        let m = MachineSpec::paper();
        assert_eq!(m.cores(), 48);
    }

    #[test]
    fn unit_conversions() {
        let m = MachineSpec::paper();
        assert!((m.cycles_to_usecs(2400.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn socket_enablement_patterns() {
        let m = MachineSpec::paper();
        assert_eq!(m.sockets_for(1), Ok(1));
        assert_eq!(m.sockets_for(6), Ok(1));
        assert_eq!(m.sockets_for(7), Ok(2));
        assert_eq!(m.sockets_for(48), Ok(8));
        assert_eq!(m.sockets_for_rr(1), Ok(1));
        assert_eq!(m.sockets_for_rr(4), Ok(4));
        assert_eq!(m.sockets_for_rr(48), Ok(8));
    }

    #[test]
    fn oversubscription_is_a_typed_error_not_a_clamp() {
        let m = MachineSpec::paper();
        let err = m.sockets_for(49).unwrap_err();
        assert_eq!(
            err,
            TopologyError::Oversubscribed {
                requested: 49,
                sockets: 8,
                cores_per_socket: 6,
            }
        );
        assert!(err.to_string().contains("49 cores oversubscribe the 8x6"));
        assert!(m.sockets_for_rr(100).is_err());
        assert_eq!(m.sockets_for(0), Err(TopologyError::Empty));
        // The same request fits once the topology grows.
        let big = MachineSpec::with_topology(16, 12).unwrap();
        assert_eq!(big.sockets_for(49), Ok(5));
        assert_eq!(big.sockets_for(192), Ok(16));
    }

    #[test]
    fn topologies_scale_the_paper_machine() {
        let m = MachineSpec::with_topology(16, 12).unwrap();
        assert_eq!(m.cores(), 192);
        // Per-socket constants are untouched; capacity scales by count.
        let paper = MachineSpec::paper();
        assert_eq!(m.l3_bytes_per_socket, paper.l3_bytes_per_socket);
        assert_eq!(m.clock_hz, paper.clock_hz);
        assert!(MachineSpec::with_topology(0, 6).is_err());
        assert!(MachineSpec::with_topology(8, 0).is_err());
    }

    #[test]
    fn topology_strings_parse() {
        assert_eq!(MachineSpec::parse_topology("8x6"), Ok(MachineSpec::paper()));
        let m = MachineSpec::parse_topology("86X12").unwrap();
        assert_eq!(m.cores(), 1032);
        for bad in ["", "8", "8x", "x6", "8x6x2", "ax6", "8 by 6"] {
            assert!(
                matches!(
                    MachineSpec::parse_topology(bad),
                    Err(TopologyError::Malformed(_))
                ),
                "{bad:?} must be malformed"
            );
        }
        assert_eq!(
            MachineSpec::parse_topology("0x6"),
            Err(TopologyError::Empty)
        );
    }

    #[test]
    fn the_1024_core_topology_validates_at_its_exact_edge() {
        // The §7 sweep's largest shape: 64 sockets × 16 cores. The
        // total is a power of two — the shape that breaks any wheel or
        // mask math quietly tuned for the paper's 8×6 — so the
        // boundary must be exact: 1024 fits, 1025 is a typed error.
        let m = MachineSpec::parse_topology("64x16").unwrap();
        assert_eq!(m.cores(), 1024);
        assert_eq!(m.validate_cores(1024), Ok(()));
        assert_eq!(m.sockets_for(1024), Ok(64));
        assert_eq!(m.sockets_for_rr(1024), Ok(64));
        // Partial enablement still fills sockets in order.
        assert_eq!(m.sockets_for(17), Ok(2));
        assert_eq!(m.sockets_for_rr(17), Ok(17));
        let err = m.validate_cores(1025).unwrap_err();
        assert_eq!(
            err,
            TopologyError::Oversubscribed {
                requested: 1025,
                sockets: 64,
                cores_per_socket: 16,
            }
        );
        assert!(err
            .to_string()
            .contains("1025 cores oversubscribe the 64x16"));
        assert_eq!(m.validate_cores(0), Err(TopologyError::Empty));
        // Negative and overflowing socket counts are malformed, not
        // panics or silent wraps.
        for bad in ["-64x16", "64x-16", "99999999999999999999x16", "64x1.6"] {
            assert!(
                matches!(
                    MachineSpec::parse_topology(bad),
                    Err(TopologyError::Malformed(_))
                ),
                "{bad:?} must be malformed"
            );
        }
    }

    #[test]
    fn coherence_cost_is_hundreds_of_cycles() {
        let m = MachineSpec::paper();
        assert!(m.coherence_miss_cycles > 100.0);
        assert!(m.coherence_miss_cycles < 600.0);
    }
}
