//! LogP/LogGP model parameters.

/// LogP parameters with the LogGP long-message extension.
///
/// All times are in microseconds. A transfer of `b` bytes is split into
/// `ceil(b / max_msg_bytes)` messages (the papers bound every message by a
/// size `M` "chosen such that the network remains lightly loaded"). The
/// sender is busy for `o + (k-1)·g` plus the per-byte injection cost `b·G`;
/// the last byte arrives `L` later and the receiver spends another `o`.
/// ```
/// use aa_logp::LogPParams;
/// let net = LogPParams::ethernet_1gbe();
/// // an 8 KiB distance-vector row takes ~125 µs end to end on 1 GbE
/// let t = net.transfer_us(8 * 1024);
/// assert!(t > 60.0 && t < 200.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogPParams {
    /// `L`: network latency per message (µs).
    pub latency_us: f64,
    /// `o`: CPU overhead to send or receive one message (µs).
    pub overhead_us: f64,
    /// `g`: minimum gap between consecutive message injections (µs).
    pub gap_us: f64,
    /// `G` (LogGP): per-byte injection cost (µs/byte) — the reciprocal
    /// bandwidth for long messages.
    pub gap_per_byte_us: f64,
    /// `M`: maximum bytes per message.
    pub max_msg_bytes: usize,
}

impl LogPParams {
    /// A 1 Gb/s Ethernet cluster like the papers' testbed: ~50 µs latency,
    /// ~5 µs send/receive overhead, 125 MB/s ⇒ 0.008 µs per byte, 64 KiB
    /// messages.
    pub fn ethernet_1gbe() -> Self {
        LogPParams {
            latency_us: 50.0,
            overhead_us: 5.0,
            gap_us: 10.0,
            gap_per_byte_us: 0.008,
            max_msg_bytes: 64 * 1024,
        }
    }

    /// Number of model messages needed for a `bytes`-byte transfer.
    pub fn message_count(&self, bytes: usize) -> usize {
        if bytes == 0 {
            1 // an empty message still costs a header
        } else {
            bytes.div_ceil(self.max_msg_bytes)
        }
    }

    /// Time the *sender's* CPU/NIC is occupied injecting `bytes` (µs).
    pub fn sender_busy_us(&self, bytes: usize) -> f64 {
        let k = self.message_count(bytes) as f64;
        self.overhead_us + (k - 1.0) * self.gap_us + bytes as f64 * self.gap_per_byte_us
    }

    /// End-to-end time from send start until the receiver has the data (µs):
    /// sender busy + wire latency + receive overhead.
    pub fn transfer_us(&self, bytes: usize) -> f64 {
        self.sender_busy_us(bytes) + self.latency_us + self.overhead_us
    }
}

impl Default for LogPParams {
    fn default() -> Self {
        Self::ethernet_1gbe()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_count_rounds_up() {
        let p = LogPParams {
            max_msg_bytes: 100,
            ..LogPParams::ethernet_1gbe()
        };
        assert_eq!(p.message_count(0), 1);
        assert_eq!(p.message_count(1), 1);
        assert_eq!(p.message_count(100), 1);
        assert_eq!(p.message_count(101), 2);
        assert_eq!(p.message_count(1000), 10);
    }

    #[test]
    fn costs_monotone_in_bytes() {
        let p = LogPParams::ethernet_1gbe();
        let mut last = 0.0;
        for bytes in [0usize, 1, 1024, 64 * 1024, 640 * 1024] {
            let t = p.transfer_us(bytes);
            assert!(t >= last, "transfer_us must be monotone");
            last = t;
        }
    }

    #[test]
    fn empty_message_costs_header_only() {
        let p = LogPParams::ethernet_1gbe();
        assert_eq!(
            p.transfer_us(0),
            p.overhead_us + p.latency_us + p.overhead_us
        );
    }

    #[test]
    fn big_transfer_dominated_by_bandwidth() {
        let p = LogPParams::ethernet_1gbe();
        let bytes = 10 * 1024 * 1024;
        let t = p.transfer_us(bytes);
        let bandwidth_part = bytes as f64 * p.gap_per_byte_us;
        assert!(bandwidth_part / t > 0.9, "per-byte term should dominate");
    }
}
