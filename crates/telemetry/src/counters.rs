//! The shared per-node datapath counter block.
//!
//! Before this crate existed the testbed kept eight ad-hoc `u64` fields
//! per node and hand-mirrored them into the Controller's status
//! registers, so adding a counter meant touching two structs and one
//! copy site — and forgetting any of the three silently dropped the
//! counter from `status()`. Both sides now hold the same
//! [`WireCounters`] block: the datapath increments it in place and the
//! status registers embed it verbatim.

/// Datapath counters one NIC maintains, exposed verbatim through the
/// Controller's status registers (§4.3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireCounters {
    /// Commands accepted from the host.
    pub commands: u64,
    /// Frames received (pre-parse).
    pub frames_rx: u64,
    /// Frames that failed structural parsing (malformed headers).
    pub frames_parse_dropped: u64,
    /// Frames dropped because a checksum caught in-flight corruption
    /// (ICRC over BTH+payload, or the IPv4 header checksum).
    pub frames_crc_dropped: u64,
    /// Frames the injected link fault model dropped outright.
    pub frames_lost: u64,
    /// Frames delivered out of order by the fault model's jitter.
    pub frames_reordered: u64,
    /// Frames delivered twice by the fault model.
    pub frames_duplicated: u64,
    /// Payload bytes written to host memory by WRITEs.
    pub payload_bytes_rx: u64,
    /// Congestion notification packets transmitted (responder saw a
    /// CE-marked frame and echoed it to the sender).
    pub cnps_tx: u64,
    /// Congestion notification packets received (DCQCN rate cuts applied
    /// on this node's requester side).
    pub cnps_rx: u64,
}

impl WireCounters {
    /// Frames dropped before protocol dispatch for any reason.
    pub fn frames_dropped_total(&self) -> u64 {
        self.frames_parse_dropped + self.frames_crc_dropped + self.frames_lost
    }

    /// `(name, value)` pairs in a fixed order, for report export.
    pub fn entries(&self) -> [(&'static str, u64); 10] {
        [
            ("commands", self.commands),
            ("frames_rx", self.frames_rx),
            ("frames_parse_dropped", self.frames_parse_dropped),
            ("frames_crc_dropped", self.frames_crc_dropped),
            ("frames_lost", self.frames_lost),
            ("frames_reordered", self.frames_reordered),
            ("frames_duplicated", self.frames_duplicated),
            ("payload_bytes_rx", self.payload_bytes_rx),
            ("cnps_tx", self.cnps_tx),
            ("cnps_rx", self.cnps_rx),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_entries_agree_with_fields() {
        let c = WireCounters {
            frames_parse_dropped: 1,
            frames_crc_dropped: 2,
            frames_lost: 4,
            ..Default::default()
        };
        assert_eq!(c.frames_dropped_total(), 7);
        let entries = c.entries();
        assert_eq!(entries.len(), 10);
        assert_eq!(entries[3], ("frames_crc_dropped", 2));
        assert_eq!(entries[8], ("cnps_tx", 0));
    }
}
