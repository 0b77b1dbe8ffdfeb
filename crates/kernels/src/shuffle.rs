//! The shuffle kernel: on-NIC radix partitioning of incoming RDMA streams.
//!
//! §6.4: "We implement a shuffling kernel that supports data shuffling on
//! the remote NIC. When data is transmitted, the kernel on the remote NIC
//! partitions the incoming data on-the-fly and writes the partitioned data
//! values to the corresponding location in its host memory. The kernel
//! treats the payload as 8 B values and partitions them using a radix hash
//! function … The kernel creates on-chip buffers for up to 1024
//! partitions, each of which accommodates up to 16 values (128 B). Such
//! buffering is required to keep up with line-rate processing throughput
//! over PCIe. The kernel is parametrized through an RDMA RPC message
//! containing a histogram indicating the size and memory location of each
//! partition."
//!
//! Because the histogram for 1024 partitions exceeds one MTU, the RPC
//! parameters carry a *pointer* to the histogram in host memory and the
//! kernel DMA-reads it — the natural pattern for kernels that keep partial
//! state in host memory (§2.3). Data then arrives via RDMA RPC WRITE and
//! is flushed in 128 B bursts.

use bytes::Bytes;

use strom_wire::opcode::RpcOpCode;

use crate::framework::{Kernel, KernelAction, KernelEvent};
use crate::radix::{
    radix_bits, radix_partition, radix_partition_batch, MAX_PARTITIONS, PARTITION_BUFFER_VALUES,
};

/// Parameters of the shuffle kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShuffleParams {
    /// Host-memory address of the histogram: `num_partitions` records of
    /// 16 B each — base address (8 B), capacity in bytes (4 B), pad (4 B).
    pub histogram_addr: u64,
    /// Number of partitions (power of two, ≤ 1024).
    pub num_partitions: u32,
}

/// Encoded parameter length in bytes.
pub const SHUFFLE_PARAMS_LEN: usize = 12;

/// Bytes per histogram record.
pub const HISTOGRAM_RECORD: usize = 16;

impl ShuffleParams {
    /// Encodes into the RPC Params payload.
    pub fn encode(&self) -> Bytes {
        let mut out = [0u8; SHUFFLE_PARAMS_LEN];
        out[0..8].copy_from_slice(&self.histogram_addr.to_le_bytes());
        out[8..12].copy_from_slice(&self.num_partitions.to_le_bytes());
        Bytes::copy_from_slice(&out)
    }

    /// Decodes from the RPC Params payload.
    pub fn decode(buf: &[u8]) -> Option<ShuffleParams> {
        if buf.len() < SHUFFLE_PARAMS_LEN {
            return None;
        }
        Some(ShuffleParams {
            histogram_addr: u64::from_le_bytes(buf[0..8].try_into().expect("sized")),
            num_partitions: u32::from_le_bytes(buf[8..12].try_into().expect("sized")),
        })
    }
}

/// Encodes a histogram (partition base + capacity) into host-memory bytes.
pub fn encode_histogram(partitions: &[(u64, u32)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(partitions.len() * HISTOGRAM_RECORD);
    for &(base, capacity) in partitions {
        out.extend_from_slice(&base.to_le_bytes());
        out.extend_from_slice(&capacity.to_le_bytes());
        out.extend_from_slice(&[0u8; 4]);
    }
    out
}

/// One partition's on-chip state.
#[derive(Debug, Clone)]
struct Partition {
    /// Next host address to flush to.
    cursor: u64,
    /// Remaining capacity in bytes.
    remaining: u32,
    /// The on-chip buffer (up to 16 values = 128 B).
    buffer: Vec<u8>,
}

/// DMA tag for the histogram read.
const TAG_HISTOGRAM: u32 = 1;

#[derive(Debug, Default)]
enum State {
    #[default]
    Unconfigured,
    LoadingHistogram {
        num_partitions: u32,
    },
    /// Configured and partitioning incoming payload.
    Active,
}

/// The shuffle kernel FSM.
#[derive(Debug, Default)]
pub struct ShuffleKernel {
    state: State,
    partitions: Vec<Partition>,
    bits: u32,
    /// Value spill: a trailing partial 8 B value across packet boundaries.
    spill: Vec<u8>,
    /// Values dropped because their partition was full (diagnostics; the
    /// experiments size partitions so this stays zero).
    overflowed: u64,
    /// Total values partitioned.
    values: u64,
}

impl ShuffleKernel {
    /// Creates an unconfigured kernel.
    pub fn new() -> Self {
        Self::default()
    }

    /// Values dropped due to partition overflow.
    pub fn overflowed(&self) -> u64 {
        self.overflowed
    }

    /// Total values partitioned so far.
    pub fn values(&self) -> u64 {
        self.values
    }

    fn configure(&mut self, histogram: &[u8], num_partitions: u32) {
        self.partitions.clear();
        for i in 0..num_partitions as usize {
            let off = i * HISTOGRAM_RECORD;
            let base = u64::from_le_bytes(histogram[off..off + 8].try_into().expect("sized"));
            let capacity =
                u32::from_le_bytes(histogram[off + 8..off + 12].try_into().expect("sized"));
            self.partitions.push(Partition {
                cursor: base,
                remaining: capacity,
                buffer: Vec::with_capacity(PARTITION_BUFFER_VALUES * 8),
            });
        }
        self.bits = radix_bits(num_partitions as usize);
        self.spill.clear();
        self.state = State::Active;
    }

    fn flush_partition(p: &mut Partition, out: &mut Vec<KernelAction>) {
        if p.buffer.is_empty() {
            return;
        }
        let len = p.buffer.len().min(p.remaining as usize);
        if len > 0 {
            out.push(KernelAction::DmaWrite {
                vaddr: p.cursor,
                data: Bytes::copy_from_slice(&p.buffer[..len]),
            });
            p.cursor += len as u64;
            p.remaining -= len as u32;
        }
        p.buffer.clear();
    }

    fn partition_values(&mut self, data: &[u8], out: &mut Vec<KernelAction>) {
        // Reassemble 8 B values across packet boundaries.
        let mut input: &[u8] = data;
        let mut joined: Vec<u8>;
        if !self.spill.is_empty() {
            joined = std::mem::take(&mut self.spill);
            joined.extend_from_slice(data);
            input = &joined;
        } else {
            joined = Vec::new();
        }
        let whole = input.len() / 8 * 8;
        // Compute partition ids for a whole block, then run the (serial)
        // on-chip buffer appends — identical order and results to the
        // per-value loop.
        let mut block = [0u64; 64];
        let mut pids = [0u32; 64];
        for run in input[..whole].chunks(64 * 8) {
            let n = run.len() / 8;
            for (slot, chunk) in block[..n].iter_mut().zip(run.chunks_exact(8)) {
                *slot = u64::from_le_bytes(chunk.try_into().expect("sized"));
            }
            radix_partition_batch(&block[..n], self.bits, &mut pids[..n]);
            for j in 0..n {
                let p = &mut self.partitions[pids[j] as usize];
                if (p.buffer.len() + 8) as u32 > p.remaining {
                    // No room left in this partition's host region.
                    self.overflowed += 1;
                    continue;
                }
                p.buffer.extend_from_slice(&block[j].to_le_bytes());
                self.values += 1;
                if p.buffer.len() >= PARTITION_BUFFER_VALUES * 8 {
                    Self::flush_partition(p, out);
                }
            }
        }
        if whole < input.len() {
            self.spill = input[whole..].to_vec();
        }
        drop(joined);
    }

    /// Flushes all partial buffers (end of stream).
    fn flush_all(&mut self, out: &mut Vec<KernelAction>) {
        for p in &mut self.partitions {
            Self::flush_partition(p, out);
        }
    }
}

impl Kernel for ShuffleKernel {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn rpc_op(&self) -> RpcOpCode {
        RpcOpCode::SHUFFLE
    }

    fn name(&self) -> &'static str {
        "shuffle"
    }

    fn on_event_into(&mut self, event: KernelEvent, out: &mut Vec<KernelAction>) {
        match event {
            KernelEvent::Invoke { qpn: _, params } => {
                let Some(p) = ShuffleParams::decode(&params) else {
                    return;
                };
                if p.num_partitions == 0
                    || !p.num_partitions.is_power_of_two()
                    || p.num_partitions as usize > MAX_PARTITIONS
                {
                    return;
                }
                self.state = State::LoadingHistogram {
                    num_partitions: p.num_partitions,
                };
                out.push(KernelAction::DmaRead {
                    tag: TAG_HISTOGRAM,
                    vaddr: p.histogram_addr,
                    len: p.num_partitions * HISTOGRAM_RECORD as u32,
                });
            }
            KernelEvent::DmaData { tag, data } => {
                let State::LoadingHistogram { num_partitions } = self.state else {
                    return;
                };
                if tag == TAG_HISTOGRAM && data.len() >= num_partitions as usize * HISTOGRAM_RECORD
                {
                    self.configure(&data, num_partitions);
                    out.push(KernelAction::Done);
                }
            }
            KernelEvent::RoceData { qpn: _, data, last } => {
                if !matches!(self.state, State::Active) {
                    return;
                }
                self.partition_values(&data, out);
                if last {
                    self.flush_all(out);
                    out.push(KernelAction::Done);
                }
            }
        }
    }
}

/// A reference (oracle) partitioner: the same semantics in one pass, used
/// by the property tests and the CPU baseline verification.
pub fn reference_partition(values: &[u64], num_partitions: usize) -> Vec<Vec<u64>> {
    let bits = radix_bits(num_partitions);
    let mut out = vec![Vec::new(); num_partitions];
    for &v in values {
        out[radix_partition(v, bits)].push(v);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives the kernel with an in-test host memory image.
    struct Harness {
        kernel: ShuffleKernel,
        /// Flat host memory: addr → byte, tracked as writes.
        writes: Vec<(u64, Vec<u8>)>,
    }

    impl Harness {
        fn new(num_partitions: u32, capacity: u32) -> (Self, Vec<u64>) {
            let mut kernel = ShuffleKernel::new();
            // Partition i's region starts at i * 1 MB.
            let bases: Vec<u64> = (0..num_partitions as u64).map(|i| i << 20).collect();
            let histogram =
                encode_histogram(&bases.iter().map(|&b| (b, capacity)).collect::<Vec<_>>());
            let a1 = kernel.on_event(KernelEvent::Invoke {
                qpn: 1,
                params: ShuffleParams {
                    histogram_addr: 0x5000,
                    num_partitions,
                }
                .encode(),
            });
            assert!(matches!(a1[0], KernelAction::DmaRead { len, .. }
                if len == num_partitions * HISTOGRAM_RECORD as u32));
            let a2 = kernel.on_event(KernelEvent::DmaData {
                tag: TAG_HISTOGRAM,
                data: Bytes::from(histogram),
            });
            assert_eq!(a2, vec![KernelAction::Done]);
            (
                Harness {
                    kernel,
                    writes: Vec::new(),
                },
                bases,
            )
        }

        fn feed(&mut self, data: &[u8], last: bool) {
            let actions = self.kernel.on_event(KernelEvent::RoceData {
                qpn: 1,
                data: Bytes::copy_from_slice(data),
                last,
            });
            for a in actions {
                if let KernelAction::DmaWrite { vaddr, data } = a {
                    self.writes.push((vaddr, data.to_vec()));
                }
            }
        }

        /// Reconstructs each partition's contents from the DMA writes.
        fn partition_contents(&self, bases: &[u64]) -> Vec<Vec<u64>> {
            let mut parts: Vec<Vec<(u64, Vec<u8>)>> = vec![Vec::new(); bases.len()];
            for (addr, data) in &self.writes {
                let pid = (addr >> 20) as usize;
                parts[pid].push((*addr, data.clone()));
            }
            parts
                .into_iter()
                .enumerate()
                .map(|(pid, mut writes)| {
                    writes.sort_by_key(|(a, _)| *a);
                    // Writes must be contiguous from the partition base.
                    let mut cursor = bases[pid];
                    let mut values = Vec::new();
                    for (addr, data) in writes {
                        assert_eq!(addr, cursor, "partition {pid} writes are contiguous");
                        cursor += data.len() as u64;
                        for chunk in data.chunks_exact(8) {
                            values.push(u64::from_le_bytes(chunk.try_into().unwrap()));
                        }
                    }
                    values
                })
                .collect()
        }
    }

    fn tuples(n: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(n as usize * 8);
        for i in 0..n {
            out.extend_from_slice(&(i.wrapping_mul(0x5851_F42D_4C95_7F2D)).to_le_bytes());
        }
        out
    }

    #[test]
    fn partitions_match_reference() {
        let (mut h, bases) = Harness::new(16, 1 << 16);
        let data = tuples(1000);
        h.feed(&data, true);
        let got = h.partition_contents(&bases);
        let values: Vec<u64> = data
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let want = reference_partition(&values, 16);
        assert_eq!(got, want);
        assert_eq!(h.kernel.values(), 1000);
        assert_eq!(h.kernel.overflowed(), 0);
    }

    #[test]
    fn flushes_in_128_byte_bursts() {
        let (mut h, _) = Harness::new(1, 1 << 16);
        // 40 values to one partition: two full 128 B flushes + final 64 B.
        let data: Vec<u8> = (0..40u64).flat_map(|_| 0u64.to_le_bytes()).collect();
        h.feed(&data, true);
        let lens: Vec<usize> = h.writes.iter().map(|(_, d)| d.len()).collect();
        assert_eq!(lens, vec![128, 128, 64]);
    }

    #[test]
    fn values_split_across_packets_are_reassembled() {
        let (mut h, bases) = Harness::new(4, 1 << 16);
        let data = tuples(100);
        // Feed in awkward chunk sizes that split 8 B values.
        let mut fed = 0;
        for (i, chunk) in data.chunks(13).enumerate() {
            fed += chunk.len();
            let last = fed == data.len();
            h.feed(chunk, last);
            let _ = i;
        }
        let got = h.partition_contents(&bases);
        let values: Vec<u64> = data
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(got, reference_partition(&values, 4));
    }

    #[test]
    fn overflowing_partition_counts_drops() {
        // Capacity of one value (8 B) per partition.
        let (mut h, _) = Harness::new(1, 8);
        let data: Vec<u8> = (0..5u64).flat_map(|_| 8u64.to_le_bytes()).collect();
        h.feed(&data, true);
        assert_eq!(h.kernel.overflowed(), 4, "four of five values dropped");
        let total: usize = h.writes.iter().map(|(_, d)| d.len()).sum();
        assert_eq!(total, 8);
    }

    #[test]
    fn data_before_configuration_is_ignored() {
        let mut k = ShuffleKernel::new();
        let actions = k.on_event(KernelEvent::RoceData {
            qpn: 1,
            data: Bytes::from(tuples(4)),
            last: true,
        });
        assert!(actions.is_empty());
    }

    #[test]
    fn invalid_partition_counts_are_rejected() {
        let mut k = ShuffleKernel::new();
        for bad in [0u32, 3, 2048] {
            let actions = k.on_event(KernelEvent::Invoke {
                qpn: 1,
                params: ShuffleParams {
                    histogram_addr: 0,
                    num_partitions: bad,
                }
                .encode(),
            });
            assert!(actions.is_empty(), "count {bad} must be rejected");
        }
    }

    #[test]
    fn multiset_is_preserved() {
        let (mut h, bases) = Harness::new(64, 1 << 20);
        let data = tuples(5000);
        h.feed(&data, true);
        let mut got: Vec<u64> = h.partition_contents(&bases).concat();
        let mut want: Vec<u64> = data
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }
}
