//! The canonical kernel chains: pre-composed on-NIC pipelines.
//!
//! §8's outlook — "more complex processing pipelines can be built by
//! **chaining kernels**" — realized with the
//! [`KernelChain`] combinator. Two
//! pipelines exercise both composition styles:
//!
//! - [`filter_agg_hll`]: *filter → aggregate → HLL*. The filter's
//!   qualifying-tuple bursts are diverted into the aggregate stage
//!   ([`StageRoute::CaptureDmaWrites`]) instead of host memory; the
//!   aggregate taps its input through to the HLL stage
//!   ([`StageRoute::Tap`]) while folding count/sum/min/max. One pass over
//!   the wire yields three result records (filter summary, aggregate
//!   record, HLL snapshot) on the requester.
//! - [`crcverify_shuffle`]: *CRC-verify → shuffle*. The verify stage
//!   forwards payload cut-through ([`StageRoute::Handoff`]) and withholds
//!   the 8 B trailer; the shuffle stage radix-partitions the verified
//!   tuples into host memory. A CRC mismatch raises the in-band
//!   [`ERR_INCONSISTENT`](crate::framework::ERR_INCONSISTENT) sentinel and
//!   the chain starves the shuffle stage — corrupted tuples never land.

use bytes::Bytes;

use strom_wire::opcode::RpcOpCode;

use crate::aggregate::{AggregateKernel, AggregateParams};
use crate::crc_verify::{CrcVerifyKernel, CrcVerifyParams};
use crate::filter::{FilterKernel, FilterParams};
use crate::framework::{ChainParams, KernelChain, StageRoute};
use crate::hll_kernel::HllKernel;
use crate::shuffle::{ShuffleKernel, ShuffleParams};

/// Builds the filter → aggregate → HLL chain (undeployed, unconfigured).
pub fn filter_agg_hll() -> KernelChain {
    KernelChain::new(
        RpcOpCode::CHAIN_FILTER_AGG_HLL,
        vec![
            (Box::new(FilterKernel::new()), StageRoute::CaptureDmaWrites),
            (Box::new(AggregateKernel::new()), StageRoute::Tap),
            (Box::new(HllKernel::new()), StageRoute::Handoff),
        ],
    )
}

/// Encodes the invocation parameters for [`filter_agg_hll`].
///
/// The filter's `dest_addr`/`dest_capacity` govern only burst sizing —
/// qualifying tuples flow to the aggregate stage, not host memory — but
/// capacity still bounds how many tuples pass (tuples beyond it are
/// dropped and counted as overflow, same as the standalone kernel).
pub fn filter_agg_hll_params(
    filter: &FilterParams,
    aggregate: &AggregateParams,
    hll_target: u64,
) -> Bytes {
    ChainParams {
        stages: vec![
            filter.encode(),
            aggregate.encode(),
            HllKernel::stream_params(hll_target),
        ],
    }
    .encode()
}

/// Builds the CRC-verify → shuffle chain (undeployed, unconfigured).
pub fn crcverify_shuffle() -> KernelChain {
    KernelChain::new(
        RpcOpCode::CHAIN_CRCVERIFY_SHUFFLE,
        vec![
            (Box::new(CrcVerifyKernel::new()), StageRoute::Handoff),
            (Box::new(ShuffleKernel::new()), StageRoute::Handoff),
        ],
    )
}

/// Encodes the invocation parameters for [`crcverify_shuffle`].
pub fn crcverify_shuffle_params(verify: &CrcVerifyParams, shuffle: &ShuffleParams) -> Bytes {
    ChainParams {
        stages: vec![verify.encode(), shuffle.encode()],
    }
    .encode()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::Aggregate;
    use crate::crc_verify::push_trailer;
    use crate::framework::{decode_error, Kernel, KernelAction, KernelEvent, ERR_INCONSISTENT};
    use crate::hll_kernel::HllKernel as Hll;
    use crate::shuffle::encode_histogram;
    use crate::traversal::Predicate;

    fn tuples(values: &[u64]) -> Vec<u8> {
        values.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    /// Drives a chain standalone (no fabric): configure, stream, close.
    fn drive(
        chain: &mut KernelChain,
        params: Bytes,
        stream: &[u8],
        chunk: usize,
    ) -> Vec<KernelAction> {
        let mut all = chain.on_event(KernelEvent::Invoke { qpn: 5, params });
        // Answer any configure-time DMA reads with zeroed bytes only if a
        // test needs it; these chains configure without DMA.
        let mut fed = 0;
        for c in stream.chunks(chunk.max(1)) {
            fed += c.len();
            all.extend(chain.on_event(KernelEvent::RoceData {
                qpn: 5,
                data: Bytes::copy_from_slice(c),
                last: fed == stream.len(),
            }));
        }
        if stream.is_empty() {
            all.extend(chain.on_event(KernelEvent::RoceData {
                qpn: 5,
                data: Bytes::new(),
                last: true,
            }));
        }
        all
    }

    fn sends_at(actions: &[KernelAction], vaddr: u64) -> Vec<Bytes> {
        actions
            .iter()
            .filter_map(|a| match a {
                KernelAction::RoceSend {
                    remote_vaddr, data, ..
                } if *remote_vaddr == vaddr => Some(data.clone()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn filter_agg_hll_produces_three_records() {
        let mut chain = filter_agg_hll();
        assert_eq!(chain.rpc_op(), RpcOpCode::CHAIN_FILTER_AGG_HLL);
        let params = filter_agg_hll_params(
            &FilterParams {
                dest_addr: 0x1000,
                dest_capacity: 1 << 20,
                predicate: Predicate::GreaterThan,
                operand: 100,
                target_address: 0xA000,
            },
            &AggregateParams {
                target_address: 0xB000,
            },
            0xC000,
        );
        // 0..=200 with duplicates; > 100 passes.
        let values: Vec<u64> = (0..2000u64).map(|i| i % 201).collect();
        let actions = drive(&mut chain, params, &tuples(&values), 1440);

        let expect: Vec<u64> = values.iter().copied().filter(|&v| v > 100).collect();
        // Filter summary.
        let fs = sends_at(&actions, 0xA000);
        assert_eq!(
            crate::filter::FilterKernel::decode_summary(&fs[0]),
            Some((2000, expect.len() as u64))
        );
        // Aggregate record covers exactly the filtered tuples.
        let ag = sends_at(&actions, 0xB000);
        assert_eq!(Aggregate::decode(&ag[0]), Some(Aggregate::of(&expect)));
        // HLL snapshot: 100 distinct survivors (101..=200).
        let hs = sends_at(&actions, 0xC000);
        let (est, items) = Hll::decode_snapshot(&hs[0]).unwrap();
        assert_eq!(items, expect.len() as u64);
        assert!((est - 100.0).abs() / 100.0 < 0.05, "estimate = {est}");
        // No filter tuples leak to host memory (they were captured).
        assert!(
            actions
                .iter()
                .all(|a| !matches!(a, KernelAction::DmaWrite { .. })),
            "capture route must divert every burst"
        );
        assert_eq!(*actions.last().unwrap(), KernelAction::Done);
        assert!(!chain.failed());
    }

    #[test]
    fn crcverify_shuffle_partitions_only_verified_data() {
        let mut chain = crcverify_shuffle();
        let histogram = encode_histogram(&[(0x10_000, 4096), (0x20_000, 4096)]);
        let params = crcverify_shuffle_params(
            &CrcVerifyParams {
                target_address: 0xD000,
            },
            &ShuffleParams {
                histogram_addr: 0x500,
                num_partitions: 2,
            },
        );
        let values: Vec<u64> = (0..64u64).collect();
        let mut stream = tuples(&values);
        push_trailer(&mut stream);

        let mut all = chain.on_event(KernelEvent::Invoke { qpn: 5, params });
        // The shuffle stage DMA-reads its histogram: tag is namespaced to
        // stage 1.
        let read_tag = all
            .iter()
            .find_map(|a| match a {
                KernelAction::DmaRead {
                    tag, vaddr: 0x500, ..
                } => Some(*tag),
                _ => None,
            })
            .expect("histogram read");
        assert_eq!(read_tag >> crate::framework::STAGE_TAG_SHIFT, 1);
        all.extend(chain.on_event(KernelEvent::DmaData {
            tag: read_tag,
            data: Bytes::from(histogram),
        }));
        assert!(all.contains(&KernelAction::Done), "chain configured");
        let mut fed = 0;
        for c in stream.chunks(96) {
            fed += c.len();
            all.extend(chain.on_event(KernelEvent::RoceData {
                qpn: 5,
                data: Bytes::copy_from_slice(c),
                last: fed == stream.len(),
            }));
        }
        // Verdict reports the payload CRC; partitions land in both banks.
        let vd = sends_at(&all, 0xD000);
        let (crc, len) = crate::crc_verify::CrcVerifyKernel::decode_verdict(&vd[0]).unwrap();
        assert_eq!(len, 64 * 8);
        assert_eq!(crc, crate::crc64::crc64(&tuples(&values)));
        let mut even = Vec::new();
        let mut odd = Vec::new();
        for a in &all {
            if let KernelAction::DmaWrite { vaddr, data } = a {
                let bank = if *vaddr >= 0x20_000 {
                    &mut odd
                } else {
                    &mut even
                };
                for c in data.chunks_exact(8) {
                    bank.push(u64::from_le_bytes(c.try_into().unwrap()));
                }
            }
        }
        assert_eq!(even, (0..64).filter(|v| v % 2 == 0).collect::<Vec<u64>>());
        assert_eq!(odd, (0..64).filter(|v| v % 2 == 1).collect::<Vec<u64>>());
        assert!(!chain.failed());
    }

    #[test]
    fn corrupted_stream_starves_the_shuffle_stage() {
        let mut chain = crcverify_shuffle();
        let histogram = encode_histogram(&[(0x10_000, 65536)]);
        let params = crcverify_shuffle_params(
            &CrcVerifyParams {
                target_address: 0xD000,
            },
            &ShuffleParams {
                histogram_addr: 0x500,
                num_partitions: 1,
            },
        );
        let values: Vec<u64> = (0..512u64).collect();
        let mut stream = tuples(&values);
        push_trailer(&mut stream);
        let n = stream.len();
        stream[n - 3] ^= 0xFF; // Corrupt the trailer.

        let mut all = chain.on_event(KernelEvent::Invoke { qpn: 5, params });
        let read_tag = all
            .iter()
            .find_map(|a| match a {
                KernelAction::DmaRead { tag, .. } => Some(*tag),
                _ => None,
            })
            .unwrap();
        all.extend(chain.on_event(KernelEvent::DmaData {
            tag: read_tag,
            data: Bytes::from(histogram),
        }));
        let mut fed = 0;
        for c in stream.chunks(100) {
            fed += c.len();
            all.extend(chain.on_event(KernelEvent::RoceData {
                qpn: 5,
                data: Bytes::copy_from_slice(c),
                last: fed == stream.len(),
            }));
        }
        // Sentinel reaches the requester, the chain latched failure, and
        // the chain still completed (final Done) without wedging.
        let vd = sends_at(&all, 0xD000);
        let word = u64::from_le_bytes(vd[0][..].try_into().unwrap());
        assert_eq!(decode_error(word), Some(ERR_INCONSISTENT));
        assert!(chain.failed());
        assert_eq!(*all.last().unwrap(), KernelAction::Done);
        // Note: cut-through means tuples released *before* the trailer
        // check may already have been partitioned — exactly the semantics
        // of a wire pipeline; the requester knows from the sentinel that
        // the batch must be discarded/retried.
    }

    #[test]
    fn empty_payload_through_filter_agg_hll() {
        let mut chain = filter_agg_hll();
        let params = filter_agg_hll_params(
            &FilterParams {
                dest_addr: 0,
                dest_capacity: 1024,
                predicate: Predicate::NotEqual,
                operand: 0,
                target_address: 0xA000,
            },
            &AggregateParams {
                target_address: 0xB000,
            },
            0xC000,
        );
        let actions = drive(&mut chain, params, &[], 64);
        assert_eq!(
            crate::filter::FilterKernel::decode_summary(&sends_at(&actions, 0xA000)[0]),
            Some((0, 0))
        );
        let agg = Aggregate::decode(&sends_at(&actions, 0xB000)[0]).unwrap();
        assert_eq!(agg.count, 0);
        let (est, items) = Hll::decode_snapshot(&sends_at(&actions, 0xC000)[0]).unwrap();
        assert_eq!((est, items), (0.0, 0));
        assert_eq!(*actions.last().unwrap(), KernelAction::Done);
    }
}
