//! Randomized tests of the kernels against reference interpreters,
//! driven by the deterministic [`SimRng`] with fixed seeds.

use bytes::Bytes;
use strom_sim::SimRng;

use strom_kernels::crc64::{crc64, crc64_reference, Crc64};
use strom_kernels::framework::{Kernel, KernelAction, KernelEvent};
use strom_kernels::hll::HyperLogLog;
use strom_kernels::layouts::{build_linked_list, value_pattern};
use strom_kernels::shuffle::{encode_histogram, reference_partition, ShuffleKernel, ShuffleParams};
use strom_kernels::traversal::{Predicate, TraversalKernel, TraversalParams};
use strom_mem::{HostMemory, HUGE_PAGE_SIZE};

/// Drives a kernel against host memory until it stops issuing DMA reads.
fn drive(
    kernel: &mut dyn Kernel,
    mem: &mut HostMemory,
    first: Vec<KernelAction>,
) -> Vec<KernelAction> {
    let mut actions = first;
    loop {
        match actions.first() {
            Some(KernelAction::DmaRead { tag, vaddr, len }) => {
                let data = Bytes::from(mem.read(*vaddr, *len as usize));
                actions = kernel.on_event(KernelEvent::DmaData { tag: *tag, data });
            }
            _ => return actions,
        }
    }
}

/// Reference interpreter for the traversal kernel over a linked list.
fn reference_list_lookup(keys: &[u64], probe: u64, predicate: Predicate) -> Option<usize> {
    keys.iter().position(|&k| predicate.matches(k, probe))
}

/// The traversal kernel agrees with a reference interpreter on random
/// linked lists, probes, and predicates.
#[test]
fn traversal_matches_reference() {
    let mut rng = SimRng::seed(0x7a7);
    for _ in 0..100 {
        let mut key_set = std::collections::HashSet::new();
        for _ in 0..rng.range(1, 24) {
            key_set.insert(rng.range(1, 1_000_000));
        }
        let keys: Vec<u64> = key_set.into_iter().collect();
        let probe = rng.range(1, 1_000_000);
        let predicate = Predicate::from_u8(rng.below(4) as u8).unwrap();
        let mut mem = HostMemory::new();
        let (base, _) = mem.pin(HUGE_PAGE_SIZE).unwrap();
        let list = build_linked_list(&mut mem, base, &keys, 32);

        let mut params = TraversalParams::for_linked_list(list.head, probe, 32, 0x9000);
        params.predicate = predicate;
        let mut kernel = TraversalKernel::new();
        let first = kernel.on_event(KernelEvent::Invoke {
            qpn: 1,
            params: params.encode(),
        });
        let actions = drive(&mut kernel, &mut mem, first);
        let expected = reference_list_lookup(&keys, probe, predicate);
        match (&actions[0], expected) {
            (KernelAction::RoceSend { data, .. }, Some(idx)) => {
                assert_eq!(&data[..], &value_pattern(keys[idx], 32)[..]);
                assert_eq!(kernel.last_hops() as usize, idx + 1);
            }
            (KernelAction::RoceSend { data, .. }, None) => {
                let word = u64::from_le_bytes(data[..8].try_into().unwrap());
                assert!(
                    strom_kernels::framework::decode_error(word).is_some(),
                    "miss must produce an error sentinel"
                );
            }
            (other, _) => panic!("unexpected action {other:?}"),
        }
    }
}

/// Shuffle kernel output equals the reference partitioner for any input
/// and any packetization.
#[test]
fn shuffle_matches_reference() {
    let mut rng = SimRng::seed(0x5f1e);
    for _ in 0..50 {
        let values: Vec<u64> = (0..rng.below(500)).map(|_| rng.next_u64()).collect();
        let num_partitions = 1u32 << rng.below(8);
        let chunk = rng.range(1, 700) as usize;
        let mut kernel = ShuffleKernel::new();
        // Configure through the real histogram path.
        let bases: Vec<(u64, u32)> = (0..u64::from(num_partitions))
            .map(|i| (i << 20, 1 << 20))
            .collect();
        let histogram = encode_histogram(&bases);
        let a = kernel.on_event(KernelEvent::Invoke {
            qpn: 1,
            params: ShuffleParams {
                histogram_addr: 0,
                num_partitions,
            }
            .encode(),
        });
        assert!(matches!(a[0], KernelAction::DmaRead { .. }));
        kernel.on_event(KernelEvent::DmaData {
            tag: 1,
            data: Bytes::from(histogram),
        });

        // Feed the tuple bytes in arbitrary-size chunks.
        let data: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        let mut writes: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut fed = 0usize;
        if data.is_empty() {
            let actions = kernel.on_event(KernelEvent::RoceData {
                qpn: 1,
                data: Bytes::new(),
                last: true,
            });
            for act in actions {
                if let KernelAction::DmaWrite { vaddr, data } = act {
                    writes.push((vaddr, data.to_vec()));
                }
            }
        }
        for piece in data.chunks(chunk) {
            fed += piece.len();
            let actions = kernel.on_event(KernelEvent::RoceData {
                qpn: 1,
                data: Bytes::copy_from_slice(piece),
                last: fed == data.len(),
            });
            for act in actions {
                if let KernelAction::DmaWrite { vaddr, data } = act {
                    writes.push((vaddr, data.to_vec()));
                }
            }
        }

        // Reconstruct partitions from the write stream.
        let mut got: Vec<Vec<u64>> = vec![Vec::new(); num_partitions as usize];
        let mut per_part: Vec<Vec<(u64, Vec<u8>)>> = vec![Vec::new(); num_partitions as usize];
        for (addr, bytes) in writes {
            per_part[(addr >> 20) as usize].push((addr, bytes));
        }
        for (pid, mut ws) in per_part.into_iter().enumerate() {
            ws.sort_by_key(|(a, _)| *a);
            let mut cursor = (pid as u64) << 20;
            for (addr, bytes) in ws {
                assert_eq!(addr, cursor, "writes must be contiguous");
                cursor += bytes.len() as u64;
                for c in bytes.chunks_exact(8) {
                    got[pid].push(u64::from_le_bytes(c.try_into().unwrap()));
                }
            }
        }
        assert_eq!(got, reference_partition(&values, num_partitions as usize));
        assert_eq!(kernel.values(), values.len() as u64);
        assert_eq!(kernel.overflowed(), 0);
    }
}

/// HLL estimates stay within 6 standard errors for arbitrary streams (a
/// generous bound so the test is not flaky, still catching gross
/// estimator bugs).
#[test]
fn hll_error_bound() {
    let mut rng = SimRng::seed(0x811);
    for _ in 0..20 {
        let seed = rng.next_u64();
        let n = rng.range(100, 50_000);
        let mut h = HyperLogLog::new(12);
        let mut x = seed | 1;
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..n {
            // A weak LCG stream with deliberate duplicates.
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = x >> 16 & 0xffff_ffff;
            distinct.insert(v);
            h.add_u64(v);
        }
        let truth = distinct.len() as f64;
        let err = (h.estimate() - truth).abs() / truth;
        assert!(
            err < 6.0 * h.standard_error(),
            "relative error {err} vs bound {}",
            6.0 * h.standard_error()
        );
    }
}

/// HLL merge commutes and equals the union.
#[test]
fn hll_merge_commutes() {
    let mut rng = SimRng::seed(0x3e9);
    for _ in 0..20 {
        let xs: Vec<u64> = (0..rng.below(2000)).map(|_| rng.next_u64()).collect();
        let ys: Vec<u64> = (0..rng.below(2000)).map(|_| rng.next_u64()).collect();
        let mut a = HyperLogLog::new(10);
        let mut b = HyperLogLog::new(10);
        let mut union = HyperLogLog::new(10);
        for &x in &xs {
            a.add_u64(x);
            union.add_u64(x);
        }
        for &y in &ys {
            b.add_u64(y);
            union.add_u64(y);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.estimate(), ba.estimate());
        assert_eq!(ab.estimate(), union.estimate());
    }
}

/// Streaming CRC64 equals one-shot for any chunking.
#[test]
fn crc64_chunking_invariance() {
    let mut rng = SimRng::seed(0xc6c);
    for _ in 0..100 {
        let mut data = vec![0u8; rng.below(4096) as usize];
        rng.fill_bytes(&mut data);
        let chunk = rng.range(1, 512) as usize;
        let mut c = Crc64::new();
        for piece in data.chunks(chunk) {
            c.update(piece);
        }
        assert_eq!(c.finish(), crc64(&data));
    }
}

/// CRC64 (carry-less fold + slice-by-16) equals the byte-at-a-time
/// reference on random lengths, contents, and alignments — including
/// empty, 1-byte, and larger-than-MTU inputs, and unaligned starting
/// offsets.
#[test]
fn crc64_slice16_matches_reference() {
    let mut rng = SimRng::seed(0xc64c);
    let mut buf = vec![0u8; 16384];
    rng.fill_bytes(&mut buf);
    for len in [0usize, 1, 7, 8, 9, 4096, 9001, 16384] {
        assert_eq!(
            crc64(&buf[..len]),
            crc64_reference(&buf[..len]),
            "fixed len = {len}"
        );
    }
    for _ in 0..500 {
        let start = rng.below(64) as usize;
        let len = rng.below((buf.len() - start) as u64 + 1) as usize;
        let data = &buf[start..start + len];
        assert_eq!(
            crc64(data),
            crc64_reference(data),
            "start = {start}, len = {len}"
        );
    }
}

/// Streaming `Crc64::update` equals the byte-at-a-time reference at
/// arbitrary split points, including splits inside a block.
#[test]
fn crc64_streaming_splits_match_reference() {
    let mut rng = SimRng::seed(0xc645);
    for _ in 0..200 {
        let mut data = vec![0u8; rng.range(2, 4096) as usize];
        rng.fill_bytes(&mut data);
        let split = rng.below(data.len() as u64 + 1) as usize;
        let mut c = Crc64::new();
        c.update(&data[..split]);
        c.update(&data[split..]);
        assert_eq!(c.finish(), crc64_reference(&data), "split = {split}");
    }
}

/// CRC64 detects any single-byte corruption.
#[test]
fn crc64_detects_single_byte_changes() {
    let mut rng = SimRng::seed(0xc6d);
    for _ in 0..200 {
        let mut data = vec![0u8; rng.range(1, 2048) as usize];
        rng.fill_bytes(&mut data);
        let i = rng.below(data.len() as u64) as usize;
        let delta = rng.range(1, 256) as u8;
        let mut corrupted = data.clone();
        corrupted[i] = corrupted[i].wrapping_add(delta);
        assert_ne!(crc64(&corrupted), crc64(&data));
    }
}
