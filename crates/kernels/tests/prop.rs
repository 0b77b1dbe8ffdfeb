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
use strom_kernels::{
    AggregateKernel, AggregateParams, BloomFilter, BloomKernel, BloomParams, FilterKernel,
    FilterParams, HllKernel, TopKKernel, TopKParams,
};
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
        // Configure through the real histogram path.
        let bases: Vec<(u64, u32)> = (0..u64::from(num_partitions))
            .map(|i| (i << 20, 1 << 20))
            .collect();
        let params = ShuffleParams {
            histogram_addr: 0,
            num_partitions,
        };
        let histogram = encode_histogram(&bases);
        let mut kernel = configure(Box::new(ShuffleKernel::new()), params.encode(), &histogram);

        // Feed the tuple bytes in arbitrary-size chunks, then reconstruct
        // the partitions from the write stream.
        let data: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        let mut segments: Vec<&[u8]> = data.chunks(chunk).collect();
        if segments.is_empty() {
            segments.push(&[]);
        }
        let mut per_part: Vec<Vec<(u64, Bytes)>> = vec![Vec::new(); num_partitions as usize];
        for act in stream_through(kernel.as_mut(), &segments) {
            if let KernelAction::DmaWrite { vaddr, data } = act {
                per_part[(vaddr >> 20) as usize].push((vaddr, data));
            }
        }
        let mut got: Vec<Vec<u64>> = vec![Vec::new(); num_partitions as usize];
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
        let kernel = kernel.as_any().downcast_ref::<ShuffleKernel>().unwrap();
        assert_eq!(kernel.values(), values.len() as u64);
        assert_eq!(kernel.overflowed(), 0);
    }
}

/// Invokes `kernel` with `params`, answering a configure-time DMA read
/// with `dma`.
fn configure(mut kernel: Box<dyn Kernel>, params: Bytes, dma: &[u8]) -> Box<dyn Kernel> {
    let mut actions = kernel.on_event(KernelEvent::Invoke { qpn: 1, params });
    if let [KernelAction::DmaRead { tag, .. }] = actions[..] {
        let data = Bytes::copy_from_slice(dma);
        actions = kernel.on_event(KernelEvent::DmaData { tag, data });
    }
    assert_eq!(actions, [KernelAction::Done]);
    kernel
}

/// One configured instance of each tuple kernel, with parameters drawn
/// from `rng` against the stream `values`; small result regions make the
/// overflow paths run too.
fn tuple_kernels(rng: &mut SimRng, values: &[u64]) -> Vec<Box<dyn Kernel>> {
    let mut pick = || {
        values
            .get(rng.below(values.len() as u64 + 1) as usize)
            .copied()
    };
    let operand = pick().unwrap_or(0);
    let mut members = BloomFilter::new(10, 3);
    for v in std::iter::repeat_with(pick).take(8).flatten() {
        members.insert(v);
    }
    let capacity = rng.below(2048) as u32;
    let partitions = 1u32 << rng.below(6);
    let histogram: Vec<(u64, u32)> = (0..u64::from(partitions))
        .map(|i| (i << 20, rng.below(1024) as u32))
        .collect();
    let filter = FilterParams {
        dest_addr: 0x1000,
        dest_capacity: capacity,
        predicate: Predicate::from_u8(rng.below(4) as u8).unwrap(),
        operand,
        target_address: 0x9000,
    };
    let bloom = BloomParams {
        bitmap_addr: 0x100,
        dest_addr: 0x1000,
        dest_capacity: capacity,
        log2_bits: 10,
        probes: 3,
        target_address: 0x9000,
    };
    let topk = TopKParams {
        k: rng.range(1, 40) as u32,
        target_address: 0x9000,
    };
    let shuffle = ShuffleParams {
        histogram_addr: 0x5000,
        num_partitions: partitions,
    };
    vec![
        configure(Box::new(FilterKernel::new()), filter.encode(), &[]),
        configure(
            Box::new(BloomKernel::new()),
            bloom.encode(),
            &members.to_bitmap(),
        ),
        configure(
            Box::new(AggregateKernel::new()),
            AggregateParams {
                target_address: 0x9000,
            }
            .encode(),
            &[],
        ),
        configure(
            Box::new(HllKernel::with_precision(10)),
            HllKernel::stream_params(0x9000),
            &[],
        ),
        configure(Box::new(TopKKernel::new()), topk.encode(), &[]),
        configure(
            Box::new(ShuffleKernel::new()),
            shuffle.encode(),
            &encode_histogram(&histogram),
        ),
    ]
}

/// Streams `segments` into `kernel`, the last one closing the stream;
/// returns everything the kernel emitted, in order.
fn stream_through(kernel: &mut dyn Kernel, segments: &[&[u8]]) -> Vec<KernelAction> {
    let mut out = Vec::new();
    for (i, segment) in segments.iter().enumerate() {
        let data = Bytes::copy_from_slice(segment);
        let last = i + 1 == segments.len();
        kernel.on_event_into(KernelEvent::RoceData { qpn: 1, data, last }, &mut out);
    }
    out
}

/// Cuts `data` at ragged points: 0–23 B segments, and sometimes an empty
/// segment closing the stream.
fn ragged<'a>(rng: &mut SimRng, mut data: &'a [u8]) -> Vec<&'a [u8]> {
    let mut segments = Vec::new();
    while !data.is_empty() {
        let (head, rest) = data.split_at((rng.below(24) as usize).min(data.len()));
        segments.push(head);
        data = rest;
    }
    if segments.is_empty() || rng.chance(0.25) {
        segments.push(data);
    }
    segments
}

/// Every tuple kernel emits the same actions — each `DmaWrite`,
/// `RoceSend` and `Done`, in order — whether its stream arrives whole or
/// cut at arbitrary points, 8 B tuples split across packets included.
#[test]
fn tuple_kernels_ignore_packet_boundaries() {
    let mut rng = SimRng::seed(0x5e97);
    // Fixed streams at fixed cuts, then random streams at ragged cuts.
    let mut cases: Vec<(Vec<u64>, usize)> = vec![
        (vec![7, 8, 7, 9, 7], 11),
        (
            (0..100u64)
                .map(|i| i.wrapping_mul(0x5851_F42D_4C95_7F2D))
                .collect(),
            13,
        ),
        ((0..999).collect(), 13),
        ((0..999u64).map(|i| i * 7919 % 500).collect(), 13),
    ];
    for _ in 0..40 {
        let mask = if rng.chance(0.5) { 1023 } else { u64::MAX };
        let n = rng.below(600);
        cases.push(((0..n).map(|_| rng.next_u64() & mask).collect(), 0));
    }
    for (values, chunk) in cases {
        let data: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        let segments = match chunk {
            0 => ragged(&mut rng, &data),
            n => data.chunks(n).collect(),
        };
        let seed = rng.next_u64();
        let whole = tuple_kernels(&mut SimRng::seed(seed), &values);
        let split = tuple_kernels(&mut SimRng::seed(seed), &values);
        for (mut w, mut s) in whole.into_iter().zip(split) {
            assert_eq!(
                stream_through(w.as_mut(), &[&data]),
                stream_through(s.as_mut(), &segments),
                "{} over {} tuples",
                w.name(),
                values.len()
            );
        }
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
