//! Randomized tests of the kernels against reference interpreters,
//! driven by the deterministic [`SimRng`] with fixed seeds.

use std::collections::VecDeque;

use bytes::Bytes;
use strom_sim::SimRng;

use strom_kernels::crc64::{crc64, crc64_reference, Crc64};
use strom_kernels::framework::{decode_error, Kernel, KernelAction, KernelEvent};
use strom_kernels::hll::HyperLogLog;
use strom_kernels::layouts::{
    build_hash_table, build_kv_store, build_linked_list, build_object_store, build_skip_list,
    value_pattern, versioned_value_pattern,
};
use strom_kernels::put::encode_put_request;
use strom_kernels::shuffle::{encode_histogram, reference_partition, ShuffleKernel, ShuffleParams};
use strom_kernels::traversal::{Predicate, TraversalKernel, TraversalParams};
use strom_kernels::{
    AggregateKernel, AggregateParams, ConsistencyKernel, ConsistencyParams, FilterKernel,
    FilterParams, GetKernel, GetParams, HllKernel, PutConfig, PutKernel,
};
use strom_mem::{HostMemory, HUGE_PAGE_SIZE};

/// Runs kernels against one host memory, folding the `Debug` text of
/// every action they emit into a CRC64.
#[derive(Default)]
struct Recorder {
    mem: HostMemory,
    fold: Crc64,
    /// DMA reads still to be answered with one byte flipped.
    tear: usize,
}

impl Recorder {
    /// A fresh pinned region of two huge pages.
    fn region(&mut self) -> u64 {
        self.mem.pin(2 * HUGE_PAGE_SIZE).unwrap().0
    }

    /// Feeds `events`, then executes what the kernel emits — DMA reads
    /// answered, DMA writes applied — until it goes quiet; returns the
    /// actions that are not DMA, in order.
    fn run(
        &mut self,
        kernel: &mut dyn Kernel,
        events: impl IntoIterator<Item = KernelEvent>,
    ) -> Vec<KernelAction> {
        let mut queue: VecDeque<_> = events
            .into_iter()
            .flat_map(|e| kernel.on_event(e))
            .collect();
        let mut replies = Vec::new();
        while let Some(action) = queue.pop_front() {
            self.fold.update(format!("{action:?}").as_bytes());
            match action {
                KernelAction::DmaRead { tag, vaddr, len } => {
                    let mut data = self.mem.read(vaddr, len as usize);
                    if self.tear > 0 && !data.is_empty() {
                        self.tear -= 1;
                        data[len as usize / 2] ^= 0xff;
                    }
                    let data = Bytes::from(data);
                    queue.extend(kernel.on_event(KernelEvent::DmaData { tag, data }));
                }
                KernelAction::DmaWrite { vaddr, data } => self.mem.write(vaddr, &data),
                other => replies.push(other),
            }
        }
        replies
    }

    fn invoke(&mut self, kernel: &mut dyn Kernel, params: Bytes) -> Vec<KernelAction> {
        self.run(kernel, [KernelEvent::Invoke { qpn: 1, params }])
    }

    /// Invokes traversal with `p`, folding its `last_hops` too.
    fn traverse(&mut self, kernel: &mut TraversalKernel, p: TraversalParams) -> Vec<KernelAction> {
        let replies = self.invoke(kernel, p.encode());
        self.fold.update(&kernel.last_hops().to_le_bytes());
        replies
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
        let mut rec = Recorder::default();
        let base = rec.region();
        let list = build_linked_list(&mut rec.mem, base, &keys, 32);

        let mut params = TraversalParams::for_linked_list(list.head, probe, 32, 0x9000);
        params.predicate = predicate;
        let mut kernel = TraversalKernel::new();
        let actions = rec.traverse(&mut kernel, params);
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
    let operand = values
        .get(rng.below(values.len() as u64 + 1) as usize)
        .copied()
        .unwrap_or(0);
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
    let shuffle = ShuffleParams {
        histogram_addr: 0x5000,
        num_partitions: partitions,
    };
    vec![
        configure(Box::new(FilterKernel::new()), filter.encode(), &[]),
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

/// The CRC64 of every action GET, PUT, traversal and consistency emit —
/// hits, misses, chains, cycles, torn reads and malformed params — plus
/// traversal's `last_hops`, pinned so a refactor of their walks keeps
/// every action. Re-pin an intended change with `STROM_BLESS=1`.
#[test]
fn random_access_actions_match_their_golden() {
    const GOLDEN: &str = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/random_access_actions.fingerprint"
    );
    let mut rng = SimRng::seed(0xacce55);
    let mut rec = Recorder::default();
    let mut get = GetKernel::new();
    let mut trav = TraversalKernel::new();
    let get_params = |entry_addr, key, chained| GetParams {
        entry_addr,
        key,
        target_address: 0x8000,
        chained,
    };

    // Random linked lists under all four predicates.
    for i in 0..40 {
        let keys: Vec<u64> = (0..rng.range(1, 20)).map(|_| rng.range(1, 1000)).collect();
        let base = rec.region();
        let list = build_linked_list(&mut rec.mem, base, &keys, 24);
        let mut p = TraversalParams::for_linked_list(list.head, rng.range(1, 1000), 24, 0x9000);
        p.predicate = Predicate::from_u8(i % 4).unwrap();
        rec.traverse(&mut trav, p);
    }

    // Pilaf tables, hit and miss, for GET (also flag-less) and traversal.
    let base = rec.region();
    let ht = build_hash_table(&mut rec.mem, base, 512, &(1..=40).collect::<Vec<_>>(), 48);
    for key in (1..=40).chain(1000..1010) {
        let p = get_params(ht.entry_addr(key), key, false).encode();
        rec.invoke(&mut get, p.slice(..24 + key as usize % 2));
        let p = TraversalParams::for_hash_table(ht.entry_addr(key), key, 48, 0);
        rec.traverse(&mut trav, p);
    }

    // Chained KV stores: hits at depth, true misses, and a cyclic chain.
    let base = rec.region();
    let kv = build_kv_store(&mut rec.mem, base, 2, &(1..=12).collect::<Vec<_>>(), 32, 4);
    for key in (1..=12).chain(100..105) {
        rec.invoke(&mut get, get_params(kv.entry_addr(key), key, true).encode());
        rec.traverse(&mut trav, kv.table.get_params(key, 0x8000));
    }
    let base = rec.region();
    let kv = build_kv_store(&mut rec.mem, base, 1, &(1..=5).collect::<Vec<_>>(), 32, 0);
    let next = |mem: &HostMemory, e| u64::from_le_bytes(mem.read(e + 40, 8).try_into().unwrap());
    let mut tail = kv.entry_addr(1);
    while next(&rec.mem, tail) != 0 {
        tail = next(&rec.mem, tail);
    }
    rec.mem.write(tail + 40, &kv.entry_addr(1).to_le_bytes());
    rec.invoke(&mut get, get_params(kv.entry_addr(999), 999, true).encode());
    rec.traverse(&mut trav, kv.table.get_params(999, 0x8000));

    // Skip lists: the express lane, then the base lane from its down pointer.
    let base = rec.region();
    let keys: Vec<u64> = (1..=40).map(|k| k * 10).collect();
    let sl = build_skip_list(&mut rec.mem, base, &keys, 16, 5);
    for probe in [5, 10, 95, 200, 205, 400, 401] {
        let replies = rec.traverse(&mut trav, sl.express_params(probe, 0x7000));
        if let KernelAction::RoceSend { data, .. } = &replies[0] {
            let down = u64::from_le_bytes(data[..8].try_into().unwrap());
            if decode_error(down).is_none() {
                rec.traverse(&mut trav, sl.base_params(down, probe, 0x7000));
            }
        }
    }

    // PUT: updates, inserts into free buckets and fresh entries until the
    // arenas run out, a wrong value length, a short blob, a zero key, then
    // two QPs interleaved at ragged cuts.
    let base = rec.region();
    let kv = build_kv_store(&mut rec.mem, base, 2, &(1..=6).collect::<Vec<_>>(), 24, 3);
    let mut put = PutKernel::new();
    rec.invoke(&mut put, PutConfig::for_store(&kv).encode());
    let blob = |key: u64, ack, len| {
        let value = versioned_value_pattern(key, 1, len);
        Bytes::from(encode_put_request(key, kv.entry_addr(key), ack, &value))
    };
    let whole = |qpn, data| KernelEvent::RoceData {
        qpn,
        data,
        last: true,
    };
    for key in (1..=6).chain(100..=106) {
        rec.run(&mut put, [whole(7, blob(key, 0x9000, 24))]);
    }
    rec.run(&mut put, [whole(7, blob(2, 0x9000, 16))]);
    rec.run(&mut put, [whole(7, blob(2, 0x9000, 24).slice(..20))]);
    rec.run(&mut put, [whole(7, blob(0, 0x9000, 24))]);
    for round in 0..8 {
        let (a, b) = (
            blob(round % 6 + 1, 0xA000, 24),
            blob(6 - round % 6, 0xB000, 24),
        );
        let (a, b) = (ragged(&mut rng, &a), ragged(&mut rng, &b));
        let mut events = Vec::new();
        for i in 0..a.len().max(b.len()) {
            for (qpn, cuts) in [(10, &a), (20, &b)] {
                if let Some(cut) = cuts.get(i) {
                    let (data, last) = (Bytes::copy_from_slice(cut), i + 1 == cuts.len());
                    events.push(KernelEvent::RoceData { qpn, data, last });
                }
            }
        }
        rec.run(&mut put, events);
    }

    // Consistency: clean, torn then clean, and permanently corrupt.
    let base = rec.region();
    let store = build_object_store(&mut rec.mem, base, 4, 64);
    let mut cons = ConsistencyKernel::new();
    for (i, &object_addr) in store.object_addrs.iter().enumerate() {
        if i == 3 {
            rec.mem.write(object_addr + 20, &[0x55]);
        }
        rec.tear = i;
        let p = ConsistencyParams {
            object_addr,
            object_len: store.object_size(),
            target_address: 0x4000,
        };
        rec.invoke(&mut cons, p.encode());
    }
    rec.tear = 0;

    // Malformed params: short, a bad predicate byte, and positions past
    // the element that still fit a `u8`.
    let short = Bytes::from_static(b"short");
    for kernel in [&mut get as &mut dyn Kernel, &mut trav, &mut cons, &mut put] {
        rec.invoke(kernel, short.clone());
    }
    rec.run(&mut put, [whole(7, blob(1, 0x9000, 24))]);
    let base = rec.region();
    let list = build_linked_list(&mut rec.mem, base, &[3, 4, 5], 16);
    let ok = TraversalParams::for_linked_list(list.head, 5, 16, 0x9000);
    let mut bad = ok.encode().to_vec();
    bad[22] = 9;
    rec.invoke(&mut trav, Bytes::from(bad));
    for (key, mask, value_pos, relative, next_pos) in [
        (5, 1 << 15, 4, false, 2),
        (5, 1, 15, false, 2),
        (9, 1, 4, false, 15),
        (5, 1, 200, true, 2),
        (5, 1, 4, true, 2),
    ] {
        let p = TraversalParams {
            key,
            key_mask: mask,
            value_ptr_position: value_pos,
            is_relative_position: relative,
            next_element_ptr_position: next_pos,
            ..ok
        };
        rec.traverse(&mut trav, p);
    }

    let got = format!("{:016x}\n", rec.fold.finish());
    if std::env::var_os("STROM_BLESS").is_some() {
        std::fs::write(GOLDEN, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN).expect("golden present (STROM_BLESS=1 to create)");
    assert_eq!(got, want, "random-access actions changed");
}
