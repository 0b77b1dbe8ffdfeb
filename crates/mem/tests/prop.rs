//! Randomized tests of the memory substrate: TLB command splitting and
//! the virtual/physical consistency of host memory. Driven by the
//! deterministic [`SimRng`] with fixed seeds.

use std::collections::BTreeSet;

use strom_mem::{HostMemory, PhysSegment, Tlb, TlbError, CHUNK_SIZE, HUGE_PAGE_SIZE};
use strom_sim::SimRng;

fn pinned(pages: u64) -> (HostMemory, Tlb, u64) {
    let mut mem = HostMemory::new();
    let (base, phys) = mem.pin(pages * HUGE_PAGE_SIZE).unwrap();
    let mut tlb = Tlb::new();
    tlb.insert_region(base, &phys).unwrap();
    (mem, tlb, base)
}

/// The DMA engine's read: translate, then append every segment.
fn dma_read(mem: &HostMemory, tlb: &Tlb, vaddr: u64, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    for s in tlb.translate_command(vaddr, len as u32).unwrap() {
        mem.phys_append(s.paddr, s.len as usize, &mut out);
    }
    out
}

/// The DMA engine's write: translate, then store every segment.
fn dma_write(mem: &mut HostMemory, tlb: &Tlb, vaddr: u64, data: &[u8]) {
    let mut at = 0;
    for s in tlb.translate_command(vaddr, data.len() as u32).unwrap() {
        mem.phys_write(s.paddr, &data[at..at + s.len as usize]);
        at += s.len as usize;
    }
}

/// TLB command splitting covers exactly the requested range, in order,
/// with no segment crossing a 2 MB physical boundary, and each segment's
/// physical address matches the per-address translation.
#[test]
fn tlb_split_invariants() {
    let mut rng = SimRng::seed(0x71b);
    for _ in 0..200 {
        let offset = rng.below(4 * HUGE_PAGE_SIZE);
        let len = rng.below(6_000_000) as u32;
        let (_, tlb, base) = pinned(8);
        let vaddr = base + offset;
        let segs = tlb.translate_command(vaddr, len).expect("in range");
        let count = segs.len();
        let segs: Vec<PhysSegment> = segs.collect();
        assert_eq!(segs.len(), count, "the exact size holds");
        let total: u64 = segs.iter().map(|s| u64::from(s.len)).sum();
        assert_eq!(total, u64::from(len));
        let mut cursor = vaddr;
        for s in &segs {
            assert!(s.len > 0);
            assert_eq!(s.paddr, tlb.translate(cursor).unwrap());
            assert!(
                s.paddr % HUGE_PAGE_SIZE + u64::from(s.len) <= HUGE_PAGE_SIZE,
                "segment crosses a physical page"
            );
            cursor += u64::from(s.len);
        }
    }
}

/// The split as a collecting loop computes it: translate page by page,
/// stopping at the first miss.
fn collected_split(tlb: &Tlb, vaddr: u64, len: u32) -> Result<Vec<PhysSegment>, TlbError> {
    let mut out = Vec::new();
    let (mut cur, mut remaining) = (vaddr, u64::from(len));
    while remaining > 0 {
        let paddr = tlb.translate(cur)?;
        let seg_len = (HUGE_PAGE_SIZE - cur % HUGE_PAGE_SIZE).min(remaining);
        out.push(PhysSegment {
            paddr,
            len: seg_len as u32,
        });
        cur += seg_len;
        remaining -= seg_len;
    }
    Ok(out)
}

/// Iterating the segments reproduces the collected split on seeded
/// commands, page-crossing ones included, over a TLB with a hole in it:
/// the same segments on a hit, the same first-miss address on a miss.
#[test]
fn segment_iteration_reproduces_the_collected_split() {
    let mut rng = SimRng::seed(0x5e65);
    let (mut crossing, mut later_misses) = (0, 0);
    for _ in 0..2_000 {
        let mut mem = HostMemory::new();
        let (base, phys) = mem.pin(6 * HUGE_PAGE_SIZE).unwrap();
        let hole = rng.below(8) as usize; // ≥ 6: no hole.
        let mut tlb = Tlb::new();
        for (i, &p) in phys.iter().enumerate().filter(|&(i, _)| i != hole) {
            tlb.insert(base + i as u64 * HUGE_PAGE_SIZE, p).unwrap();
        }
        let page = rng.below(6);
        let vaddr = base + page * HUGE_PAGE_SIZE + HUGE_PAGE_SIZE - rng.range(1, 4_096);
        let len = if rng.chance(0.2) {
            rng.range(1, 3 * HUGE_PAGE_SIZE) as u32
        } else {
            rng.range(1, 8_192) as u32
        };
        let want = collected_split(&tlb, vaddr, len);
        let got = tlb.translate_command(vaddr, len).map(Iterator::collect);
        assert_eq!(got, want, "{vaddr:#x}+{len}");
        crossing += usize::from(want.as_ref().is_ok_and(|s| s.len() > 1));
        if let Err(TlbError::Miss { vaddr: at }) = want {
            later_misses += usize::from(at != vaddr);
        }
    }
    assert!(
        crossing > 100 && later_misses > 100,
        "{crossing} / {later_misses}"
    );
}

/// A command whose second page is unmapped fails before any segment is
/// yielded: the error names the second page, and nothing was translated
/// for the first.
#[test]
fn a_miss_on_the_second_page_is_reported_before_any_segment() {
    let mut mem = HostMemory::new();
    let (base, phys) = mem.pin(2 * HUGE_PAGE_SIZE).unwrap();
    let mut tlb = Tlb::new();
    tlb.insert(base, phys[0]).unwrap();
    let start = base + HUGE_PAGE_SIZE - 64;
    assert_eq!(
        tlb.translate_command(start, 128).map(|s| s.len()),
        Err(TlbError::Miss {
            vaddr: base + HUGE_PAGE_SIZE
        })
    );
    assert_eq!(tlb.translate_command(start, 64).map(|s| s.len()), Ok(1));
}

/// Whatever the CPU writes virtually, the DMA engine reads physically
/// through the TLB — byte for byte, across page boundaries.
#[test]
fn cpu_writes_visible_to_dma() {
    let mut rng = SimRng::seed(0xd3a);
    for _ in 0..100 {
        let offset = rng.below(2 * HUGE_PAGE_SIZE);
        let mut data = vec![0u8; rng.range(1, 5000) as usize];
        rng.fill_bytes(&mut data);
        let (mut mem, tlb, base) = pinned(4);
        let vaddr = base + offset;
        mem.write(vaddr, &data);
        assert_eq!(dma_read(&mem, &tlb, vaddr, data.len()), data);
    }
}

/// And the converse: DMA writes are visible to the CPU.
#[test]
fn dma_writes_visible_to_cpu() {
    let mut rng = SimRng::seed(0xdc9);
    for _ in 0..100 {
        let offset = rng.below(2 * HUGE_PAGE_SIZE);
        let mut data = vec![0u8; rng.range(1, 5000) as usize];
        rng.fill_bytes(&mut data);
        let (mut mem, tlb, base) = pinned(4);
        let vaddr = base + offset;
        dma_write(&mut mem, &tlb, vaddr, &data);
        assert_eq!(mem.read(vaddr, data.len()), data);
    }
}

/// Distinct pinned regions never alias: writes to one never appear in
/// another.
#[test]
fn regions_do_not_alias() {
    let mut rng = SimRng::seed(0xa11a5);
    for _ in 0..50 {
        let len_a = rng.range(1, 2 * HUGE_PAGE_SIZE);
        let len_b = rng.range(1, 2 * HUGE_PAGE_SIZE);
        let byte = rng.next_u64() as u8;
        let mut mem = HostMemory::new();
        let (a, _) = mem.pin(len_a).unwrap();
        let (b, _) = mem.pin(len_b).unwrap();
        mem.write(a, &vec![byte; len_a as usize]);
        // Region B still reads zero.
        assert!(mem.read(b, len_b as usize).iter().all(|&x| x == 0));
        mem.write(b, &vec![byte.wrapping_add(1); len_b as usize]);
        assert!(mem.read(a, len_a as usize).iter().all(|&x| x == byte));
    }
}

/// Overlapping writes leave the last value (write-after-write order).
#[test]
fn write_after_write() {
    let mut rng = SimRng::seed(0x3a3);
    for _ in 0..200 {
        let off1 = rng.below(1000);
        let off2 = rng.below(1000);
        let len = rng.range(1, 1000) as usize;
        let (mut mem, _, base) = pinned(1);
        mem.write(base + off1, &vec![0x11; len]);
        mem.write(base + off2, &vec![0x22; len]);
        let readback = mem.read(base + off2, len);
        assert!(readback.iter().all(|&b| b == 0x22));
    }
}

/// One pinned region and the flat reference it must agree with.
struct Region {
    base: u64,
    flat: Vec<u8>,
}

/// A range of `region_len` bytes that often straddles a 64 KiB chunk or a
/// 2 MB frame boundary: it starts a little before a random anchor, which
/// is itself often a boundary.
fn straddling_range(rng: &mut SimRng, region_len: u64) -> (u64, usize) {
    let anywhere = rng.below(region_len);
    let anchor = match rng.below(3) {
        0 => anywhere,
        1 => anywhere / CHUNK_SIZE * CHUNK_SIZE,
        _ => anywhere / HUGE_PAGE_SIZE * HUGE_PAGE_SIZE,
    };
    let start = anchor - rng.below(anchor.min(600) + 1);
    let room = (region_len - start).min(3 * CHUNK_SIZE);
    let len = if rng.chance(0.8) {
        rng.range(1, room.min(1_200) + 1)
    } else {
        rng.range(1, room + 1)
    };
    (start, len as usize)
}

/// Chunked host memory against a flat `Vec<u8>` per region: ≥ 5 000
/// seeded virtual and physical reads and writes over pins of 1 B to 5
/// frames, straddling chunk and frame boundaries. Every read matches the
/// reference — never-written bytes read zero — and exactly the chunks
/// some write touched are resident: reads materialize nothing.
#[test]
fn chunked_memory_matches_a_flat_reference() {
    let mut rng = SimRng::seed(0xc4a2);
    let (mut ops, mut straddles) = (0, 0);
    for _ in 0..3 {
        let mut mem = HostMemory::new();
        let mut tlb = Tlb::new();
        let mut regions = Vec::new();
        for size in [1, rng.range(1, 4_096), rng.range(1, 5 * HUGE_PAGE_SIZE + 1)] {
            let (base, phys) = mem.pin(size).unwrap();
            tlb.insert_region(base, &phys).unwrap();
            regions.push(Region {
                base,
                flat: vec![0; size as usize],
            });
        }
        let mut written: BTreeSet<(usize, u64)> = BTreeSet::new();
        for _ in 0..2_000 {
            let r = rng.below(regions.len() as u64) as usize;
            let region = &mut regions[r];
            let (start, len) = straddling_range(&mut rng, region.flat.len() as u64);
            let (first, last) = (start / CHUNK_SIZE, (start + len as u64 - 1) / CHUNK_SIZE);
            straddles += usize::from(first != last);
            let vaddr = region.base + start;
            let want = &mut region.flat[start as usize..start as usize + len];
            match rng.below(6) {
                op @ (0 | 1) => {
                    rng.fill_bytes(want);
                    if op == 0 {
                        mem.write(vaddr, want);
                    } else {
                        dma_write(&mut mem, &tlb, vaddr, want);
                    }
                    written.extend((first..=last).map(|c| (r, c)));
                }
                2 => assert_eq!(mem.read(vaddr, len), want, "read {vaddr:#x}+{len}"),
                3 => {
                    let mut buf = vec![0xAA; len];
                    mem.read_into(vaddr, &mut buf);
                    assert_eq!(buf, want, "read_into {vaddr:#x}+{len}");
                }
                4 => {
                    let got = dma_read(&mem, &tlb, vaddr, len);
                    assert_eq!(got, want, "DMA read {vaddr:#x}+{len}");
                }
                _ => {
                    let seg = tlb.translate_command(vaddr, len as u32).unwrap().next();
                    let seg = seg.expect("a non-empty command has a segment");
                    let mut buf = vec![0x55; seg.len as usize];
                    mem.phys_read(seg.paddr, &mut buf);
                    assert_eq!(buf, want[..buf.len()], "phys_read {vaddr:#x}");
                    if len >= 8 {
                        let word = u64::from_le_bytes(want[..8].try_into().unwrap());
                        assert_eq!(mem.read_u64(vaddr), word);
                    }
                }
            }
            ops += 1;
            assert_eq!(mem.resident_bytes(), written.len() as u64 * CHUNK_SIZE);
        }
        for region in &regions {
            let whole = mem.read(region.base, region.flat.len());
            assert!(whole == region.flat, "region {:#x} drifted", region.base);
        }
        assert_eq!(mem.resident_bytes(), written.len() as u64 * CHUNK_SIZE);
    }
    assert!(
        ops >= 5_000 && straddles > 500,
        "{ops} ops, {straddles} straddles"
    );
}
