//! Memory watches: "tell me when this range has been written".
//!
//! A watch on `[addr, addr + len)` of one node's memory fires once `len`
//! bytes of DMA writes have landed inside the range. Experiments register
//! one watch per expected response, so a run holds as many watches as it
//! has requests; a DMA write must therefore find the watches it overlaps
//! without looking at the rest. Unfired watches are kept per node in an
//! index ordered by start address and leave it when they fire.

use std::collections::BTreeSet;

use strom_sim::time::Time;

use crate::event::NodeId;

/// Handle to a registered memory watch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchId(usize);

#[derive(Debug)]
struct Watch {
    len: u64,
    /// Bytes of the watched range not yet written.
    remaining: u64,
    fired_at: Option<Time>,
}

/// The unfired watches of one node.
#[derive(Debug, Default)]
struct NodeIndex {
    /// `(start address, watch id)` of every unfired, non-empty watch.
    by_start: BTreeSet<(u64, usize)>,
    /// Length of the longest watch ever registered on this node: a watch
    /// overlapping a write starts less than this far below the write.
    max_len: u64,
}

/// Every watch of a testbed, fired or not.
#[derive(Debug)]
pub(crate) struct WatchTable {
    watches: Vec<Watch>,
    nodes: Vec<NodeIndex>,
    /// Index keys of the watches the current write fired (reused).
    fired: Vec<(u64, usize)>,
}

impl WatchTable {
    pub(crate) fn new(nodes: usize) -> Self {
        WatchTable {
            watches: Vec::new(),
            nodes: (0..nodes).map(|_| NodeIndex::default()).collect(),
            fired: Vec::new(),
        }
    }

    /// Registers a watch on `[addr, addr + len)` of `node`'s memory. A
    /// zero-length watch overlaps no write and never fires.
    pub(crate) fn add(&mut self, node: NodeId, addr: u64, len: u64) -> WatchId {
        let id = self.watches.len();
        self.watches.push(Watch {
            len,
            remaining: len,
            fired_at: None,
        });
        if len > 0 {
            let index = &mut self.nodes[node];
            index.by_start.insert((addr, id));
            index.max_len = index.max_len.max(len);
        }
        WatchId(id)
    }

    /// When the watch fired, if it has.
    pub(crate) fn fired_at(&self, id: WatchId) -> Option<Time> {
        self.watches[id.0].fired_at
    }

    /// Accounts a DMA write of `len` bytes at `vaddr` on `node`, landing
    /// at `at`, to every unfired watch it overlaps.
    pub(crate) fn on_write(&mut self, node: NodeId, vaddr: u64, len: u64, at: Time) {
        let index = &mut self.nodes[node];
        if len == 0 || index.max_len == 0 {
            return;
        }
        let write_end = vaddr + len;
        let lowest_start = vaddr.saturating_sub(index.max_len - 1);
        for &(start, id) in index.by_start.range((lowest_start, 0)..(write_end, 0)) {
            let w = &mut self.watches[id];
            let overlap_start = vaddr.max(start);
            let overlap_end = write_end.min(start + w.len);
            if overlap_end > overlap_start {
                w.remaining = w.remaining.saturating_sub(overlap_end - overlap_start);
                if w.remaining == 0 {
                    w.fired_at = Some(at);
                    self.fired.push((start, id));
                }
            }
        }
        for key in self.fired.drain(..) {
            index.by_start.remove(&key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A watch as the scan over every watch — which the index replaces —
    /// keeps it.
    struct Scanned {
        node: NodeId,
        addr: u64,
        len: u64,
        remaining: u64,
        fired_at: Option<Time>,
    }

    fn linear_on_write(watches: &mut [Scanned], node: NodeId, vaddr: u64, len: u64, at: Time) {
        for w in watches.iter_mut() {
            if w.fired_at.is_some() || w.node != node {
                continue;
            }
            let start = vaddr.max(w.addr);
            let end = (vaddr + len).min(w.addr + w.len);
            if end > start {
                w.remaining = w.remaining.saturating_sub(end - start);
                if w.remaining == 0 {
                    w.fired_at = Some(at);
                }
            }
        }
    }

    #[test]
    fn index_agrees_with_the_linear_scan_on_random_ranges() {
        let mut rng = strom_sim::SimRng::seed(0x3A7C);
        for round in 0..40 {
            let mut table = WatchTable::new(3);
            let mut linear = Vec::new();
            let mut ids = Vec::new();
            // A small address space so ranges collide, nest and abut; the
            // occasional long watch stretches `max_len` over the rest.
            for t in 0..400u64 {
                let node = rng.below(3) as usize;
                let addr = rng.below(2_000);
                if rng.chance(0.4) {
                    let len = if rng.chance(0.02) {
                        rng.range(500, 1_500)
                    } else {
                        rng.below(40)
                    };
                    ids.push(table.add(node, addr, len));
                    linear.push(Scanned {
                        node,
                        addr,
                        len,
                        remaining: len,
                        fired_at: None,
                    });
                } else {
                    let len = rng.below(64);
                    table.on_write(node, addr, len, t);
                    linear_on_write(&mut linear, node, addr, len, t);
                }
            }
            for (id, w) in ids.iter().zip(&linear) {
                assert_eq!(table.fired_at(*id), w.fired_at, "round {round}, {id:?}");
                assert_eq!(
                    table.watches[id.0].remaining, w.remaining,
                    "round {round}, {id:?}"
                );
            }
            let unfired = linear
                .iter()
                .filter(|w| w.fired_at.is_none() && w.len > 0)
                .count();
            let indexed: usize = table.nodes.iter().map(|n| n.by_start.len()).sum();
            assert_eq!(indexed, unfired, "only unfired watches stay indexed");
        }
    }
}
