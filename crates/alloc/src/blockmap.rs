//! Shared block bookkeeping for the free-list allocators.
//!
//! Both [`crate::tlsf::Tlsf`] and [`crate::lea::Lea`] manage the region as a
//! sequence of blocks that split on allocation and coalesce with free
//! neighbours on release. `BlockMap` centralizes that boundary-tag logic so
//! the two allocators differ only in their *indexing policy* (two-level
//! segregated fit vs. exact small bins + best-fit), which is exactly the
//! difference the paper's Figure 10 discussion attributes their divergent
//! behaviour to.

use std::collections::{BTreeMap, BTreeSet};

use flexos_machine::addr::Addr;
use flexos_machine::fault::Fault;

/// State of one block in the region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block {
    /// Block payload size in bytes.
    pub size: u64,
    /// Whether the block is on a free list.
    pub free: bool,
}

/// Address-ordered map of all blocks (free and live) in a region.
#[derive(Debug, Default)]
pub struct BlockMap {
    blocks: BTreeMap<u64, Block>,
}

impl BlockMap {
    /// Creates a map holding one free block spanning the whole region.
    pub fn new(base: Addr, size: u64) -> Self {
        let mut blocks = BTreeMap::new();
        blocks.insert(base.raw(), Block { size, free: true });
        BlockMap { blocks }
    }

    /// Looks up the block starting exactly at `addr`.
    pub fn get(&self, addr: Addr) -> Option<Block> {
        self.blocks.get(&addr.raw()).copied()
    }

    /// Marks the block at `addr` as allocated, splitting off the tail if the
    /// block is larger than `want`. Returns the size actually consumed.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not a free block of at least `want` bytes —
    /// callers (the indexing policies) guarantee this.
    pub fn take(&mut self, addr: Addr, want: u64) -> u64 {
        let blk = self.blocks.get_mut(&addr.raw()).expect("block exists");
        assert!(blk.free, "taking a live block");
        assert!(blk.size >= want, "block too small");
        let remainder = blk.size - want;
        blk.size = want;
        blk.free = false;
        if remainder > 0 {
            self.blocks.insert(
                addr.raw() + want,
                Block {
                    size: remainder,
                    free: true,
                },
            );
        }
        want
    }

    /// Releases the block at `addr`, coalescing with free neighbours.
    /// Returns the payload size freed, the coalesced block, and the free
    /// neighbours it absorbed (which the caller must unfile).
    ///
    /// # Errors
    ///
    /// [`Fault::BadFree`] if `addr` is not a live block.
    pub fn release(&mut self, addr: Addr) -> Result<ReleaseOutcome, Fault> {
        let raw = addr.raw();
        let blk = match self.blocks.get(&raw) {
            Some(b) if !b.free => *b,
            _ => return Err(Fault::BadFree { addr }),
        };
        let freed = blk.size;
        let mut start = raw;
        let mut size = blk.size;
        let mut absorbed = [None; 2];

        // Coalesce with the next block if free and adjacent.
        if let Some((&next_addr, &next)) = self.blocks.range(raw + 1..).next() {
            if next.free && next_addr == raw + blk.size {
                self.blocks.remove(&next_addr);
                size += next.size;
                absorbed[0] = Some((Addr::new(next_addr), next.size));
            }
        }
        // Coalesce with the previous block if free and adjacent.
        if let Some((&prev_addr, &prev)) = self.blocks.range(..raw).next_back() {
            if prev.free && prev_addr + prev.size == raw {
                self.blocks.remove(&raw);
                start = prev_addr;
                size += prev.size;
                absorbed[1] = Some((Addr::new(prev_addr), prev.size));
            }
        }
        self.blocks.insert(start, Block { size, free: true });

        Ok(ReleaseOutcome {
            freed,
            merged_base: Addr::new(start),
            merged_size: size,
            absorbed,
        })
    }

    /// Releases the block at `addr` **without** coalescing — dlmalloc-style
    /// deferred coalescing for fastbin-class blocks, which is what lets the
    /// Lea allocator reuse exact-size blocks on churn-heavy workloads
    /// (the Figure 10 behaviour difference).
    ///
    /// # Errors
    ///
    /// [`Fault::BadFree`] if `addr` is not a live block.
    pub fn release_no_coalesce(&mut self, addr: Addr) -> Result<u64, Fault> {
        match self.blocks.get_mut(&addr.raw()) {
            Some(b) if !b.free => {
                b.free = true;
                Ok(b.size)
            }
            _ => Err(Fault::BadFree { addr }),
        }
    }

    /// Removes a free block from the map entirely (the indexing policy is
    /// about to hand it out or re-file it).
    pub fn remove_free(&mut self, addr: Addr) -> Option<Block> {
        match self.blocks.get(&addr.raw()) {
            Some(b) if b.free => self.blocks.remove(&addr.raw()),
            _ => None,
        }
    }

    /// Inserts a free block (used when an indexing policy re-files a split
    /// remainder).
    pub fn insert_free(&mut self, addr: Addr, size: u64) {
        self.blocks.insert(addr.raw(), Block { size, free: true });
    }

    /// Iterates over `(addr, block)` pairs in address order.
    pub fn iter(&self) -> impl Iterator<Item = (Addr, Block)> + '_ {
        self.blocks.iter().map(|(&a, &b)| (Addr::new(a), b))
    }

    /// Sum of live payload bytes.
    pub fn live_bytes(&self) -> u64 {
        self.blocks
            .values()
            .filter(|b| !b.free)
            .map(|b| b.size)
            .sum()
    }

    /// Checks the structural invariants: blocks tile the region with no
    /// overlap and no gap; unless `allow_adjacent_free` (deferred
    /// coalescing, Lea-style), no two adjacent free blocks exist.
    ///
    /// Used by property tests; `region` is `(base, size)`.
    pub fn check_invariants(
        &self,
        base: Addr,
        size: u64,
        allow_adjacent_free: bool,
    ) -> Result<(), String> {
        let mut cursor = base.raw();
        let mut prev_free = false;
        for (&addr, blk) in &self.blocks {
            if addr != cursor {
                return Err(format!(
                    "gap or overlap: expected block at {cursor:#x}, found {addr:#x}"
                ));
            }
            if prev_free && blk.free && !allow_adjacent_free {
                return Err(format!("uncoalesced free blocks at {addr:#x}"));
            }
            prev_free = blk.free;
            cursor += blk.size;
        }
        if cursor != base.raw() + size {
            return Err(format!(
                "blocks end at {cursor:#x}, region ends at {:#x}",
                base.raw() + size
            ));
        }
        Ok(())
    }

    /// Checks an indexing policy's free lists against the map. `filed`
    /// yields each free-list entry as its address and the class it is
    /// filed in; `class_of` maps a block size to its class. Every entry
    /// must name a free block of its class (no stale entries), and every
    /// free block must be filed exactly once.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation.
    pub fn check_filed(
        &self,
        filed: impl IntoIterator<Item = (u64, usize)>,
        class_of: impl Fn(u64) -> usize,
    ) -> Result<(), String> {
        let mut seen = BTreeSet::new();
        for (addr, class) in filed {
            match self.blocks.get(&addr) {
                Some(b) if b.free && class_of(b.size) == class => {}
                Some(b) if b.free => {
                    return Err(format!(
                        "free block {addr:#x} of {} bytes filed in class {class}",
                        b.size
                    ))
                }
                _ => return Err(format!("stale free-list entry {addr:#x}")),
            }
            if !seen.insert(addr) {
                return Err(format!("free block {addr:#x} filed twice"));
            }
        }
        let free = self.blocks.values().filter(|b| b.free).count();
        if seen.len() != free {
            return Err(format!("{} of {free} free blocks filed", seen.len()));
        }
        Ok(())
    }
}

/// Result of [`BlockMap::release`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReleaseOutcome {
    /// Payload bytes of the freed allocation.
    pub freed: u64,
    /// Base of the (possibly coalesced) free block.
    pub merged_base: Addr,
    /// Size of the (possibly coalesced) free block.
    pub merged_size: u64,
    /// Free neighbours absorbed into the coalesced block, as `(base,
    /// size)`: the next block, then the previous one.
    pub absorbed: [Option<(Addr, u64)>; 2],
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: Addr = Addr::new(0x1000);
    const SIZE: u64 = 0x1000;

    #[test]
    fn take_splits() {
        let mut m = BlockMap::new(BASE, SIZE);
        m.take(BASE, 64);
        assert_eq!(
            m.get(BASE),
            Some(Block {
                size: 64,
                free: false
            })
        );
        assert_eq!(
            m.get(BASE + 64),
            Some(Block {
                size: SIZE - 64,
                free: true
            })
        );
        m.check_invariants(BASE, SIZE, false).unwrap();
    }

    #[test]
    fn release_coalesces_both_sides() {
        let mut m = BlockMap::new(BASE, SIZE);
        m.take(BASE, 64);
        // file the remainder as "taken" pieces to build A|B|C
        m.remove_free(BASE + 64).unwrap();
        m.insert_free(BASE + 64, 64);
        m.take(BASE + 64, 64);
        m.insert_free(BASE + 128, SIZE - 128);
        m.take(BASE + 128, 64);
        // free A and C, then B: releasing B must absorb both neighbours.
        m.release(BASE).unwrap();
        m.release(BASE + 128).unwrap();
        let out = m.release(BASE + 64).unwrap();
        assert_eq!(
            out.absorbed,
            [Some((BASE + 128, SIZE - 128)), Some((BASE, 64))]
        );
        assert_eq!(out.merged_base, BASE);
        m.check_invariants(BASE, SIZE, false).unwrap();
    }

    #[test]
    fn double_free_rejected() {
        let mut m = BlockMap::new(BASE, SIZE);
        m.take(BASE, 32);
        m.release(BASE).unwrap();
        assert!(matches!(m.release(BASE), Err(Fault::BadFree { .. })));
    }

    #[test]
    fn free_of_unknown_address_rejected() {
        let mut m = BlockMap::new(BASE, SIZE);
        assert!(matches!(m.release(BASE + 8), Err(Fault::BadFree { .. })));
    }

    #[test]
    fn live_bytes_tracks() {
        let mut m = BlockMap::new(BASE, SIZE);
        m.take(BASE, 64);
        assert_eq!(m.live_bytes(), 64);
        m.release(BASE).unwrap();
        assert_eq!(m.live_bytes(), 0);
    }
}
