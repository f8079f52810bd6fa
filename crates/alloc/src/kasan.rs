//! KASan-style address sanitizer: shadow memory, redzones, quarantine.
//!
//! FlexOS applies software hardening per compartment (§4.5); the prototype
//! uses the kernel address sanitizer among others, instrumenting the
//! compartment's allocator. This module reproduces the classic ASan/KASan
//! design: one shadow byte per 8-byte granule, redzones around every heap
//! allocation, and a quarantine that delays reuse of freed blocks so
//! use-after-free is caught rather than silently recycled.

use std::collections::VecDeque;

use flexos_machine::addr::Addr;
use flexos_machine::fault::Fault;
use flexos_machine::key::Access;

/// Bytes covered by one shadow byte.
pub const GRANULE: u64 = 8;

/// Redzone placed before and after each allocation.
pub const REDZONE: u64 = 16;

/// Shadow encodings (matching ASan's conventions).
mod shadow {
    /// Fully addressable granule.
    pub const OK: u8 = 0;
    /// Heap redzone.
    pub const REDZONE: u8 = 0xFA;
    /// Freed (quarantined) memory.
    pub const FREED: u8 = 0xFD;
}

/// Address sanitizer state for one heap region.
#[derive(Debug)]
pub struct Kasan {
    base: Addr,
    /// One byte per granule, stored XOR [`shadow::REDZONE`]: the
    /// all-poisoned shadow of a fresh region is all zeros, so it comes
    /// from zeroed allocator pages and untouched parts cost nothing.
    shadow: Vec<u8>,
    quarantine: VecDeque<(Addr, u64)>,
    quarantined_bytes: u64,
    quarantine_limit: u64,
    /// Total faults this instance has reported (for hardening stats).
    reports: u64,
}

impl Kasan {
    /// Creates a sanitizer for the region `[base, base + size)`, initially
    /// all poisoned (nothing is allocated yet).
    pub fn new(base: Addr, size: u64) -> Self {
        Kasan {
            base,
            shadow: vec![0; (size / GRANULE) as usize + 1],
            quarantine: VecDeque::new(),
            quarantined_bytes: 0,
            quarantine_limit: 256 * 1024,
            reports: 0,
        }
    }

    fn granule_range(&self, addr: Addr, len: u64) -> (usize, usize) {
        let start = addr.offset_from(self.base) / GRANULE;
        let end = (addr.offset_from(self.base) + len.max(1) - 1) / GRANULE;
        (start as usize, end as usize)
    }

    fn set_shadow(&mut self, addr: Addr, len: u64, value: u8) {
        if len == 0 {
            return;
        }
        let (start, end) = self.granule_range(addr, len);
        let end = end.min(self.shadow.len() - 1);
        self.shadow[start..=end].fill(value ^ shadow::REDZONE);
    }

    /// Marks an allocation's payload addressable and poisons its redzones.
    /// `addr`/`len` describe the payload (redzones lie outside it).
    ///
    /// When `len` is not granule-aligned the payload's last granule stays
    /// addressable and the trailing redzone starts at the next granule
    /// boundary — the same slack real ASan encodes with partial-granule
    /// shadow values (1..7).
    pub fn on_alloc(&mut self, addr: Addr, len: u64) {
        self.set_shadow(addr - REDZONE, REDZONE, shadow::REDZONE);
        self.set_shadow(addr, len, shadow::OK);
        let tail = addr + len;
        let aligned_tail = tail.align_up(GRANULE);
        let skip = aligned_tail - tail;
        if REDZONE > skip {
            self.set_shadow(aligned_tail, REDZONE - skip, shadow::REDZONE);
        }
    }

    /// Poisons a freed allocation and moves it to quarantine. Returns the
    /// blocks that fell out of quarantine and may now really be freed.
    pub fn on_free(&mut self, addr: Addr, len: u64) -> Vec<(Addr, u64)> {
        self.set_shadow(addr, len, shadow::FREED);
        self.quarantine.push_back((addr, len));
        self.quarantined_bytes += len;
        let mut evicted = Vec::new();
        while self.quarantined_bytes > self.quarantine_limit {
            if let Some((a, l)) = self.quarantine.pop_front() {
                self.quarantined_bytes -= l;
                evicted.push((a, l));
            } else {
                break;
            }
        }
        evicted
    }

    /// Checks an access against the shadow.
    ///
    /// # Errors
    ///
    /// [`Fault::Kasan`] with a classification (`heap-buffer-overflow` for
    /// redzone hits, `use-after-free` for quarantined memory) when any
    /// touched granule is poisoned.
    pub fn check(&mut self, addr: Addr, len: u64, _kind: Access) -> Result<(), Fault> {
        if len == 0 {
            return Ok(());
        }
        let (start, end) = self.granule_range(addr, len);
        for idx in start..=end.min(self.shadow.len() - 1) {
            match self.shadow[idx] ^ shadow::REDZONE {
                shadow::OK => {}
                shadow::FREED => {
                    self.reports += 1;
                    return Err(Fault::Kasan {
                        addr: self.base + idx as u64 * GRANULE,
                        what: "use-after-free",
                    });
                }
                _ => {
                    self.reports += 1;
                    return Err(Fault::Kasan {
                        addr: self.base + idx as u64 * GRANULE,
                        what: "heap-buffer-overflow",
                    });
                }
            }
        }
        Ok(())
    }

    /// `true` if `addr` lies within the sanitized region.
    pub fn covers(&self, addr: Addr) -> bool {
        addr >= self.base && addr.offset_from(self.base) / GRANULE < self.shadow.len() as u64
    }

    /// Number of violations reported so far.
    pub fn reports(&self) -> u64 {
        self.reports
    }

    /// Bytes currently held in quarantine.
    pub fn quarantined_bytes(&self) -> u64 {
        self.quarantined_bytes
    }

    /// Sets the quarantine size limit (bytes).
    pub fn set_quarantine_limit(&mut self, bytes: u64) {
        self.quarantine_limit = bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kasan() -> Kasan {
        Kasan::new(Addr::new(0x10000), 1 << 16)
    }

    #[test]
    fn payload_is_addressable_redzones_are_not() {
        let mut k = kasan();
        let a = Addr::new(0x10000 + 256);
        k.on_alloc(a, 64);
        assert!(k.check(a, 64, Access::Read).is_ok());
        let over = k.check(a + 64, 1, Access::Read).unwrap_err();
        assert!(matches!(
            over,
            Fault::Kasan {
                what: "heap-buffer-overflow",
                ..
            }
        ));
        let under = k.check(a - 8, 1, Access::Write).unwrap_err();
        assert!(matches!(
            under,
            Fault::Kasan {
                what: "heap-buffer-overflow",
                ..
            }
        ));
    }

    #[test]
    fn use_after_free_detected() {
        let mut k = kasan();
        let a = Addr::new(0x10000 + 256);
        k.on_alloc(a, 64);
        k.on_free(a, 64);
        let err = k.check(a, 1, Access::Read).unwrap_err();
        assert!(matches!(
            err,
            Fault::Kasan {
                what: "use-after-free",
                ..
            }
        ));
        assert_eq!(k.reports(), 1);
    }

    #[test]
    fn quarantine_evicts_at_limit() {
        let mut k = kasan();
        k.set_quarantine_limit(128);
        let a = Addr::new(0x10000 + 1024);
        let b = Addr::new(0x10000 + 2048);
        k.on_alloc(a, 100);
        k.on_alloc(b, 100);
        assert!(k.on_free(a, 100).is_empty(), "under limit: nothing evicted");
        let evicted = k.on_free(b, 100);
        assert_eq!(evicted, vec![(a, 100)], "oldest block leaves quarantine");
        assert_eq!(k.quarantined_bytes(), 100);
    }

    #[test]
    fn straddling_access_checks_every_granule() {
        let mut k = kasan();
        let a = Addr::new(0x10000 + 512);
        k.on_alloc(a, 32);
        // An access spanning payload *and* redzone must fail.
        assert!(k.check(a + 24, 16, Access::Read).is_err());
    }

    #[test]
    fn realloc_cycle_reuses_shadow() {
        let mut k = kasan();
        let a = Addr::new(0x10000 + 512);
        k.on_alloc(a, 32);
        k.on_free(a, 32);
        k.on_alloc(a, 32); // reallocated at same address
        assert!(k.check(a, 32, Access::Write).is_ok());
    }
}
