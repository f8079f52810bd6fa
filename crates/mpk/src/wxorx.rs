//! W⊕X static binary scan (§4.1).
//!
//! "Any compartment can modify the value of the PKRU, thus the MPK backend
//! has to prevent unauthorized writes. [...] In FlexOS, no code is loaded
//! after compilation, hence static binary analysis coupled with strict
//! W⊕X is sufficient." This module is that analysis: it scans component
//! text for the `wrpkru` instruction (and the `xrstor` family that can
//! also write PKRU) outside the blessed gate code.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

use flexos_machine::fault::Fault;

/// Encoding of `wrpkru` (0F 01 EF).
pub const WRPKRU_OPCODE: [u8; 3] = [0x0F, 0x01, 0xEF];

/// Encoding of `xrstor` with a PKRU-bearing mask (0F AE 2F — simplified:
/// any `xrstor` is rejected, as ERIM does).
pub const XRSTOR_OPCODE: [u8; 3] = [0x0F, 0xAE, 0x2F];

/// The two-byte-opcode escape both forbidden sequences start with.
const ESCAPE: u8 = 0x0F;

/// Synthetic text bytes per component (the stand-in for its real `.text`
/// section; see [`component_text`]).
pub const COMPONENT_TEXT_BYTES: usize = 64 * 1024;

/// Scans a component's text for PKRU-writing instructions.
///
/// # Errors
///
/// [`Fault::WxViolation`] if a `wrpkru`/`xrstor` sequence occurs in
/// `text`; component code must reach PKRU only through gate code, which is
/// emitted by the toolchain and not part of any component's text.
pub fn scan_text(component: &str, text: &[u8]) -> Result<(), Fault> {
    match gadgets(text).next() {
        Some(_) => Err(Fault::WxViolation {
            component: component.to_string(),
        }),
        None => Ok(()),
    }
}

/// Offsets of every PKRU-writing sequence in `text`, in order. Both
/// sequences start with the `0x0F` escape byte, so the search jumps from
/// one escape to the next, a word at a time, and compares only there; it
/// finds what comparing every 3-byte window finds.
fn gadgets(text: &[u8]) -> impl Iterator<Item = usize> + '_ {
    let mut from = 0;
    std::iter::from_fn(move || {
        while let Some(at) = next_escape(text, from) {
            from = at + 1;
            if text
                .get(at..at + 3)
                .is_some_and(|w| w == WRPKRU_OPCODE || w == XRSTOR_OPCODE)
            {
                return Some(at);
            }
        }
        None
    })
}

/// Offset of the first [`ESCAPE`] byte at or after `from`, if any.
fn next_escape(text: &[u8], from: usize) -> Option<usize> {
    const LOW: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    let mut at = from;
    while let Some(chunk) = text.get(at..at + 8) {
        // Bytes equal to the escape become zero; the lowest flagged byte
        // is the first zero (flags above a zero byte may be spurious).
        let x =
            u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")) ^ (LOW * u64::from(ESCAPE));
        let zeros = x.wrapping_sub(LOW) & !x & HIGH;
        if zeros != 0 {
            return Some(at + (zeros.trailing_zeros() / 8) as usize);
        }
        at += 8;
    }
    text.get(at..)?
        .iter()
        .position(|&b| b == ESCAPE)
        .map(|i| at + i)
}

/// Deterministically synthesizes a component's "binary text" for the scan.
///
/// The simulation has no real machine code, so each component gets a
/// pseudo-random byte image seeded by its name, post-processed to remove
/// any accidental PKRU-writing sequence — exactly the property the
/// compiler + toolchain guarantee for real FlexOS components.
pub fn synthesize_text(name: &str, size: usize) -> Vec<u8> {
    // xorshift64* seeded from the name; deterministic across runs.
    let mut state: u64 = name
        .bytes()
        .fold(0x9E37_79B9_7F4A_7C15u64, |acc, b| {
            acc.rotate_left(9) ^ u64::from(b).wrapping_mul(0x0100_0000_01B3)
        })
        .max(1);
    let mut text = Vec::with_capacity(size);
    while text.len() < size {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let word = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
        text.extend_from_slice(&word.to_le_bytes());
    }
    text.truncate(size);
    // Scrub any accidental forbidden sequence. Flipping its last byte
    // (0xEF or 0x2F) never creates or removes an escape byte, so it
    // changes no other window: finding every sequence first gives the
    // same bytes as scrubbing window by window.
    let found: Vec<usize> = gadgets(&text).collect();
    for at in found {
        text[at + 2] ^= 0xFF;
    }
    text
}

/// `name`'s [`COMPONENT_TEXT_BYTES`] of synthesized text. Each name's text
/// is synthesized once per process and shared immutably; the MPK backend
/// still scans it on every build.
pub fn component_text(name: &str) -> Arc<[u8]> {
    static TEXTS: Mutex<BTreeMap<String, Arc<[u8]>>> = Mutex::new(BTreeMap::new());
    // Every update is a single insert, so a poisoned map is still valid.
    let mut texts = TEXTS.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(text) = texts.get(name) {
        return Arc::clone(text);
    }
    let text: Arc<[u8]> = synthesize_text(name, COMPONENT_TEXT_BYTES).into();
    texts.insert(name.to_string(), Arc::clone(&text));
    text
}

/// Synthesizes a component's text with a hidden `wrpkru` gadget spliced
/// into the middle — the attacker's half of the §4.1 threat model. A
/// compromised component that could smuggle this instruction past the
/// toolchain would set its own PKRU and walk out of its compartment; the
/// adversarial suite feeds the forged text to [`scan_text`] and asserts
/// the MPK backend's build-time scan is what stops it.
pub fn forge_gadget(name: &str, size: usize) -> Vec<u8> {
    let mut text = synthesize_text(name, size.max(WRPKRU_OPCODE.len()));
    let splice = text.len() / 2;
    text[splice..splice + WRPKRU_OPCODE.len()].copy_from_slice(&WRPKRU_OPCODE);
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forged_gadget_is_caught() {
        let text = forge_gadget("lwip", 4096);
        let err = scan_text("lwip", &text).unwrap_err();
        assert!(matches!(err, Fault::WxViolation { .. }));
        // Deterministic, and the splice is the only difference from the
        // clean synthesized text.
        assert_eq!(forge_gadget("lwip", 4096), forge_gadget("lwip", 4096));
        assert_ne!(forge_gadget("lwip", 4096), synthesize_text("lwip", 4096));
    }

    #[test]
    fn clean_text_passes() {
        let text = synthesize_text("lwip", 64 * 1024);
        assert!(scan_text("lwip", &text).is_ok());
    }

    #[test]
    fn synthesized_text_is_deterministic() {
        assert_eq!(
            synthesize_text("redis", 4096),
            synthesize_text("redis", 4096)
        );
        assert_ne!(synthesize_text("redis", 64), synthesize_text("nginx", 64));
    }

    #[test]
    fn stray_wrpkru_rejected() {
        let mut text = synthesize_text("evil", 4096);
        text[1000..1003].copy_from_slice(&WRPKRU_OPCODE);
        let err = scan_text("evil", &text).unwrap_err();
        assert!(matches!(err, Fault::WxViolation { .. }));
        assert!(err.to_string().contains("evil"));
    }

    #[test]
    fn stray_xrstor_rejected() {
        let mut text = synthesize_text("evil2", 4096);
        text[64..67].copy_from_slice(&XRSTOR_OPCODE);
        assert!(scan_text("evil2", &text).is_err());
    }

    #[test]
    fn sequence_straddling_scan_positions_found() {
        // The scan must find sequences at any offset, not aligned chunks.
        let mut text = vec![0u8; 16];
        text[7..10].copy_from_slice(&WRPKRU_OPCODE);
        assert!(scan_text("x", &text).is_err());
    }
}
