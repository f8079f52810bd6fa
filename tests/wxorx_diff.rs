//! Differential test of the MPK backend's W⊕X scan (§4.1).
//!
//! `scan_text` jumps from one `0x0F` escape byte to the next instead of
//! comparing every 3-byte window, and `synthesize_text` scrubs with the
//! same jumps. This file pins both to the obvious implementations: the
//! scan must agree with a naive `windows(3)` reference on seeded texts
//! and on planted sequences at every alignment, and every component's
//! synthesized text must keep the digest it had when the scrub compared
//! every window.

use flexos_machine::fault::Fault;
use flexos_mpk::wxorx::{
    component_text, scan_text, synthesize_text, COMPONENT_TEXT_BYTES, WRPKRU_OPCODE, XRSTOR_OPCODE,
};

/// The reference: any 3-byte window equal to a forbidden sequence.
fn reference_rejects(text: &[u8]) -> bool {
    text.windows(3)
        .any(|w| w == WRPKRU_OPCODE || w == XRSTOR_OPCODE)
}

fn rejects(text: &[u8]) -> bool {
    match scan_text("c", text) {
        Ok(()) => false,
        Err(Fault::WxViolation { component }) => {
            assert_eq!(component, "c");
            true
        }
        Err(other) => panic!("unexpected fault {other:?}"),
    }
}

/// xorshift64* stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

#[test]
fn scan_matches_the_windowed_reference_on_seeded_texts() {
    // Bytes drawn mostly from the opcode alphabet, so escapes, partial
    // sequences and whole ones all occur often, at every alignment.
    const ALPHABET: [u8; 6] = [0x0F, 0x01, 0xEF, 0xAE, 0x2F, 0x0F];
    let mut rng = Rng(0x5eed_3a11);
    let mut rejected = 0;
    for case in 0..20_000u64 {
        let len = (case % 70) as usize;
        let text: Vec<u8> = (0..len)
            .map(|_| {
                let r = rng.next();
                if r.is_multiple_of(4) {
                    (r >> 8) as u8
                } else {
                    ALPHABET[((r >> 8) % ALPHABET.len() as u64) as usize]
                }
            })
            .collect();
        let expected = reference_rejects(&text);
        assert_eq!(rejects(&text), expected, "verdict differs on {text:02x?}");
        rejected += u32::from(expected);
    }
    // Both verdicts are well represented.
    assert!((2_000..18_000).contains(&rejected), "{rejected} rejected");
}

#[test]
fn planted_sequences_are_found_at_every_offset() {
    for opcode in [WRPKRU_OPCODE, XRSTOR_OPCODE] {
        for len in [3usize, 8, 11, 16, 17, 61, 4096 + 5] {
            let clean = synthesize_text("planted", len);
            assert!(!reference_rejects(&clean) && !rejects(&clean));
            // Every offset mod 8 near the start, across the first word
            // boundaries, and every offset whose sequence ends in the
            // last 3 bytes.
            let offsets = (0..=(len - 3).min(24)).chain(len.saturating_sub(10)..=len - 3);
            for at in offsets {
                let mut text = clean.clone();
                text[at..at + 3].copy_from_slice(&opcode);
                assert!(reference_rejects(&text));
                assert!(rejects(&text), "missed {opcode:02x?} at {at} of {len}");
                // A sequence cut short by the end of the text is no
                // sequence.
                if at + 3 == len {
                    let cut = &text[..len - 1];
                    assert_eq!(rejects(cut), reference_rejects(cut));
                }
            }
        }
    }
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[test]
fn synthesized_texts_keep_their_digests() {
    // Recorded with the byte-by-byte scrub, for every component the
    // standard builder and the applications register.
    let pinned: [(&str, u64); 10] = [
        ("uksched", 0x82dd_e743_b14c_e7e0),
        ("uktime", 0x9b1f_37cd_d02d_9f4f),
        ("vfscore", 0x2c37_7160_9b82_6d54),
        ("ramfs", 0x3a41_7e83_6688_b870),
        ("lwip", 0x32b7_dfb1_15a2_cfb5),
        ("newlib", 0x8f13_23d4_6128_1881),
        ("redis", 0x1aa3_b4cb_1a38_7860),
        ("nginx", 0x917f_e5b3_fc6f_9012),
        ("sqlite", 0x8c4f_d22a_d108_e6a0),
        ("iperf", 0x75e2_78f1_8909_cac0),
    ];
    for (name, digest) in pinned {
        let text = synthesize_text(name, COMPONENT_TEXT_BYTES);
        assert_eq!(fnv1a(&text), digest, "{name}'s text moved");
        assert!(!reference_rejects(&text));
        // The shared copy the MPK backend scans is the same text.
        assert_eq!(&*component_text(name), &text[..]);
    }
}
