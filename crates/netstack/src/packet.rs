//! The wire packet format.
//!
//! A fixed 20-byte header followed by the payload:
//!
//! ```text
//! proto: u8 | flags: u8 | src_port: u16 | dst_port: u16 | len: u16
//! seq: u32  | ack: u32  | csum: u32     | payload: [u8; len]
//! ```
//!
//! Decoding is strict: short frames, bad lengths, unknown protocol
//! numbers, and checksum mismatches are `EBADMSG`, never a sliced-anyway
//! read. The checksum is what turns a corrupting link into a *detected*
//! loss: `csum` is chosen so that the CRC-32 of the whole frame, `csum`
//! included, is zero, making the frame one contiguous CRC codeword. So
//! any one- or two-bit flip, or any burst of up to 32 bits, anywhere in a
//! full-size frame fails verification — bursts straddling `csum`
//! included — and the frame is dropped, so TCP's retransmission
//! machinery heals it instead of delivering garbage. The CRC is
//! table-driven, eight bytes per step (slicing-by-8), with the tables
//! built at compile time.

use sk_ksim::errno::{Errno, KResult};

/// Protocol numbers.
pub mod proto {
    /// TCP.
    pub const TCP: u8 = 6;
    /// UDP.
    pub const UDP: u8 = 17;
    /// The AMP-like control protocol (the CVE-2020-12351 stand-in).
    pub const AMP_CTRL: u8 = 0x20;
}

/// TCP header flags.
pub mod flags {
    /// Synchronize sequence numbers.
    pub const SYN: u8 = 0x01;
    /// Acknowledgement field is valid.
    pub const ACK: u8 = 0x02;
    /// No more data from sender.
    pub const FIN: u8 = 0x04;
    /// Reset the connection.
    pub const RST: u8 = 0x08;
}

/// Header length in bytes.
pub const HEADER_LEN: usize = 20;

/// Maximum payload per packet (the wire MTU minus headers).
pub const MAX_PAYLOAD: usize = 1000;

/// Offset of the `csum` field.
const CSUM_AT: usize = 16;

/// The reflected CRC-32 (IEEE 802.3) polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables for the reflected CRC-32 (IEEE 802.3) polynomial:
/// `CRC_TABLES[0]` is the classic byte-at-a-time table, and
/// `CRC_TABLES[k][b]` is byte `b`'s contribution followed by `k` zero
/// bytes, so eight table lookups advance the CRC by eight bytes.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut c = b as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][b] = c;
        b += 1;
    }
    let mut b = 0;
    while b < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            k += 1;
        }
        b += 1;
    }
    t
}

/// Advances the (pre-inverted) CRC-32 register `crc` over `bytes`.
fn crc32_update(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    crc
}

/// The standard CRC-32 of `bytes`.
fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(!0, bytes)
}

/// `a · b mod P` for polynomials in the CRC register's reflected form
/// (bit 31 is x^0).
const fn mulmod(a: u32, mut b: u32) -> u32 {
    let mut p = 0;
    let mut m = 1u32 << 31;
    while m != 0 {
        if a & m != 0 {
            p ^= b;
        }
        m >>= 1;
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
    }
    p
}

/// `X_INV_8[k]` is x^(-8k) mod P: it undoes `k` bytes of register
/// advance. Indexed by the bytes from `csum` to the end of a frame.
static X_INV_8: [u32; MAX_PAYLOAD + 5] = {
    // x^-1 = x^31 + (P(x) - 1)/x, as P has a unit constant term.
    let x_inv = ((POLY & !(1 << 31)) << 1) | 1;
    let mut x_inv_8 = 1u32 << 31;
    let mut i = 0;
    while i < 8 {
        x_inv_8 = mulmod(x_inv_8, x_inv);
        i += 1;
    }
    let mut t = [0u32; MAX_PAYLOAD + 5];
    t[0] = 1 << 31;
    let mut k = 1;
    while k < t.len() {
        t[k] = mulmod(t[k - 1], x_inv_8);
        k += 1;
    }
    t
};

/// The `csum` value that makes the CRC-32 of `frame` zero, given `frame`
/// with its `csum` field zeroed. The CRC register is affine in `csum`:
/// its bytes enter the register directly and then advance through the
/// rest of the frame, i.e. are multiplied by x^(8·(frame.len() − 16)),
/// so `csum` is the zeroed frame's CRC divided by that. A frame too long
/// for any valid length gets 0: `decode` refuses it by length first.
fn csum_for(frame: &[u8]) -> u32 {
    X_INV_8
        .get(frame.len() - CSUM_AT)
        .map_or(0, |&inv| mulmod(crc32(frame), inv))
}

/// A network packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Protocol number ([`proto`]).
    pub proto: u8,
    /// Flag bits ([`flags`]).
    pub flags: u8,
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number (TCP) or opaque (others).
    pub seq: u32,
    /// Acknowledgement number (TCP) or opaque.
    pub ack: u32,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

impl Packet {
    /// A bare packet with the given protocol and ports.
    pub fn new(proto: u8, src_port: u16, dst_port: u16) -> Packet {
        Packet {
            proto,
            flags: 0,
            src_port,
            dst_port,
            seq: 0,
            ack: 0,
            payload: Vec::new(),
        }
    }

    /// Serializes to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.payload.len());
        out.push(self.proto);
        out.push(self.flags);
        out.extend_from_slice(&self.src_port.to_le_bytes());
        out.extend_from_slice(&self.dst_port.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u16).to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.ack.to_le_bytes());
        out.extend_from_slice(&[0; 4]);
        out.extend_from_slice(&self.payload);
        let csum = csum_for(&out);
        out[CSUM_AT..HEADER_LEN].copy_from_slice(&csum.to_le_bytes());
        out
    }

    /// Parses wire bytes, strictly.
    pub fn decode(bytes: &[u8]) -> KResult<Packet> {
        if bytes.len() < HEADER_LEN {
            return Err(Errno::EBADMSG);
        }
        let len = u16::from_le_bytes(bytes[6..8].try_into().expect("2 bytes")) as usize;
        if bytes.len() != HEADER_LEN + len || len > MAX_PAYLOAD {
            return Err(Errno::EBADMSG);
        }
        let proto = bytes[0];
        if !matches!(proto, proto::TCP | proto::UDP | proto::AMP_CTRL) {
            return Err(Errno::EPROTONOSUPPORT);
        }
        if crc32(bytes) != 0 {
            return Err(Errno::EBADMSG);
        }
        Ok(Packet {
            proto,
            flags: bytes[1],
            src_port: u16::from_le_bytes(bytes[2..4].try_into().expect("2 bytes")),
            dst_port: u16::from_le_bytes(bytes[4..6].try_into().expect("2 bytes")),
            seq: u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")),
            ack: u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes")),
            payload: bytes[HEADER_LEN..].to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let mut p = Packet::new(proto::TCP, 80, 1234);
        p.flags = flags::SYN | flags::ACK;
        p.seq = 0xDEAD;
        p.ack = 0xBEEF;
        p.payload = b"data".to_vec();
        let bytes = p.encode();
        assert_eq!(Packet::decode(&bytes).unwrap(), p);
    }

    #[test]
    fn decode_rejects_short_frames() {
        assert_eq!(Packet::decode(&[0u8; 4]), Err(Errno::EBADMSG));
    }

    #[test]
    fn decode_rejects_length_mismatch() {
        let p = Packet::new(proto::UDP, 1, 2);
        let mut bytes = p.encode();
        bytes.push(0xFF); // trailing garbage
        assert_eq!(Packet::decode(&bytes), Err(Errno::EBADMSG));
    }

    #[test]
    fn decode_rejects_unknown_protocol() {
        let mut p = Packet::new(proto::TCP, 1, 2);
        p.proto = 0x7F;
        assert_eq!(Packet::decode(&p.encode()), Err(Errno::EPROTONOSUPPORT));
    }

    #[test]
    fn empty_payload_ok() {
        let p = Packet::new(proto::UDP, 5, 6);
        assert_eq!(Packet::decode(&p.encode()).unwrap().payload.len(), 0);
    }

    #[test]
    fn single_bit_flip_anywhere_is_detected() {
        let mut p = Packet::new(proto::TCP, 80, 1234);
        p.flags = flags::SYN;
        p.seq = 42;
        p.payload = b"checksummed".to_vec();
        let clean = p.encode();
        for byte in 0..clean.len() {
            for bit in 0..8 {
                let mut dirty = clean.clone();
                dirty[byte] ^= 1 << bit;
                assert!(
                    Packet::decode(&dirty).is_err(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn crc32_known_answer() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        // Every split of the input (table path vs byte tail) agrees.
        for cut in 0..=9 {
            let (a, b) = b"123456789".split_at(cut);
            assert_eq!(!crc32_update(crc32_update(!0, a), b), 0xCBF4_3926);
        }
    }

    #[test]
    fn every_encoded_frame_is_a_crc_codeword() {
        for len in [0, 1, 7, 8, 9, 63, 500, MAX_PAYLOAD] {
            let mut p = Packet::new(proto::UDP, 1, 2);
            p.payload = (0..len).map(|i| (i * 13 + len) as u8).collect();
            let bytes = p.encode();
            assert_eq!(crc32(&bytes), 0, "payload {len}");
            assert_eq!(Packet::decode(&bytes).unwrap(), p);
        }
    }

    /// Over GF(2) the frame CRC is affine, so a set of flipped bits goes
    /// unnoticed exactly when the XOR of the flips' per-bit *syndromes*
    /// (the CRC change each one causes alone) is zero. Over a 1000-byte
    /// frame: every 1-bit flip is detected iff every syndrome is non-zero,
    /// every 2-bit flip iff the syndromes are pairwise distinct, and every
    /// burst of at most 32 bits iff the syndromes of each 32 consecutive
    /// bits are linearly independent (then no non-empty subset of a 32-bit
    /// window XORs to zero).
    #[test]
    fn all_one_and_two_bit_flips_and_short_bursts_are_detected() {
        let mut p = Packet::new(proto::TCP, 80, 1234);
        p.flags = flags::ACK;
        p.seq = 7;
        p.ack = 9;
        p.payload = (0..1000 - HEADER_LEN).map(|i| (i * 31 + 7) as u8).collect();
        let clean = p.encode();
        assert_eq!(clean.len(), 1000);
        let flip = |f: &mut Vec<u8>, i: usize| f[i / 8] ^= 1 << (i % 8);
        let bits = clean.len() * 8;
        let syndromes: Vec<u32> = (0..bits)
            .map(|i| {
                let mut dirty = clean.clone();
                flip(&mut dirty, i);
                // Every single flip is also refused end to end.
                assert!(Packet::decode(&dirty).is_err(), "1-bit flip {i} undetected");
                crc32(&dirty)
            })
            .collect();

        // 2-bit flips: pairwise-distinct syndromes.
        let mut sorted = syndromes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), bits, "two flips share a syndrome");
        let mut dirty = clean.clone();
        flip(&mut dirty, 3 * 8 + 1);
        flip(&mut dirty, 700 * 8 + 5);
        assert!(
            Packet::decode(&dirty).is_err(),
            "sampled 2-bit flip undetected"
        );

        // Bursts of ≤ 32 bits: each 32-bit window has full rank, the
        // windows straddling `csum` included.
        for start in 0..=bits - 32 {
            let mut basis = [0u32; 32]; // basis[b]: a vector whose top bit is b
            for &v in &syndromes[start..start + 32] {
                let mut v = v;
                while v != 0 {
                    let top = 31 - v.leading_zeros() as usize;
                    if basis[top] == 0 {
                        basis[top] = v;
                        break;
                    }
                    v ^= basis[top];
                }
                assert_ne!(
                    v,
                    0,
                    "a burst within bits {start}..{} is undetected",
                    start + 32
                );
            }
        }
        let mut burst = clean.clone();
        (126..158).for_each(|i| flip(&mut burst, i));
        assert!(
            Packet::decode(&burst).is_err(),
            "32-bit burst over csum undetected"
        );
    }
}
