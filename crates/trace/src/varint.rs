//! LEB128 varint and zigzag primitives of the `.sbt` codec.
//!
//! The build environment is offline, so the encoding is implemented locally
//! instead of pulling a varint crate. Unsigned values are encoded as standard
//! LEB128 (7 payload bits per byte, continuation bit 0x80, at most 10 bytes
//! for a `u64`); signed deltas are mapped to unsigned space with zigzag so
//! that small negative address deltas stay short.

use crate::error::TraceError;
use std::io::Write;

/// Maximum encoded length of a `u64` varint.
pub(crate) const MAX_VARINT_LEN: usize = 10;

/// Encodes `value` as LEB128 into `out`.
pub(crate) fn write_u64<W: Write>(out: &mut W, mut value: u64) -> std::io::Result<()> {
    let mut buf = [0u8; MAX_VARINT_LEN];
    let mut n = 0;
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            buf[n] = byte;
            n += 1;
            break;
        }
        buf[n] = byte | 0x80;
        n += 1;
    }
    out.write_all(&buf[..n])
}

/// Decodes one LEB128 `u64` from the front of `input` and advances `input`
/// past it.
///
/// Returns [`TraceError::Truncated`] when the bytes end mid-varint (empty
/// bytes are reported the same way; callers that allow a clean end check
/// for one more byte themselves) and [`TraceError::Corrupt`] when the
/// encoding overflows 64 bits. On an error `input` may have advanced.
#[inline]
pub(crate) fn take_u64(input: &mut &[u8]) -> Result<u64, TraceError> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    loop {
        let Some((&byte, rest)) = input.split_first() else {
            return Err(TraceError::Truncated {
                context: "varint ended mid-value",
            });
        };
        *input = rest;
        let payload = (byte & 0x7F) as u64;
        if shift == 63 && payload > 1 {
            return Err(TraceError::Corrupt("varint overflows u64"));
        }
        if shift > 63 {
            return Err(TraceError::Corrupt("varint longer than 10 bytes"));
        }
        value |= payload << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

/// Zigzag-maps a signed delta to unsigned space (`0, -1, 1, -2, … → 0, 1, 2,
/// 3, …`).
pub(crate) fn zigzag(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub(crate) fn unzigzag(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

/// The wrapping difference `to - from` as a zigzag-ready signed delta.
///
/// Wrapping arithmetic makes the delta chain total: even a `u64`-wrapping
/// address jump round-trips exactly through [`apply_delta`].
pub(crate) fn address_delta(from: u64, to: u64) -> i64 {
    to.wrapping_sub(from) as i64
}

/// Applies a decoded delta to the previous absolute address.
pub(crate) fn apply_delta(from: u64, delta: i64) -> u64 {
    from.wrapping_add(delta as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: u64) -> u64 {
        let mut buf = Vec::new();
        write_u64(&mut buf, v).unwrap();
        assert!(buf.len() <= MAX_VARINT_LEN);
        buf.push(0xAB); // a following byte the decoder must not consume
        let mut rest = buf.as_slice();
        let taken = take_u64(&mut rest).unwrap();
        assert_eq!(rest, &[0xAB]);
        taken
    }

    #[test]
    fn varint_round_trips_edge_values() {
        for v in [
            0,
            1,
            127,
            128,
            255,
            256,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            assert_eq!(round_trip(v), v);
        }
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::MAX).unwrap();
        for cut in 0..buf.len() {
            assert!(matches!(
                take_u64(&mut &buf[..cut]),
                Err(TraceError::Truncated { .. })
            ));
        }
        // 10 continuation bytes followed by a large final payload overflow.
        let overlong = [0xFFu8; 9]
            .iter()
            .copied()
            .chain(std::iter::once(0x7F))
            .collect::<Vec<_>>();
        assert!(matches!(
            take_u64(&mut overlong.as_slice()),
            Err(TraceError::Corrupt("varint overflows u64"))
        ));
        let too_long = [0xFFu8; 10]
            .iter()
            .copied()
            .chain(std::iter::once(0x01))
            .collect::<Vec<_>>();
        assert!(matches!(
            take_u64(&mut too_long.as_slice()),
            Err(TraceError::Corrupt(_))
        ));
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 2, -2, i64::MAX, i64::MIN, 123_456, -123_456] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn address_deltas_survive_u64_wrap() {
        for (from, to) in [
            (0u64, u64::MAX),
            (u64::MAX, 0),
            (5, 3),
            (3, 5),
            (u64::MAX - 2, 4),
        ] {
            let d = address_delta(from, to);
            assert_eq!(apply_delta(from, d), to);
            assert_eq!(unzigzag(zigzag(d)), d);
        }
    }
}
