//! The wire format: little-endian item codecs and length-prefixed frames.
//!
//! The vendor set has no network serialization crates, so the framing is
//! hand-rolled: every message on a socket is one *frame* —
//!
//! ```text
//! [payload length: u64 le][tag: u64 le][payload bytes]
//! ```
//!
//! — and payloads are either raw [`WireItem`] arrays (state-vector slices,
//! scalars) or JSON-encoded control messages ([`send_json`]/[`recv_json`]).
//! Amplitude payloads use the same IEEE-754 little-endian layout as
//! [`hisvsim_statevec::amplitudes_to_le_bytes`], so the decode of an encode
//! is bit-exact and a multi-process run can promise bit-identical results.
//!
//! On a little-endian target the items of this module already sit in memory
//! as their wire encoding, so a payload is sent straight from the item slice
//! and received straight into one (`items_as_wire_bytes`,
//! `read_items_frame_into`); a big-endian target, and any [`WireItem`]
//! implemented elsewhere, goes item by item. The bytes on the wire are the
//! same either way.

use hisvsim_circuit::Complex64;
use serde::{Deserialize, Serialize};
use std::any::TypeId;
use std::borrow::Cow;
use std::io::{self, Read, Write};

/// Upper bound on a single frame's payload (64 GiB would be a 32-qubit
/// slice; anything larger is a corrupt header, not a real message).
pub const MAX_FRAME_BYTES: u64 = 1 << 36;

/// A fixed-size item that can cross the wire. The encoded width must match
/// `std::mem::size_of::<Self>()` for the POD types used here, so byte
/// accounting agrees with the in-process world's
/// [`CommStats`](hisvsim_cluster::CommStats).
pub trait WireItem: Copy + Send + 'static {
    /// Encoded bytes per item.
    const WIRE_SIZE: usize;

    /// Append this item's little-endian encoding to `out`.
    fn write_le(&self, out: &mut Vec<u8>);

    /// Decode one item from exactly [`WireItem::WIRE_SIZE`] bytes.
    fn read_le(bytes: &[u8]) -> Self;
}

macro_rules! int_wire_item {
    ($ty:ty, $size:expr) => {
        impl WireItem for $ty {
            const WIRE_SIZE: usize = $size;
            fn write_le(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn read_le(bytes: &[u8]) -> Self {
                <$ty>::from_le_bytes(bytes.try_into().expect("wire item width"))
            }
        }
    };
}

int_wire_item!(u8, 1);
int_wire_item!(u32, 4);
int_wire_item!(u64, 8);
int_wire_item!(f64, 8);

impl WireItem for usize {
    const WIRE_SIZE: usize = 8;
    fn write_le(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(*self as u64).to_le_bytes());
    }
    fn read_le(bytes: &[u8]) -> Self {
        u64::from_le_bytes(bytes.try_into().expect("wire item width")) as usize
    }
}

impl WireItem for Complex64 {
    const WIRE_SIZE: usize = 16;
    fn write_le(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.re.to_le_bytes());
        out.extend_from_slice(&self.im.to_le_bytes());
    }
    fn read_le(bytes: &[u8]) -> Self {
        Complex64::new(
            f64::from_le_bytes(bytes[0..8].try_into().expect("wire item width")),
            f64::from_le_bytes(bytes[8..16].try_into().expect("wire item width")),
        )
    }
}

/// True when a `[T]` in memory is, byte for byte, its wire encoding: a
/// little-endian target and one of this module's own fixed-width types
/// (integers, `f64`, and the `repr(C)` pair of `f64` that is [`Complex64`]),
/// none of which has padding or a bit pattern that is not a value.
fn is_wire_layout<T: WireItem>() -> bool {
    let own = [
        TypeId::of::<u8>(),
        TypeId::of::<u32>(),
        TypeId::of::<u64>(),
        TypeId::of::<f64>(),
        TypeId::of::<usize>(),
        TypeId::of::<Complex64>(),
    ];
    cfg!(target_endian = "little")
        && std::mem::size_of::<T>() == T::WIRE_SIZE
        && own.contains(&TypeId::of::<T>())
}

/// `items` as raw bytes, when those are their wire encoding.
fn wire_view<T: WireItem>(items: &[T]) -> Option<&[u8]> {
    // SAFETY: `is_wire_layout` admits only padding-free plain-data types, so
    // every byte of the slice is initialised; `u8` has no alignment to meet,
    // and the view borrows `items` for its whole lifetime.
    is_wire_layout::<T>().then(|| unsafe {
        std::slice::from_raw_parts(items.as_ptr().cast::<u8>(), std::mem::size_of_val(items))
    })
}

/// `items` as writable raw bytes, when those are their wire encoding.
fn wire_view_mut<T: WireItem>(items: &mut [T]) -> Option<&mut [u8]> {
    // SAFETY: as in `wire_view`; in addition every bit pattern is a value of
    // the admitted types, so no write through the view can leave an invalid
    // item behind, and the view holds the only borrow of `items`.
    is_wire_layout::<T>().then(|| unsafe {
        std::slice::from_raw_parts_mut(
            items.as_mut_ptr().cast::<u8>(),
            std::mem::size_of_val(items),
        )
    })
}

/// The payload bytes of `items`: the slice itself where memory already holds
/// the wire encoding, an item-by-item encoding otherwise.
pub(crate) fn items_as_wire_bytes<T: WireItem>(items: &[T]) -> Cow<'_, [u8]> {
    match wire_view(items) {
        Some(bytes) => Cow::Borrowed(bytes),
        None => {
            let mut out = Vec::with_capacity(items.len() * T::WIRE_SIZE);
            for item in items {
                item.write_le(&mut out);
            }
            Cow::Owned(out)
        }
    }
}

/// Encode a slice of items into one payload buffer.
pub fn encode_items<T: WireItem>(items: &[T]) -> Vec<u8> {
    items_as_wire_bytes(items).into_owned()
}

/// Decode a payload buffer back into items. Errors on a length that is not
/// a multiple of the item width.
pub fn decode_items<T: WireItem>(bytes: &[u8]) -> io::Result<Vec<T>> {
    let (len, width) = (bytes.len(), T::WIRE_SIZE);
    if !len.is_multiple_of(width) {
        let message =
            format!("payload of {len} bytes is not a multiple of the {width}-byte item width");
        return Err(io::Error::new(io::ErrorKind::InvalidData, message));
    }
    if !is_wire_layout::<T>() {
        return Ok(bytes.chunks_exact(width).map(T::read_le).collect());
    }
    // Every byte zero is a value of each wire-layout type; all are
    // overwritten through the view.
    let mut items = vec![T::read_le(&[0u8; 16][..width]); len / width];
    wire_view_mut(&mut items)
        .expect("a wire-layout type")
        .copy_from_slice(bytes);
    Ok(items)
}

/// Write one `[len][tag][payload]` frame: header, then the payload
/// straight from the caller's buffer. No intermediate copy — the largest
/// frames in the system are whole state-vector slices, and doubling them
/// just to prepend 16 bytes would spike peak memory exactly when workers
/// are already at their high-water mark.
pub fn write_frame(stream: &mut impl Write, tag: u64, payload: &[u8]) -> io::Result<()> {
    let mut header = [0u8; 16];
    header[..8].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    header[8..].copy_from_slice(&tag.to_le_bytes());
    stream.write_all(&header)?;
    stream.write_all(payload)
}

/// Read one frame header, returning `(tag, payload length)`.
fn read_header(stream: &mut impl Read) -> io::Result<(u64, usize)> {
    let mut header = [0u8; 16];
    stream.read_exact(&mut header)?;
    let len = u64::from_le_bytes(header[0..8].try_into().expect("header width"));
    let tag = u64::from_le_bytes(header[8..16].try_into().expect("header width"));
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"),
        ));
    }
    Ok((tag, len as usize))
}

/// Read one frame, returning `(tag, payload)`. The length came off the
/// wire: it is reserved fallibly and only what arrives is written, so a
/// header announcing more than the host can hold, or more than follows, is
/// an error rather than an abort or a zero-filled block.
pub fn read_frame(stream: &mut impl Read) -> io::Result<(u64, Vec<u8>)> {
    let (tag, len) = read_header(stream)?;
    let mut payload = Vec::new();
    payload.try_reserve_exact(len).map_err(|e| {
        io::Error::new(
            io::ErrorKind::OutOfMemory,
            format!("frame of {len} bytes: {e}"),
        )
    })?;
    (&mut *stream).take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        let message = format!("frame of {len} bytes ended after {}", payload.len());
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, message));
    }
    Ok((tag, payload))
}

/// Read one frame whose payload is exactly `out.len()` items over `out` —
/// straight off the stream where memory holds the wire encoding — returning
/// its tag.
pub(crate) fn read_items_frame_into<T: WireItem>(
    stream: &mut impl Read,
    out: &mut [T],
) -> io::Result<u64> {
    let (tag, len) = read_header(stream)?;
    if len != out.len() * T::WIRE_SIZE {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes where {} items were due", out.len()),
        ));
    }
    match wire_view_mut(out) {
        Some(view) => stream.read_exact(view)?,
        None => {
            let mut payload = vec![0u8; len];
            stream.read_exact(&mut payload)?;
            for (item, encoded) in out.iter_mut().zip(payload.chunks_exact(T::WIRE_SIZE)) {
                *item = T::read_le(encoded);
            }
        }
    }
    Ok(tag)
}

/// Tag marking a JSON control frame.
pub const JSON_TAG: u64 = 0x4A50_4E00_0000_0001;

/// Serialize `value` as a JSON control frame.
pub fn send_json<T: Serialize>(stream: &mut impl Write, value: &T) -> io::Result<()> {
    let text = serde_json::to_string(value)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    write_frame(stream, JSON_TAG, text.as_bytes())
}

/// Read one JSON control frame and deserialize it.
pub fn recv_json<T: Deserialize>(stream: &mut impl Read) -> io::Result<T> {
    let (tag, payload) = read_frame(stream)?;
    if tag != JSON_TAG {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("expected a JSON control frame, got tag {tag:#x}"),
        ));
    }
    let text = String::from_utf8(payload)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    serde_json::from_str(&text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn item_roundtrip_is_bit_exact() {
        let amps = vec![
            Complex64::new(0.1, -0.2),
            Complex64::new(f64::MIN_POSITIVE, -0.0),
        ];
        let bytes = encode_items(&amps);
        assert_eq!(bytes.len(), 32);
        let back: Vec<Complex64> = decode_items(&bytes).unwrap();
        assert_eq!(amps, back);

        let ints = vec![0u64, 1, u64::MAX];
        assert_eq!(decode_items::<u64>(&encode_items(&ints)).unwrap(), ints);
    }

    #[test]
    fn frames_roundtrip_through_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 7, b"hello").unwrap();
        write_frame(&mut buf, 9, b"").unwrap();
        let mut cursor = &buf[..];
        assert_eq!(read_frame(&mut cursor).unwrap(), (7, b"hello".to_vec()));
        assert_eq!(read_frame(&mut cursor).unwrap(), (9, Vec::new()));
    }

    #[test]
    fn a_lying_frame_length_is_an_error_not_an_abort() {
        // A header announcing 64 GiB, then the end of the stream: what any
        // process that reaches a rendezvous or mesh listener can send.
        let mut lying = Vec::new();
        lying.extend_from_slice(&(1u64 << 36).to_le_bytes());
        lying.extend_from_slice(&JSON_TAG.to_le_bytes());
        let err = read_frame(&mut &lying[..]).unwrap_err();
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::UnexpectedEof | io::ErrorKind::OutOfMemory
            ),
            "{err}"
        );
        // A frame cut short is the same error, whatever its length.
        let mut short = Vec::new();
        write_frame(&mut short, 7, b"hello").unwrap();
        short.truncate(short.len() - 2);
        let err = read_frame(&mut &short[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn complex64_codec_agrees_with_the_statevec_byte_layout() {
        // Two encoders exist for amplitudes: this WireItem codec
        // (data-plane frames) and hisvsim_statevec's slice helpers (the
        // AMPS_TAG result frame). The bit-identity guarantee depends on
        // them never drifting apart — pin the agreement byte for byte.
        let amps: Vec<Complex64> = (0..5)
            .map(|i| Complex64::new(1.0 / (i as f64 + 1.0), -(i as f64).sqrt()))
            .collect();
        assert_eq!(
            encode_items(&amps),
            hisvsim_statevec::amplitudes_to_le_bytes(&amps)
        );
        assert_eq!(
            decode_items::<Complex64>(&hisvsim_statevec::amplitudes_to_le_bytes(&amps)).unwrap(),
            amps
        );
    }

    #[test]
    fn wire_bytes_are_pinned() {
        // The bytes on the wire, whichever path wrote them: IEEE-754 doubles
        // and integers least-significant byte first, `re` before `im`.
        let amps = [Complex64::new(1.0, -2.0), Complex64::new(0.5, 0.0)];
        #[rustfmt::skip]
        let golden = [
            0, 0, 0, 0, 0, 0, 0xF0, 0x3F, 0, 0, 0, 0, 0, 0, 0, 0xC0,
            0, 0, 0, 0, 0, 0, 0xE0, 0x3F, 0, 0, 0, 0, 0, 0, 0, 0,
        ];
        assert_eq!(encode_items(&amps), golden);
        assert_eq!(&*items_as_wire_bytes(&amps), &golden[..]);
        // The per-item path (what a big-endian target runs) writes the same.
        let mut per_item = Vec::new();
        amps.iter().for_each(|amp| amp.write_le(&mut per_item));
        assert_eq!(per_item, golden);
        assert_eq!(decode_items::<Complex64>(&golden).unwrap(), amps);

        assert_eq!(encode_items(&[0x0102_0304u32]), [4, 3, 2, 1]);
        assert_eq!(encode_items(&[0x0102u64]), [2, 1, 0, 0, 0, 0, 0, 0]);
        assert_eq!(encode_items(&[0x0102usize]), [2, 1, 0, 0, 0, 0, 0, 0]);
        assert_eq!(encode_items(&[-2.0f64]), [0, 0, 0, 0, 0, 0, 0, 0xC0]);
        assert_eq!(encode_items(&[7u8, 9]), [7, 9]);

        // A whole frame: length, tag, payload.
        let mut frame = Vec::new();
        write_frame(&mut frame, 0x5101, &items_as_wire_bytes(&amps[..1])).unwrap();
        #[rustfmt::skip]
        let golden_frame = [
            16, 0, 0, 0, 0, 0, 0, 0, 0x01, 0x51, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0xF0, 0x3F, 0, 0, 0, 0, 0, 0, 0, 0xC0,
        ];
        assert_eq!(frame, golden_frame);
    }

    #[test]
    fn item_frames_are_read_in_place_and_checked() {
        let amps: Vec<Complex64> = (0..5).map(|i| Complex64::new(i as f64, -0.25)).collect();
        let mut buf = Vec::new();
        write_frame(&mut buf, 4, &items_as_wire_bytes(&amps)).unwrap();
        let mut cursor = &buf[..];
        let mut out = vec![Complex64::ZERO; 5];
        assert_eq!(read_items_frame_into(&mut cursor, &mut out).unwrap(), 4);
        assert_eq!(out, amps);
        // A frame of the wrong size for the buffer is refused, not truncated.
        let mut cursor = &buf[..];
        assert!(read_items_frame_into(&mut cursor, &mut out[..4]).is_err());
    }

    /// A `WireItem` from outside the module: always the per-item path.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Flagged(u32);

    impl WireItem for Flagged {
        const WIRE_SIZE: usize = 4;
        fn write_le(&self, out: &mut Vec<u8>) {
            out.extend_from_slice(&(!self.0).to_le_bytes());
        }
        fn read_le(bytes: &[u8]) -> Self {
            Flagged(!u32::from_le_bytes(bytes.try_into().unwrap()))
        }
    }

    #[test]
    fn foreign_items_keep_their_own_codec() {
        let items = [Flagged(1), Flagged(0xFFFF_FFFE)];
        let bytes = encode_items(&items);
        assert_eq!(bytes, [0xFE, 0xFF, 0xFF, 0xFF, 1, 0, 0, 0]);
        assert_eq!(decode_items::<Flagged>(&bytes).unwrap(), items);
    }

    #[test]
    fn misaligned_payload_is_rejected() {
        assert!(decode_items::<u64>(&[0u8; 9]).is_err());
    }

    #[test]
    fn json_frames_roundtrip() {
        use hisvsim_cluster::CommStats;
        let stats = CommStats {
            messages_sent: 3,
            bytes_sent: 128,
            payload_messages: 2,
            wall_time_s: 0.25,
        };
        let mut buf = Vec::new();
        send_json(&mut buf, &stats).unwrap();
        let mut cursor = &buf[..];
        let back: CommStats = recv_json(&mut cursor).unwrap();
        assert_eq!(stats, back);
    }
}
