//! Length-prefixed, CRC-32-protected frames: the one record envelope
//! shared by the WAL, the checkpoint files and the fleet wire protocol.
//!
//! A frame is `[len: u32 le][crc32(payload): u32 le][payload: len bytes]`.
//! Writers compute the checksum ([`crate::checksum::crc32`]) and readers
//! verify it, so a caller never sees a payload whose bytes moved.
//! Decoding distinguishes *incomplete* (the stream ends mid-frame — the
//! normal shape of a torn tail after a crash) from *corrupt* (a length
//! that cannot be a real frame, or a checksum mismatch), so recovery can
//! truncate the former and refuse to reason about anything past either.

use std::io::{self, Read, Write};

use crate::checksum::crc32;

/// Hard ceiling on a single frame's payload, far above any legitimate
/// record but small enough that a corrupt length field can never turn
/// into a multi-gigabyte allocation.
pub const MAX_FRAME_LEN: usize = 1 << 24; // 16 MiB

/// Bytes of framing overhead preceding every payload.
pub const FRAME_HEADER_LEN: usize = 8;

/// Outcome of decoding one frame from the head of a byte slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Frame<'a> {
    /// A complete frame whose checksum matched. It occupies
    /// `FRAME_HEADER_LEN + payload.len()` bytes.
    Complete { payload: &'a [u8] },
    /// The stream ended before the frame did (torn tail).
    Incomplete,
    /// The declared length exceeds [`MAX_FRAME_LEN`] or the payload
    /// fails its checksum; the stream is not trustworthy past this
    /// point.
    Corrupt,
}

/// Split a frame header into `(payload length, checksum)`.
fn parse_header(header: &[u8; FRAME_HEADER_LEN]) -> (usize, u32) {
    let [l0, l1, l2, l3, c0, c1, c2, c3] = *header;
    (
        u32::from_le_bytes([l0, l1, l2, l3]) as usize,
        u32::from_le_bytes([c0, c1, c2, c3]),
    )
}

/// Write one frame to a byte-oriented stream (socket, file, pipe, or a
/// `Vec<u8>` being assembled in memory).
///
/// The caller should `flush` the writer when the frame must be visible
/// to the peer (the codec itself never flushes). A payload above
/// [`MAX_FRAME_LEN`] — which no decoder would accept back — is
/// [`io::ErrorKind::InvalidInput`], reported before any byte is
/// written.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    w.write_all(&header(payload)?)?;
    w.write_all(payload)
}

/// Build one frame in a single buffer: `payload` appends the payload
/// after room for the header, which is then filled in. The bytes equal
/// [`write_frame`]'s for that payload, with no second buffer and no
/// copy; an over-limit payload is the same `InvalidInput`.
pub fn build_frame(payload: impl FnOnce(&mut Vec<u8>)) -> io::Result<Vec<u8>> {
    // Room for the header and a small payload, so a short request is
    // built without growing the buffer.
    let mut frame = Vec::with_capacity(64);
    frame.resize(FRAME_HEADER_LEN, 0);
    payload(&mut frame);
    let header = header(&frame[FRAME_HEADER_LEN..])?;
    frame[..FRAME_HEADER_LEN].copy_from_slice(&header);
    Ok(frame)
}

/// The header in front of `payload`, or `InvalidInput` when no decoder
/// would accept the payload back.
fn header(payload: &[u8]) -> io::Result<[u8; FRAME_HEADER_LEN]> {
    let len = payload.len();
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame payload of {len} bytes exceeds the {MAX_FRAME_LEN}-byte frame limit"),
        ));
    }
    let mut header = [0; FRAME_HEADER_LEN];
    header[..4].copy_from_slice(&(len as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    Ok(header)
}

/// Read one frame from a byte-oriented stream into `payload`.
///
/// `Ok(Some(()))` leaves the verified frame body in `payload`;
/// `Ok(None)` is clean EOF at a frame boundary (zero bytes read).
/// Everything else is `Err`: EOF mid-frame is
/// [`io::ErrorKind::UnexpectedEof`]; a length field above
/// [`MAX_FRAME_LEN`] or a checksum mismatch is
/// [`io::ErrorKind::InvalidData`] (the stream is not trustworthy past
/// it) — the same taxonomy as [`decode_frame`].
pub fn read_frame(r: &mut impl Read, payload: &mut Vec<u8>) -> io::Result<Option<()>> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    // Distinguish clean EOF (no bytes at all) from a torn header.
    let mut filled = 0;
    while filled < FRAME_HEADER_LEN {
        match r.read(&mut header[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream ended mid frame header",
                ));
            }
            n => filled += n,
        }
    }
    let (len, check) = parse_header(&header);
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame length exceeds MAX_FRAME_LEN",
        ));
    }
    payload.clear();
    payload.resize(len, 0);
    r.read_exact(payload)?;
    if crc32(payload) != check {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame checksum mismatch",
        ));
    }
    Ok(Some(()))
}

/// Decode and verify the frame at the head of `buf`.
pub fn decode_frame(buf: &[u8]) -> Frame<'_> {
    let Some((header, body)) = buf.split_first_chunk::<FRAME_HEADER_LEN>() else {
        return Frame::Incomplete;
    };
    let (len, check) = parse_header(header);
    if len > MAX_FRAME_LEN {
        return Frame::Corrupt;
    }
    match body.get(..len) {
        None => Frame::Incomplete,
        Some(payload) if crc32(payload) == check => Frame::Complete { payload },
        Some(_) => Frame::Corrupt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload").unwrap();
        assert_eq!(
            decode_frame(&buf),
            Frame::Complete {
                payload: b"payload"
            }
        );
        assert_eq!(buf.len(), FRAME_HEADER_LEN + 7);
        // The check word on disk is the payload's CRC-32.
        assert_eq!(buf[4..8], crc32(b"payload").to_le_bytes());
    }

    /// Regression: an over-limit payload used to `assert!` in the
    /// frame encoder; it is a typed `InvalidInput` that writes nothing.
    #[test]
    fn oversized_payload_is_invalid_input_not_a_panic() {
        let mut buf = Vec::new();
        let big = vec![0u8; MAX_FRAME_LEN + 1];
        let err = write_frame(&mut buf, &big).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains(&big.len().to_string()), "{err}");
        assert!(buf.is_empty(), "a refused frame leaves no partial bytes");
        let err = build_frame(|out| out.extend_from_slice(&big)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn built_frames_equal_written_frames() {
        for payload in [&b""[..], b"payload bytes"] {
            let mut written = Vec::new();
            write_frame(&mut written, payload).unwrap();
            let built = build_frame(|out| out.extend_from_slice(payload)).unwrap();
            assert_eq!(built, written);
        }
    }

    #[test]
    fn every_truncation_is_incomplete() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"some payload bytes").unwrap();
        for cut in 0..buf.len() {
            assert_eq!(decode_frame(&buf[..cut]), Frame::Incomplete, "cut at {cut}");
        }
    }

    #[test]
    fn oversized_length_is_corrupt() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&[0u8; 32]);
        assert_eq!(decode_frame(&buf), Frame::Corrupt);
    }

    #[test]
    fn every_bit_flip_past_the_length_is_corrupt() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload bytes").unwrap();
        let mut payload = Vec::new();
        for pos in 4..buf.len() {
            for bit in 0..8 {
                let mut bad = buf.clone();
                bad[pos] ^= 1 << bit;
                assert_eq!(decode_frame(&bad), Frame::Corrupt, "flip at {pos}:{bit}");
                let err = read_frame(&mut &bad[..], &mut payload).unwrap_err();
                assert_eq!(
                    err.kind(),
                    io::ErrorKind::InvalidData,
                    "flip at {pos}:{bit}"
                );
            }
        }
    }

    #[test]
    fn stream_roundtrip_and_eof() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"first").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut cursor = &wire[..];
        let mut payload = Vec::new();
        assert_eq!(read_frame(&mut cursor, &mut payload).unwrap(), Some(()));
        assert_eq!(payload, b"first");
        assert_eq!(read_frame(&mut cursor, &mut payload).unwrap(), Some(()));
        assert_eq!(payload, b"");
        assert_eq!(read_frame(&mut cursor, &mut payload).unwrap(), None);
    }

    #[test]
    fn stream_truncation_is_unexpected_eof() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"payload bytes").unwrap();
        let mut payload = Vec::new();
        for cut in 1..wire.len() {
            let mut cursor = &wire[..cut];
            let err = read_frame(&mut cursor, &mut payload).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
    }

    #[test]
    fn stream_oversized_length_is_invalid_data() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        wire.extend_from_slice(&0u32.to_le_bytes());
        let mut cursor = &wire[..];
        let mut payload = Vec::new();
        let err = read_frame(&mut cursor, &mut payload).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn empty_payload_frames() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"").unwrap();
        assert_eq!(decode_frame(&buf), Frame::Complete { payload: b"" });
    }
}
