//! Length-prefixed message framing over any byte stream.
//!
//! Every message on the wire is `[u32 length LE][payload]`. A maximum frame
//! size guards against corrupt prefixes. The same framing is used by plain,
//! encrypted, and shaped channels.

use std::io::{self, Read, Write};

/// Maximum accepted frame payload (256 MiB) — larger prefixes indicate
/// corruption or protocol mismatch.
pub const MAX_FRAME: u32 = 256 * 1024 * 1024;

/// Upper bound on a single `read` pre-allocation. A corrupt-but-in-range
/// length prefix therefore cannot make us allocate 256 MiB up front; the
/// payload buffer grows chunk by chunk as bytes actually arrive.
const READ_CHUNK: usize = 4 * 1024 * 1024;

/// Writes one length-prefixed frame, enforcing `max_frame`.
pub fn write_frame_limited(w: &mut impl Write, payload: &[u8], max_frame: u32) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    if len > max_frame {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame too large",
        ));
    }
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Writes one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    write_frame_limited(w, payload, MAX_FRAME)
}

/// Reads one length-prefixed frame, enforcing `max_frame`.
pub fn read_frame_limited(r: &mut impl Read, max_frame: u32) -> io::Result<Vec<u8>> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes);
    if len > max_frame {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds maximum"),
        ));
    }
    let len = len as usize;
    let mut payload = Vec::with_capacity(len.min(READ_CHUNK));
    let mut remaining = len;
    while remaining > 0 {
        let chunk = remaining.min(READ_CHUNK);
        let start = payload.len();
        payload.resize(start + chunk, 0);
        r.read_exact(&mut payload[start..])?;
        remaining -= chunk;
    }
    Ok(payload)
}

/// Reads one length-prefixed frame.
pub fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    read_frame_limited(r, MAX_FRAME)
}

/// Reads the `(trace_id, parent_span_id)` an `RpcEnvelope`-shaped
/// request payload leads with. Returns `None` for payloads too short to
/// carry a trace header or whose trace id is `0` ("no context"). Lets an
/// intermediary (the coordinator front door) attribute a forwarded frame
/// to its trace without decoding the envelope.
pub fn peek_trace(payload: &[u8]) -> Option<(u64, u64)> {
    if payload.len() < 16 {
        return None;
    }
    let trace_id = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
    if trace_id == 0 {
        return None;
    }
    let parent = u64::from_le_bytes(payload[8..16].try_into().expect("8 bytes"));
    Some((trace_id, parent))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, &[7u8; 1000]).unwrap();
        let mut c = Cursor::new(buf);
        assert_eq!(read_frame(&mut c).unwrap(), b"hello");
        assert_eq!(read_frame(&mut c).unwrap(), b"");
        assert_eq!(read_frame(&mut c).unwrap(), vec![7u8; 1000]);
    }

    #[test]
    fn roundtrip_at_size_boundaries() {
        // Payload sizes 0 and 1 through the public API; max-1, max, and
        // max+1 against an explicit limit so the boundary semantics are
        // tested exactly without allocating 256 MiB.
        for payload in [vec![], vec![0xabu8]] {
            let mut buf = Vec::new();
            write_frame(&mut buf, &payload).unwrap();
            assert_eq!(buf.len(), 4 + payload.len());
            assert_eq!(read_frame(&mut Cursor::new(buf)).unwrap(), payload);
        }
        let max = 64u32;
        for len in [max - 1, max] {
            let payload = vec![0x5au8; len as usize];
            let mut buf = Vec::new();
            write_frame_limited(&mut buf, &payload, max).unwrap();
            let got = read_frame_limited(&mut Cursor::new(buf), max).unwrap();
            assert_eq!(got, payload, "len {len}");
        }
        // One past the limit: rejected on write and on read.
        let over = vec![0u8; (max + 1) as usize];
        let mut buf = Vec::new();
        let err = write_frame_limited(&mut buf, &over, max).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let mut raw = (max + 1).to_le_bytes().to_vec();
        raw.extend_from_slice(&over);
        let err = read_frame_limited(&mut Cursor::new(raw), max).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn max_frame_prefix_accepted_but_truncation_detected() {
        // A MAX_FRAME-length prefix passes the size check (it is within
        // bounds) and the chunked reader then hits honest EOF instead of
        // allocating the full 256 MiB up front.
        let mut raw = MAX_FRAME.to_le_bytes().to_vec();
        raw.extend_from_slice(&[1, 2, 3]);
        let err = read_frame(&mut Cursor::new(raw)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_prefix_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut c = Cursor::new(buf);
        let err = read_frame(&mut c).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let mut just_over = Vec::new();
        just_over.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        assert!(read_frame(&mut Cursor::new(just_over)).is_err());
    }

    #[test]
    fn truncated_payload_errors() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&10u32.to_le_bytes());
        buf.extend_from_slice(b"abc");
        let mut c = Cursor::new(buf);
        assert!(read_frame(&mut c).is_err());
    }

    #[test]
    fn truncated_prefix_errors() {
        for cut in 0..4 {
            let buf = vec![0u8; cut];
            assert!(read_frame(&mut Cursor::new(buf)).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn peek_trace_reads_the_envelope_header() {
        // Envelope-shaped payload: trace id, parent span, then the rest.
        for trace_id in [7, u64::MAX] {
            let mut body = trace_id.to_le_bytes().to_vec();
            body.extend_from_slice(&9u64.to_le_bytes());
            body.extend_from_slice(b"rest");
            assert_eq!(peek_trace(&body), Some((trace_id, 9)));
        }
        // No context (trace id 0), too short, or empty: nothing to peek.
        let mut none = 0u64.to_le_bytes().to_vec();
        none.extend_from_slice(&9u64.to_le_bytes());
        assert_eq!(peek_trace(&none), None);
        assert_eq!(peek_trace(b"short"), None);
        assert_eq!(peek_trace(b""), None);
    }
}
