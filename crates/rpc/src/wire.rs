//! Compact binary wire encoding: varints, zigzag, and length-prefixed
//! payloads.
//!
//! This is the byte-level substrate of the Thrift-compact-style protocol:
//! unsigned integers are ULEB128 varints, signed integers are
//! zigzag-mapped before varint encoding, and strings/binaries are
//! length-prefixed. These small branchy integer codecs are exactly the kind
//! of "datacenter tax" instruction mix (serialization) the paper models.

/// Errors from decoding a wire buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value was complete.
    UnexpectedEof,
    /// A varint ran past 10 bytes (would overflow `u64`).
    VarintOverflow,
    /// A length prefix exceeded the remaining buffer or a sanity cap, or
    /// this many bytes were left after a message's last field.
    InvalidLength(u64),
    /// An unknown type tag was encountered.
    UnknownTag(u8),
    /// A string field held invalid UTF-8.
    InvalidUtf8,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::UnexpectedEof => write!(f, "unexpected end of buffer"),
            WireError::VarintOverflow => write!(f, "varint longer than 10 bytes"),
            WireError::InvalidLength(n) => write!(f, "invalid length prefix {n}"),
            WireError::UnknownTag(t) => write!(f, "unknown type tag {t:#x}"),
            WireError::InvalidUtf8 => write!(f, "invalid utf-8 in string field"),
        }
    }
}

impl std::error::Error for WireError {}

/// Maps a signed integer to an unsigned one so that small magnitudes
/// (positive or negative) encode to short varints.
pub fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag_encode`].
pub fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends `v` as a ULEB128 varint.
pub fn write_uvarint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends `v` zigzag-encoded as a varint.
pub fn write_ivarint(out: &mut Vec<u8>, v: i64) {
    write_uvarint(out, zigzag_encode(v));
}

/// Appends an IEEE-754 double, little-endian.
pub fn write_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a length-prefixed byte string.
pub fn write_bytes(out: &mut Vec<u8>, v: &[u8]) {
    write_uvarint(out, v.len() as u64);
    out.extend_from_slice(v);
}

/// Appends a length-prefixed UTF-8 string.
pub fn write_str(out: &mut Vec<u8>, v: &str) {
    write_bytes(out, v.as_bytes());
}

/// A cursor for decoding wire buffers.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Ends a message: every byte must have been read.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::InvalidLength`] with the count of bytes left.
    pub fn finish(&self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(WireError::InvalidLength(n as u64)),
        }
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::UnexpectedEof`] at end of buffer.
    pub fn read_u8(&mut self) -> Result<u8, WireError> {
        let b = *self.buf.get(self.pos).ok_or(WireError::UnexpectedEof)?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads a ULEB128 varint.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::UnexpectedEof`] if the buffer ends mid-varint
    /// or [`WireError::VarintOverflow`] past 10 bytes.
    pub fn read_uvarint(&mut self) -> Result<u64, WireError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.read_u8()?;
            if shift == 63 && byte > 1 {
                return Err(WireError::VarintOverflow);
            }
            v |= ((byte & 0x7F) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(WireError::VarintOverflow);
            }
        }
    }

    /// Reads a zigzag varint.
    ///
    /// # Errors
    ///
    /// Same as [`Reader::read_uvarint`].
    pub fn read_ivarint(&mut self) -> Result<i64, WireError> {
        Ok(zigzag_decode(self.read_uvarint()?))
    }

    /// Reads a little-endian double.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::UnexpectedEof`] with fewer than 8 bytes left.
    pub fn read_f64(&mut self) -> Result<f64, WireError> {
        let bytes = self.read_exact(8)?;
        let bytes = <[u8; 8]>::try_from(bytes).map_err(|_| WireError::UnexpectedEof)?;
        Ok(f64::from_le_bytes(bytes))
    }

    /// Reads `n` raw bytes.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::UnexpectedEof`] with fewer than `n` left.
    pub fn read_exact(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEof);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads a length-prefixed byte string.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::InvalidLength`] if the prefix exceeds the
    /// remaining buffer.
    pub fn read_bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.read_uvarint()?;
        if len > self.remaining() as u64 {
            return Err(WireError::InvalidLength(len));
        }
        self.read_exact(len as usize)
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// As [`Reader::read_bytes`], plus [`WireError::InvalidUtf8`].
    pub fn read_str(&mut self) -> Result<&'a str, WireError> {
        std::str::from_utf8(self.read_bytes()?).map_err(|_| WireError::InvalidUtf8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_round_trips_edge_cases() {
        for v in [0i64, -1, 1, -2, 2, i64::MIN, i64::MAX, 12345, -12345] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v, "v={v}");
        }
    }

    #[test]
    fn zigzag_small_magnitudes_stay_small() {
        assert_eq!(zigzag_encode(0), 0);
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
        assert_eq!(zigzag_encode(-2), 3);
    }

    #[test]
    fn uvarint_round_trips() {
        let cases = [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX,
        ];
        for v in cases {
            let mut buf = Vec::new();
            write_uvarint(&mut buf, v);
            let mut r = Reader::new(&buf);
            assert_eq!(r.read_uvarint().unwrap(), v);
            assert_eq!(r.finish(), Ok(()));
        }
    }

    #[test]
    fn uvarint_lengths() {
        let mut buf = Vec::new();
        write_uvarint(&mut buf, 127);
        assert_eq!(buf.len(), 1);
        buf.clear();
        write_uvarint(&mut buf, 128);
        assert_eq!(buf.len(), 2);
        buf.clear();
        write_uvarint(&mut buf, u64::MAX);
        assert_eq!(buf.len(), 10);
    }

    #[test]
    fn ivarint_round_trips() {
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -1_000_000] {
            let mut buf = Vec::new();
            write_ivarint(&mut buf, v);
            assert_eq!(Reader::new(&buf).read_ivarint().unwrap(), v);
        }
    }

    #[test]
    fn f64_round_trips() {
        for v in [0.0f64, -1.5, f64::MAX, f64::MIN_POSITIVE, 1e-300] {
            let mut buf = Vec::new();
            write_f64(&mut buf, v);
            assert_eq!(Reader::new(&buf).read_f64().unwrap(), v);
        }
    }

    #[test]
    fn bytes_and_str_round_trip() {
        let mut buf = Vec::new();
        write_str(&mut buf, "héllo");
        write_bytes(&mut buf, &[1, 2, 3]);
        let mut r = Reader::new(&buf);
        assert_eq!(r.read_str().unwrap(), "héllo");
        assert_eq!(r.read_bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn truncated_varint_is_eof() {
        let mut buf = Vec::new();
        write_uvarint(&mut buf, 1_000_000);
        buf.pop();
        assert_eq!(
            Reader::new(&buf).read_uvarint(),
            Err(WireError::UnexpectedEof)
        );
    }

    #[test]
    fn oversized_varint_is_overflow() {
        let buf = [0xFFu8; 11];
        assert_eq!(
            Reader::new(&buf).read_uvarint(),
            Err(WireError::VarintOverflow)
        );
    }

    #[test]
    fn length_prefix_beyond_buffer_is_invalid() {
        let mut buf = Vec::new();
        write_uvarint(&mut buf, 100); // claims 100 bytes, provides none
        assert!(matches!(
            Reader::new(&buf).read_bytes(),
            Err(WireError::InvalidLength(100))
        ));
    }

    #[test]
    fn invalid_utf8_detected() {
        let mut buf = Vec::new();
        write_bytes(&mut buf, &[0xFF, 0xFE]);
        assert_eq!(Reader::new(&buf).read_str(), Err(WireError::InvalidUtf8));
    }

    #[test]
    fn finish_rejects_unread_bytes() {
        let mut buf = Vec::new();
        write_uvarint(&mut buf, 7);
        let mut r = Reader::new(&buf);
        assert_eq!(r.finish(), Err(WireError::InvalidLength(1)));
        r.read_uvarint().unwrap();
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn reader_tracks_position() {
        let mut buf = Vec::new();
        write_uvarint(&mut buf, 5);
        write_uvarint(&mut buf, 6);
        let mut r = Reader::new(&buf);
        assert_eq!(r.remaining(), 2);
        r.read_uvarint().unwrap();
        assert_eq!(r.remaining(), 1);
    }
}
