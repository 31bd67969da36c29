//! Record-batch serialization, the "Serialization" tax slice of Figure 12.
//!
//! Models the hot path of Thrift/row-format serializers: typed fields,
//! varint integers, length-prefixed strings, batched rows. SparkBench uses
//! the same codec for shuffle spills, so the tax is paid where production
//! pays it. Integers, doubles and length prefixes go through the RPC
//! layer's compact wire codec ([`dcperf_rpc::wire`]), so the workspace has
//! one varint/zigzag implementation.

use dcperf_rpc::wire::{self, Reader, WireError};

/// A typed field value.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// A signed integer (zigzag varint).
    I64(i64),
    /// A double.
    F64(f64),
    /// A UTF-8 string.
    Str(String),
    /// Raw bytes.
    Bytes(Vec<u8>),
}

/// One record: an ordered list of field values. The schema (field names
/// and types) is carried out of band, as in columnar formats.
pub type Record = Vec<FieldValue>;

/// Errors from decoding a record batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SerializeError {
    /// Input ended early.
    Truncated,
    /// Unknown field type tag.
    BadTag(u8),
    /// Invalid UTF-8 in a string field.
    BadUtf8,
    /// Varint malformed.
    BadVarint,
}

impl std::fmt::Display for SerializeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SerializeError::Truncated => write!(f, "record batch truncated"),
            SerializeError::BadTag(t) => write!(f, "unknown field tag {t}"),
            SerializeError::BadUtf8 => write!(f, "invalid utf-8 in string field"),
            SerializeError::BadVarint => write!(f, "malformed varint"),
        }
    }
}

impl std::error::Error for SerializeError {}

const TAG_I64: u8 = 1;
const TAG_F64: u8 = 2;
const TAG_STR: u8 = 3;
const TAG_BYTES: u8 = 4;

impl From<WireError> for SerializeError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::UnexpectedEof | WireError::InvalidLength(_) => SerializeError::Truncated,
            WireError::VarintOverflow => SerializeError::BadVarint,
            WireError::UnknownTag(t) => SerializeError::BadTag(t),
            WireError::InvalidUtf8 => SerializeError::BadUtf8,
        }
    }
}

/// Serializes a batch of records into `out`, returning bytes written.
pub fn encode_batch(records: &[Record], out: &mut Vec<u8>) -> usize {
    let before = out.len();
    wire::write_uvarint(out, records.len() as u64);
    for record in records {
        wire::write_uvarint(out, record.len() as u64);
        for field in record {
            match field {
                FieldValue::I64(v) => {
                    out.push(TAG_I64);
                    wire::write_ivarint(out, *v);
                }
                FieldValue::F64(v) => {
                    out.push(TAG_F64);
                    wire::write_f64(out, *v);
                }
                FieldValue::Str(s) => {
                    out.push(TAG_STR);
                    wire::write_str(out, s);
                }
                FieldValue::Bytes(b) => {
                    out.push(TAG_BYTES);
                    wire::write_bytes(out, b);
                }
            }
        }
    }
    out.len() - before
}

/// Decodes a batch written by [`encode_batch`], returning the records and
/// the number of bytes consumed.
///
/// # Errors
///
/// Returns a [`SerializeError`] on malformed input.
pub fn decode_batch(buf: &[u8]) -> Result<(Vec<Record>, usize), SerializeError> {
    let mut r = Reader::new(buf);
    let n_records = r.read_uvarint()? as usize;
    if n_records > buf.len() {
        return Err(SerializeError::Truncated);
    }
    let mut records = Vec::with_capacity(n_records.min(4096));
    for _ in 0..n_records {
        let n_fields = r.read_uvarint()? as usize;
        if n_fields > buf.len() {
            return Err(SerializeError::Truncated);
        }
        let mut record = Vec::with_capacity(n_fields.min(256));
        for _ in 0..n_fields {
            let field = match r.read_u8()? {
                TAG_I64 => FieldValue::I64(r.read_ivarint()?),
                TAG_F64 => FieldValue::F64(r.read_f64()?),
                TAG_STR => FieldValue::Str(r.read_str()?.to_owned()),
                TAG_BYTES => FieldValue::Bytes(r.read_bytes()?.to_vec()),
                other => return Err(SerializeError::BadTag(other)),
            };
            record.push(field);
        }
        records.push(record);
    }
    Ok((records, buf.len() - r.remaining()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<Record> {
        vec![
            vec![
                FieldValue::I64(-42),
                FieldValue::F64(3.25),
                FieldValue::Str("user_9".into()),
                FieldValue::Bytes(vec![1, 2, 3]),
            ],
            vec![FieldValue::I64(i64::MAX)],
            vec![],
            vec![FieldValue::Str(String::new())],
        ]
    }

    #[test]
    fn batch_round_trips() {
        let records = sample_records();
        let mut buf = Vec::new();
        let written = encode_batch(&records, &mut buf);
        assert_eq!(written, buf.len());
        let (decoded, consumed) = decode_batch(&buf).unwrap();
        assert_eq!(decoded, records);
        assert_eq!(consumed, buf.len());
    }

    #[test]
    fn empty_batch_round_trips() {
        let mut buf = Vec::new();
        encode_batch(&[], &mut buf);
        let (decoded, _) = decode_batch(&buf).unwrap();
        assert!(decoded.is_empty());
    }

    #[test]
    fn concatenated_batches_decode_sequentially() {
        let mut buf = Vec::new();
        encode_batch(&sample_records(), &mut buf);
        let first_len = buf.len();
        encode_batch(&[vec![FieldValue::I64(7)]], &mut buf);
        let (a, consumed) = decode_batch(&buf).unwrap();
        assert_eq!(consumed, first_len);
        assert_eq!(a, sample_records());
        let (b, _) = decode_batch(&buf[consumed..]).unwrap();
        assert_eq!(b, vec![vec![FieldValue::I64(7)]]);
    }

    #[test]
    fn truncation_is_an_error_never_a_panic() {
        let mut buf = Vec::new();
        encode_batch(&sample_records(), &mut buf);
        for cut in 0..buf.len() {
            let _ = decode_batch(&buf[..cut]);
        }
    }

    #[test]
    fn bad_tag_rejected() {
        let mut buf = Vec::new();
        wire::write_uvarint(&mut buf, 1); // 1 record
        wire::write_uvarint(&mut buf, 1); // 1 field
        buf.push(0xEE); // bogus tag
        assert_eq!(decode_batch(&buf), Err(SerializeError::BadTag(0xEE)));
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut buf = Vec::new();
        wire::write_uvarint(&mut buf, 1);
        wire::write_uvarint(&mut buf, 1);
        buf.push(TAG_STR);
        wire::write_uvarint(&mut buf, 2);
        buf.extend_from_slice(&[0xFF, 0xFE]);
        assert_eq!(decode_batch(&buf), Err(SerializeError::BadUtf8));
    }

    #[test]
    fn integers_use_zigzag_compactness() {
        let mut small = Vec::new();
        encode_batch(&[vec![FieldValue::I64(-1)]], &mut small);
        let mut large = Vec::new();
        encode_batch(&[vec![FieldValue::I64(i64::MIN)]], &mut large);
        assert!(small.len() < large.len());
    }
}
