//! A dynamically-typed, Thrift-like value model with tagged binary
//! encoding.
//!
//! Production services serialize deeply nested structures (feed stories,
//! cache objects, query rows) through Thrift; [`Value`] reproduces that
//! shape — bools, integers, doubles, strings, binaries, lists, maps, and
//! field-tagged structs — along with a compact self-describing encoding.
//! FeedSim and TaoBench use it for their payloads, and the serialization
//! datacenter-tax microbenchmark measures its encode/decode cost.

use crate::wire::{self, Reader, WireError};
use std::collections::BTreeMap;

// Type tags, one byte each.
const TAG_BOOL_FALSE: u8 = 0x01;
const TAG_BOOL_TRUE: u8 = 0x02;
const TAG_I64: u8 = 0x03;
const TAG_F64: u8 = 0x04;
const TAG_STR: u8 = 0x05;
const TAG_BIN: u8 = 0x06;
const TAG_LIST: u8 = 0x07;
const TAG_MAP: u8 = 0x08;
const TAG_STRUCT: u8 = 0x09;

/// Sanity cap on decoded collection sizes, to keep malformed buffers from
/// triggering enormous allocations.
const MAX_COLLECTION: u64 = 1 << 28;

/// A dynamically-typed RPC value.
///
/// # Examples
///
/// ```
/// use dcperf_rpc::Value;
///
/// let story = Value::Struct(vec![
///     (1, Value::I64(42)),                    // story id
///     (2, Value::Str("hello world".into())),  // text
///     (3, Value::List(vec![Value::F64(0.9), Value::F64(0.1)])), // features
/// ]);
/// let bytes = story.encode();
/// let back = Value::decode(&bytes)?;
/// assert_eq!(story, back);
/// # Ok::<(), dcperf_rpc::wire::WireError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A boolean.
    Bool(bool),
    /// A signed 64-bit integer (zigzag varint on the wire).
    I64(i64),
    /// A double.
    F64(f64),
    /// A UTF-8 string.
    Str(String),
    /// An opaque byte string.
    Bin(Vec<u8>),
    /// A homogeneously-typed-by-convention list.
    List(Vec<Value>),
    /// A string-keyed map.
    Map(BTreeMap<String, Value>),
    /// A struct: ordered `(field id, value)` pairs.
    Struct(Vec<(u32, Value)>),
}

impl Value {
    /// Encodes the value into a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        self.encode_into(&mut out);
        out
    }

    /// Appends the encoding of the value to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Value::Bool(false) => out.push(TAG_BOOL_FALSE),
            Value::Bool(true) => out.push(TAG_BOOL_TRUE),
            Value::I64(v) => {
                out.push(TAG_I64);
                wire::write_ivarint(out, *v);
            }
            Value::F64(v) => {
                out.push(TAG_F64);
                wire::write_f64(out, *v);
            }
            Value::Str(s) => {
                out.push(TAG_STR);
                wire::write_str(out, s);
            }
            Value::Bin(b) => {
                out.push(TAG_BIN);
                wire::write_bytes(out, b);
            }
            Value::List(items) => {
                out.push(TAG_LIST);
                wire::write_uvarint(out, items.len() as u64);
                for item in items {
                    item.encode_into(out);
                }
            }
            Value::Map(map) => {
                out.push(TAG_MAP);
                wire::write_uvarint(out, map.len() as u64);
                for (k, v) in map {
                    wire::write_str(out, k);
                    v.encode_into(out);
                }
            }
            Value::Struct(fields) => {
                out.push(TAG_STRUCT);
                wire::write_uvarint(out, fields.len() as u64);
                for (id, v) in fields {
                    wire::write_uvarint(out, *id as u64);
                    v.encode_into(out);
                }
            }
        }
    }

    /// Decodes a value from `buf`, requiring the buffer to be fully
    /// consumed.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on malformed input or trailing bytes.
    pub fn decode(buf: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(buf);
        let v = Self::decode_from(&mut r)?;
        r.finish()?;
        Ok(v)
    }

    /// Decodes a value at the reader's position.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on malformed input.
    pub fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.read_u8()? {
            TAG_BOOL_FALSE => Ok(Value::Bool(false)),
            TAG_BOOL_TRUE => Ok(Value::Bool(true)),
            TAG_I64 => Ok(Value::I64(r.read_ivarint()?)),
            TAG_F64 => Ok(Value::F64(r.read_f64()?)),
            TAG_STR => Ok(Value::Str(r.read_str()?.to_owned())),
            TAG_BIN => Ok(Value::Bin(r.read_bytes()?.to_vec())),
            TAG_LIST => {
                let n = checked_len(r.read_uvarint()?, r)?;
                let mut items = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    items.push(Self::decode_from(r)?);
                }
                Ok(Value::List(items))
            }
            TAG_MAP => {
                let n = checked_len(r.read_uvarint()?, r)?;
                let mut map = BTreeMap::new();
                for _ in 0..n {
                    let k = r.read_str()?.to_owned();
                    let v = Self::decode_from(r)?;
                    map.insert(k, v);
                }
                Ok(Value::Map(map))
            }
            TAG_STRUCT => {
                let n = checked_len(r.read_uvarint()?, r)?;
                let mut fields = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    let id = r.read_uvarint()? as u32;
                    let v = Self::decode_from(r)?;
                    fields.push((id, v));
                }
                Ok(Value::Struct(fields))
            }
            other => Err(WireError::UnknownTag(other)),
        }
    }

    /// Looks up a struct field by id. Returns `None` for non-structs.
    pub fn field(&self, id: u32) -> Option<&Value> {
        match self {
            Value::Struct(fields) => fields.iter().find(|(fid, _)| *fid == id).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `i64`, if it is one.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as bytes, if it is a binary.
    pub fn as_bin(&self) -> Option<&[u8]> {
        match self {
            Value::Bin(b) => Some(b),
            _ => None,
        }
    }
}

fn checked_len(n: u64, r: &Reader<'_>) -> Result<usize, WireError> {
    // An element costs at least one byte, so a length beyond the remaining
    // buffer (or the absolute cap) is malformed.
    if n > MAX_COLLECTION || n > r.remaining() as u64 {
        return Err(WireError::InvalidLength(n));
    }
    Ok(n as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Value) {
        let bytes = v.encode();
        let back = Value::decode(&bytes).unwrap();
        assert_eq!(*v, back);
    }

    #[test]
    fn scalars_round_trip() {
        round_trip(&Value::Bool(true));
        round_trip(&Value::Bool(false));
        round_trip(&Value::I64(0));
        round_trip(&Value::I64(i64::MIN));
        round_trip(&Value::I64(i64::MAX));
        round_trip(&Value::F64(-1234.5e-6));
        round_trip(&Value::Str(String::new()));
        round_trip(&Value::Str("日本語 text".into()));
        round_trip(&Value::Bin(vec![0u8; 1000]));
    }

    #[test]
    fn nested_structures_round_trip() {
        let mut map = BTreeMap::new();
        map.insert("scores".into(), Value::List(vec![Value::F64(1.0)]));
        map.insert("name".into(), Value::Str("obj".into()));
        let v = Value::Struct(vec![
            (1, Value::I64(7)),
            (2, Value::Map(map)),
            (
                9,
                Value::List(vec![
                    Value::Struct(vec![(1, Value::Bool(true))]),
                    Value::Struct(vec![]),
                ]),
            ),
        ]);
        round_trip(&v);
    }

    #[test]
    fn empty_collections_round_trip() {
        round_trip(&Value::List(vec![]));
        round_trip(&Value::Map(BTreeMap::new()));
        round_trip(&Value::Struct(vec![]));
    }

    #[test]
    fn field_lookup() {
        let v = Value::Struct(vec![(1, Value::I64(5)), (3, Value::Str("x".into()))]);
        assert_eq!(v.field(1).and_then(Value::as_i64), Some(5));
        assert_eq!(v.field(3).and_then(Value::as_str), Some("x"));
        assert!(v.field(2).is_none());
        assert!(Value::I64(1).field(1).is_none());
    }

    #[test]
    fn accessors_reject_wrong_types() {
        assert_eq!(Value::Str("5".into()).as_i64(), None);
        assert_eq!(Value::I64(5).as_str(), None);
        assert_eq!(Value::Str("b".into()).as_bin(), None);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = Value::Bool(true).encode();
        bytes.push(0x00);
        assert!(Value::decode(&bytes).is_err());
    }

    #[test]
    fn unknown_tag_rejected() {
        assert_eq!(Value::decode(&[0x7F]), Err(WireError::UnknownTag(0x7F)));
    }

    #[test]
    fn huge_claimed_list_rejected_without_allocation() {
        let mut bytes = vec![TAG_LIST];
        crate::wire::write_uvarint(&mut bytes, u64::MAX / 2);
        assert!(matches!(
            Value::decode(&bytes),
            Err(WireError::InvalidLength(_))
        ));
    }

    #[test]
    fn truncated_nested_value_is_error_not_panic() {
        let v = Value::List(vec![Value::I64(1), Value::Str("abc".into())]);
        let bytes = v.encode();
        for cut in 0..bytes.len() {
            let _ = Value::decode(&bytes[..cut]); // must not panic
        }
    }
}
