//! The binary codec for data-layer types: values, schemas, tuples,
//! relations.
//!
//! This is the single encoding used everywhere bytes of data cross a
//! boundary — the server's wire protocol (`certus-server`'s `protocol`
//! module layers its request/response grammar and the algebra-expression
//! codecs on top of these functions) and the durable storage layer
//! ([`crate::data::wal`]), whose log records and checkpoints are these same bytes
//! wrapped in checksummed envelopes. Sharing one codec means a relation
//! inserted over TCP, logged to the WAL, and read back after a crash is
//! byte-identical at every hop.
//!
//! Conventions: integers are little-endian, floats travel as IEEE-754 bits,
//! strings as `u32` length + UTF-8 bytes, options as a presence byte,
//! collections as `u32` count + elements. Decoding is strict: unknown tags,
//! truncations, non-UTF-8 strings and hostile collection counts all fail
//! with [`CodecError`] instead of panicking or over-allocating.

use crate::data::null::NullId;
use crate::data::relation::Relation;
use crate::data::schema::{Attribute, Schema};
use crate::data::tuple::Tuple;
use crate::data::types::ValueType;
use crate::data::value::Value;
use std::sync::Arc;

/// A decoding failure: truncation, an unknown tag, bad UTF-8, a hostile
/// length. Carries a human-readable description of the violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CodecError {}

/// Result alias for decoding operations.
pub(crate) type CodecResult<T> = Result<T, CodecError>;

fn bad(msg: impl Into<String>) -> CodecError {
    CodecError(msg.into())
}

// ---------------------------------------------------------------------------
// Primitive encoders.

/// Append one byte.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Append a `u32`, little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64`, little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append an `i64`, little-endian.
pub(crate) fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append an `i32`, little-endian.
pub(crate) fn put_i32(out: &mut Vec<u8>, v: i32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a string as `u32` byte length + UTF-8 bytes.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Append a bool as one byte (0 or 1).
pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(v as u8);
}

/// Append an option as a presence byte followed by the value when present.
pub fn put_opt<T>(out: &mut Vec<u8>, v: Option<&T>, put: impl FnOnce(&mut Vec<u8>, &T)) {
    match v {
        Some(v) => {
            out.push(1);
            put(out, v);
        }
        None => out.push(0),
    }
}

/// A cursor over an encoded payload with bounds-checked reads.
pub struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// Start reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, at: 0 }
    }

    /// Take the next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> CodecResult<&'a [u8]> {
        let end = self.at.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.at..end];
                self.at = end;
                Ok(s)
            }
            None => Err(bad(format!(
                "truncated payload: wanted {n} bytes at offset {} of {}",
                self.at,
                self.buf.len()
            ))),
        }
    }

    /// Read one byte.
    pub fn u8(&mut self) -> CodecResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> CodecResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> CodecResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self) -> CodecResult<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a little-endian `i32`.
    pub fn i32(&mut self) -> CodecResult<i32> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> CodecResult<String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| bad("string is not UTF-8"))
    }

    /// Read a bool byte (anything other than 0/1 is malformed).
    pub fn bool(&mut self) -> CodecResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(bad(format!("bad bool byte {other}"))),
        }
    }

    /// A collection length, sanity-capped by the bytes actually remaining
    /// (every element takes ≥ 1 byte) so hostile lengths cannot force huge
    /// allocations.
    #[allow(clippy::len_without_is_empty)] // reads a length prefix; not a container
    pub fn len(&mut self) -> CodecResult<usize> {
        let n = self.u32()? as usize;
        let left = self.buf.len() - self.at;
        if n > left {
            return Err(bad(format!("length {n} exceeds remaining {left} bytes")));
        }
        Ok(n)
    }

    /// Require the payload to be fully consumed (trailing bytes are
    /// malformed).
    pub fn finish(&self) -> CodecResult<()> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(bad(format!("{} trailing bytes", self.buf.len() - self.at)))
        }
    }
}

/// Read an option encoded by [`put_opt`].
pub fn get_opt<T>(
    r: &mut Reader<'_>,
    get: impl FnOnce(&mut Reader<'_>) -> CodecResult<T>,
) -> CodecResult<Option<T>> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(get(r)?)),
        other => Err(bad(format!("bad option byte {other}"))),
    }
}

// ---------------------------------------------------------------------------
// Data-layer encoders.

/// Append a [`Value`]: `u8` tag (null 0, int 1, float 2, decimal 3, str 4,
/// bool 5, date 6), then the body.
pub fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null(NullId(id)) => {
            put_u8(out, 0);
            put_u64(out, *id);
        }
        Value::Int(i) => {
            put_u8(out, 1);
            put_i64(out, *i);
        }
        Value::Float(f) => {
            put_u8(out, 2);
            put_u64(out, f.to_bits());
        }
        Value::Decimal(d) => {
            put_u8(out, 3);
            put_i64(out, *d);
        }
        Value::Str(s) => {
            put_u8(out, 4);
            put_str(out, s);
        }
        Value::Bool(b) => {
            put_u8(out, 5);
            put_bool(out, *b);
        }
        Value::Date(d) => {
            put_u8(out, 6);
            put_i32(out, *d);
        }
    }
}

/// Read a [`Value`] encoded by [`put_value`].
pub fn get_value(r: &mut Reader<'_>) -> CodecResult<Value> {
    Ok(match r.u8()? {
        0 => Value::Null(NullId(r.u64()?)),
        1 => Value::Int(r.i64()?),
        2 => Value::Float(f64::from_bits(r.u64()?)),
        3 => Value::Decimal(r.i64()?),
        4 => Value::str(r.str()?),
        5 => Value::Bool(r.bool()?),
        6 => Value::Date(r.i32()?),
        other => return Err(bad(format!("unknown value tag {other}"))),
    })
}

/// Append a [`ValueType`] as one byte.
pub(crate) fn put_value_type(out: &mut Vec<u8>, ty: ValueType) {
    put_u8(
        out,
        match ty {
            ValueType::Int => 0,
            ValueType::Float => 1,
            ValueType::Decimal => 2,
            ValueType::Str => 3,
            ValueType::Bool => 4,
            ValueType::Date => 5,
            ValueType::Any => 6,
        },
    );
}

/// Read a [`ValueType`] encoded by [`put_value_type`].
pub(crate) fn get_value_type(r: &mut Reader<'_>) -> CodecResult<ValueType> {
    Ok(match r.u8()? {
        0 => ValueType::Int,
        1 => ValueType::Float,
        2 => ValueType::Decimal,
        3 => ValueType::Str,
        4 => ValueType::Bool,
        5 => ValueType::Date,
        6 => ValueType::Any,
        other => return Err(bad(format!("unknown value type {other}"))),
    })
}

/// Append a [`Schema`] as `u32` attribute count + (name, type, nullable)
/// triples.
pub fn put_schema(out: &mut Vec<u8>, schema: &Schema) {
    put_u32(out, schema.attrs().len() as u32);
    for a in schema.attrs() {
        put_str(out, &a.name);
        put_value_type(out, a.ty);
        put_bool(out, a.nullable);
    }
}

/// Read a [`Schema`] encoded by [`put_schema`].
pub fn get_schema(r: &mut Reader<'_>) -> CodecResult<Schema> {
    let n = r.len()?;
    let mut attrs = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.str()?;
        let ty = get_value_type(r)?;
        let nullable = r.bool()?;
        attrs.push(Attribute { name, ty, nullable });
    }
    Ok(Schema::new(attrs))
}

/// Append a [`Tuple`] as `u32` arity + values.
pub fn put_tuple(out: &mut Vec<u8>, t: &Tuple) {
    put_u32(out, t.values().len() as u32);
    for v in t.values() {
        put_value(out, v);
    }
}

/// Read a [`Tuple`] encoded by [`put_tuple`].
pub fn get_tuple(r: &mut Reader<'_>) -> CodecResult<Tuple> {
    let n = r.len()?;
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        values.push(get_value(r)?);
    }
    Ok(Tuple::new(values))
}

/// Append a [`Relation`] as its schema + `u32` row count + tuples.
pub fn put_relation(out: &mut Vec<u8>, rel: &Relation) {
    put_schema(out, rel.schema());
    put_u32(out, rel.len() as u32);
    for t in rel.tuples() {
        put_tuple(out, t);
    }
}

/// Read a [`Relation`] encoded by [`put_relation`].
pub fn get_relation(r: &mut Reader<'_>) -> CodecResult<Relation> {
    let schema = Arc::new(get_schema(r)?);
    let n = r.len()?;
    let mut tuples = Vec::with_capacity(n);
    for _ in 0..n {
        tuples.push(get_tuple(r)?);
    }
    Ok(Relation::from_parts(schema, tuples))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::builder::rel;

    fn sample_values() -> Vec<Value> {
        vec![
            Value::Null(NullId(7)),
            Value::Int(-42),
            Value::Float(2.5),
            Value::Decimal(1234),
            Value::str("héllo"),
            Value::Bool(true),
            Value::Date(19345),
        ]
    }

    #[test]
    fn values_round_trip() {
        for v in sample_values() {
            let mut buf = Vec::new();
            put_value(&mut buf, &v);
            let mut r = Reader::new(&buf);
            assert_eq!(get_value(&mut r).unwrap(), v);
            r.finish().unwrap();
        }
    }

    #[test]
    fn relations_round_trip() {
        let relation = rel(
            &["a", "b"],
            vec![
                vec![Value::Int(1), Value::str("x")],
                vec![Value::Null(NullId(3)), Value::str("y")],
            ],
        );
        let mut buf = Vec::new();
        put_relation(&mut buf, &relation);
        let mut r = Reader::new(&buf);
        let back = get_relation(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, relation);
    }

    #[test]
    fn truncations_fail_cleanly() {
        let relation = rel(&["a"], vec![vec![Value::str("long-ish string")]]);
        let mut buf = Vec::new();
        put_relation(&mut buf, &relation);
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            let decoded = get_relation(&mut r).and_then(|rel| r.finish().map(|()| rel));
            assert!(decoded.is_err(), "truncation at {cut} must fail");
        }
    }

    #[test]
    fn hostile_lengths_are_capped() {
        // A u32 count far beyond the remaining bytes must fail before any
        // allocation is attempted.
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX);
        let mut r = Reader::new(&buf);
        assert!(r.len().is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut buf = Vec::new();
        put_value(&mut buf, &Value::Int(1));
        buf.push(0);
        let mut r = Reader::new(&buf);
        get_value(&mut r).unwrap();
        assert!(r.finish().is_err());
    }
}
