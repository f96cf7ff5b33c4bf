//! Tuples and their binary encoding.
//!
//! The storage layer stores tuples as opaque byte strings inside slotted
//! pages; [`Tuple::encode`] / [`Tuple::decode`] define that format:
//!
//! ```text
//! [u16 value-count] then per value:
//!   tag 0 = Null
//!   tag 1 = Bool  + 1 byte
//!   tag 2 = Int   + 8 bytes LE
//!   tag 3 = Float + 8 bytes LE (f64 bits)
//!   tag 4 = Str   + u32 LE length + UTF-8 bytes
//! ```
//!
//! The format is self-describing (no schema needed to decode), which keeps
//! heap-file scans and B+-tree payloads simple and makes corruption loudly
//! detectable.

use std::fmt;

use crate::error::{EvoptError, Result};
use crate::value::Value;

/// A row: an ordered list of values.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Tuple {
    values: Vec<Value>,
}

impl Tuple {
    pub fn new(values: Vec<Value>) -> Self {
        Tuple { values }
    }

    pub fn values(&self) -> &[Value] {
        &self.values
    }

    pub fn into_values(self) -> Vec<Value> {
        self.values
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn value(&self, idx: usize) -> Result<&Value> {
        self.values
            .get(idx)
            .ok_or_else(|| EvoptError::Execution(format!("tuple index {idx} out of range")))
    }

    /// Concatenate two tuples (join output).
    pub fn join(&self, other: &Tuple) -> Tuple {
        let mut values = Vec::with_capacity(self.len() + other.len());
        values.extend_from_slice(&self.values);
        values.extend_from_slice(&other.values);
        Tuple::new(values)
    }

    /// Keep only the values at `indices`, in that order.
    pub fn project(&self, indices: &[usize]) -> Result<Tuple> {
        let mut values = Vec::with_capacity(indices.len());
        for &i in indices {
            values.push(self.value(i)?.clone());
        }
        Ok(Tuple::new(values))
    }

    /// Serialised size in bytes (what `encode` will produce).
    pub fn encoded_len(&self) -> usize {
        let mut n = 2;
        for v in &self.values {
            n += 1 + match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Float(_) => 8,
                Value::Str(s) => 4 + s.len(),
            };
        }
        n
    }

    /// Serialise to the storage format described in the module docs.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        buf.extend_from_slice(&(self.values.len() as u16).to_le_bytes());
        for v in &self.values {
            match v {
                Value::Null => buf.push(0),
                Value::Bool(b) => {
                    buf.push(1);
                    buf.push(*b as u8);
                }
                Value::Int(i) => {
                    buf.push(2);
                    buf.extend_from_slice(&i.to_le_bytes());
                }
                Value::Float(f) => {
                    buf.push(3);
                    buf.extend_from_slice(&f.to_bits().to_le_bytes());
                }
                Value::Str(s) => {
                    buf.push(4);
                    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
                    buf.extend_from_slice(s.as_bytes());
                }
            }
        }
        buf
    }

    /// Deserialise from the storage format; errors on truncation or bad tags.
    pub fn decode(bytes: &[u8]) -> Result<Tuple> {
        let mut t = Tuple::default();
        Tuple::decode_into(bytes, None, &mut t)?;
        Ok(t)
    }

    /// Deserialise only the fields at `cols`, which must be strictly
    /// increasing: equal to `decode(bytes)?.project(cols)`.
    pub fn decode_projected(bytes: &[u8], cols: &[usize]) -> Result<Tuple> {
        let mut t = Tuple::default();
        Tuple::decode_into(bytes, Some(cols), &mut t)?;
        Ok(t)
    }

    /// Deserialise the fields at `cols` (strictly increasing), or all of
    /// them for `None`, into `out`, reusing its allocations: each kept field
    /// overwrites its slot in place, and a kept string is copied into the
    /// `String` already in that slot, so decoding row after row into one
    /// `Tuple` allocates only when a string outgrows its buffer. On error
    /// `out` holds some prefix. Each field is walked once, and only a kept
    /// one is stored: a skipped one allocates nothing but is still checked
    /// (truncation, tag, UTF-8), so a projection never hides a corrupt row.
    pub fn decode_into(bytes: &[u8], cols: Option<&[usize]>, out: &mut Tuple) -> Result<()> {
        let values = &mut out.values;
        let mut kept = 0;
        let walked = (|| {
            let (count, mut rest) = bytes.split_first_chunk().ok_or_else(truncated)?;
            let count = u16::from_le_bytes(*count) as usize;
            let wanted = cols.map_or(count, <[usize]>::len);
            values.reserve(wanted.saturating_sub(values.len()));
            for i in 0..count {
                // The next wanted column is the one after those kept so far.
                let keep = cols.is_none_or(|c| c.get(kept) == Some(&i));
                let (&tag, tail) = rest.split_first().ok_or_else(truncated)?;
                let (value, tail) = match tag {
                    0 => (Value::Null, tail),
                    1 => {
                        let (b, tail) = tail.split_first().ok_or_else(truncated)?;
                        (Value::Bool(*b != 0), tail)
                    }
                    2 => {
                        let (b, tail) = tail.split_first_chunk().ok_or_else(truncated)?;
                        (Value::Int(i64::from_le_bytes(*b)), tail)
                    }
                    3 => {
                        let (b, tail) = tail.split_first_chunk().ok_or_else(truncated)?;
                        (Value::Float(f64::from_bits(u64::from_le_bytes(*b))), tail)
                    }
                    4 => {
                        let (len, tail) = tail.split_first_chunk().ok_or_else(truncated)?;
                        let len = u32::from_le_bytes(*len) as usize;
                        let (s, tail) = tail.split_at_checked(len).ok_or_else(truncated)?;
                        let s = std::str::from_utf8(s).map_err(|_| bad_utf8())?;
                        // A kept string takes over the buffer of the string
                        // in its slot; a skipped one is checked, not copied.
                        let mut buf = match values.get_mut(kept) {
                            Some(Value::Str(old)) if keep => std::mem::take(old),
                            _ => String::new(),
                        };
                        if keep {
                            buf.clear();
                            buf.push_str(s);
                        }
                        (Value::Str(buf), tail)
                    }
                    t => return Err(bad_tag(t)),
                };
                if keep {
                    match values.get_mut(kept) {
                        Some(slot) => *slot = value,
                        None => values.push(value),
                    }
                    kept += 1;
                }
                rest = tail;
            }
            Ok(())
        })();
        values.truncate(kept);
        walked?;
        match cols {
            Some(cols) if kept != cols.len() => Err(not_increasing(cols)),
            _ => Ok(()),
        }
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{v}")?;
        }
        f.write_str(")")
    }
}

#[cold]
fn truncated() -> EvoptError {
    EvoptError::Storage("truncated tuple".into())
}

#[cold]
fn bad_tag(t: u8) -> EvoptError {
    EvoptError::Storage(format!("invalid value tag {t} in stored tuple"))
}

#[cold]
fn bad_utf8() -> EvoptError {
    EvoptError::Storage("invalid UTF-8 in stored string".into())
}

#[cold]
fn not_increasing(cols: &[usize]) -> EvoptError {
    EvoptError::Execution(format!(
        "projection {cols:?} is not strictly increasing within the stored row"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(t: &Tuple) {
        let bytes = t.encode();
        assert_eq!(bytes.len(), t.encoded_len());
        let back = Tuple::decode(&bytes).unwrap();
        assert_eq!(&back, t);
    }

    #[test]
    fn roundtrip_all_types() {
        roundtrip(&Tuple::new(vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(-42),
            Value::Float(3.25),
            Value::Str("hello world".into()),
        ]));
    }

    #[test]
    fn roundtrip_empty() {
        roundtrip(&Tuple::new(vec![]));
    }

    #[test]
    fn decode_truncated_errors() {
        let bytes = Tuple::new(vec![Value::Int(5)]).encode();
        for cut in 0..bytes.len() {
            assert!(Tuple::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn decode_bad_tag_errors() {
        let mut bytes = Tuple::new(vec![Value::Int(5)]).encode();
        bytes[2] = 99;
        let e = Tuple::decode(&bytes).unwrap_err();
        assert_eq!(e.kind(), "storage");
    }

    #[test]
    fn join_and_project() {
        let a = Tuple::new(vec![Value::Int(1), Value::Int(2)]);
        let b = Tuple::new(vec![Value::Str("x".into())]);
        let j = a.join(&b);
        assert_eq!(j.len(), 3);
        let p = j.project(&[2, 0]).unwrap();
        assert_eq!(p.values(), &[Value::Str("x".into()), Value::Int(1)]);
        assert!(j.project(&[7]).is_err());
    }

    #[test]
    fn display() {
        let t = Tuple::new(vec![Value::Int(1), Value::Null]);
        assert_eq!(t.to_string(), "(1, NULL)");
    }

    fn arb_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::Int),
            any::<f64>().prop_map(Value::Float),
            ".{0,64}".prop_map(Value::Str),
        ]
    }

    /// The strictly increasing projection a mask selects.
    fn chosen(mask: &[bool]) -> Vec<usize> {
        (0..mask.len()).filter(|&i| mask[i]).collect()
    }

    proptest! {
        #[test]
        fn prop_encode_decode_roundtrip(values in prop::collection::vec(arb_value(), 0..20)) {
            let t = Tuple::new(values);
            let bytes = t.encode();
            prop_assert_eq!(bytes.len(), t.encoded_len());
            let back = Tuple::decode(&bytes).unwrap();
            // NaN payloads survive bit-exactly, so Eq (total order) holds.
            prop_assert_eq!(back, t);
        }

        #[test]
        fn prop_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
            let _ = Tuple::decode(&bytes); // must not panic, may error
        }

        #[test]
        fn prop_projected_decode_is_decode_then_project(
            values in prop::collection::vec(arb_value(), 0..20),
            mask in prop::collection::vec(any::<bool>(), 0..24),
        ) {
            let bytes = Tuple::new(values).encode();
            let cols = chosen(&mask);
            let want = Tuple::decode(&bytes).and_then(|t| t.project(&cols));
            prop_assert_eq!(Tuple::decode_projected(&bytes, &cols).ok(), want.ok());
        }

        /// Skipping a field never skips its check: on any bytes, with any
        /// strictly increasing projection (in range or not), the projected
        /// decode fails exactly when decode-then-project does, and never
        /// panics.
        #[test]
        fn prop_projected_decode_checks_every_field(
            bytes in prop::collection::vec(any::<u8>(), 0..256),
            mask in prop::collection::vec(any::<bool>(), 0..8),
        ) {
            let cols = chosen(&mask);
            let want = Tuple::decode(&bytes).and_then(|t| t.project(&cols));
            prop_assert_eq!(Tuple::decode_projected(&bytes, &cols).ok(), want.ok());
        }

        /// The same, over rows that are well formed except for one flipped
        /// byte: a bad tag, a torn length or broken UTF-8 in a skipped
        /// string, which random bytes rarely reach.
        #[test]
        fn prop_projected_decode_rejects_a_damaged_skipped_field(
            values in prop::collection::vec(arb_value(), 1..12),
            at in any::<usize>(),
            byte in any::<u8>(),
            mask in prop::collection::vec(any::<bool>(), 0..12),
        ) {
            let mut bytes = Tuple::new(values).encode();
            let i = at % bytes.len();
            bytes[i] = byte;
            let cols = chosen(&mask);
            let want = Tuple::decode(&bytes).and_then(|t| t.project(&cols));
            prop_assert_eq!(Tuple::decode_projected(&bytes, &cols).ok(), want.ok());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Decoding into a row that already holds another row, as a scan
        /// reuses its row, gives what a fresh decode gives, on well-formed,
        /// damaged, truncated and random bytes alike, and never panics;
        /// `None` keeps every column. With `like_old` the new row has the
        /// old one's types and every string another length, so each kept
        /// string lands on a string buffer. A truncated row leaves a prefix
        /// of the fields it keeps behind.
        #[test]
        fn prop_decode_into_a_used_row_is_decode_then_project(
            values in prop::collection::vec(arb_value(), 0..12),
            noise in prop::collection::vec(any::<u8>(), 0..64),
            old in prop::collection::vec(arb_value(), 0..12),
            like_old in any::<bool>(),
            mask in prop::collection::vec(any::<bool>(), 0..14),
            whole in any::<bool>(),
            damage in (any::<usize>(), any::<u8>(), any::<usize>()),
        ) {
            let values = if like_old {
                old.iter()
                    .map(|v| match v {
                        Value::Str(s) => Value::Str(s.chars().rev().chain(['x']).collect()),
                        v => v.clone(),
                    })
                    .collect()
            } else {
                values
            };
            let cols = (!whole).then(|| chosen(&mask));
            let project = |t: Tuple| match cols.as_deref() {
                Some(c) => t.project(c),
                None => Ok(t),
            };
            let good = Tuple::new(values).encode();
            let (at, byte, cut) = damage;
            let mut damaged = good.clone();
            damaged[at % good.len()] = byte;
            let truncated = good[..cut % good.len()].to_vec();
            for bytes in [&good, &damaged, &truncated, &noise] {
                let want = Tuple::decode(bytes).and_then(project);
                let mut row = Tuple::new(old.clone());
                let got = Tuple::decode_into(bytes, cols.as_deref(), &mut row).map(|()| row);
                prop_assert_eq!(got.ok(), want.ok());
            }
            let mut row = Tuple::new(old.clone());
            if Tuple::decode_into(&truncated, cols.as_deref(), &mut row).is_err() {
                if let Ok(full) = Tuple::decode(&good).and_then(project) {
                    prop_assert!(full.values().starts_with(row.values()));
                }
            }
        }
    }

    #[test]
    fn projected_decode_checks_a_skipped_string() {
        let mut bytes = Tuple::new(vec![Value::Int(1), Value::Str("ok".into())]).encode();
        let last = bytes.len() - 1;
        bytes[last] = 0xff; // invalid UTF-8 in column 1
        assert!(Tuple::decode(&bytes).is_err());
        let e = Tuple::decode_projected(&bytes, &[0]).unwrap_err();
        assert_eq!(e.kind(), "storage");
        assert!(
            Tuple::decode_projected(&[1, 0, 2], &[]).is_err(),
            "truncated"
        );
        let good = Tuple::new(vec![Value::Int(1), Value::Null]).encode();
        assert!(Tuple::decode_projected(&good, &[1, 0]).is_err(), "unsorted");
        assert!(
            Tuple::decode_projected(&good, &[2]).is_err(),
            "out of range"
        );
    }
}
