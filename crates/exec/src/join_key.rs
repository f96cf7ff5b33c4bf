//! The hash operators' key tables: the hash join's build-side index, and
//! the hash both it and the hash aggregate's group map use.
//!
//! Build rows are indexed by their key `Value`, hashed and compared with
//! `Value`'s own `Hash`/`Eq`: `Int(7)` meets `Float(7.0)`, `Int(0)` does not
//! meet `Float(-0.0)` (the total order tells them apart), and a string never
//! meets a number. NULL keys are skipped at build and a NULL probe matches
//! nothing (SQL: NULL never joins), so the matches are the ones row-at-a-time
//! key comparison finds (the nested-loop and sort-merge joins are the
//! differential reference).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use evopt_common::{Result, Tuple, Value};

const NO_MATCHES: &[u32] = &[];

/// A hash table keyed on `Value`s, as the hash operators keep them.
pub(crate) type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<KeyHasher>>;

/// The hash of the operators' key tables: one multiply per word written,
/// then murmur3's finaliser, so the table's low bits depend on every bit
/// written (an `Int` key hashes as its `f64` bits, whose low bits are zero
/// for small integers). Unkeyed, like the Grace partitioning hash.
#[derive(Default)]
pub(crate) struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.write_u64(u64::from(i));
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    fn write_u64(&mut self, i: u64) {
        self.0 = (self.0.rotate_left(5) ^ i).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

/// Build-side key index: maps a key to the build-row indices carrying it.
/// NULL keys are never inserted.
pub struct JoinKeyMap(KeyMap<Value, Vec<u32>>);

impl JoinKeyMap {
    /// Index `rows` by the key column. Rows with NULL keys are skipped —
    /// they can never match a probe.
    pub fn build(rows: &[Tuple], key: usize) -> Result<JoinKeyMap> {
        let mut map: KeyMap<Value, Vec<u32>> = KeyMap::default();
        for (i, t) in rows.iter().enumerate() {
            let k = t.value(key)?;
            if !k.is_null() {
                map.entry(k.clone()).or_default().push(i as u32);
            }
        }
        Ok(JoinKeyMap(map))
    }

    /// Build-row indices matching a probe key. NULL probes match nothing.
    pub fn lookup(&self, probe: &Value) -> &[u32] {
        if probe.is_null() {
            return NO_MATCHES;
        }
        self.0.get(probe).map_or(NO_MATCHES, Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    fn t(vals: Vec<Value>) -> Tuple {
        Tuple::new(vals)
    }

    #[test]
    fn join_key_map_indexes_int_keys() {
        let rows = vec![
            t(vec![Value::Int(1)]),
            t(vec![Value::Null]),
            t(vec![Value::Int(1)]),
            t(vec![Value::Int(2)]),
        ];
        let map = JoinKeyMap::build(&rows, 0).unwrap();
        assert_eq!(map.lookup(&Value::Int(1)), &[0, 2]);
        assert_eq!(map.lookup(&Value::Int(2)), &[3]);
        assert!(map.lookup(&Value::Int(9)).is_empty());
        // NULL probes never match.
        assert!(map.lookup(&Value::Null).is_empty());
        // Cross-class probes never match.
        assert!(map.lookup(&Value::Str("1".into())).is_empty());
    }

    #[test]
    fn join_key_map_float_probe_against_int_keys() {
        let rows = vec![t(vec![Value::Int(7)]), t(vec![Value::Int(8)])];
        let map = JoinKeyMap::build(&rows, 0).unwrap();
        // A Float probe against Int keys must match numerically (SQL:
        // 7 = 7.0).
        assert_eq!(map.lookup(&Value::Float(7.0)), &[0]);
        assert!(map.lookup(&Value::Float(7.5)).is_empty());
        assert_eq!(map.lookup(&Value::Int(8)), &[1]);
    }

    #[test]
    fn join_key_map_int_probe_against_float_keys() {
        let rows = vec![t(vec![Value::Float(7.0)]), t(vec![Value::Float(-0.0)])];
        let map = JoinKeyMap::build(&rows, 0).unwrap();
        assert_eq!(map.lookup(&Value::Int(7)), &[0]);
        // Int 0 is +0.0; it must NOT match -0.0 (total_cmp distinguishes),
        // exactly like `Value` equality.
        assert!(map.lookup(&Value::Int(0)).is_empty());
        assert_eq!(map.lookup(&Value::Float(-0.0)), &[1]);
    }

    #[test]
    fn key_hasher_spreads_int_keys_over_the_low_bits() {
        // `Int(i)` hashes as the `f64` bits of `i`, whose low bits are all
        // zero; a table indexes its buckets by the hash's low bits.
        let low_bits: std::collections::HashSet<u64> = (0..256)
            .map(|i| {
                let mut h = KeyHasher::default();
                std::hash::Hash::hash(&Value::Int(i), &mut h);
                h.finish() & 0xff
            })
            .collect();
        assert!(low_bits.len() > 128, "{} distinct", low_bits.len());
    }

    #[test]
    fn join_key_map_mixed_keys() {
        let rows = vec![t(vec![Value::Int(1)]), t(vec![Value::Float(2.5)])];
        let map = JoinKeyMap::build(&rows, 0).unwrap();
        assert_eq!(map.lookup(&Value::Int(1)), &[0]);
        assert_eq!(map.lookup(&Value::Float(1.0)), &[0]);
        assert_eq!(map.lookup(&Value::Float(2.5)), &[1]);
    }
}
