//! The hash join's typed build-side index.
//!
//! Key columns are hashed as native `i64` / `f64`-bits / `String` keys
//! instead of `Value` enums. NULL keys are excluded at build and probe (SQL:
//! NULL never joins), and a representation mismatch at probe time degrades —
//! lazily, exactly once — to a `Value`-keyed map whose `Eq`/`Hash` are
//! `Value`'s own, so the matches are the ones row-at-a-time key comparison
//! finds (the nested-loop and sort-merge joins are the differential
//! reference).

use std::collections::HashMap;

use evopt_common::{EvoptError, Result, Tuple, Value};

const NO_MATCHES: &[u32] = &[];

/// Build-side key index: maps a key to the build-row indices carrying it. The representation is chosen from the
/// build keys' runtime variants; NULL keys are never inserted.
pub enum JoinKeyMap {
    /// All build keys are `Int`.
    Int(HashMap<i64, Vec<u32>>),
    /// All build keys are `Float`, keyed by `to_bits` (the total order —
    /// and therefore SQL equality on non-null floats — distinguishes
    /// values iff their bits differ).
    Float(HashMap<u64, Vec<u32>>),
    /// All build keys are `Str`.
    Str(HashMap<String, Vec<u32>>),
    /// Mixed variants: `Value`-keyed, `Value`'s own `Eq`/`Hash`.
    Val(HashMap<Value, Vec<u32>>),
}

impl JoinKeyMap {
    /// Index `rows` by the key column. Rows with NULL keys are skipped —
    /// they can never match a probe.
    pub fn build(rows: &[Tuple], key: usize) -> Result<JoinKeyMap> {
        // One scan to pick the representation.
        let mut variant: Option<u8> = None; // 0=Int 1=Float 3=Str
        let mut mixed = false;
        for t in rows {
            let tag = match t.value(key)? {
                Value::Null => continue,
                Value::Int(_) => 0,
                Value::Float(_) => 1,
                Value::Str(_) => 3,
                Value::Bool(_) => 4,
            };
            match variant {
                None => variant = Some(tag),
                Some(v) if v == tag => {}
                Some(_) => {
                    mixed = true;
                    break;
                }
            }
        }
        if mixed || variant == Some(4) {
            return Self::build_val(rows, key);
        }
        match variant {
            None | Some(0) => {
                let mut map: HashMap<i64, Vec<u32>> = HashMap::new();
                for (i, t) in rows.iter().enumerate() {
                    if let Value::Int(k) = t.value(key)? {
                        map.entry(*k).or_default().push(i as u32);
                    }
                }
                Ok(JoinKeyMap::Int(map))
            }
            Some(1) => {
                let mut map: HashMap<u64, Vec<u32>> = HashMap::new();
                for (i, t) in rows.iter().enumerate() {
                    if let Value::Float(k) = t.value(key)? {
                        map.entry(k.to_bits()).or_default().push(i as u32);
                    }
                }
                Ok(JoinKeyMap::Float(map))
            }
            _ => {
                let mut map: HashMap<String, Vec<u32>> = HashMap::new();
                for (i, t) in rows.iter().enumerate() {
                    if let Value::Str(k) = t.value(key)? {
                        map.entry(k.clone()).or_default().push(i as u32);
                    }
                }
                Ok(JoinKeyMap::Str(map))
            }
        }
    }

    fn build_val(rows: &[Tuple], key: usize) -> Result<JoinKeyMap> {
        let mut map: HashMap<Value, Vec<u32>> = HashMap::new();
        for (i, t) in rows.iter().enumerate() {
            let k = t.value(key)?;
            if k.is_null() {
                continue;
            }
            map.entry(k.clone()).or_default().push(i as u32);
        }
        Ok(JoinKeyMap::Val(map))
    }

    /// Build-row indices matching a probe key. NULL probes match
    /// nothing. A probe whose variant the typed map cannot answer exactly
    /// (an `Int` probe against a `Float`-keyed map is fine — bit-keys
    /// reproduce `total_cmp` equality — but a `Float` probe against an
    /// `Int`-keyed map is not representable) degrades the map, once, to
    /// the `Value`-keyed form.
    pub fn lookup(&mut self, probe: &Value, rows: &[Tuple], key: usize) -> Result<&[u32]> {
        if let (JoinKeyMap::Int(_), Value::Float(_)) = (&*self, probe) {
            *self = match Self::build_val(rows, key)? {
                m @ JoinKeyMap::Val(_) => m,
                _ => return Err(EvoptError::Internal("join key map degrade".into())),
            };
        }
        let hit = match (&*self, probe) {
            (_, Value::Null) => None,
            (JoinKeyMap::Int(map), Value::Int(k)) => map.get(k),
            (JoinKeyMap::Float(map), Value::Float(k)) => map.get(&k.to_bits()),
            // Int probe vs Float build keys: SQL equality is
            // `(i as f64).total_cmp(k) == Equal`, i.e. identical bits.
            (JoinKeyMap::Float(map), Value::Int(k)) => map.get(&(*k as f64).to_bits()),
            (JoinKeyMap::Str(map), Value::Str(k)) => map.get(k),
            (JoinKeyMap::Val(map), v) => map.get(v),
            // Every other pairing is cross-class (say a Bool or Str probe
            // against Int keys) and can never compare Equal.
            _ => None,
        };
        Ok(hit.map_or(NO_MATCHES, Vec::as_slice))
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
    fn join_key_map_picks_typed_representation() {
        let rows = vec![
            t(vec![Value::Int(1)]),
            t(vec![Value::Null]),
            t(vec![Value::Int(1)]),
            t(vec![Value::Int(2)]),
        ];
        let mut map = JoinKeyMap::build(&rows, 0).unwrap();
        assert!(matches!(map, JoinKeyMap::Int(_)));
        assert_eq!(map.lookup(&Value::Int(1), &rows, 0).unwrap(), &[0, 2]);
        assert_eq!(map.lookup(&Value::Int(2), &rows, 0).unwrap(), &[3]);
        assert!(map.lookup(&Value::Int(9), &rows, 0).unwrap().is_empty());
        // NULL probes never match.
        assert!(map.lookup(&Value::Null, &rows, 0).unwrap().is_empty());
        // Cross-class probes never match.
        assert!(map
            .lookup(&Value::Str("1".into()), &rows, 0)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn join_key_map_float_probe_degrades_exactly() {
        let rows = vec![t(vec![Value::Int(7)]), t(vec![Value::Int(8)])];
        let mut map = JoinKeyMap::build(&rows, 0).unwrap();
        // A Float probe against Int keys must match numerically (SQL:
        // 7 = 7.0), which the degraded Value map provides.
        assert_eq!(map.lookup(&Value::Float(7.0), &rows, 0).unwrap(), &[0]);
        assert!(matches!(map, JoinKeyMap::Val(_)));
        assert!(map.lookup(&Value::Float(7.5), &rows, 0).unwrap().is_empty());
        assert_eq!(map.lookup(&Value::Int(8), &rows, 0).unwrap(), &[1]);
    }

    #[test]
    fn join_key_map_int_probe_against_float_keys() {
        let rows = vec![t(vec![Value::Float(7.0)]), t(vec![Value::Float(-0.0)])];
        let mut map = JoinKeyMap::build(&rows, 0).unwrap();
        assert!(matches!(map, JoinKeyMap::Float(_)));
        assert_eq!(map.lookup(&Value::Int(7), &rows, 0).unwrap(), &[0]);
        // Int 0 is +0.0; it must NOT match -0.0 (total_cmp distinguishes),
        // exactly like `Value` equality.
        assert!(map.lookup(&Value::Int(0), &rows, 0).unwrap().is_empty());
        assert_eq!(map.lookup(&Value::Float(-0.0), &rows, 0).unwrap(), &[1]);
    }

    #[test]
    fn join_key_map_mixed_keys_use_value_map() {
        let rows = vec![t(vec![Value::Int(1)]), t(vec![Value::Float(2.5)])];
        let mut map = JoinKeyMap::build(&rows, 0).unwrap();
        assert!(matches!(map, JoinKeyMap::Val(_)));
        assert_eq!(map.lookup(&Value::Int(1), &rows, 0).unwrap(), &[0]);
        assert_eq!(map.lookup(&Value::Float(1.0), &rows, 0).unwrap(), &[0]);
        assert_eq!(map.lookup(&Value::Float(2.5), &rows, 0).unwrap(), &[1]);
    }
}
