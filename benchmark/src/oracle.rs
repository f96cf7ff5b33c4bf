//! The answer oracle. Wisconsin answers are checked against what the
//! generator implies by construction, `analytic` answers against plain
//! loops over a dump of each base table, `write_mix` answers against the
//! model of acknowledged statements. Nothing here asks the engine for a
//! second plan of the same query.

use std::collections::HashMap;

use evopt_common::{Tuple, Value};
use evopt_engine::Database;
use evopt_server::Response;

use crate::gen::{kv_s, Expect, Query};

/// What a statement returned, whichever surface it went through.
#[derive(Debug)]
pub enum Outcome {
    Rows(Vec<Tuple>),
    Affected(usize),
    Error(String),
}

impl Outcome {
    /// Read the server's rendered text back into rows: a header line,
    /// `| cell | cell |` lines, then `N row(s)`; or `N row(s) affected`.
    pub fn from_response(response: std::io::Result<Response>) -> Outcome {
        let text = match response {
            Ok(Response::Result(text)) => text,
            Ok(Response::Error(e)) | Ok(Response::Bye(e)) => return Outcome::Error(e),
            Err(e) => return Outcome::Error(e.to_string()),
        };
        if let Some(n) = text.strip_suffix(" row(s) affected") {
            return match n.parse() {
                Ok(n) => Outcome::Affected(n),
                Err(_) => Outcome::Error(format!("unreadable reply: {text}")),
            };
        }
        let mut lines: Vec<&str> = text.lines().collect();
        let declared = lines
            .pop()
            .and_then(|l| l.strip_suffix(" row(s)"))
            .and_then(|n| n.parse::<usize>().ok());
        let rows: Vec<Tuple> = lines
            .iter()
            .skip(1) // header
            .filter_map(|l| l.strip_prefix("| ")?.strip_suffix(" |"))
            .map(|l| Tuple::new(l.split(" | ").map(parse_cell).collect()))
            .collect();
        match declared {
            Some(n) if n == rows.len() => Outcome::Rows(rows),
            _ => Outcome::Error(format!("unreadable reply of {} bytes", text.len())),
        }
    }
}

fn parse_cell(cell: &str) -> Value {
    if let Some(s) = cell.strip_prefix('\'').and_then(|c| c.strip_suffix('\'')) {
        Value::Str(s.to_string())
    } else if let Ok(i) = cell.parse::<i64>() {
        Value::Int(i)
    } else {
        Value::Str(cell.to_string())
    }
}

fn int(t: &Tuple, i: usize) -> Option<i64> {
    t.values().get(i)?.as_i64()
}

/// `(unique1, unique2)` of a Wisconsin row whose other five columns are
/// what the generator derives from `unique1`.
fn wisc_row(t: &Tuple) -> Option<(i64, i64)> {
    let u1 = int(t, 0)?;
    let ok = t.len() == 7
        && int(t, 2)? == u1 % 100
        && int(t, 3)? == u1 % 10
        && int(t, 4)? == u1 % 5
        && int(t, 5)? == u1 % 2
        && t.values()[6].as_str()? == format!("val-{u1:08}");
    ok.then_some((u1, int(t, 1)?))
}

pub struct Oracle {
    analytic: Option<AnalyticTables>,
}

impl Oracle {
    /// For the workloads whose answers the generator implies.
    pub fn implied() -> Oracle {
        Oracle { analytic: None }
    }

    /// Dump every base table of `analytic` once, in set-up.
    pub fn with_dumps(db: &Database) -> Result<Oracle, String> {
        Ok(Oracle {
            analytic: Some(AnalyticTables::dump(db)?),
        })
    }

    pub fn check(&self, expect: &Expect, outcome: &Outcome) -> bool {
        match (expect, outcome) {
            (Expect::Affected(n), Outcome::Affected(got)) => n == got,
            (Expect::WiscPoint(k), Outcome::Rows(rows)) => {
                rows.len() == 1 && wisc_row(&rows[0]).is_some_and(|(u1, _)| u1 == *k)
            }
            (Expect::WiscRange { col, lo, hi }, Outcome::Rows(rows)) => {
                // The column is a permutation of 0..n, so the answer is
                // the key set lo..hi exactly: right count, every key in
                // range, none twice.
                let mut seen = vec![false; (hi - lo) as usize];
                rows.len() == seen.len()
                    && rows.iter().all(|t| {
                        wisc_row(t).is_some_and(|(u1, u2)| {
                            let key = [u1, u2][*col];
                            (*lo..*hi).contains(&key)
                                && !std::mem::replace(&mut seen[(key - lo) as usize], true)
                        })
                    })
            }
            (Expect::KvRow { k, v }, Outcome::Rows(rows)) => {
                rows.len() == 1
                    && int(&rows[0], 0) == Some(*k)
                    && int(&rows[0], 1) == Some(*v)
                    && rows[0].values().get(2).and_then(Value::as_str) == Some(&kv_s(*k))
            }
            (Expect::Analytic(query), Outcome::Rows(rows)) => self
                .analytic
                .as_ref()
                .is_some_and(|tables| tables.check(query, rows)),
            _ => false,
        }
    }
}

/// Compare the whole `kv` table with the model: every acknowledged row is
/// there with its value, and nothing else is.
pub fn kv_table_matches(db: &Database, model: &HashMap<i64, i64>) -> Result<bool, String> {
    let rows = db.query("SELECT * FROM kv").map_err(|e| e.to_string())?;
    Ok(rows.len() == model.len()
        && rows.iter().all(|t| {
            int(t, 0).is_some_and(|k| {
                model.get(&k) == int(t, 1).as_ref()
                    && t.values().get(2).and_then(Value::as_str) == Some(&kv_s(k))
            })
        }))
}

fn fnv(s: &str) -> i64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    }) as i64
}

/// A result row as integers (strings hashed), so that answers compare
/// and sort cheaply.
fn canon(t: &Tuple) -> Vec<i64> {
    t.values()
        .iter()
        .map(|v| match v {
            Value::Int(i) => *i,
            Value::Str(s) => fnv(s),
            Value::Bool(b) => *b as i64,
            Value::Float(f) => f.to_bits() as i64,
            Value::Null => i64::MIN,
        })
        .collect()
}

struct WiscRow {
    unique1: i64,
    unique2: i64,
    one_pct: i64,
    ten_pct: i64,
    odd: i64,
    stringu1: String,
    whole: Vec<i64>,
}

/// Typed copies of the base tables, taken with one `SELECT *` each.
struct AnalyticTables {
    wisc: Vec<WiscRow>,
    /// `c_key → (c_nation, fnv(c_name), c_balance)`
    customer: HashMap<i64, (i64, i64, i64)>,
    /// `(o_key, o_customer, o_status)`
    orders: Vec<(i64, i64, String)>,
    /// `(l_order, l_price)`
    lineitem: Vec<(i64, i64)>,
    /// The one parameterless query, answered once.
    revenue_per_nation: Vec<Vec<i64>>,
}

impl AnalyticTables {
    fn dump(db: &Database) -> Result<AnalyticTables, String> {
        let table = |name: &str| -> Result<Vec<Tuple>, String> {
            db.query(&format!("SELECT * FROM {name}"))
                .map_err(|e| format!("dump of {name}: {e}"))
        };
        let col = |t: &Tuple, i: usize| int(t, i).ok_or("non-integer column in dump");
        let text = |t: &Tuple, i: usize| -> Result<String, String> {
            Ok(t.values()
                .get(i)
                .and_then(Value::as_str)
                .ok_or("non-string column in dump")?
                .to_string())
        };

        let mut wisc = Vec::new();
        for t in table("wisc")? {
            wisc.push(WiscRow {
                unique1: col(&t, 0)?,
                unique2: col(&t, 1)?,
                one_pct: col(&t, 2)?,
                ten_pct: col(&t, 3)?,
                odd: col(&t, 5)?,
                stringu1: text(&t, 6)?,
                whole: canon(&t),
            });
        }
        let mut region = HashMap::new();
        for t in table("region")? {
            region.insert(col(&t, 0)?, ());
        }
        let mut nation = HashMap::new();
        for t in table("nation")? {
            nation.insert(col(&t, 0)?, (col(&t, 1)?, fnv(&text(&t, 2)?)));
        }
        let mut customer = HashMap::new();
        for t in table("customer")? {
            customer.insert(col(&t, 0)?, (col(&t, 1)?, fnv(&text(&t, 2)?), col(&t, 3)?));
        }
        let mut orders = Vec::new();
        for t in table("orders")? {
            orders.push((col(&t, 0)?, col(&t, 1)?, text(&t, 2)?));
        }
        let mut lineitem = Vec::new();
        for t in table("lineitem")? {
            lineitem.push((col(&t, 0)?, col(&t, 3)?));
        }

        // Revenue per nation: walk lineitem → orders → customer → nation →
        // region, summing price per nation name.
        let order_customer: HashMap<i64, i64> = orders.iter().map(|o| (o.0, o.1)).collect();
        let mut revenue: HashMap<i64, i64> = HashMap::new();
        for (l_order, l_price) in &lineitem {
            let nation_of_line = order_customer
                .get(l_order)
                .and_then(|c| customer.get(c))
                .and_then(|c| nation.get(&c.0))
                .filter(|n| region.contains_key(&n.0));
            if let Some((_, name)) = nation_of_line {
                *revenue.entry(*name).or_default() += l_price;
            }
        }
        let mut revenue_per_nation: Vec<Vec<i64>> =
            revenue.into_iter().map(|(n, r)| vec![n, r]).collect();
        revenue_per_nation.sort();

        Ok(AnalyticTables {
            wisc,
            customer,
            orders,
            lineitem,
            revenue_per_nation,
        })
    }

    fn check(&self, query: &Query, rows: &[Tuple]) -> bool {
        let mut got: Vec<Vec<i64>> = rows.iter().map(canon).collect();
        let mut want: Vec<Vec<i64>> = match query {
            Query::RevenuePerNation => {
                // ORDER BY revenue DESC; nations with equal revenue may
                // come in either order.
                if got.windows(2).any(|w| w[0][1] < w[1][1]) {
                    return false;
                }
                self.revenue_per_nation.clone()
            }
            Query::ShippedBigOrders { status, balance } => self
                .orders
                .iter()
                .filter(|o| o.2 == *status)
                .filter_map(|o| {
                    let (_, name, bal) = self.customer.get(&o.1)?;
                    (bal > balance).then(|| vec![o.0, *name])
                })
                .collect(),
            Query::CustomerOrders { customer } => {
                let mine: HashMap<i64, ()> = self
                    .orders
                    .iter()
                    .filter(|o| o.1 == *customer)
                    .map(|o| (o.0, ()))
                    .collect();
                self.lineitem
                    .iter()
                    .filter(|l| mine.contains_key(&l.0))
                    .map(|l| vec![l.0, l.1])
                    .collect()
            }
            Query::WiscAggregate { odd } => {
                let mut groups: HashMap<i64, (i64, i64)> = HashMap::new();
                for r in self.wisc.iter().filter(|r| r.odd == *odd) {
                    let g = groups.entry(r.ten_pct).or_default();
                    g.0 += 1;
                    g.1 += r.unique2;
                }
                groups
                    .into_iter()
                    .map(|(ten, (n, sum))| vec![ten, n, sum])
                    .collect()
            }
            Query::WiscSelfJoin { one_pct } => {
                let by_unique2: HashMap<i64, i64> =
                    self.wisc.iter().map(|r| (r.unique2, r.unique1)).collect();
                self.wisc
                    .iter()
                    .filter(|a| a.one_pct == *one_pct)
                    .filter_map(|a| Some(vec![a.unique1, *by_unique2.get(&a.unique1)?]))
                    .collect()
            }
            Query::WiscTopK { ten_pct } => {
                // `stringu1` is unique, so the first ten are determined
                // and must come back in order.
                let mut matching: Vec<&WiscRow> =
                    self.wisc.iter().filter(|r| r.ten_pct == *ten_pct).collect();
                matching.sort_by(|a, b| a.stringu1.cmp(&b.stringu1));
                let want: Vec<Vec<i64>> =
                    matching.iter().take(10).map(|r| r.whole.clone()).collect();
                return got == want;
            }
        };
        got.sort();
        want.sort();
        got == want
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wisc(u1: i64, u2: i64) -> Tuple {
        Tuple::new(vec![
            Value::Int(u1),
            Value::Int(u2),
            Value::Int(u1 % 100),
            Value::Int(u1 % 10),
            Value::Int(u1 % 5),
            Value::Int(u1 % 2),
            Value::Str(format!("val-{u1:08}")),
        ])
    }

    #[test]
    fn point_and_range_answers_need_the_right_count_and_key_set() {
        let o = Oracle::implied();
        let point = Expect::WiscPoint(17);
        assert!(o.check(&point, &Outcome::Rows(vec![wisc(17, 3)])));
        assert!(!o.check(&point, &Outcome::Rows(vec![wisc(18, 3)])));
        assert!(!o.check(&point, &Outcome::Rows(vec![])));
        assert!(!o.check(&point, &Outcome::Error("boom".into())));

        let range = Expect::WiscRange {
            col: 1,
            lo: 5,
            hi: 8,
        };
        let rows = |keys: &[i64]| Outcome::Rows(keys.iter().map(|k| wisc(k * 3, *k)).collect());
        assert!(o.check(&range, &rows(&[5, 6, 7])));
        assert!(o.check(&range, &rows(&[7, 5, 6])));
        assert!(!o.check(&range, &rows(&[5, 6])));
        assert!(!o.check(&range, &rows(&[5, 6, 6])));
        assert!(!o.check(&range, &rows(&[5, 6, 8])));
        // A row whose derived columns are wrong is a wrong answer.
        let mut bad = wisc(15, 5).into_values();
        bad[3] = Value::Int(9);
        let broken = Outcome::Rows(vec![Tuple::new(bad), wisc(18, 6), wisc(21, 7)]);
        assert!(!o.check(&range, &broken));
    }

    #[test]
    fn rendered_replies_read_back_as_rows() {
        let text = "| wisc.unique1 | wisc.stringu1 |\n| 5 | 'val-00000005' |\n1 row(s)";
        match Outcome::from_response(Ok(Response::Result(text.into()))) {
            Outcome::Rows(rows) => {
                assert_eq!(rows.len(), 1);
                assert_eq!(rows[0].values()[0], Value::Int(5));
                assert_eq!(rows[0].values()[1], Value::Str("val-00000005".into()));
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            Outcome::from_response(Ok(Response::Result("3 row(s) affected".into()))),
            Outcome::Affected(3)
        ));
        assert!(matches!(
            Outcome::from_response(Ok(Response::Error("no".into()))),
            Outcome::Error(_)
        ));
        // A reply whose row count disagrees with its rows is not trusted.
        let short = "| a |\n| 1 |\n2 row(s)";
        assert!(matches!(
            Outcome::from_response(Ok(Response::Result(short.into()))),
            Outcome::Error(_)
        ));
    }
}
