//! The concurrency rules, evaluated over the scanned event streams and
//! the parsed rank table.
//!
//! * **A1 — rank order.** Every reachable nested acquisition must take a
//!   strictly greater rank than everything already held. Checked directly
//!   (two `acquire`s in one body), transitively (an `acquire` anywhere in
//!   a callee's call-graph closure), and through escaping guards
//!   (functions returning a `RankGuard` pin their direct ranks on the
//!   caller's stack until end of scope). Acquiring an undeclared rank
//!   name, or any drift between the doc table and the `pub const` items,
//!   is also A1.
//! * **A2 — no raw locks.** In the engine/storage/server crates, a
//!   `.lock()/.read()/.write()/.try_lock()` on a non-leaf field with no
//!   ranked acquisition in scope is a finding, as is a ranked acquisition
//!   made while a `// lockorder: leaf` lock is held (a false leaf claim).
//! * **A3 — no I/O under low locks.** A `DiskBackend` call
//!   (`read_page`/`write_page`/`sync`) must not be reachable while a lock
//!   of rank ≤ `POOL` is held. Findings attach to the *acquisition* site
//!   and dedupe per (function, rank), keeping the lexicographically first
//!   I/O op as the witness.
//! * **A4 — instrumented waits.** Every contention-histogram family the
//!   rank table declares must have a recording site (`.time/.observe` on
//!   a matching field) in a function that — itself or via a direct callee
//!   — acquires that rank.
//!
//! The held-lock model is lexical: a guard is held from its acquisition
//! to the close of the block it was acquired in, released early by
//! `drop(binding)`. This matches how every guard in this workspace is
//! actually scoped and keeps the analysis a single forward walk.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::ranks::RankTable;
use crate::scan::{Event, FnInfo, ScanOutput};

/// Crates in which rule A2 (raw-lock discipline) applies.
const A2_CRATES: &[&str] = &["engine", "storage", "server"];

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    A1,
    A2,
    A3,
    A4,
}

impl Rule {
    pub fn id(self) -> &'static str {
        match self {
            Rule::A1 => "A1",
            Rule::A2 => "A2",
            Rule::A3 => "A3",
            Rule::A4 => "A4",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One verified violation.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: Rule,
    /// `crate::Type::method` the finding is anchored in (`-` for global
    /// table-level findings).
    pub fn_key: String,
    pub file: String,
    pub line: u32,
    /// Human-readable description.
    pub detail: String,
    /// Witnessing acquisition path (function keys, outermost first);
    /// empty when the violation is direct.
    pub path: Vec<String>,
    /// Stable identity for baselining: excludes file/line so findings
    /// survive unrelated edits. `RULE|fn_key|detail-key`.
    pub fingerprint: String,
}

/// What a function may do, transitively through resolvable calls.
#[derive(Debug, Default, Clone)]
struct Closure {
    /// Rank name → witnessing call path (fn keys, this fn first).
    ranks: BTreeMap<String, Vec<String>>,
    /// First (lexicographically smallest op) reachable disk I/O.
    io: Option<(String, Vec<String>)>,
}

/// A ranked guard currently on the lexical hold stack.
struct Held {
    rank: String,
    val: Option<u16>,
    depth: u32,
    binding: String,
    line: u32,
}

/// A `// lockorder: leaf` lock currently held.
struct LeafHeld {
    field: String,
    depth: u32,
    binding: String,
}

pub fn analyze(scan: &ScanOutput, table: &RankTable, lockorder_file: &str) -> Vec<Finding> {
    let pool_rank = table.rank_of("POOL").unwrap_or(40);

    // Index functions by bare name for call resolution, and fix a
    // deterministic walk order.
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, f) in scan.functions.iter().enumerate() {
        by_name.entry(f.name.as_str()).or_default().push(i);
    }
    let mut order: Vec<usize> = (0..scan.functions.len()).collect();
    order.sort_by(|&a, &b| {
        let (fa, fb) = (&scan.functions[a], &scan.functions[b]);
        (&fa.file, fa.line, &fa.key).cmp(&(&fb.file, fb.line, &fb.key))
    });

    let mut closures = Closures {
        scan,
        by_name: &by_name,
        memo: vec![None; scan.functions.len()],
    };

    // Fingerprint → finding; first (deterministic) occurrence wins.
    let mut findings: BTreeMap<String, Finding> = BTreeMap::new();
    let add = |f: Finding, findings: &mut BTreeMap<String, Finding>| {
        findings.entry(f.fingerprint.clone()).or_insert(f);
    };

    // ---- table drift (A1) -------------------------------------------------
    let row_names: BTreeMap<&str, &crate::ranks::RankRow> =
        table.rows.iter().map(|r| (r.name.as_str(), r)).collect();
    for (name, &val) in &table.consts {
        match row_names.get(name.as_str()) {
            None => add(
                Finding {
                    rule: Rule::A1,
                    fn_key: "-".into(),
                    file: lockorder_file.into(),
                    line: 0,
                    detail: format!(
                        "rank const `{name}` ({val}) has no row in the machine-readable doc table"
                    ),
                    path: vec![],
                    fingerprint: format!("A1|-|drift-const:{name}"),
                },
                &mut findings,
            ),
            Some(row) if row.rank != val => add(
                Finding {
                    rule: Rule::A1,
                    fn_key: "-".into(),
                    file: lockorder_file.into(),
                    line: row.line,
                    detail: format!(
                        "rank `{name}` is {val} as a const but {} in the doc table",
                        row.rank
                    ),
                    path: vec![],
                    fingerprint: format!("A1|-|drift-value:{name}"),
                },
                &mut findings,
            ),
            _ => {}
        }
    }
    for row in &table.rows {
        if !table.consts.contains_key(&row.name) {
            add(
                Finding {
                    rule: Rule::A1,
                    fn_key: "-".into(),
                    file: lockorder_file.into(),
                    line: row.line,
                    detail: format!(
                        "doc-table rank `{}` ({}) has no matching `pub const`",
                        row.name, row.rank
                    ),
                    path: vec![],
                    fingerprint: format!("A1|-|drift-row:{}", row.name),
                },
                &mut findings,
            );
        }
    }

    // ---- per-function walk (A1 / A2 / A3) ---------------------------------
    // A3 candidate value: the I/O op, its line + file, and the witness path.
    type IoCandidate = (String, u32, String, Vec<String>);
    // Keyed by (fn_key, rank) so each function reports each held rank once.
    let mut io_candidates: BTreeMap<(String, String), IoCandidate> = BTreeMap::new();

    for &idx in &order {
        let f = &scan.functions[idx];
        let a2_applies = A2_CRATES.contains(&f.crate_name.as_str());
        let mut held: Vec<Held> = Vec::new();
        let mut leaves: Vec<LeafHeld> = Vec::new();

        for ev in &f.events {
            match ev {
                Event::Acquire {
                    rank,
                    line,
                    depth,
                    binding,
                } => {
                    let val = table.rank_of(rank);
                    if val.is_none() {
                        add(
                            Finding {
                                rule: Rule::A1,
                                fn_key: f.key.clone(),
                                file: f.file.clone(),
                                line: *line,
                                detail: format!(
                                    "acquisition of `{rank}`, which is not declared in the rank \
                                     table (crates/common/src/lockorder.rs)"
                                ),
                                path: vec![],
                                fingerprint: format!("A1|{}|unknown:{rank}", f.key),
                            },
                            &mut findings,
                        );
                    }
                    if let Some(v) = val {
                        for h in &held {
                            if let Some(hv) = h.val {
                                if v <= hv {
                                    add(
                                        Finding {
                                            rule: Rule::A1,
                                            fn_key: f.key.clone(),
                                            file: f.file.clone(),
                                            line: *line,
                                            detail: format!(
                                                "acquires `{rank}` ({v}) while holding `{}` ({hv}) \
                                                 acquired at line {}",
                                                h.rank, h.line
                                            ),
                                            path: vec![],
                                            fingerprint: format!("A1|{}|{rank}<={}", f.key, h.rank),
                                        },
                                        &mut findings,
                                    );
                                }
                            }
                        }
                    }
                    if a2_applies {
                        if let Some(leaf) = leaves.last() {
                            add(
                                Finding {
                                    rule: Rule::A2,
                                    fn_key: f.key.clone(),
                                    file: f.file.clone(),
                                    line: *line,
                                    detail: format!(
                                        "ranked acquisition of `{rank}` inside the hold region of \
                                         leaf lock `{}` — the leaf annotation claims nothing \
                                         ranked happens under it",
                                        leaf.field
                                    ),
                                    path: vec![],
                                    fingerprint: format!("A2|{}|leaf:{}+{rank}", f.key, leaf.field),
                                },
                                &mut findings,
                            );
                        }
                    }
                    if binding != "_" {
                        held.push(Held {
                            rank: rank.clone(),
                            val,
                            depth: *depth,
                            binding: binding.clone(),
                            line: *line,
                        });
                    }
                }
                Event::RawLock {
                    field,
                    op,
                    line,
                    depth,
                    binding,
                } => {
                    if scan.leaf_fields.contains(field) {
                        leaves.push(LeafHeld {
                            field: field.clone(),
                            depth: *depth,
                            binding: binding.clone(),
                        });
                    } else if a2_applies && held.is_empty() {
                        add(
                            Finding {
                                rule: Rule::A2,
                                fn_key: f.key.clone(),
                                file: f.file.clone(),
                                line: *line,
                                detail: format!(
                                    "raw `.{op}()` on `{field}` with no ranked acquisition in \
                                     scope — wrap it in `lockorder::acquire` or annotate the \
                                     field `// lockorder: leaf`"
                                ),
                                path: vec![],
                                fingerprint: format!("A2|{}|{field}.{op}", f.key),
                            },
                            &mut findings,
                        );
                    }
                }
                Event::Io { op, line } => {
                    for h in &held {
                        if h.val.is_some_and(|v| v <= pool_rank) {
                            let key = (f.key.clone(), h.rank.clone());
                            let cand = (op.clone(), *line, f.file.clone(), Vec::new());
                            match io_candidates.get(&key) {
                                Some((old, ..)) if *old <= cand.0 => {}
                                _ => {
                                    io_candidates.insert(key, cand);
                                }
                            }
                        }
                    }
                }
                Event::Call { name, line, depth } => {
                    let targets = by_name.get(name.as_str()).cloned().unwrap_or_default();
                    for t in targets {
                        // A bare name matching the current function is far
                        // more likely a same-named method on another type
                        // (`self.wal.checkpoint(..)` inside
                        // `Database::checkpoint`) than direct recursion —
                        // resolving it to ourselves only manufactures
                        // same-rank false positives.
                        if t == idx {
                            continue;
                        }
                        let callee = &scan.functions[t];
                        if callee.returns_rank_guard {
                            // Escaping guard: its direct acquisitions live
                            // on *our* stack until end of scope.
                            for (rank, val) in direct_acquires(callee, table) {
                                if let Some(v) = val {
                                    for h in &held {
                                        if let Some(hv) = h.val {
                                            if v <= hv {
                                                add(
                                                    Finding {
                                                        rule: Rule::A1,
                                                        fn_key: f.key.clone(),
                                                        file: f.file.clone(),
                                                        line: *line,
                                                        detail: format!(
                                                            "call to `{}` acquires `{rank}` ({v}) \
                                                             while holding `{}` ({hv})",
                                                            callee.key, h.rank
                                                        ),
                                                        path: vec![
                                                            f.key.clone(),
                                                            callee.key.clone(),
                                                        ],
                                                        fingerprint: format!(
                                                            "A1|{}|{rank}<={}",
                                                            f.key, h.rank
                                                        ),
                                                    },
                                                    &mut findings,
                                                );
                                            }
                                        }
                                    }
                                }
                                held.push(Held {
                                    rank,
                                    val,
                                    depth: *depth,
                                    binding: String::new(),
                                    line: *line,
                                });
                            }
                            continue;
                        }
                        let clo = closures.of(t, &mut Vec::new());
                        for (rank, cpath) in &clo.ranks {
                            let Some(v) = table.rank_of(rank) else {
                                continue;
                            };
                            for h in &held {
                                if let Some(hv) = h.val {
                                    if v <= hv {
                                        let mut path = vec![f.key.clone()];
                                        path.extend(cpath.iter().cloned());
                                        add(
                                            Finding {
                                                rule: Rule::A1,
                                                fn_key: f.key.clone(),
                                                file: f.file.clone(),
                                                line: *line,
                                                detail: format!(
                                                    "call to `{name}` reaches an acquisition of \
                                                     `{rank}` ({v}) while holding `{}` ({hv}) \
                                                     acquired at line {}",
                                                    h.rank, h.line
                                                ),
                                                path,
                                                fingerprint: format!(
                                                    "A1|{}|{rank}<={}",
                                                    f.key, h.rank
                                                ),
                                            },
                                            &mut findings,
                                        );
                                    }
                                }
                            }
                        }
                        if let Some((op, cpath)) = &clo.io {
                            for h in &held {
                                if h.val.is_some_and(|v| v <= pool_rank) {
                                    let key = (f.key.clone(), h.rank.clone());
                                    let mut path = vec![f.key.clone()];
                                    path.extend(cpath.iter().cloned());
                                    let cand = (op.clone(), h.line, f.file.clone(), path);
                                    match io_candidates.get(&key) {
                                        Some((old, ..)) if *old <= cand.0 => {}
                                        _ => {
                                            io_candidates.insert(key, cand);
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
                Event::Drop { binding } => {
                    if let Some(i) = held.iter().rposition(|h| h.binding == *binding) {
                        held.remove(i);
                    }
                    if let Some(i) = leaves.iter().rposition(|l| l.binding == *binding) {
                        leaves.remove(i);
                    }
                }
                Event::Close { depth } => {
                    held.retain(|h| h.depth < *depth);
                    leaves.retain(|l| l.depth < *depth);
                }
                Event::HistUse { .. } => {}
            }
        }
    }

    for ((fn_key, rank), (op, line, file, path)) in io_candidates {
        let reach = if path.is_empty() {
            "performs".to_string()
        } else {
            format!("reaches (via {}) ", path.join(" → "))
        };
        add(
            Finding {
                rule: Rule::A3,
                fn_key: fn_key.clone(),
                file,
                line,
                detail: format!("{reach} disk I/O (`{op}`) while holding `{rank}` (rank ≤ POOL)"),
                path,
                fingerprint: format!("A3|{fn_key}|{rank}|{op}"),
            },
            &mut findings,
        );
    }

    // ---- A4: every declared histogram family has a timed site -------------
    for row in &table.rows {
        for family in &row.histograms {
            let stripped = family.strip_prefix("evopt_").unwrap_or(family);
            let covered = scan.functions.iter().any(|f| {
                let times_family = f.events.iter().any(|e| match e {
                    Event::HistUse { field, .. } => {
                        stripped == field || stripped.ends_with(&format!("_{field}"))
                    }
                    _ => false,
                });
                times_family && acquires_rank_nearby(f, &row.name, scan, &by_name)
            });
            if !covered {
                add(
                    Finding {
                        rule: Rule::A4,
                        fn_key: "-".into(),
                        file: lockorder_file.into(),
                        line: row.line,
                        detail: format!(
                            "histogram family `{family}` is declared for rank `{}` but no \
                             function both records it and acquires that rank",
                            row.name
                        ),
                        path: vec![],
                        fingerprint: format!("A4|-|{}|{family}", row.name),
                    },
                    &mut findings,
                );
            }
        }
    }

    let mut out: Vec<Finding> = findings.into_values().collect();
    out.sort_by(|a, b| {
        (a.rule, &a.file, a.line, &a.fingerprint).cmp(&(b.rule, &b.file, b.line, &b.fingerprint))
    });
    out
}

/// `f`'s direct `lockorder::acquire` ranks, with table values.
fn direct_acquires(f: &FnInfo, table: &RankTable) -> Vec<(String, Option<u16>)> {
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    for ev in &f.events {
        if let Event::Acquire { rank, .. } = ev {
            if seen.insert(rank.clone()) {
                out.push((rank.clone(), table.rank_of(rank)));
            }
        }
    }
    out
}

/// Does `f` — or one of its direct callees — acquire `rank`? (Rule A4: the
/// timed wrapper must sit at the acquisition site or immediately around it.)
fn acquires_rank_nearby(
    f: &FnInfo,
    rank: &str,
    scan: &ScanOutput,
    by_name: &BTreeMap<&str, Vec<usize>>,
) -> bool {
    let direct = |g: &FnInfo| {
        g.events
            .iter()
            .any(|e| matches!(e, Event::Acquire { rank: r, .. } if r == rank))
    };
    if direct(f) {
        return true;
    }
    f.events.iter().any(|e| match e {
        Event::Call { name, .. } => by_name
            .get(name.as_str())
            .is_some_and(|ts| ts.iter().any(|&t| direct(&scan.functions[t]))),
        _ => false,
    })
}

/// Memoized transitive-closure computation over the call graph. Cycles
/// return an empty closure at the re-entry point — the first traversal of
/// each member still sees the full cycle body, which is enough for a lint.
struct Closures<'a> {
    scan: &'a ScanOutput,
    by_name: &'a BTreeMap<&'a str, Vec<usize>>,
    memo: Vec<Option<Closure>>,
}

impl<'a> Closures<'a> {
    fn of(&mut self, idx: usize, in_progress: &mut Vec<usize>) -> Closure {
        if let Some(c) = &self.memo[idx] {
            return c.clone();
        }
        if in_progress.contains(&idx) {
            return Closure::default();
        }
        in_progress.push(idx);
        let scan: &'a ScanOutput = self.scan;
        let f = &scan.functions[idx];
        let mut c = Closure::default();
        for ev in &f.events {
            match ev {
                Event::Acquire { rank, .. } => {
                    c.ranks
                        .entry(rank.clone())
                        .or_insert_with(|| vec![f.key.clone()]);
                }
                Event::Io { op, .. } => {
                    merge_io(&mut c.io, op, vec![f.key.clone()]);
                }
                Event::Call { name, .. } => {
                    let targets = self.by_name.get(name.as_str()).cloned().unwrap_or_default();
                    for t in targets {
                        if t == idx {
                            continue; // see the self-resolution note above
                        }
                        let child = self.of(t, in_progress);
                        for (r, p) in child.ranks {
                            c.ranks.entry(r).or_insert_with(|| {
                                let mut v = vec![f.key.clone()];
                                v.extend(p);
                                v
                            });
                        }
                        if let Some((op, p)) = child.io {
                            let mut v = vec![f.key.clone()];
                            v.extend(p);
                            merge_io(&mut c.io, &op, v);
                        }
                    }
                }
                _ => {}
            }
        }
        in_progress.pop();
        self.memo[idx] = Some(c.clone());
        c
    }
}

/// Keep the lexicographically smallest op (deterministic witness).
fn merge_io(slot: &mut Option<(String, Vec<String>)>, op: &str, path: Vec<String>) {
    match slot {
        Some((cur, _)) if cur.as_str() <= op => {}
        _ => *slot = Some((op.to_string(), path)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::ranks::parse_rank_table;
    use crate::scan::scan_file;

    const TABLE: &str = "\
//! | 10 `COMMIT` | commit | `evopt_commit_lock_wait_us` |
//! | 40 `POOL`   | pool | — |
//! | 60 `OBS`    | obs | — |
pub const COMMIT: u16 = 10;
pub const POOL: u16 = 40;
pub const OBS: u16 = 60;
";

    fn run(src: &str) -> Vec<Finding> {
        let mut out = ScanOutput::default();
        scan_file("lib.rs", "storage", &lex(src), &mut out);
        let table = parse_rank_table(TABLE);
        analyze(&out, &table, "lockorder.rs")
            .into_iter()
            .filter(|f| f.rule != Rule::A4) // the tiny fixtures never time
            .collect()
    }

    #[test]
    fn direct_inversion_is_a1() {
        let f = run(
            "fn f(&self) { let _a = lockorder::acquire(lockorder::POOL); \
             let _b = lockorder::acquire(lockorder::COMMIT); }",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::A1);
        assert!(f[0].fingerprint.contains("COMMIT<=POOL"));
    }

    #[test]
    fn block_scope_releases_guards() {
        let f = run(
            "fn f(&self) { { let _a = lockorder::acquire(lockorder::POOL); } \
             let _b = lockorder::acquire(lockorder::COMMIT); }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn transitive_inversion_is_a1() {
        let f = run(
            "fn low(&self) { let _a = lockorder::acquire(lockorder::COMMIT); } \
             fn f(&self) { let _a = lockorder::acquire(lockorder::POOL); self.low(); }",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::A1);
        assert_eq!(f[0].path.len(), 2);
    }

    #[test]
    fn io_under_pool_is_a3_and_drop_releases() {
        let f = run(
            "fn f(&self) { let g = lockorder::acquire(lockorder::POOL); \
             self.disk.write_page(0, &b); drop(g); self.disk.sync(); }",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::A3);
        assert!(f[0].fingerprint.ends_with("POOL|write_page"));
    }

    #[test]
    fn io_above_pool_is_clean() {
        let f =
            run("fn f(&self) { let _g = lockorder::acquire(lockorder::OBS); self.disk.sync(); }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unranked_raw_lock_is_a2() {
        let f = run("fn f(&self) { let g = self.state.lock(); }");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::A2);
    }

    #[test]
    fn leaf_annotation_suppresses_a2() {
        let f = run("struct P { data: RwLock<u8>, // lockorder: leaf\n } \
             impl P { fn f(&self) { let g = self.data.write(); } }");
        assert!(f.is_empty(), "{f:?}");
    }
}
