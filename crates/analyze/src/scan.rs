//! Token-pattern scanner: turns a lexed source file into per-function
//! event lists (lock acquisitions, raw lock operations, disk I/O calls,
//! histogram uses, calls, block boundaries) plus the set of
//! `// lockorder: leaf` annotated fields.
//!
//! This is deliberately *not* a parser. It recognizes the handful of
//! token shapes the concurrency rules need and ignores everything else,
//! trading recall for precision (see DESIGN.md §13.5 for the documented
//! blind spots):
//!
//! * lock operations are only recognized in `receiver.field.op()` form —
//!   a guard bound first (`let g = x.lock; g.read()`) is invisible;
//! * calls resolve by bare method name against a blocklist of ubiquitous
//!   std names (`insert`, `get`, `write`, ...) that would otherwise
//!   alias engine functions and storm the report with false positives;
//! * `#[cfg(test)]` items are skipped entirely.

use std::collections::BTreeSet;

use crate::lexer::{Tok, Token};

/// One scanned occurrence inside a function body, in source order.
#[derive(Debug, Clone)]
pub enum Event {
    /// `lockorder::acquire(lockorder::RANK)`. `binding` is the `let`
    /// binding the guard landed in (`"_"` drops immediately, `""` for
    /// expression position).
    Acquire {
        rank: String,
        line: u32,
        depth: u32,
        binding: String,
    },
    /// `recv.field.lock() / try_lock() / read() / write()`.
    RawLock {
        field: String,
        op: String,
        line: u32,
        depth: u32,
        binding: String,
    },
    /// `recv.field.time(..) / observe(..)` — a histogram
    /// recording site (rule A4).
    HistUse { field: String, line: u32 },
    /// `.read_page(..) / .write_page(..) / .sync(..)` — a `DiskBackend`
    /// I/O call (rule A3).
    Io { op: String, line: u32 },
    /// Any other method/function call that survives the blocklist.
    Call { name: String, line: u32, depth: u32 },
    /// `drop(binding)` — early guard release.
    Drop { binding: String },
    /// A `{ ... }` block at `depth` closed: bindings made inside it die.
    Close { depth: u32 },
}

/// A scanned function.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// `crate::Type::method` or `crate::function` — the stable key used
    /// in findings and baseline fingerprints.
    pub key: String,
    /// Bare name, for call-graph resolution.
    pub name: String,
    pub file: String,
    pub line: u32,
    pub crate_name: String,
    /// `RankGuard` appears in the return type: the function's direct
    /// acquisitions escape to its caller (e.g. `Database::lock_commit`).
    pub returns_rank_guard: bool,
    pub events: Vec<Event>,
}

/// Accumulated scan across all files.
#[derive(Debug, Default)]
pub struct ScanOutput {
    pub functions: Vec<FnInfo>,
    /// Field names annotated `// lockorder: leaf` anywhere in the tree.
    pub leaf_fields: BTreeSet<String>,
}

/// Methods that time a wait into a histogram.
const HIST_OPS: &[&str] = &["time", "observe"];
/// Methods that acquire a mutex / rwlock.
const LOCK_OPS: &[&str] = &["lock", "try_lock", "read", "write"];
/// `DiskBackend` methods that perform physical I/O.
const IO_OPS: &[&str] = &["read_page", "write_page", "sync"];

/// Keywords that look like calls when followed by `(`.
const KEYWORDS: &[&str] = &[
    "if", "else", "while", "match", "for", "loop", "return", "let", "fn", "move", "in", "as",
    "ref", "mut", "pub", "use", "where", "impl", "struct", "enum", "trait", "type", "const",
    "static", "unsafe", "dyn", "break", "continue", "crate", "self", "Self", "super", "mod",
    "Some", "None", "Ok", "Err", "Box", "Vec", "String", "Arc", "Rc",
];

/// Ubiquitous method names that must not resolve through the call graph:
/// each aliases a std collection / primitive method, so linking it to a
/// same-named engine function (e.g. `HashMap::insert` → `HeapFile::insert`)
/// would flood every rule with false positives. The cost is a documented
/// blind spot: calls *to* engine functions with these names are not
/// traversed (their own bodies are still analyzed directly).
const CALL_BLOCKLIST: &[&str] = &[
    // collections / iterators
    "insert",
    "remove",
    "get",
    "get_mut",
    "push",
    "pop",
    "len",
    "is_empty",
    "contains",
    "contains_key",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "map",
    "and_then",
    "filter",
    "filter_map",
    "flat_map",
    "fold",
    "sum",
    "count",
    "collect",
    "extend",
    "retain",
    "clear",
    "drain",
    "entry",
    "or_insert",
    "or_insert_with",
    "keys",
    "values",
    "cloned",
    "copied",
    "zip",
    "enumerate",
    "rev",
    "position",
    "find",
    "any",
    "all",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "dedup",
    "first",
    "last",
    "chunks",
    "windows",
    "split",
    "join",
    "truncate",
    "resize",
    "reserve",
    "append",
    "binary_search",
    "range",
    // options / results
    "unwrap",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "expect",
    "ok",
    "err",
    "ok_or",
    "ok_or_else",
    "is_some",
    "is_none",
    "is_ok",
    "is_err",
    "map_err",
    "and",
    "or",
    "then",
    "then_some",
    "is_some_and",
    "take",
    "replace",
    "as_ref",
    "as_mut",
    "as_deref",
    // conversions / formatting
    "new",
    "clone",
    "default",
    "from",
    "into",
    "try_into",
    "try_from",
    "to_string",
    "to_owned",
    "to_vec",
    "as_str",
    "as_bytes",
    "as_i64",
    "as_f64",
    "parse",
    "format",
    "fmt",
    "write_str",
    "push_str",
    "starts_with",
    "ends_with",
    "trim",
    "trim_start",
    "trim_end",
    "to_le_bytes",
    "from_le_bytes",
    "to_be_bytes",
    "copy_from_slice",
    "fill",
    "borrow",
    "borrow_mut",
    "debug_struct",
    "field",
    "finish",
    "hash",
    "eq",
    "ne",
    "cmp",
    "partial_cmp",
    // numerics / atomics
    "min",
    "max",
    "abs",
    "load",
    "store",
    "swap",
    "compare_exchange",
    "fetch_add",
    "fetch_sub",
    "wrapping_add",
    "wrapping_mul",
    "saturating_sub",
    "saturating_add",
    "get_or",
    // time / threads / misc std
    "elapsed",
    "as_micros",
    "as_millis",
    "as_secs",
    "now",
    "with",
    "set",
    "spawn",
    "sleep",
    "yield_now",
    "to_socket_addrs",
    "flush",
    "read_line",
    "read_exact",
    "write_all",
    "read_to_end",
    "set_nodelay",
    "shutdown",
    "connect",
    "accept",
    "local_addr",
    "peer_addr",
    // lock/io method names when they appear as bare calls (the ranked
    // forms are recognized positionally above)
    "lock",
    "try_lock",
    "read",
    "write",
    "time",
    "observe",
];

fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

fn is_blocklisted(s: &str) -> bool {
    CALL_BLOCKLIST.contains(&s)
}

/// Scan one lexed file into `out`.
pub fn scan_file(file: &str, crate_name: &str, toks: &[Token], out: &mut ScanOutput) {
    let mut s = Scanner {
        toks,
        pos: 0,
        file,
        crate_name,
        out,
    };
    s.items(None, false);
}

struct Scanner<'a> {
    toks: &'a [Token],
    pos: usize,
    file: &'a str,
    crate_name: &'a str,
    out: &'a mut ScanOutput,
}

impl Scanner<'_> {
    fn peek(&self, ahead: usize) -> Option<&Tok> {
        self.toks.get(self.pos + ahead).map(|t| &t.tok)
    }

    fn line(&self, ahead: usize) -> u32 {
        self.toks.get(self.pos + ahead).map(|t| t.line).unwrap_or(0)
    }

    fn ident(&self, ahead: usize) -> Option<&str> {
        match self.peek(ahead) {
            Some(Tok::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    }

    fn punct(&self, ahead: usize, c: char) -> bool {
        matches!(self.peek(ahead), Some(Tok::Punct(p)) if *p == c)
    }

    /// Item-position loop (module body, impl body, trait body). Stops at
    /// the matching `}` when `bounded`, else at end of input.
    fn items(&mut self, impl_type: Option<&str>, bounded: bool) {
        let mut cfg_test = false;
        while self.pos < self.toks.len() {
            if bounded && self.punct(0, '}') {
                self.pos += 1;
                return;
            }
            match self.peek(0) {
                Some(Tok::Punct('#')) => {
                    let test_attr = self.skip_attr();
                    cfg_test = cfg_test || test_attr;
                    continue; // attribute applies to the *next* item
                }
                Some(Tok::Ident(kw)) if kw == "fn" => {
                    self.function(impl_type, cfg_test);
                    cfg_test = false;
                }
                Some(Tok::Ident(kw)) if kw == "impl" => {
                    self.pos += 1;
                    let ty = self.impl_target();
                    if self.seek_open_brace() {
                        if cfg_test {
                            self.skip_braces();
                        } else {
                            self.items(ty.as_deref(), true);
                        }
                    }
                    cfg_test = false;
                }
                Some(Tok::Ident(kw)) if kw == "trait" => {
                    self.pos += 1;
                    let name = self.ident(0).map(str::to_string);
                    if self.seek_open_brace() {
                        if cfg_test {
                            self.skip_braces();
                        } else {
                            self.items(name.as_deref(), true);
                        }
                    }
                    cfg_test = false;
                }
                Some(Tok::Ident(kw)) if kw == "mod" => {
                    self.pos += 1;
                    // `mod name;` has no body; `mod name { ... }` recurses.
                    if self.seek_brace_or_semi() {
                        if cfg_test {
                            self.skip_braces();
                        } else {
                            self.items(None, true);
                        }
                    }
                    cfg_test = false;
                }
                Some(Tok::Ident(kw)) if kw == "struct" || kw == "enum" || kw == "union" => {
                    self.pos += 1;
                    if self.seek_brace_or_semi() {
                        self.struct_body();
                    }
                    cfg_test = false;
                }
                _ => self.pos += 1,
            }
        }
    }

    /// Skip `#[...]` / `#![...]`; returns whether it was `cfg(test)`-like.
    fn skip_attr(&mut self) -> bool {
        self.pos += 1; // '#'
        if self.punct(0, '!') {
            self.pos += 1;
        }
        if !self.punct(0, '[') {
            return false;
        }
        self.pos += 1;
        let mut depth = 1u32;
        let mut saw_test = false;
        while self.pos < self.toks.len() && depth > 0 {
            match self.peek(0) {
                Some(Tok::Punct('[')) => depth += 1,
                Some(Tok::Punct(']')) => depth -= 1,
                // `#[cfg(test)]` and `#[test]` both gate test-only items,
                // and both carry the bare ident `test`.
                Some(Tok::Ident(s)) if s == "test" => saw_test = true,
                _ => {}
            }
            self.pos += 1;
        }
        saw_test
    }

    /// After `impl`: skip generics, read the implemented type's last path
    /// segment (the one after `for`, if present).
    fn impl_target(&mut self) -> Option<String> {
        self.skip_generics();
        let first = self.path_last_segment();
        if self.ident(0) == Some("for") {
            self.pos += 1;
            self.path_last_segment()
        } else {
            first
        }
    }

    /// Read a type path (`a::b::C<...>`), returning its last segment.
    fn path_last_segment(&mut self) -> Option<String> {
        let mut last = None;
        loop {
            match self.peek(0) {
                Some(Tok::Ident(s))
                    if !is_keyword(s) || s == "crate" || s == "self" || s == "Self" =>
                {
                    last = Some(s.clone());
                    self.pos += 1;
                    self.skip_generics();
                    if self.punct(0, ':') && self.punct(1, ':') {
                        self.pos += 2;
                        continue;
                    }
                    break;
                }
                _ => break,
            }
        }
        last
    }

    /// Skip a balanced `<...>` group if one starts here.
    fn skip_generics(&mut self) {
        if !self.punct(0, '<') {
            return;
        }
        let mut depth = 0i32;
        while self.pos < self.toks.len() {
            match self.peek(0) {
                Some(Tok::Punct('<')) => depth += 1,
                Some(Tok::Punct('>')) => {
                    depth -= 1;
                    if depth <= 0 {
                        self.pos += 1;
                        return;
                    }
                }
                _ => {}
            }
            self.pos += 1;
        }
    }

    /// Advance to just past the next `{` at paren depth 0. Returns false
    /// if a `;` ends the item first.
    fn seek_brace_or_semi(&mut self) -> bool {
        let mut parens = 0i32;
        while self.pos < self.toks.len() {
            match self.peek(0) {
                Some(Tok::Punct('(')) => parens += 1,
                Some(Tok::Punct(')')) => parens -= 1,
                Some(Tok::Punct('{')) if parens == 0 => {
                    self.pos += 1;
                    return true;
                }
                Some(Tok::Punct(';')) if parens == 0 => {
                    self.pos += 1;
                    return false;
                }
                _ => {}
            }
            self.pos += 1;
        }
        false
    }

    fn seek_open_brace(&mut self) -> bool {
        while self.pos < self.toks.len() {
            if self.punct(0, '{') {
                self.pos += 1;
                return true;
            }
            if self.punct(0, ';') {
                self.pos += 1;
                return false;
            }
            self.pos += 1;
        }
        false
    }

    /// Skip a balanced brace group; assumes the opening `{` was consumed.
    fn skip_braces(&mut self) {
        let mut depth = 1u32;
        while self.pos < self.toks.len() && depth > 0 {
            match self.peek(0) {
                Some(Tok::Punct('{')) => depth += 1,
                Some(Tok::Punct('}')) => depth -= 1,
                _ => {}
            }
            self.pos += 1;
        }
    }

    /// Walk a struct/enum body collecting `// lockorder: leaf` fields;
    /// assumes the opening `{` was consumed.
    fn struct_body(&mut self) {
        let mut depth = 1u32;
        let mut cur_field: Option<String> = None;
        while self.pos < self.toks.len() && depth > 0 {
            match self.peek(0) {
                Some(Tok::Punct('{')) => depth += 1,
                Some(Tok::Punct('}')) => depth -= 1,
                Some(Tok::Ident(name))
                    if depth == 1 && self.punct(1, ':') && !self.punct(2, ':') =>
                {
                    cur_field = Some(name.clone());
                }
                Some(Tok::LeafMark) => {
                    if let Some(f) = &cur_field {
                        self.out.leaf_fields.insert(f.clone());
                    }
                }
                _ => {}
            }
            self.pos += 1;
        }
    }

    /// Parse `fn name(sig) -> ret { body }` starting at the `fn` keyword.
    fn function(&mut self, impl_type: Option<&str>, skip: bool) {
        let decl_line = self.line(0);
        self.pos += 1; // 'fn'
        let Some(name) = self.ident(0).map(str::to_string) else {
            return;
        };
        self.pos += 1;
        // Signature: up to `{` (body) or `;` (declaration only).
        let mut parens = 0i32;
        let mut after_arrow = false;
        let mut returns_rank_guard = false;
        loop {
            match self.peek(0) {
                None => return,
                Some(Tok::Punct('(')) => parens += 1,
                Some(Tok::Punct(')')) => parens -= 1,
                Some(Tok::Punct('-')) if self.punct(1, '>') && parens == 0 => after_arrow = true,
                Some(Tok::Ident(s)) if after_arrow && s == "RankGuard" => returns_rank_guard = true,
                Some(Tok::Punct(';')) if parens == 0 => {
                    self.pos += 1;
                    return; // trait method declaration, no body
                }
                Some(Tok::Punct('{')) if parens == 0 => {
                    self.pos += 1;
                    break;
                }
                _ => {}
            }
            self.pos += 1;
        }
        if skip {
            self.skip_braces();
            return;
        }
        let events = self.body();
        let key = match impl_type {
            Some(t) => format!("{}::{}::{}", self.crate_name, t, name),
            None => format!("{}::{}", self.crate_name, name),
        };
        self.out.functions.push(FnInfo {
            key,
            name,
            file: self.file.to_string(),
            line: decl_line,
            crate_name: self.crate_name.to_string(),
            returns_rank_guard,
            events,
        });
    }

    /// Parse a function body (opening `{` already consumed) into events.
    fn body(&mut self) -> Vec<Event> {
        let mut events = Vec::new();
        let mut depth = 1u32;
        let mut last_binding = String::new();
        while self.pos < self.toks.len() {
            match self.peek(0) {
                Some(Tok::Punct('{')) => {
                    depth += 1;
                    self.pos += 1;
                }
                Some(Tok::Punct('}')) => {
                    events.push(Event::Close { depth });
                    depth -= 1;
                    self.pos += 1;
                    if depth == 0 {
                        return events;
                    }
                }
                Some(Tok::Punct(';')) => {
                    last_binding.clear();
                    self.pos += 1;
                }
                Some(Tok::Punct('#')) => {
                    self.skip_attr();
                }
                Some(Tok::Ident(kw)) if kw == "fn" => {
                    // Nested function: scanned as its own item.
                    self.function(None, false);
                }
                Some(Tok::Ident(kw)) if kw == "let" => {
                    self.pos += 1;
                    if self.ident(0) == Some("mut") {
                        self.pos += 1;
                    }
                    if let Some(name) = self.ident(0) {
                        last_binding = name.to_string();
                        self.pos += 1;
                    } else {
                        last_binding = "_pat".to_string();
                    }
                }
                Some(Tok::Ident(kw))
                    if kw == "drop"
                        && self.punct(1, '(')
                        && self.ident(2).is_some()
                        && self.punct(3, ')') =>
                {
                    if let Some(b) = self.ident(2) {
                        events.push(Event::Drop {
                            binding: b.to_string(),
                        });
                    }
                    self.pos += 4;
                }
                Some(Tok::Ident(kw))
                    if kw == "lockorder"
                        && self.punct(1, ':')
                        && self.punct(2, ':')
                        && self.ident(3) == Some("acquire")
                        && self.punct(4, '(') =>
                {
                    let line = self.line(0);
                    self.pos += 5;
                    // Rank = last ident before the closing paren
                    // (`lockorder::POOL` or a bare `POOL`).
                    let mut rank = String::new();
                    let mut parens = 1i32;
                    while self.pos < self.toks.len() && parens > 0 {
                        match self.peek(0) {
                            Some(Tok::Punct('(')) => parens += 1,
                            Some(Tok::Punct(')')) => parens -= 1,
                            Some(Tok::Ident(s)) => rank = s.clone(),
                            _ => {}
                        }
                        self.pos += 1;
                    }
                    events.push(Event::Acquire {
                        rank,
                        line,
                        depth,
                        binding: last_binding.clone(),
                    });
                }
                Some(Tok::Punct('.')) => {
                    // `.field.op(` (lock / histogram) and `.op(` (io / call).
                    if let (Some(f), true, Some(m), true) = (
                        self.ident(1),
                        self.punct(2, '.'),
                        self.ident(3),
                        self.punct(4, '('),
                    ) {
                        let line = self.line(3);
                        if HIST_OPS.contains(&m) {
                            let field = f.to_string();
                            events.push(Event::HistUse { field, line });
                            self.pos += 5;
                            continue;
                        }
                        if LOCK_OPS.contains(&m) {
                            let (field, op) = (f.to_string(), m.to_string());
                            events.push(Event::RawLock {
                                field,
                                op,
                                line,
                                depth,
                                binding: last_binding.clone(),
                            });
                            self.pos += 5;
                            continue;
                        }
                    }
                    if let (Some(m), true) = (self.ident(1), self.punct(2, '(')) {
                        let line = self.line(1);
                        if IO_OPS.contains(&m) {
                            let op = m.to_string();
                            events.push(Event::Io { op, line });
                        } else if !is_keyword(m) && !is_blocklisted(m) {
                            let name = m.to_string();
                            events.push(Event::Call { name, line, depth });
                        }
                        self.pos += 3;
                        continue;
                    }
                    self.pos += 1;
                }
                Some(Tok::Ident(name)) if self.punct(1, '!') => {
                    // Macro invocation: skip the name, scan the arguments
                    // as ordinary tokens.
                    let _ = name;
                    self.pos += 2;
                }
                Some(Tok::Ident(name)) if self.punct(1, '(') => {
                    if IO_OPS.contains(&name.as_str()) {
                        let op = name.clone();
                        let line = self.line(0);
                        events.push(Event::Io { op, line });
                    } else if !is_keyword(name) && !is_blocklisted(name) {
                        let (name, line) = (name.clone(), self.line(0));
                        events.push(Event::Call { name, line, depth });
                    }
                    self.pos += 2;
                }
                _ => self.pos += 1,
            }
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn scan(src: &str) -> ScanOutput {
        let mut out = ScanOutput::default();
        let toks = lex(src);
        scan_file("lib.rs", "storage", &toks, &mut out);
        out
    }

    #[test]
    fn acquire_and_rawlock_events() {
        let out = scan(
            "impl Pool { fn fetch(&self) { let _r = lockorder::acquire(lockorder::POOL); \
             let g = self.inner.lock(); } }",
        );
        assert_eq!(out.functions.len(), 1);
        let f = &out.functions[0];
        assert_eq!(f.key, "storage::Pool::fetch");
        assert!(matches!(&f.events[0], Event::Acquire { rank, binding, .. }
            if rank == "POOL" && binding == "_r"));
        assert!(matches!(&f.events[1], Event::RawLock { field, op, .. }
            if field == "inner" && op == "lock"));
    }

    #[test]
    fn leaf_field_collection() {
        let out = scan("struct Frame { data: Arc<RwLock<P>>, // lockorder: leaf\n pin: u32 }");
        assert!(out.leaf_fields.contains("data"));
        assert!(!out.leaf_fields.contains("pin"));
    }

    #[test]
    fn io_and_calls_and_blocklist() {
        let out =
            scan("fn flush(&self) { self.disk.write_page(0, &b); helper(); map.insert(1, 2); }");
        let f = &out.functions[0];
        assert!(matches!(&f.events[0], Event::Io { op, .. } if op == "write_page"));
        assert!(matches!(&f.events[1], Event::Call { name, .. } if name == "helper"));
        assert_eq!(f.events.len(), 3); // io, call, final Close — insert blocked
    }

    #[test]
    fn cfg_test_items_are_skipped() {
        let out = scan(
            "#[cfg(test)] mod tests { fn t(&self) { self.raw.lock(); } } \
             fn live() { real_call(); }",
        );
        assert_eq!(out.functions.len(), 1);
        assert_eq!(out.functions[0].name, "live");
    }

    #[test]
    fn escaping_guard_signature() {
        let out = scan(
            "impl Db { fn lock_commit(&self) -> (lockorder::RankGuard, MutexGuard<'_, ()>) { \
             let rank = lockorder::acquire(lockorder::COMMIT); (rank, self.commit_lock.lock()) } }",
        );
        assert!(out.functions[0].returns_rank_guard);
    }

    #[test]
    fn histogram_use() {
        let out = scan("fn f(&self) { self.miss_io_us.time(|| inner_read()); }");
        let f = &out.functions[0];
        assert!(matches!(&f.events[0], Event::HistUse { field, .. } if field == "miss_io_us"));
        assert!(matches!(&f.events[1], Event::Call { name, .. } if name == "inner_read"));
    }
}
