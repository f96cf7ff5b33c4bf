//! Text rendering of statement results for the wire protocol and REPL.

use std::fmt::{self, Write};

use evopt_engine::QueryResult;

/// Cap on rendered rows per result; the true row count is still reported.
pub const ROW_LIMIT: usize = 1000;

/// Render `result` straight into `out` — the outgoing frame when serving a
/// connection — one `write!` per cell, no string per cell or per row.
/// Fails only when `out` does (a frame refusing text past its cap).
pub fn render_into<W: Write>(result: &QueryResult, out: &mut W) -> fmt::Result {
    match result {
        QueryResult::Rows { schema, rows, .. } => {
            line(out, schema.columns(), |out, c| {
                out.write_str(&c.qualified_name())
            })?;
            for r in rows.iter().take(ROW_LIMIT) {
                line(out, r.values(), |out, v| write!(out, "{v}"))?;
            }
            if rows.len() > ROW_LIMIT {
                writeln!(out, "... ({} rows total, showing {ROW_LIMIT})", rows.len())?;
            }
            write!(out, "{} row(s)", rows.len())
        }
        QueryResult::Affected(n) => write!(out, "{n} row(s) affected"),
        QueryResult::Explained(text) => out.write_str(text),
        QueryResult::Ok => out.write_str("ok"),
    }
}

/// One `| a | b |` line.
fn line<W: Write, T>(
    out: &mut W,
    cells: &[T],
    mut cell: impl FnMut(&mut W, &T) -> fmt::Result,
) -> fmt::Result {
    out.write_str("| ")?;
    for (i, c) in cells.iter().enumerate() {
        if i > 0 {
            out.write_str(" | ")?;
        }
        cell(out, c)?;
    }
    out.write_str(" |\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use evopt_common::{Column, DataType, Schema, Tuple, Value};

    /// The renderer this module had before it streamed: a `String` per
    /// cell, joined per row. Kept as the reference the streaming renderer
    /// must match byte for byte (the benchmark's oracle parses this text).
    fn reference(result: &QueryResult) -> String {
        match result {
            QueryResult::Rows { schema, rows, .. } => {
                let mut out = String::new();
                let header: Vec<String> = schema
                    .columns()
                    .iter()
                    .map(|c| c.qualified_name())
                    .collect();
                out.push_str(&format!("| {} |\n", header.join(" | ")));
                for r in rows.iter().take(ROW_LIMIT) {
                    let cells: Vec<String> = r.values().iter().map(|v| v.to_string()).collect();
                    out.push_str(&format!("| {} |\n", cells.join(" | ")));
                }
                if rows.len() > ROW_LIMIT {
                    out.push_str(&format!(
                        "... ({} rows total, showing {ROW_LIMIT})\n",
                        rows.len()
                    ));
                }
                out.push_str(&format!("{} row(s)", rows.len()));
                out
            }
            QueryResult::Affected(n) => format!("{n} row(s) affected"),
            QueryResult::Explained(text) => text.clone(),
            QueryResult::Ok => "ok".to_string(),
        }
    }

    fn streamed(result: &QueryResult) -> String {
        let mut out = String::new();
        render_into(result, &mut out).unwrap();
        out
    }

    fn rows(schema: Schema, rows: Vec<Tuple>) -> QueryResult {
        QueryResult::Rows {
            schema,
            rows,
            metrics: None,
        }
    }

    fn every_variant_schema() -> Schema {
        Schema::new(vec![
            Column::new("i", DataType::Int).with_table("t"),
            Column::new("f", DataType::Float).with_table("t"),
            Column::new("s", DataType::Str),
            Column::new("b", DataType::Bool).with_table("u"),
            Column::new("n", DataType::Int),
        ])
    }

    fn every_variant_row(i: i64) -> Tuple {
        Tuple::new(vec![
            Value::Int(i * 1_000_003 - 7),
            Value::Float(i as f64 / 3.0),
            Value::Str(format!("a b | c '{i}' é")),
            Value::Bool(i % 2 == 0),
            Value::Null,
        ])
    }

    #[test]
    fn streaming_matches_the_reference_for_every_value_variant() {
        let mut tuples: Vec<Tuple> = (-3..4).map(every_variant_row).collect();
        tuples.push(Tuple::new(vec![
            Value::Int(i64::MIN),
            Value::Float(-0.0),
            Value::Str(String::new()),
            Value::Bool(true),
            Value::Null,
        ]));
        tuples.push(Tuple::new(vec![
            Value::Int(i64::MAX),
            Value::Float(1e300),
            Value::Str(" | ".into()),
            Value::Null,
            Value::Float(f64::NAN),
        ]));
        let result = rows(every_variant_schema(), tuples);
        let text = streamed(&result);
        assert_eq!(text, reference(&result));
        assert!(text.starts_with("| t.i | t.f | s | u.b | n |\n"), "{text}");
        assert!(text.ends_with("\n9 row(s)"), "{text}");
    }

    #[test]
    fn streaming_matches_the_reference_for_empty_results() {
        // No rows; and no rows and no columns.
        for schema in [every_variant_schema(), Schema::new(vec![])] {
            let result = rows(schema, vec![]);
            assert_eq!(streamed(&result), reference(&result));
        }
        assert_eq!(
            streamed(&rows(Schema::new(vec![]), vec![])),
            "|  |\n0 row(s)"
        );
    }

    #[test]
    fn streaming_matches_the_reference_past_the_row_limit() {
        let tuples: Vec<Tuple> = (0..ROW_LIMIT as i64 + 5).map(every_variant_row).collect();
        let result = rows(every_variant_schema(), tuples);
        let text = streamed(&result);
        assert_eq!(text, reference(&result));
        assert_eq!(text.lines().count(), 1 + ROW_LIMIT + 2);
        assert!(
            text.ends_with("... (1005 rows total, showing 1000)\n1005 row(s)"),
            "{}",
            &text[text.len() - 80..]
        );
    }

    #[test]
    fn streaming_matches_the_reference_for_non_row_results() {
        for result in [
            QueryResult::Affected(3),
            QueryResult::Explained("Project\n  SeqScan t".into()),
            QueryResult::Ok,
        ] {
            assert_eq!(streamed(&result), reference(&result));
        }
    }
}
