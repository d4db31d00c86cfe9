//! `table1`'s machine-readable result report and the JSON writer helpers.
//!
//! Parsing `table1`'s pretty-printed tables is brittle, so it can emit a
//! small JSON document instead — the Table-1 rows plus the wall-clock time
//! of the producing sweep — which the workflow uploads as an artifact
//! (`BENCH_table1.json`).  [`bench_report_json`] writes only that report;
//! perf measurements use the typed metric records of [`crate::MetricRecord`]
//! instead, never [`TableRow`] columns.
//!
//! The writer is hand-rolled because the workspace builds without registry
//! access (no serde); the emitted subset is plain JSON: objects, arrays,
//! strings with escaping per RFC 8259 (quotes, backslashes and control
//! characters), integers and finite floats.

use std::fmt::Write as _;

use crate::TableRow;

/// One titled group of table rows in the report.
#[derive(Debug, Clone)]
pub struct BenchTable {
    /// Human-readable table title (e.g. the Table 1 caption).
    pub title: String,
    /// The measured rows.
    pub rows: Vec<TableRow>,
}

/// Serialises a bench report: the producing binary's name, scheduler
/// configuration, total wall-clock seconds and every measured table.
pub fn bench_report_json(
    bench: &str,
    workers: usize,
    batch: usize,
    wall_seconds: f64,
    tables: &[BenchTable],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"bench\": {},", json_string(bench));
    let _ = writeln!(out, "  \"workers\": {workers},");
    let _ = writeln!(out, "  \"batch\": {batch},");
    let _ = writeln!(out, "  \"wall_seconds\": {},", json_f64(wall_seconds));
    out.push_str("  \"tables\": [");
    for (t, table) in tables.iter().enumerate() {
        if t > 0 {
            out.push(',');
        }
        out.push_str("\n    {\n");
        let _ = writeln!(out, "      \"title\": {},", json_string(&table.title));
        out.push_str("      \"rows\": [");
        for (r, row) in table.rows.iter().enumerate() {
            if r > 0 {
                out.push(',');
            }
            out.push_str("\n        ");
            push_row(&mut out, row);
        }
        out.push_str("\n      ]\n    }");
    }
    out.push_str("\n  ]\n}\n");
    out
}

fn push_row(out: &mut String, row: &TableRow) {
    let _ = write!(
        out,
        "{{\"label\": {}, \"golden_cycles\": {}, \"wp1_cycles\": {}, \
         \"wp2_cycles\": {}, \"th_wp1\": {}, \"th_wp2\": {}, \
         \"th_wp1_predicted\": {}, \"improvement_percent\": {}, \
         \"proven_n_wp1\": {}, \"proven_n_wp2\": {}}}",
        json_string(&row.label),
        row.golden_cycles,
        row.wp1_cycles,
        row.wp2_cycles,
        json_f64(row.th_wp1),
        json_f64(row.th_wp2),
        json_f64(row.th_wp1_predicted),
        json_f64(row.improvement_percent),
        json_opt_usize(row.proven_n_wp1),
        json_opt_usize(row.proven_n_wp2),
    );
}

/// Formats an optional count as a JSON number or `null` (the equivalence
/// gate was off).
pub fn json_opt_usize(v: Option<usize>) -> String {
    v.map_or_else(|| "null".to_string(), |n| n.to_string())
}

/// Escapes a string per RFC 8259 (quotes, backslashes, control characters).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a float as a JSON number (NaN/infinity are not representable in
/// JSON and map to `null`; no measured quantity in this workspace is
/// either).  Rust's `{}` float formatting is shortest-round-trip, so a
/// parse of the emitted text recovers the bit-identical `f64`.
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // `{}` prints integral floats without a fraction ("1"), which is a
        // valid JSON number, but keep the fraction for schema stability.
        if s.contains(['.', 'e', 'E']) {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wp_dist::Json;

    fn row(label: &str) -> TableRow {
        TableRow {
            label: label.to_string(),
            golden_cycles: 100,
            wp1_cycles: 150,
            wp2_cycles: 120,
            th_wp1: 100.0 / 150.0,
            th_wp2: 100.0 / 120.0,
            th_wp1_predicted: 0.75,
            improvement_percent: 25.0,
            proven_n_wp1: None,
            proven_n_wp2: None,
        }
    }

    #[test]
    fn report_contains_rows_and_wall_time() {
        let mut verified = row("All 0 (ideal)");
        verified.proven_n_wp1 = Some(314);
        verified.proven_n_wp2 = Some(159);
        let tables = vec![BenchTable {
            title: "Table 1 \"quick\"".to_string(),
            rows: vec![verified, row("Only RF-DC")],
        }];
        let json = bench_report_json("table1", 4, 1, 1.25, &tables);
        assert!(json.contains("\"bench\": \"table1\""));
        assert!(json.contains("\"wall_seconds\": 1.25"));
        assert!(json.contains("\"workers\": 4"));
        assert!(json.contains("\"title\": \"Table 1 \\\"quick\\\"\""));
        assert!(json.contains("\"label\": \"Only RF-DC\""));
        assert!(json.contains("\"golden_cycles\": 100"));
        assert!(json.contains("\"improvement_percent\": 25.0"));
        // The equivalence gate surfaces proven N as a number, or null when
        // the gate was off for that row.
        assert!(json.contains("\"proven_n_wp1\": 314"));
        assert!(json.contains("\"proven_n_wp2\": 159"));
        assert!(json.contains("\"proven_n_wp1\": null"));
    }

    #[test]
    fn escaping_covers_controls_and_quotes() {
        assert_eq!(json_string("a\"b\\c\nd\u{1}"), "\"a\\\"b\\\\c\\nd\\u0001\"");
        assert_eq!(json_f64(2.0), "2.0");
        assert_eq!(json_f64(0.5), "0.5");
        assert_eq!(json_f64(f64::NAN), "null");
    }

    /// The full report document parses with `wp_dist::Json`, escaped
    /// labels and all.
    #[test]
    fn the_report_document_is_parseable_json() {
        let tables = vec![BenchTable {
            title: "Table \u{1} \"one\"".to_string(),
            rows: vec![row("a\"b\\c\nd")],
        }];
        let report = bench_report_json("table1", 2, 0, 0.125, &tables);
        let doc = Json::parse(&report).expect("report parses");
        assert_eq!(
            doc.get("tables").unwrap().as_arr().unwrap()[0]
                .get("title")
                .and_then(Json::as_str),
            Some("Table \u{1} \"one\"")
        );
        let row_json = &doc.get("tables").unwrap().as_arr().unwrap()[0]
            .get("rows")
            .unwrap()
            .as_arr()
            .unwrap()[0];
        assert_eq!(
            row_json.get("label").and_then(Json::as_str),
            Some("a\"b\\c\nd")
        );
    }
}
