//! The one bench schema and the one perf-regression gate.
//!
//! The `bench` binary writes one report of typed [`MetricRecord`]s,
//! `{"records": [{"name", "unit", "value", "tolerance"}, ...]}`, named
//! dotted `layer.metric.workload`.  The tolerance is the gating policy and
//! travels with the baseline: a gated record fails when the fresh value
//! falls more than `tolerance` (a fraction of the baseline value) below the
//! baseline, and `null` keeps the record for context without gating it.
//! Every gated quantity is higher-is-better.
//!
//! [`compare_reports`] matches records by name.  A baseline record missing
//! from the fresh report fails as loudly as a regression; fresh-only
//! records pass.  [`parse_metric_records`] rejects a malformed report with
//! a typed [`RecordError`] instead of panicking.  The `bench_compare`
//! binary wraps this check for CI (see the README's *Refreshing the perf
//! baseline*).  Table 1 is not gated here: `table1`'s result report
//! ([`crate::bench_report_json`]) is pinned more tightly by the committed
//! stdout diff of `table1 --quick --verify`.

use std::collections::HashSet;
use std::fmt::{self, Write as _};

use wp_dist::Json;

use crate::{json_f64, json_string};

/// One measured quantity of the bench report.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricRecord {
    /// Dotted `layer.metric.workload` name, unique within a report.
    pub name: String,
    /// Unit of `value` (`x` for ratios, `ms`, `count`, ...).
    pub unit: String,
    /// The measured value (always finite).
    pub value: f64,
    /// Allowed relative drop below the baseline value, in `[0, 1)`;
    /// `None` keeps the record for context without gating it.
    pub tolerance: Option<f64>,
}

/// A malformed metric report.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordError {
    /// The document has no `records` array.
    MissingRecords,
    /// Record number `index` lacks `field`, or it has the wrong type.
    MissingField {
        /// Position of the record in the report.
        index: usize,
        /// The missing or ill-typed member.
        field: &'static str,
    },
    /// A record's value is NaN or infinite.
    NonFinite {
        /// The record's name.
        name: String,
    },
    /// A record's tolerance lies outside `[0, 1)`.
    Tolerance {
        /// The record's name.
        name: String,
        /// The rejected tolerance.
        tolerance: f64,
    },
    /// Two records share a name.
    Duplicate {
        /// The repeated name.
        name: String,
    },
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::MissingRecords => write!(f, "no \"records\" array"),
            RecordError::MissingField { index, field } => {
                write!(f, "record {index}: missing or ill-typed member \"{field}\"")
            }
            RecordError::NonFinite { name } => write!(f, "record '{name}': value is not finite"),
            RecordError::Tolerance { name, tolerance } => write!(
                f,
                "record '{name}': tolerance {tolerance} is outside [0, 1)"
            ),
            RecordError::Duplicate { name } => write!(f, "record '{name}' appears twice"),
        }
    }
}

impl std::error::Error for RecordError {}

/// Serialises a metric report, one record per line.
pub fn metric_report_json(records: &[MetricRecord]) -> String {
    let mut out = String::from("{\n  \"records\": [");
    for (i, record) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"name\": {}, \"unit\": {}, \"value\": {}, \"tolerance\": {}}}",
            json_string(&record.name),
            json_string(&record.unit),
            json_f64(record.value),
            record
                .tolerance
                .map_or_else(|| "null".to_string(), json_f64),
        );
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Parses and validates a metric report (see the module docs).
///
/// # Errors
///
/// Returns the first [`RecordError`] found, in report order.
pub fn parse_metric_records(doc: &Json) -> Result<Vec<MetricRecord>, RecordError> {
    let items = doc
        .get("records")
        .and_then(Json::as_arr)
        .ok_or(RecordError::MissingRecords)?;
    let mut seen = HashSet::new();
    let mut records = Vec::with_capacity(items.len());
    for (index, item) in items.iter().enumerate() {
        let missing = |field| RecordError::MissingField { index, field };
        let text = |field| item.get(field).and_then(Json::as_str).ok_or(missing(field));
        let number = |field| item.get(field).and_then(Json::as_f64).ok_or(missing(field));
        let name = text("name")?.to_string();
        let unit = text("unit")?.to_string();
        let value = number("value")?;
        let tolerance = match item.get("tolerance").ok_or(missing("tolerance"))? {
            Json::Null => None,
            _ => Some(number("tolerance")?),
        };
        if !value.is_finite() {
            return Err(RecordError::NonFinite { name });
        }
        if let Some(tolerance) = tolerance.filter(|t| !(0.0..1.0).contains(t)) {
            return Err(RecordError::Tolerance { name, tolerance });
        }
        if !seen.insert(name.clone()) {
            return Err(RecordError::Duplicate { name });
        }
        records.push(MetricRecord {
            name,
            unit,
            value,
            tolerance,
        });
    }
    Ok(records)
}

/// The verdict of one baseline-vs-fresh comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchComparison {
    /// How many gated records were actually compared.
    pub compared: usize,
    /// Every violation found, in baseline order: regressions past the
    /// tolerance and baseline records missing from the fresh report.
    pub failures: Vec<String>,
}

impl BenchComparison {
    /// Whether the fresh report passed the gate.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Gates `fresh` against `baseline`, reading each record's tolerance from
/// the baseline (see the module docs for the semantics).
pub fn compare_reports(baseline: &[MetricRecord], fresh: &[MetricRecord]) -> BenchComparison {
    let mut result = BenchComparison {
        compared: 0,
        failures: Vec::new(),
    };
    if baseline.is_empty() {
        result
            .failures
            .push("the baseline report has no records — refresh the baseline".into());
    }
    for base in baseline {
        let Some(now) = fresh.iter().find(|r| r.name == base.name) else {
            result.failures.push(format!(
                "record '{}' is missing from the fresh report",
                base.name
            ));
            continue;
        };
        let Some(tolerance) = base.tolerance else {
            continue;
        };
        result.compared += 1;
        if now.value < base.value - tolerance * base.value.abs() {
            result.failures.push(format!(
                "'{}' dropped {:.1}% below baseline ({} vs {} {}, tolerance {:.0}%)",
                base.name,
                100.0 * (base.value - now.value) / base.value.abs(),
                now.value,
                base.value,
                base.unit,
                100.0 * tolerance,
            ));
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Result<Vec<MetricRecord>, RecordError> {
        parse_metric_records(&Json::parse(text).expect("test report is JSON"))
    }

    fn compare(baseline: &[MetricRecord], fresh: &[MetricRecord]) -> BenchComparison {
        // Every comparison also round-trips both sides through the writer
        // and the validating parser.
        let baseline = parse(&metric_report_json(baseline)).expect("baseline round-trips");
        let fresh = parse(&metric_report_json(fresh)).expect("fresh round-trips");
        compare_reports(&baseline, &fresh)
    }

    fn record(name: &str, value: f64, tolerance: Option<f64>) -> MetricRecord {
        MetricRecord {
            name: name.to_string(),
            unit: "x".to_string(),
            value,
            tolerance,
        }
    }

    fn speedup(value: f64) -> MetricRecord {
        record("sim.lane_speedup.sort6", value, Some(0.25))
    }

    #[test]
    fn identical_reports_pass_and_count_the_gated_fields() {
        let base = [
            speedup(50.0),
            record("dse.best_effective.seed9", 0.0, Some(0.25)),
            record("sim.lane_scalar_ms.sort6", 46.0, None),
        ];
        let result = compare(&base, &base);
        assert!(result.passed(), "{:?}", result.failures);
        assert_eq!(result.compared, 2);
    }

    #[test]
    fn a_drop_within_tolerance_passes_and_beyond_fails() {
        let base = [speedup(0.8)];
        assert!(compare(&base, &[speedup(0.8 * 0.76)]).passed());
        let result = compare(&base, &[speedup(0.8 * 0.74)]);
        assert_eq!(result.failures.len(), 1);
        assert!(
            result.failures[0].contains("'sim.lane_speedup.sort6' dropped"),
            "{result:?}"
        );
        // A negative baseline drops relative to its magnitude.
        let base = [speedup(-4.0)];
        assert!(compare(&base, &[speedup(-4.9)]).passed());
        assert!(!compare(&base, &[speedup(-5.1)]).passed());
    }

    #[test]
    fn improvements_and_fresh_only_records_are_not_regressions() {
        let base = [speedup(0.5)];
        let fresh = [
            speedup(0.9),
            record("sim.new_speedup.matmul3", 0.1, Some(0.5)),
        ];
        let result = compare(&base, &fresh);
        assert!(result.passed(), "{:?}", result.failures);
        assert_eq!(result.compared, 1);
    }

    #[test]
    fn missing_records_fail_loudly() {
        let base = [
            speedup(0.5),
            record("sim.oracle_speedup.sort16", 300.0, Some(0.5)),
        ];
        let result = compare(&base, &[speedup(0.5)]);
        assert_eq!(result.failures.len(), 1);
        assert!(
            result.failures[0].contains("'sim.oracle_speedup.sort16' is missing"),
            "{result:?}"
        );
        let result = compare(&base, &[]);
        assert_eq!(result.failures.len(), 2, "{result:?}");
    }

    #[test]
    fn ungated_records_never_fail_but_must_be_present() {
        let base = [record("dse.configs_per_s.seed9", 4e6, None)];
        let result = compare(&base, &[record("dse.configs_per_s.seed9", 1.0, None)]);
        assert!(result.passed(), "{:?}", result.failures);
        assert_eq!(result.compared, 0);
        let result = compare(&base, &[speedup(1.0)]);
        assert!(
            result.failures[0].contains("'dse.configs_per_s.seed9' is missing"),
            "{result:?}"
        );
    }

    #[test]
    fn an_empty_baseline_is_itself_a_failure() {
        let result = compare(&[], &[speedup(1.0)]);
        assert!(!result.passed());
        assert!(result.failures[0].contains("baseline"), "{result:?}");
    }

    #[test]
    fn malformed_reports_are_typed_errors_not_panics() {
        let record = |value: &str, tolerance: &str| {
            format!(
                "{{\"records\": [{{\"name\": \"a.b.c\", \"unit\": \"x\", \"value\": {value}, \
                 \"tolerance\": {tolerance}}}]}}"
            )
        };
        assert!(parse(&record("1.0", "0.0")).is_ok());
        assert!(parse(&record("1.0", "null")).is_ok());
        // JSON text cannot carry NaN and the parser rejects an overflowing
        // number, so a non-finite value reaches the record check only
        // through a constructed document.
        assert!(Json::parse(&record("1e999", "0.5")).is_err());
        for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let doc = Json::Obj(vec![(
                "records".into(),
                Json::Arr(vec![Json::Obj(vec![
                    ("name".into(), Json::Str("a.b.c".into())),
                    ("unit".into(), Json::Str("x".into())),
                    ("value".into(), Json::Num(value)),
                    ("tolerance".into(), Json::Null),
                ])]),
            )]);
            assert_eq!(
                parse_metric_records(&doc),
                Err(RecordError::NonFinite {
                    name: "a.b.c".into()
                }),
                "{value}"
            );
        }
        for tolerance in [1.0, -0.1] {
            assert_eq!(
                parse(&record("1.0", &tolerance.to_string())),
                Err(RecordError::Tolerance {
                    name: "a.b.c".into(),
                    tolerance,
                })
            );
        }
        let twice = metric_report_json(&[speedup(1.0), speedup(2.0)]);
        assert_eq!(
            parse(&twice),
            Err(RecordError::Duplicate {
                name: "sim.lane_speedup.sort6".into()
            })
        );
        assert_eq!(
            parse(r#"{"records": [{"name": "a.b.c", "unit": "x", "tolerance": null}]}"#),
            Err(RecordError::MissingField {
                index: 0,
                field: "value"
            })
        );
        assert_eq!(
            parse(r#"{"records": [{"name": "a.b.c", "unit": "x", "value": 1.0}]}"#),
            Err(RecordError::MissingField {
                index: 0,
                field: "tolerance"
            })
        );
        assert_eq!(
            parse(r#"{"records": [{"name": 3, "unit": "x", "value": 1.0, "tolerance": null}]}"#),
            Err(RecordError::MissingField {
                index: 0,
                field: "name"
            })
        );
        assert_eq!(parse("{}"), Err(RecordError::MissingRecords));
    }

    /// The committed baseline gates exactly the kernel claims below, at
    /// these tolerances — a stale or hand-edited baseline fails here.
    #[test]
    fn the_committed_baseline_gates_exactly_the_kernel_claims() {
        let doc = Json::parse(include_str!("../../../BENCH_baseline.json"))
            .expect("the committed baseline is JSON");
        let records = parse_metric_records(&doc).expect("the committed baseline is well-formed");
        let mut gated: Vec<(&str, f64)> = records
            .iter()
            .filter_map(|r| Some((r.name.as_str(), r.tolerance?)))
            .collect();
        gated.sort_by(|a, b| a.0.cmp(b.0));
        assert_eq!(
            gated,
            [
                ("dse.best_cycle_throughput.seed9", 0.25),
                ("dse.best_effective.seed9", 0.25),
                ("sim.lane_speedup.matmul3", 0.5),
                ("sim.lane_speedup.sort6", 0.5),
                ("sim.oracle_cycle_saving.matmul5", 0.5),
                ("sim.oracle_cycle_saving.sort16", 0.5),
                ("sim.oracle_speedup.matmul5", 0.5),
                ("sim.oracle_speedup.sort16", 0.5),
            ]
        );
        assert!(
            records.iter().all(|r| r.value > 0.0),
            "every committed record measured something"
        );
    }
}
