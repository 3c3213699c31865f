//! METRICS.md documents every metric series; these tests hold it to the
//! code.
//!
//! - Every series the pin workload emits matches a row of its kind. The
//!   emitted series are the sorted list `tests/metric_pins.rs` pins,
//!   which that test holds equal to what the workload records.
//! - Every row sourced from the span fold is a row of
//!   `exdra_obs::fold::FOLDS` (same span, attribute, kind and template),
//!   and every row of `FOLDS` is documented.
//! - Every row sourced from a direct write names a file that spells the
//!   series.

use std::path::Path;

use exdra::obs::fold::{How, FOLDS};

/// One row of METRICS.md's table.
struct Row {
    series: String,
    kind: String,
    /// The source cell with its backticks removed, split on spaces:
    /// `["fold", span, how, attr]` or `["direct", file]`.
    source: Vec<String>,
}

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn rows() -> Vec<Row> {
    let rows: Vec<Row> = read("METRICS.md")
        .lines()
        .filter(|l| l.starts_with("| `"))
        .map(|l| {
            let cells: Vec<&str> = l.split('|').map(str::trim).collect();
            Row {
                series: cells[1].trim_matches('`').to_string(),
                kind: cells[2].to_string(),
                source: cells[4]
                    .split_whitespace()
                    .map(|t| t.trim_matches('`').to_string())
                    .collect(),
            }
        })
        .collect();
    assert!(
        rows.len() > 50,
        "METRICS.md's table has {} rows",
        rows.len()
    );
    rows
}

/// Whether `name` is an instance of `template`, where each `{x}` stands
/// for one dot-free segment.
fn matches(template: &str, name: &str) -> bool {
    let (t, n): (Vec<&str>, Vec<&str>) = (template.split('.').collect(), name.split('.').collect());
    t.len() == n.len()
        && t.iter()
            .zip(&n)
            .all(|(t, n)| t == n || (t.starts_with('{') && !n.is_empty()))
}

#[test]
fn every_series_the_pin_workload_emits_is_documented() {
    let rows = rows();
    let pins = read("tests/metric_pins.rs");
    let emitted: Vec<(&str, &str)> = pins
        .lines()
        .filter_map(|l| {
            let pin = l.trim().strip_prefix('"')?;
            let (kind, rest) = pin.split_once(' ')?;
            let name = rest.split([' ', '"']).next()?;
            matches!(kind, "counter" | "histogram").then_some((kind, name))
        })
        .collect();
    assert!(emitted.len() > 50, "{} pinned series", emitted.len());
    let undocumented: Vec<String> = emitted
        .iter()
        .filter(|(kind, name)| {
            !rows
                .iter()
                .any(|r| r.kind == *kind && matches(&r.series, name))
        })
        .map(|(kind, name)| format!("{kind} {name}"))
        .collect();
    assert!(
        undocumented.is_empty(),
        "emitted but not in METRICS.md: {undocumented:?}"
    );
}

#[test]
fn fold_rows_and_the_fold_table_agree() {
    let rows = rows();
    let how = |h: How| match h {
        How::Count => "count",
        How::Sum => "sum",
        How::Sample => "sample",
    };
    let kind = |h: How| match h {
        How::Count | How::Sum => "counter",
        How::Sample => "histogram",
    };
    let folded: Vec<String> = FOLDS
        .iter()
        .map(|f| {
            let source = ["fold", f.span, how(f.how), f.attr].join(" ");
            format!("{} {} {source}", f.series, kind(f.how))
        })
        .collect();
    let documented: Vec<String> = rows
        .iter()
        .filter(|r| r.source[0] == "fold")
        .map(|r| format!("{} {} {}", r.series, r.kind, r.source.join(" ")))
        .collect();
    let dead: Vec<&String> = documented.iter().filter(|d| !folded.contains(d)).collect();
    assert!(dead.is_empty(), "in METRICS.md, not in FOLDS: {dead:?}");
    let missing: Vec<&String> = folded.iter().filter(|f| !documented.contains(f)).collect();
    assert!(
        missing.is_empty(),
        "in FOLDS, not in METRICS.md: {missing:?}"
    );
}

#[test]
fn direct_rows_name_a_file_that_spells_the_series() {
    let rows = rows();
    let mut seen = std::collections::BTreeSet::new();
    for row in &rows {
        assert!(seen.insert(&row.series), "{} listed twice", row.series);
        match row.source.as_slice() {
            [fold, ..] if fold == "fold" => {}
            [direct, file] if direct == "direct" => {
                let text = read(file);
                // The literal pieces between the placeholders.
                for piece in row.series.split(['{', '}']).step_by(2) {
                    assert!(text.contains(piece), "{file} never spells {piece:?}");
                }
            }
            other => panic!("{}: unknown source {other:?}", row.series),
        }
    }
}
