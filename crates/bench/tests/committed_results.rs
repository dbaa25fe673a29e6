//! Every committed `results/*.json` is a document of the current schema
//! version that `compare_results` can read: each row cell has a
//! declared kind, `(workload, allocator)` identities are unique, and
//! exact cells — counters and digests up to 2^64 — come back unchanged
//! from a write→parse round trip through the one results writer.

use std::path::{Path, PathBuf};

use bench_harness::results::{compare_docs, declared_columns, row_cells, row_label, ColumnKind, Json};
use bench_harness::runner::{render_results, Cell, Row, RESULTS_SCHEMA_VERSION};

fn committed() -> Vec<(PathBuf, Json)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no committed results documents in {}", dir.display());
    paths
        .into_iter()
        .map(|p| {
            let text = std::fs::read_to_string(&p).expect("readable");
            let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", p.display()));
            (p, doc)
        })
        .collect()
}

fn rows(doc: &Json) -> &[Json] {
    doc.get("rows").and_then(Json::as_arr).expect("rows array")
}

#[test]
fn committed_results_are_current_documents() {
    for (path, doc) in committed() {
        let name = path.display();
        assert_eq!(
            doc.get("schema_version").and_then(Json::as_u64),
            Some(RESULTS_SCHEMA_VERSION),
            "{name}: schema version"
        );
        assert_eq!(
            doc.get("bench").and_then(Json::as_str),
            path.file_stem().and_then(|s| s.to_str()),
            "{name}: bench names its file"
        );
        assert!(doc.get("scale").and_then(Json::as_u64).is_some(), "{name}: scale recorded");
        let columns = declared_columns(&doc).unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut seen = Vec::new();
        for row in rows(&doc) {
            let label = row_label(row);
            assert!(!seen.contains(&label), "{name}: duplicate row {label}");
            for (cell, value) in row_cells(row) {
                let kind = columns
                    .get(cell)
                    .unwrap_or_else(|| panic!("{name}: {label}: cell {cell} has no declared kind"));
                if *kind == ColumnKind::Exact {
                    assert!(value.as_u64().is_some(), "{name}: {label}: {cell} is not an integer");
                }
            }
            seen.push(label);
        }
    }
}

#[test]
fn exact_cells_survive_a_write_parse_round_trip() {
    for (path, doc) in committed() {
        let name = path.display();
        let columns = declared_columns(&doc).unwrap_or_else(|e| panic!("{name}: {e}"));
        let rebuilt: Vec<Row> = rows(&doc)
            .iter()
            .map(|row| {
                let mut out = Row::new(
                    row.get("workload").and_then(Json::as_str).expect("workload"),
                    row.get("allocator").and_then(Json::as_str).expect("allocator"),
                );
                for (col, value) in row_cells(row) {
                    let number = || value.as_num().expect("numeric cell");
                    out = out.with(
                        col,
                        match columns[col] {
                            ColumnKind::Exact => Cell::Exact(value.as_u64().expect("integer")),
                            ColumnKind::Time => Cell::Time(number()),
                            ColumnKind::ParTime => Cell::ParTime(number()),
                            ColumnKind::Latency => Cell::Latency(number()),
                        },
                    );
                }
                out
            })
            .collect();
        let bench = doc.get("bench").and_then(Json::as_str).expect("bench");
        let scale = doc.get("scale").and_then(Json::as_u64).expect("scale");
        let text = render_results(bench, u32::try_from(scale).expect("scale fits"), &rebuilt);
        let again = Json::parse(&text).unwrap_or_else(|e| panic!("{name}: rewrite: {e}"));
        for (old, new) in rows(&doc).iter().zip(rows(&again)) {
            for (col, value) in row_cells(old).filter(|(c, _)| columns[*c] == ColumnKind::Exact) {
                assert_eq!(new.get(col), Some(value), "{name}: {}: {col}", row_label(old));
            }
        }
        let diffs = compare_docs(&doc, &again, 25.0, true);
        assert!(diffs.is_empty(), "{name}: round trip differs: {diffs:?}");
    }
}
