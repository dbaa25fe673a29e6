//! Parsing and comparison of the versioned `results/*.json` documents.
//!
//! The harness has no serialization dependency, so this is a minimal
//! hand-rolled JSON reader — complete for the documents
//! [`write_results`](crate::runner::write_results) emits (objects,
//! arrays, strings without exotic escapes, numbers, booleans, null),
//! not a general-purpose parser.
//!
//! [`compare_docs`] implements the regression gate used by the
//! `compare_results` binary. Every schema-v4 document declares each of
//! its columns with a [`ColumnKind`], and the comparison is one loop
//! over those declarations: two documents must have the same version,
//! bench, scale, column declarations and row set (workload × allocator,
//! in order); each cell is then gated by its column's kind.

use std::collections::BTreeMap;

use crate::runner::RESULTS_SCHEMA_VERSION;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true`/`false`.
    Bool(bool),
    /// A non-negative integer literal, parsed exactly. Counters and
    /// digests use the full `u64` range (checksums sit near 2^61), far
    /// past the 2^53 an `f64` holds exactly.
    Int(u64),
    /// Any other number: a fraction, an exponent or a negative value.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is not preserved (sorted).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    /// The value at `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// This value as a number, if it is one (an [`Json::Int`] above
    /// 2^53 rounds; use [`Json::as_u64`] where exactness matters).
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// This value as an exact unsigned integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// This value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// This value as an object map, if it is one.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while b.get(*pos).is_some_and(|c| c.is_ascii_whitespace()) {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if b.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => parse_str(b, pos).map(Json::Str),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_num(b, pos),
        other => Err(format!("unexpected {other:?} at byte {}", *pos)),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while b
        .get(*pos)
        .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'))
    {
        *pos += 1;
    }
    let text =
        std::str::from_utf8(&b[start..*pos]).map_err(|_| format!("bad number at byte {start}"))?;
    let parsed = if text.bytes().all(|c| c.is_ascii_digit()) {
        text.parse().map(Json::Int).ok()
    } else {
        text.parse().map(Json::Num).ok()
    };
    parsed.ok_or_else(|| format!("bad number {text:?} at byte {start}"))
}

fn parse_str(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let escaped = match b.get(*pos) {
                    Some(b'"') => '"',
                    Some(b'\\') => '\\',
                    Some(b'/') => '/',
                    Some(b'n') => '\n',
                    Some(b't') => '\t',
                    other => return Err(format!("unsupported escape {other:?}")),
                };
                out.push(escaped);
                *pos += 1;
            }
            Some(&c) => {
                // Multi-byte UTF-8 sequences pass through byte-wise.
                out.push(c as char);
                *pos += 1;
            }
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            other => return Err(format!("expected ',' or ']', got {other:?}")),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_str(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        map.insert(key, parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            other => return Err(format!("expected ',' or '}}', got {other:?}")),
        }
    }
}

// ----------------------------------------------------------------------
// Results comparison
// ----------------------------------------------------------------------

/// How a results column is compared between two documents. Every
/// document declares the kind of each of its columns in its `columns`
/// map; the comparison reads the gate from there.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColumnKind {
    /// A deterministic counter or digest (an unsigned integer): must be
    /// equal, whatever the workers or host.
    Exact,
    /// Wall-clock milliseconds: within the tolerance, and only a warning
    /// when the documents disagree on `workers`.
    Time,
    /// Wall-clock milliseconds of a parallel pass: the [`ColumnKind::Time`]
    /// rule, and also only a warning when `par_workers` differ.
    ParTime,
    /// Request and deletion-pause shape (quantiles, pause maxima,
    /// increment counts): scheduling noise or a function of the
    /// deletion budget, so drift is only ever a warning.
    Latency,
}

impl ColumnKind {
    /// Every kind, in declaration order.
    pub const ALL: [ColumnKind; 4] =
        [ColumnKind::Exact, ColumnKind::Time, ColumnKind::ParTime, ColumnKind::Latency];

    /// The kind's name in a document's `columns` map.
    pub fn name(self) -> &'static str {
        match self {
            ColumnKind::Exact => "exact",
            ColumnKind::Time => "time",
            ColumnKind::ParTime => "par_time",
            ColumnKind::Latency => "latency",
        }
    }

    /// The kind named `name`, if any.
    pub fn from_name(name: &str) -> Option<ColumnKind> {
        ColumnKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// A document's `columns` map: column name to declared kind.
pub fn declared_columns(doc: &Json) -> Result<BTreeMap<String, ColumnKind>, String> {
    let columns = doc.get("columns").and_then(Json::as_obj).ok_or("missing columns map")?;
    columns
        .iter()
        .map(|(name, kind)| {
            kind.as_str()
                .and_then(ColumnKind::from_name)
                .map(|k| (name.clone(), k))
                .ok_or_else(|| format!("column {name}: unknown kind {kind:?}"))
        })
        .collect()
}

/// Outcome of a document comparison, split by severity.
///
/// `errors` gate a CI run; `warnings` are advisory context — time drift
/// between documents recorded at different worker fan-outs, and any
/// [`ColumnKind::Latency`] drift.
#[derive(Debug, Clone, Default)]
pub struct Comparison {
    /// Differences that must fail the gate.
    pub errors: Vec<String>,
    /// Advisory differences (e.g. time drift across unequal `workers`).
    pub warnings: Vec<String>,
}

impl Comparison {
    /// `true` when nothing gates: the documents agree on everything that
    /// is comparable.
    pub fn is_ok(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Compares two parsed results documents. `tolerance_pct` bounds the
/// allowed relative drift of time cells (e.g. `25.0` = new may be up to
/// 25 % slower *or faster* than old). Returns every **gating**
/// difference found; an empty vector means the documents agree (there
/// may still be advisory warnings — use [`compare_docs_full`] to see
/// them).
pub fn compare_docs(
    old: &Json,
    new: &Json,
    tolerance_pct: f64,
    ignore_time: bool,
) -> Vec<String> {
    compare_docs_full(old, new, tolerance_pct, ignore_time).errors
}

/// [`compare_docs`] with the full severity split.
pub fn compare_docs_full(
    old: &Json,
    new: &Json,
    tolerance_pct: f64,
    ignore_time: bool,
) -> Comparison {
    let mut cmp = Comparison::default();
    let int = |doc: &Json, key: &str| doc.get(key).and_then(Json::as_u64);
    for (side, doc) in [("old", old), ("new", new)] {
        if int(doc, "schema_version") != Some(RESULTS_SCHEMA_VERSION) {
            cmp.errors.push(format!(
                "schema_version mismatch: {side} document is {:?}, this comparison reads \
                 {RESULTS_SCHEMA_VERSION}",
                int(doc, "schema_version")
            ));
        }
    }
    if !cmp.is_ok() {
        return cmp; // shapes may differ arbitrarily across versions
    }
    if old.get("bench").and_then(Json::as_str) != new.get("bench").and_then(Json::as_str) {
        cmp.errors.push("bench name mismatch".to_string());
    }
    if int(old, "scale") != int(new, "scale") {
        cmp.errors.push(format!(
            "scale differs (old {:?}, new {:?}): no cell is comparable",
            int(old, "scale"),
            int(new, "scale")
        ));
        return cmp;
    }
    // Wall clock is only comparable between documents fanned out to the
    // same width: downgrade time drift to warnings otherwise.
    let mut differs = |key: &str, what: &str| match (int(old, key), int(new, key)) {
        (Some(a), Some(b)) if a != b => {
            cmp.warnings.push(format!(
                "{key} differ (old {a}, new {b}): {what} compared advisorily"
            ));
            true
        }
        _ => false,
    };
    let workers_differ = differs("workers", "time fields");
    let par_workers_differ = differs("par_workers", "parallel time fields");

    let (old_cols, new_cols) = match (declared_columns(old), declared_columns(new)) {
        (Ok(o), Ok(n)) => (o, n),
        (o, n) => {
            for e in [o.err(), n.err()].into_iter().flatten() {
                cmp.errors.push(e);
            }
            return cmp;
        }
    };
    for (name, kind) in &old_cols {
        match new_cols.get(name) {
            None => cmp.errors.push(format!("column {name} present in the old document only")),
            Some(k) if k != kind => cmp.errors.push(format!(
                "column {name} changed kind: old {}, new {}",
                kind.name(),
                k.name()
            )),
            Some(_) => {}
        }
    }
    for name in new_cols.keys().filter(|n| !old_cols.contains_key(*n)) {
        cmp.errors.push(format!("column {name} present in the new document only"));
    }

    let (Some(old_rows), Some(new_rows)) = (
        old.get("rows").and_then(Json::as_arr),
        new.get("rows").and_then(Json::as_arr),
    ) else {
        cmp.errors.push("missing rows array".to_string());
        return cmp;
    };
    if old_rows.len() != new_rows.len() {
        cmp.errors.push(format!("row count: old {}, new {}", old_rows.len(), new_rows.len()));
        return cmp;
    }
    for (i, (o, n)) in old_rows.iter().zip(new_rows).enumerate() {
        let label = row_label(o);
        if label != row_label(n) {
            cmp.errors.push(format!("row {i}: identity changed, {label} -> {}", row_label(n)));
            continue;
        }
        for (side, row, cols) in [("old", o, &old_cols), ("new", n, &new_cols)] {
            for name in row_cells(row).map(|(k, _)| k).filter(|k| !cols.contains_key(*k)) {
                cmp.errors
                    .push(format!("row {i} ({label}): {side} cell {name} has no declared kind"));
            }
        }
        for (name, &kind) in old_cols.iter().filter(|(k, v)| new_cols.get(*k) == Some(v)) {
            let (a, b) = match (o.get(name), n.get(name)) {
                (None, None) => continue,
                (Some(a), Some(b)) => (a, b),
                (a, b) => {
                    cmp.errors.push(format!(
                        "row {i} ({label}): {name} present in one document only (old {a:?}, \
                         new {b:?})"
                    ));
                    continue;
                }
            };
            if kind == ColumnKind::Exact {
                match (a.as_u64(), b.as_u64()) {
                    (Some(x), Some(y)) if x == y => {}
                    (Some(x), Some(y)) => cmp.errors.push(format!(
                        "row {i} ({label}): {name} changed, old {x}, new {y}"
                    )),
                    _ => cmp.errors.push(format!(
                        "row {i} ({label}): exact cell {name} is not an unsigned integer \
                         (old {a:?}, new {b:?})"
                    )),
                }
                continue;
            }
            if ignore_time {
                continue;
            }
            let (Some(x), Some(y)) = (a.as_num(), b.as_num()) else {
                cmp.errors.push(format!(
                    "row {i} ({label}): {name} is not a number (old {a:?}, new {b:?})"
                ));
                continue;
            };
            // Sub-unit cells are all noise; skip them.
            if x < 1.0 && y < 1.0 {
                continue;
            }
            let rel = (y - x).abs() / x.max(1e-9) * 100.0;
            if rel <= tolerance_pct {
                continue;
            }
            let diff = format!(
                "row {i} ({label}): {name} moved {rel:.1}% (old {x:.3}, new {y:.3}), \
                 tolerance {tolerance_pct}%"
            );
            let advisory = match kind {
                ColumnKind::Exact => unreachable!("exact cells are compared above"),
                ColumnKind::Time => workers_differ,
                ColumnKind::ParTime => workers_differ || par_workers_differ,
                ColumnKind::Latency => true,
            };
            if advisory {
                cmp.warnings.push(diff);
            } else {
                cmp.errors.push(diff);
            }
        }
    }
    cmp
}

/// A row's identity, `workload/allocator`.
pub fn row_label(row: &Json) -> String {
    format!(
        "{}/{}",
        row.get("workload").and_then(Json::as_str).unwrap_or("?"),
        row.get("allocator").and_then(Json::as_str).unwrap_or("?"),
    )
}

/// A row's cells: every entry but its identity.
pub fn row_cells(row: &Json) -> impl Iterator<Item = (&str, &Json)> {
    row.as_obj()
        .into_iter()
        .flatten()
        .filter(|(k, _)| !matches!(k.as_str(), "workload" | "allocator"))
        .map(|(k, v)| (k.as_str(), v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{render_results, run_matrix, Cell, Job, Measurement, Row};
    use workloads::{RegionKind, Workload};

    /// A document from the real writer, with envelope integers (such as
    /// `workers`) overridden.
    fn doc(envelope: &[(&str, u64)], rows: &[Row]) -> Json {
        let mut doc = Json::parse(&render_results("fig9", 1, rows)).expect("own output parses");
        if let Json::Obj(m) = &mut doc {
            for (key, v) in envelope {
                m.insert(key.to_string(), Json::Int(*v));
            }
        }
        doc
    }

    /// Applies `edit` to the cells of row `i`, for shapes the writer
    /// refuses to produce.
    fn edit_row(mut doc: Json, i: usize, edit: impl FnOnce(&mut BTreeMap<String, Json>)) -> Json {
        if let Json::Obj(m) = &mut doc {
            if let Some(Json::Arr(rows)) = m.get_mut("rows") {
                if let Json::Obj(row) = &mut rows[i] {
                    edit(row);
                }
            }
        }
        doc
    }

    fn row(total_ms: f64, os_pages: u64, checksum: u64) -> Row {
        Row::new("tile", "Lea")
            .with("total_ms", Cell::Time(total_ms))
            .with("mem_ms", Cell::Time(10.0))
            .with("os_pages", Cell::Exact(os_pages))
            .with("checksum", Cell::Exact(checksum))
    }

    fn plain(workers: u64, total_ms: f64, os_pages: u64, checksum: u64) -> Json {
        doc(&[("workers", workers)], &[row(total_ms, os_pages, checksum)])
    }

    #[test]
    fn parses_its_own_output() {
        let rows = run_matrix(&[Job::Region(Workload::Tile, RegionKind::Safe)], 1, false);
        let rows: Vec<_> = rows.iter().map(Measurement::row).collect();
        let doc = Json::parse(&render_results("fig_test", 1, &rows)).expect("own output parses");
        assert_eq!(doc.get("schema_version").and_then(Json::as_u64), Some(RESULTS_SCHEMA_VERSION));
        assert_eq!(doc.get("bench").and_then(Json::as_str), Some("fig_test"));
        assert_eq!(doc.get("scale").and_then(Json::as_u64), Some(1));
        let parsed_rows = doc.get("rows").and_then(Json::as_arr).expect("rows");
        assert_eq!(parsed_rows.len(), 1);
        assert_eq!(parsed_rows[0].get("workload").and_then(Json::as_str), Some("tile"));
        assert!(parsed_rows[0].get("checksum").and_then(Json::as_u64).is_some());
        let cols = declared_columns(&doc).expect("columns declared");
        assert_eq!(cols.get("checksum"), Some(&ColumnKind::Exact));
        assert_eq!(cols.get("total_ms"), Some(&ColumnKind::Time));
        // And the document agrees with itself.
        assert!(compare_docs(&doc, &doc, 25.0, false).is_empty());
    }

    #[test]
    fn parser_handles_the_small_stuff() {
        let doc = Json::parse(r#"{"a": [1, -2.5, true, null], "b": "x\"y"}"#).unwrap();
        assert_eq!(doc.get("a").and_then(Json::as_arr).map(<[Json]>::len), Some(4));
        assert_eq!(doc.get("b").and_then(Json::as_str), Some("x\"y"));
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("{} trailing").is_err());
    }

    #[test]
    fn integers_parse_exactly_over_the_whole_u64_range() {
        let doc = Json::parse("[2305843009213693953, 18446744073709551615, 7, 7.0, -7, 1e3]")
            .unwrap();
        let a = doc.as_arr().unwrap();
        // 2^61 + 1 has no f64 representation; it must survive as itself.
        assert_eq!(a[0], Json::Int((1 << 61) + 1));
        assert_eq!(a[1].as_u64(), Some(u64::MAX));
        assert_eq!(a[2], Json::Int(7));
        // Fractions, negatives and exponents stay floating point.
        assert_eq!(a[3], Json::Num(7.0));
        assert_eq!(a[4], Json::Num(-7.0));
        assert_eq!(a[5], Json::Num(1000.0));
        assert_eq!(a[3].as_u64(), None);
        assert!(Json::parse("18446744073709551616").is_err(), "out of u64 range");
    }

    #[test]
    fn checksum_off_by_one_is_reported() {
        // The fig8 checksums sit near 2^61, where adjacent integers share
        // one f64.
        const CHECKSUM: u64 = 2_974_924_473_834_721_558;
        let base = plain(1, 100.0, 7, CHECKSUM);
        for delta in [1, 242] {
            let moved = plain(1, 100.0, 7, CHECKSUM + delta);
            let diffs = compare_docs(&base, &moved, 25.0, true);
            assert_eq!(diffs.len(), 1, "+{delta}: {diffs:?}");
            let want = format!("checksum changed, old {CHECKSUM}, new {}", CHECKSUM + delta);
            assert!(diffs[0].contains(&want), "{}", diffs[0]);
        }
    }

    #[test]
    fn flags_shape_and_perf_regressions() {
        let old = plain(1, 100.0, 7, 5);

        // Same doc, slower but inside tolerance: clean.
        assert!(compare_docs(&old, &plain(1, 110.0, 7, 5), 25.0, false).is_empty());

        // 50% slower: flagged, unless time is ignored.
        let slow = plain(1, 150.0, 7, 5);
        let diffs = compare_docs(&old, &slow, 25.0, false);
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0].contains("total_ms moved 50.0%"), "got: {}", diffs[0]);
        assert!(compare_docs(&old, &slow, 25.0, true).is_empty());

        // A changed deterministic counter is always an error.
        assert!(compare_docs(&old, &plain(1, 100.0, 8, 5), 25.0, true)[0].contains("os_pages"));

        // Schema version gates everything else, including older documents.
        let v3 = Json::parse(r#"{"schema_version": 3, "rows": []}"#).unwrap();
        assert!(compare_docs(&old, &v3, 25.0, false)[0].contains("schema_version"));
        assert!(compare_docs(&v3, &v3, 25.0, false)[0].contains("schema_version"));

        // So does the scale: no counter is comparable across it.
        let scaled = doc(&[("workers", 1), ("scale", 2)], &[row(100.0, 7, 5)]);
        let diffs = compare_docs(&old, &scaled, 25.0, true);
        assert!(diffs.iter().any(|d| d.contains("scale differs")), "{diffs:?}");
    }

    #[test]
    fn columns_must_be_declared_alike_in_both_documents() {
        let base = plain(1, 100.0, 7, 5);
        // A column present in one document only is an error, both ways —
        // there is no missing-as-equal or missing-as-zero rule.
        let extra =
            doc(&[("workers", 1)], &[row(100.0, 7, 5).with("barriers_elided", Cell::Exact(0))]);
        for (o, n) in [(&base, &extra), (&extra, &base)] {
            let diffs = compare_docs(o, n, 25.0, true);
            assert!(
                diffs.iter().any(|d| d.contains("column barriers_elided present in")),
                "{diffs:?}"
            );
        }
        // The same column under two kinds is an error.
        let rekinded = doc(
            &[("workers", 1)],
            &[Row::new("tile", "Lea")
                .with("total_ms", Cell::Latency(100.0))
                .with("mem_ms", Cell::Time(10.0))
                .with("os_pages", Cell::Exact(7))
                .with("checksum", Cell::Exact(5))],
        );
        let diffs = compare_docs(&base, &rekinded, 25.0, true);
        assert!(diffs.iter().any(|d| d.contains("total_ms changed kind")), "{diffs:?}");
        // A declared column missing from one row of a pair is an error.
        let mut second = row(100.0, 7, 5);
        second.allocator = "BSD".to_string();
        let full = doc(&[("workers", 1)], &[row(100.0, 7, 5), second.clone()]);
        second.cells.retain(|(c, _)| c != "os_pages");
        let holey = doc(&[("workers", 1)], &[row(100.0, 7, 5), second]);
        let diffs = compare_docs(&full, &holey, 25.0, true);
        assert!(
            diffs.iter().any(|d| d.contains("tile/BSD): os_pages present in one document")),
            "{diffs:?}"
        );
        // A cell no column declares is an error.
        let undeclared = edit_row(plain(1, 100.0, 7, 5), 0, |r| {
            r.insert("stray".to_string(), Json::Int(1));
        });
        let diffs = compare_docs(&base, &undeclared, 25.0, true);
        assert!(diffs.iter().any(|d| d.contains("stray has no declared kind")), "{diffs:?}");
        // An exact cell must be an integer.
        let fractional = edit_row(plain(1, 100.0, 7, 5), 0, |r| {
            r.insert("os_pages".to_string(), Json::Num(7.0));
        });
        let diffs = compare_docs(&base, &fractional, 25.0, true);
        assert!(diffs.iter().any(|d| d.contains("not an unsigned integer")), "{diffs:?}");
    }

    #[test]
    fn differing_workers_downgrade_time_drift_to_warnings() {
        let single = plain(1, 100.0, 7, 5);
        // A 4-worker rerun: wall clock halves (incomparable), counters equal.
        let multi = plain(4, 50.0, 7, 5);
        let cmp = compare_docs_full(&single, &multi, 25.0, false);
        assert!(cmp.is_ok(), "time drift across workers must not gate: {:?}", cmp.errors);
        assert!(cmp.warnings.iter().any(|w| w.contains("workers differ")));
        assert!(
            cmp.warnings.iter().any(|w| w.contains("total_ms moved")),
            "drift still reported, as a warning: {:?}",
            cmp.warnings
        );

        // Same workers, same drift: a hard error as before.
        let cmp = compare_docs_full(&single, &plain(1, 50.0, 7, 5), 25.0, false);
        assert!(!cmp.is_ok(), "same-workers drift must still gate");

        // A counter change across differing workers is still an error:
        // simulated counters are worker-count-independent.
        let cmp = compare_docs_full(&single, &plain(4, 50.0, 9, 5), 25.0, false);
        assert!(cmp.errors.iter().any(|e| e.contains("os_pages")));
    }

    fn par(par_workers: u64, par_total_ms: f64) -> Json {
        doc(
            &[("workers", 1), ("par_workers", par_workers)],
            &[row(100.0, 7, 5).with("par_total_ms", Cell::ParTime(par_total_ms))],
        )
    }

    #[test]
    fn par_time_drift_gates_only_under_equal_par_workers() {
        let base = par(3, 60.0);

        // Same par fan-out, 2x slower par pass: hard error.
        let slow = par(3, 120.0);
        let cmp = compare_docs_full(&base, &slow, 25.0, false);
        assert!(
            cmp.errors.iter().any(|e| e.contains("par_total_ms moved")),
            "same-par_workers drift must gate: {:?}",
            cmp.errors
        );
        // ...unless time is ignored.
        assert!(compare_docs(&base, &slow, 25.0, true).is_empty());

        // Different par fan-out: the same drift is advisory.
        let wider = par(8, 120.0);
        let cmp = compare_docs_full(&base, &wider, 25.0, false);
        assert!(cmp.is_ok(), "differing par_workers must not gate time: {:?}", cmp.errors);
        assert!(cmp.warnings.iter().any(|w| w.contains("par_workers differ")));
        assert!(
            cmp.warnings.iter().any(|w| w.contains("par_total_ms moved")),
            "drift still reported, as a warning: {:?}",
            cmp.warnings
        );
    }

    fn service(p99_us: f64, p999_us: f64, pause_p99_us: f64) -> Json {
        let mut r = row(100.0, 7, 5);
        for (col, v) in [
            ("p50_us", 0.9),
            ("p99_us", p99_us),
            ("p999_us", p999_us),
            ("pause_p99_us", pause_p99_us),
        ] {
            r = r.with(col, Cell::Latency(v));
        }
        doc(&[("workers", 1)], &[r])
    }

    #[test]
    fn latency_and_pause_drift_is_only_advisory() {
        let base = service(250.0, 400.0, 40.0);
        // 2x tail-latency and pause drift between two same-shape
        // documents: a warning, never an error — tail quantiles are
        // scheduling noise, and the service's gate is its books.
        let slow = service(500.0, 900.0, 95.0);
        let cmp = compare_docs_full(&base, &slow, 25.0, false);
        assert!(cmp.is_ok(), "latency drift must never gate: {:?}", cmp.errors);
        for col in ["p99_us", "p999_us", "pause_p99_us"] {
            assert!(
                cmp.warnings.iter().any(|w| w.contains(&format!(" {col} moved"))),
                "{col} drift reported as a warning: {:?}",
                cmp.warnings
            );
        }
        // Sub-unit p50 cells are noise-skipped, and ignore_time
        // silences the columns entirely.
        assert!(!cmp.warnings.iter().any(|w| w.contains("p50_us")), "{:?}", cmp.warnings);
        let cmp = compare_docs_full(&base, &slow, 25.0, true);
        assert!(cmp.is_ok() && cmp.warnings.is_empty(), "{:?}", cmp.warnings);
    }
}
