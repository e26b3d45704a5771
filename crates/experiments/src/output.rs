//! Markdown rendering helpers shared by all experiment modules.

/// Render a Markdown table: `headers` then one row per entry.
pub fn markdown_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push('|');
    for h in headers {
        out.push_str(&format!(" {h} |"));
    }
    out.push('\n');
    out.push('|');
    for _ in headers {
        out.push_str("---|");
    }
    out.push('\n');
    for row in rows {
        debug_assert_eq!(row.len(), headers.len(), "row width mismatch");
        out.push('|');
        for cell in row {
            out.push_str(&format!(" {cell} |"));
        }
        out.push('\n');
    }
    out
}

/// One table column: its header and how a row renders into its cell.
pub type Column<R> = (&'static str, fn(&R) -> String);

/// Render `rows` as a Markdown table with one column per spec entry.
pub fn table<R>(columns: &[Column<R>], rows: &[R]) -> String {
    let headers: Vec<&str> = columns.iter().map(|&(h, _)| h).collect();
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| columns.iter().map(|(_, cell)| cell(r)).collect())
        .collect();
    markdown_table(&headers, &body)
}

/// Render a reachability histogram family as a Markdown table with one
/// column per series: rows are 5% buckets, cells are node counts.
pub fn histogram_table(bucket_edges: &[f64], series: &[(String, Vec<u64>)]) -> String {
    let mut headers: Vec<String> = vec!["Reachability ≤ (%)".to_string()];
    headers.extend(series.iter().map(|(label, _)| label.clone()));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();

    let rows: Vec<Vec<String>> = bucket_edges
        .iter()
        .enumerate()
        .map(|(i, edge)| {
            let mut row = vec![format!("{edge:.0}")];
            row.extend(series.iter().map(|(_, counts)| counts[i].to_string()));
            row
        })
        .collect();
    markdown_table(&header_refs, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_table_shape() {
        let t = markdown_table(
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "| a | b |");
        assert_eq!(lines[1], "|---|---|");
        assert_eq!(lines[2], "| 1 | 2 |");
        assert_eq!(lines[3], "| 3 | 4 |");
    }

    #[test]
    fn histogram_table_columns() {
        let t = histogram_table(
            &[5.0, 10.0],
            &[
                ("R=1".to_string(), vec![3, 4]),
                ("R=2".to_string(), vec![1, 2]),
            ],
        );
        assert!(t.contains("| 5 | 3 | 1 |"));
        assert!(t.contains("| 10 | 4 | 2 |"));
        assert!(t.starts_with("| Reachability ≤ (%) | R=1 | R=2 |"));
    }
}
