//! Result rows, console tables and CSV output.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::io::Write;
use std::path::Path;

/// One measured point of one series of one figure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    /// Figure/experiment id, e.g. `fig6a`.
    pub figure: String,
    /// Name of the swept parameter, e.g. `|T|` or `epsilon`.
    pub x_label: String,
    /// Value of the swept parameter.
    pub x: f64,
    /// Series (algorithm) label, e.g. `TBF`.
    pub series: String,
    /// Metric name, e.g. `total_distance`.
    pub metric: String,
    /// Averaged metric value.
    pub value: f64,
    /// Number of repetitions averaged.
    pub repetitions: u32,
}

/// A collection of rows with pretty-printing and CSV export.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Report {
    /// All measured rows, in insertion order.
    pub rows: Vec<Row>,
}

impl Report {
    /// Creates an empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Appends a row.
    #[allow(
        clippy::too_many_arguments,
        reason = "one argument per report column; a row struct would just rename them"
    )]
    pub fn push(
        &mut self,
        figure: &str,
        x_label: &str,
        x: f64,
        series: &str,
        metric: &str,
        value: f64,
        repetitions: u32,
    ) {
        self.rows.push(Row {
            figure: figure.into(),
            x_label: x_label.into(),
            x,
            series: series.into(),
            metric: metric.into(),
            value,
            repetitions,
        });
    }

    /// Merges another report into this one.
    pub fn extend(&mut self, other: Report) {
        self.rows.extend(other.rows);
    }

    /// Renders one figure's rows as the paper-style table: one line per
    /// x-value, one column per series.
    pub fn render_figure(&self, figure: &str, metric: &str) -> String {
        let rows: Vec<&Row> = self
            .rows
            .iter()
            .filter(|r| r.figure == figure && r.metric == metric)
            .collect();
        if rows.is_empty() {
            return format!("{figure} [{metric}]: no data\n");
        }
        let x_label = &rows[0].x_label;
        let series: Vec<String> = {
            let mut seen = BTreeSet::new();
            rows.iter()
                .filter(|r| seen.insert(r.series.clone()))
                .map(|r| r.series.clone())
                .collect()
        };
        let mut xs: Vec<f64> = rows.iter().map(|r| r.x).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        xs.dedup();

        let mut out = format!("== {figure} [{metric}] ==\n{x_label:>12}");
        for s in &series {
            out.push_str(&format!(" {s:>14}"));
        }
        out.push('\n');
        for &x in &xs {
            out.push_str(&format!("{x:>12}"));
            for s in &series {
                let v = rows
                    .iter()
                    .find(|r| r.x == x && &r.series == s)
                    .map(|r| r.value);
                match v {
                    Some(v) => out.push_str(&format!(" {v:>14.3}")),
                    None => out.push_str(&format!(" {:>14}", "-")),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Writes all rows as CSV to `path`.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::fs::File::create(path)?;
        writeln!(f, "figure,x_label,x,series,metric,value,repetitions")?;
        for r in &self.rows {
            writeln!(
                f,
                "{},{},{},{},{},{},{}",
                r.figure, r.x_label, r.x, r.series, r.metric, r.value, r.repetitions
            )?;
        }
        Ok(())
    }

    /// Writes all rows as JSON to `path`.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, serde_json::to_string_pretty(&self).unwrap())
    }

    /// Distinct figure ids, in first-appearance order.
    pub fn figures(&self) -> Vec<String> {
        let mut seen = BTreeSet::new();
        self.rows
            .iter()
            .filter(|r| seen.insert(r.figure.clone()))
            .map(|r| r.figure.clone())
            .collect()
    }

    /// Distinct metric names for a figure.
    pub fn metrics(&self, figure: &str) -> Vec<String> {
        let mut seen = BTreeSet::new();
        self.rows
            .iter()
            .filter(|r| r.figure == figure)
            .filter(|r| seen.insert(r.metric.clone()))
            .map(|r| r.metric.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report::new();
        for (x, tbf, lap) in [(1000.0, 10.0, 30.0), (2000.0, 20.0, 60.0)] {
            r.push("fig6a", "|T|", x, "TBF", "total_distance", tbf, 3);
            r.push("fig6a", "|T|", x, "Lap-GR", "total_distance", lap, 3);
        }
        r
    }

    #[test]
    fn render_contains_all_series_and_xs() {
        let table = sample().render_figure("fig6a", "total_distance");
        assert!(table.contains("TBF"));
        assert!(table.contains("Lap-GR"));
        assert!(table.contains("1000"));
        assert!(table.contains("2000"));
        assert!(table.contains("60.000"));
    }

    #[test]
    fn render_missing_figure_is_graceful() {
        let table = sample().render_figure("fig9z", "total_distance");
        assert!(table.contains("no data"));
    }

    #[test]
    fn csv_roundtrip_size() {
        let dir = std::env::temp_dir().join("pombm_report_test");
        let path = dir.join("out.csv");
        sample().write_csv(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 5, "header + 4 rows");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn figures_and_metrics_enumerate() {
        let r = sample();
        assert_eq!(r.figures(), vec!["fig6a".to_string()]);
        assert_eq!(r.metrics("fig6a"), vec!["total_distance".to_string()]);
    }
}
