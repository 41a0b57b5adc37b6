//! Shared helpers for the experiments.

use dnsnoise_workload::{Scenario, ScenarioConfig};

/// Builds a paper-calibrated scenario.
pub fn scenario(epoch: f64, scale: f64, events_per_unique: f64, seed: u64) -> Scenario {
    Scenario::new(
        ScenarioConfig::paper_epoch(epoch)
            .with_scale(scale)
            .with_events_per_unique(events_per_unique),
        seed,
    )
}

/// A minimal fixed-width table renderer for experiment output.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        Table { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a row.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        self.rows.push(cells.into_iter().map(Into::into).collect());
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(c.len()))
                })
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1))));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(["day", "value"]);
        t.row(["02/01", "1"]);
        t.row(["12/30", "29738493"]);
        let s = t.render();
        assert!(s.contains("day"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.276), "27.6%");
    }
}
