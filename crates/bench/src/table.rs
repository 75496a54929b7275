//! Generic markdown table rendering for the experiment rows.
//!
//! One formatting path replaces the per-experiment hand-rolled printers that
//! used to live in the `experiments` binary: every row type describes its
//! [`Column`]s once, and [`render`] produces the markdown. Rows that carry
//! the unified [`RunReport`] share the [`report_columns`]/[`report_cells`]
//! helpers, so the core complexity columns are identical across experiments
//! by construction.

use std::fmt::Write as _;

use congest_sssp::{AlgorithmInfo, RunReport, SleepingReport};

use crate::{ApspRow, ChaosRow, CoverRow, CutterRow, EnergyRow, ForestRow, RecursionRow, SsspRow};

/// One table column: header text plus whether its cells are right-aligned
/// (numeric) in the rendered markdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Column {
    /// Header text.
    pub header: &'static str,
    /// Right-align the column (`---:` in markdown).
    pub numeric: bool,
}

/// A numeric (right-aligned) column.
pub const fn num(header: &'static str) -> Column {
    Column { header, numeric: true }
}

/// A textual (left-aligned) column.
pub const fn text(header: &'static str) -> Column {
    Column { header, numeric: false }
}

/// Types renderable as rows of one markdown table.
pub trait TableRow {
    /// The table's columns, in cell order.
    fn columns() -> Vec<Column>;
    /// This row's cells; must match [`TableRow::columns`] in length.
    fn cells(&self) -> Vec<String>;
}

/// Renders `rows` as a markdown table (header, alignment row, one line per
/// row).
pub fn render<R: TableRow>(rows: &[R]) -> String {
    let columns = R::columns();
    let mut out = String::new();
    out.push('|');
    for c in &columns {
        write!(out, " {} |", c.header).expect("writing to a String cannot fail");
    }
    out.push_str("\n|");
    for c in &columns {
        out.push_str(if c.numeric { "---:|" } else { "---|" });
    }
    out.push('\n');
    for row in rows {
        let cells = row.cells();
        debug_assert_eq!(cells.len(), columns.len(), "cells match the declared columns");
        out.push('|');
        for cell in cells {
            write!(out, " {cell} |").expect("writing to a String cannot fail");
        }
        out.push('\n');
    }
    out
}

/// The core complexity columns every [`RunReport`] provides.
pub fn report_columns() -> Vec<Column> {
    vec![
        num("n"),
        num("m"),
        num("rounds"),
        num("messages"),
        // Sleeping-model losses and fault-injected drops are distinct
        // phenomena and get distinct columns (see docs/FAULT_MODEL.md).
        num("slept"),
        num("fdrop"),
        num("max congestion"),
        num("max energy"),
        num("mean energy"),
    ]
}

/// The cells matching [`report_columns`].
pub fn report_cells(r: &RunReport) -> Vec<String> {
    vec![
        r.n.to_string(),
        r.m.to_string(),
        r.rounds.to_string(),
        r.messages.to_string(),
        r.messages_lost.to_string(),
        r.fault_drops.to_string(),
        r.max_congestion.to_string(),
        r.max_energy.to_string(),
        format!("{:.1}", r.mean_energy),
    ]
}

/// The sleeping-model columns ([`SleepingReport`]).
pub fn sleeping_columns() -> Vec<Column> {
    vec![num("slowdown"), num("megaround"), num("levels")]
}

/// The cells matching [`sleeping_columns`].
pub fn sleeping_cells(s: &SleepingReport) -> Vec<String> {
    vec![s.slowdown.to_string(), s.megaround.to_string(), s.cover_levels.to_string()]
}

impl TableRow for SsspRow {
    fn columns() -> Vec<Column> {
        let mut cols = vec![text("workload"), text("algorithm")];
        cols.extend(report_columns());
        cols
    }

    fn cells(&self) -> Vec<String> {
        let mut cells = vec![self.workload.clone(), self.algorithm.clone()];
        cells.extend(report_cells(&self.report));
        cells
    }
}

impl TableRow for CutterRow {
    fn columns() -> Vec<Column> {
        vec![
            num("n"),
            num("W"),
            num("1/eps"),
            num("rounds"),
            num("max congestion"),
            num("error bound"),
            num("max observed error"),
            num("dropped within 2W"),
        ]
    }

    fn cells(&self) -> Vec<String> {
        vec![
            self.report.n.to_string(),
            self.w.to_string(),
            self.eps_inverse.to_string(),
            self.report.rounds.to_string(),
            self.report.max_congestion.to_string(),
            self.error_bound().to_string(),
            self.max_observed_error.to_string(),
            self.dropped_within_2w.to_string(),
        ]
    }
}

impl TableRow for EnergyRow {
    fn columns() -> Vec<Column> {
        let mut cols = vec![text("workload"), text("algorithm"), num("D")];
        cols.extend(report_columns());
        cols.extend(sleeping_columns());
        cols
    }

    fn cells(&self) -> Vec<String> {
        let mut cells =
            vec![self.workload.clone(), self.algorithm.clone(), self.diameter.to_string()];
        cells.extend(report_cells(&self.report));
        cells.extend(sleeping_cells(&self.sleeping()));
        cells
    }
}

impl TableRow for ApspRow {
    fn columns() -> Vec<Column> {
        vec![
            num("n"),
            num("m"),
            num("edge budget/round"),
            num("concurrent makespan"),
            num("sequential rounds"),
            num("speedup"),
            num("max instance congestion"),
        ]
    }

    fn cells(&self) -> Vec<String> {
        let sched = self.schedule();
        vec![
            self.report.n.to_string(),
            self.report.m.to_string(),
            sched.edge_budget.to_string(),
            sched.makespan.to_string(),
            sched.sequential_rounds.to_string(),
            format!("{:.2}", sched.speedup()),
            sched.max_instance_congestion.to_string(),
        ]
    }
}

impl TableRow for CoverRow {
    fn columns() -> Vec<Column> {
        vec![
            num("n"),
            num("d"),
            num("clusters"),
            num("colors"),
            num("max membership"),
            num("mean membership"),
            num("max tree depth"),
            num("stretch"),
            num("max edge tree load"),
        ]
    }

    fn cells(&self) -> Vec<String> {
        vec![
            self.n.to_string(),
            self.d.to_string(),
            self.clusters.to_string(),
            self.colors.to_string(),
            self.max_membership.to_string(),
            format!("{:.2}", self.mean_membership),
            self.max_tree_depth.to_string(),
            format!("{:.1}", self.stretch),
            self.max_edge_tree_load.to_string(),
        ]
    }
}

impl TableRow for ForestRow {
    fn columns() -> Vec<Column> {
        vec![
            num("n"),
            num("m"),
            num("components"),
            num("phases"),
            num("rounds"),
            num("max congestion"),
            num("low-energy max"),
            num("always-awake max"),
        ]
    }

    fn cells(&self) -> Vec<String> {
        vec![
            self.n.to_string(),
            self.m.to_string(),
            self.components.to_string(),
            self.phases.to_string(),
            self.rounds.to_string(),
            self.max_congestion.to_string(),
            self.low_energy_max.to_string(),
            self.always_awake_max.to_string(),
        ]
    }
}

impl TableRow for RecursionRow {
    fn columns() -> Vec<Column> {
        vec![
            num("n"),
            num("levels"),
            num("subproblems"),
            num("max participation"),
            num("total subproblem size"),
            num("total / (n * levels)"),
        ]
    }

    fn cells(&self) -> Vec<String> {
        let rec = self.recursion();
        vec![
            self.report.n.to_string(),
            rec.levels.to_string(),
            rec.subproblems.to_string(),
            rec.max_participation.to_string(),
            rec.total_subproblem_size.to_string(),
            format!("{:.2}", self.normalized_total),
        ]
    }
}

impl TableRow for ChaosRow {
    fn columns() -> Vec<Column> {
        vec![
            text("algorithm"),
            num("loss ppm"),
            text("outcome"),
            num("deterministic"),
            num("rounds"),
            num("baseline rounds"),
            num("round budget"),
            num("reached"),
            num("unreached"),
            num("max abs error"),
            num("fdrop"),
            num("slept"),
        ]
    }

    fn cells(&self) -> Vec<String> {
        vec![
            self.algorithm.clone(),
            self.loss_ppm.to_string(),
            self.outcome.clone(),
            self.deterministic.to_string(),
            self.rounds.to_string(),
            self.baseline_rounds.to_string(),
            self.round_budget.to_string(),
            self.reached.to_string(),
            self.unreached.to_string(),
            self.max_abs_error.to_string(),
            self.fault_drops.to_string(),
            self.sleep_lost.to_string(),
        ]
    }
}

impl TableRow for AlgorithmInfo {
    fn columns() -> Vec<Column> {
        vec![
            text("name"),
            text("label"),
            num("weighted"),
            num("multi-source"),
            num("sleeping-model"),
            num("approximate"),
            num("all-pairs"),
            num("thresholded"),
            num("queryable"),
            text("summary"),
        ]
    }

    fn cells(&self) -> Vec<String> {
        vec![
            self.name.to_string(),
            self.label.to_string(),
            self.weighted.to_string(),
            self.multi_source.to_string(),
            self.sleeping_model.to_string(),
            self.approximate.to_string(),
            self.all_pairs.to_string(),
            self.thresholded.to_string(),
            self.queryable.to_string(),
            self.summary.to_string(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_sssp::registry;

    #[test]
    fn rendered_tables_have_header_alignment_and_rows() {
        let rows: Vec<AlgorithmInfo> = registry().to_vec();
        let table = render(&rows);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 2 + rows.len());
        assert!(lines[0].starts_with("| name |"));
        assert!(lines[1].contains("---|") && lines[1].contains("---:|"));
        assert!(lines[2].contains("recursive-cssp"));
    }

    #[test]
    fn every_row_type_produces_matching_cell_counts() {
        // The report-driven rows: columns and cells must stay in sync.
        let rows = crate::e1_e3_sssp_comparison(crate::Scale::Quick);
        assert_eq!(SsspRow::columns().len(), rows[0].cells().len());
        let rows = crate::e7_apsp(crate::Scale::Quick);
        assert_eq!(ApspRow::columns().len(), rows[0].cells().len());
    }

    #[test]
    fn registry_table_prints_the_queryable_flag() {
        // The `list-algorithms` CI step renders exactly this table; the new
        // capability column and the oracle's row must both appear in it.
        let table = render(registry());
        let header = table.lines().next().expect("header line");
        assert!(header.contains("queryable"), "got {header}");
        let oracle = table
            .lines()
            .find(|l| l.contains("distance-oracle"))
            .expect("distance-oracle row present");
        assert!(oracle.contains("true"), "queryable flag renders: {oracle}");
    }

    #[test]
    fn report_cells_match_report_columns() {
        let rows = crate::e1_e3_sssp_comparison(crate::Scale::Quick);
        assert_eq!(report_columns().len(), report_cells(&rows[0].report).len());
        assert_eq!(sleeping_columns().len(), 3);
    }
}
