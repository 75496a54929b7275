//! Minimal hand-rolled JSON output for the experiment rows.
//!
//! The build environment has no registry access, so `serde_json` is not
//! available (see `vendor/README.md`); the experiment rows are flat structs
//! of numbers and short labels, so a tiny emitter covers the `experiments
//! -- full json` dump without it.

use congest_cover::CoverStats;
use congest_sssp::{
    Algorithm, AlgorithmInfo, OracleReport, RecursionReport, RunReport, ScheduleReport,
    SleepingReport,
};

use crate::{ApspRow, ChaosRow, CoverRow, CutterRow, EnergyRow, ForestRow, RecursionRow, SsspRow};

/// Types that can render themselves as a JSON value.
pub trait ToJson {
    /// Renders `self` as a JSON value.
    fn to_json(&self) -> String;
}

macro_rules! impl_json_display {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> String {
                self.to_string()
            }
        }
    )*};
}

impl_json_display!(u16, u32, u64, usize, i32, i64, bool);

impl ToJson for f64 {
    fn to_json(&self) -> String {
        // JSON has no NaN/Infinity literals.
        if self.is_finite() {
            self.to_string()
        } else {
            "null".to_string()
        }
    }
}

impl ToJson for str {
    fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.len() + 2);
        out.push('"');
        for c in self.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }
}

impl ToJson for String {
    fn to_json(&self) -> String {
        self.as_str().to_json()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> String {
        match self {
            Some(v) => v.to_json(),
            None => "null".to_string(),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> String {
        array(self)
    }
}

impl ToJson for Algorithm {
    fn to_json(&self) -> String {
        self.name().to_json()
    }
}

/// Renders a slice of rows as a JSON array.
pub fn array<T: ToJson>(rows: &[T]) -> String {
    let items: Vec<String> = rows.iter().map(ToJson::to_json).collect();
    format!("[{}]", items.join(", "))
}

/// Renders `(key, already-rendered-value)` pairs as a JSON object.
pub fn object(entries: &[(&str, String)]) -> String {
    let items: Vec<String> =
        entries.iter().map(|(k, v)| format!("{}: {}", k.to_json(), v)).collect();
    format!("{{{}}}", items.join(", "))
}

macro_rules! impl_row_json {
    ($($row:ty { $($field:ident),+ $(,)? })+) => {$(
        impl ToJson for $row {
            fn to_json(&self) -> String {
                object(&[$((stringify!($field), self.$field.to_json()),)+])
            }
        }
    )+};
}

impl_row_json! {
    AlgorithmInfo {
        name, label, summary, weighted, multi_source, sleeping_model, approximate, all_pairs,
        thresholded, queryable,
    }
    RunReport {
        algorithm, n, m, rounds, messages, messages_lost, fault_drops, max_congestion, max_energy,
        mean_energy, reached, error_bound, sleeping, recursion, schedule, oracle,
    }
    SleepingReport { slowdown, megaround, cover_levels }
    RecursionReport { levels, subproblems, max_participation, total_subproblem_size }
    ScheduleReport {
        makespan, model_rounds, edge_budget, sequential_rounds, max_instance_congestion,
    }
    SsspRow { workload, algorithm, report }
    CutterRow { w, eps_inverse, max_observed_error, dropped_within_2w, report }
    EnergyRow { workload, algorithm, diameter, report }
    ApspRow { report }
    CoverRow {
        n, d, clusters, colors, max_membership, mean_membership, max_tree_depth, stretch,
        max_edge_tree_load,
    }
    ForestRow { n, m, components, phases, rounds, max_congestion, low_energy_max, always_awake_max }
    RecursionRow { normalized_total, report }
    ChaosRow {
        algorithm, loss_ppm, outcome, graceful, deterministic, matches_baseline, rounds,
        baseline_rounds, round_budget, reached, unreached, max_abs_error, fault_drops, sleep_lost,
    }
    OracleReport {
        fallback, levels, clusters, bytes, row_width, exact_matrix_bytes, stretch_bound,
        max_membership, max_tree_depth, level_stats, level_widths,
    }
    CoverStats {
        d, cluster_count, colors, max_membership, mean_membership, max_tree_depth,
        max_edge_tree_load,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        assert_eq!("a\"b\\c\n".to_json(), r#""a\"b\\c\n""#);
    }

    #[test]
    fn rows_render_as_objects() {
        let row = ForestRow {
            n: 4,
            m: 3,
            components: 1,
            phases: 2,
            rounds: 10,
            max_congestion: 3,
            low_energy_max: 5,
            always_awake_max: 10,
        };
        let json = array(&[row]);
        assert!(json.starts_with(r#"[{"n": 4, "m": 3"#), "got {json}");
        assert!(json.ends_with("}]"), "got {json}");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(f64::NAN.to_json(), "null");
        assert_eq!(1.5f64.to_json(), "1.5");
    }

    #[test]
    fn options_and_algorithms_render() {
        assert_eq!(None::<u64>.to_json(), "null");
        assert_eq!(Some(3u64).to_json(), "3");
        assert_eq!(Algorithm::Cssp.to_json(), "\"recursive-cssp\"");
    }
}
