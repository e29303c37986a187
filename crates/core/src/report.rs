//! The registry of every regenerated table and figure, and their
//! plain-text rendering.

use crate::experiments::ExperimentTable;
use crate::runner::Runner;
use crate::scale::ExperimentScale;
use std::fmt::Write as _;

/// Renders an [`ExperimentTable`] as an aligned plain-text table.
pub fn render(table: &ExperimentTable) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {} — {} ==", table.id, table.title);
    // Column widths.
    let label_width = table
        .rows
        .iter()
        .map(|(l, _)| l.len())
        .chain(std::iter::once("workload".len()))
        .max()
        .unwrap_or(8);
    let col_width = table
        .columns
        .iter()
        .map(|c| c.len().max(10))
        .collect::<Vec<_>>();
    let _ = write!(out, "{:label_width$}", "");
    for (c, w) in table.columns.iter().zip(&col_width) {
        let _ = write!(out, "  {c:>w$}");
    }
    let _ = writeln!(out);
    for (label, values) in &table.rows {
        let _ = write!(out, "{label:label_width$}");
        for (v, w) in values.iter().zip(&col_width) {
            if v.abs() >= 1000.0 {
                let _ = write!(out, "  {v:>w$.0}");
            } else {
                let _ = write!(out, "  {v:>w$.3}");
            }
        }
        let _ = writeln!(out);
    }
    out
}

/// Whether a registry entry is a paper table (`figures --table`) or a
/// figure (`figures --fig`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A table: Tables I–IV.
    Table,
    /// A figure: the paper's data figures and the repository's own
    /// experiments.
    Figure,
}

/// One table or figure the harness regenerates.
#[derive(Debug)]
pub struct Experiment {
    /// Table or figure.
    pub kind: Kind,
    /// The names `--table` or `--fig` accept for it.
    pub names: &'static [&'static str],
    /// Whether it co-locates tenants. Trace drives record and replay
    /// single-tenant streams, so `figures --all` skips these under one.
    pub multi_tenant: bool,
    /// Builds the table, running any simulations on the runner (and so
    /// sharing its memo table with every other entry built through it).
    pub build: fn(&Runner, &ExperimentScale) -> ExperimentTable,
}

const fn entry(
    kind: Kind,
    names: &'static [&'static str],
    multi_tenant: bool,
    build: fn(&Runner, &ExperimentScale) -> ExperimentTable,
) -> Experiment {
    Experiment {
        kind,
        names,
        multi_tenant,
        build,
    }
}

/// Every table and figure of the evaluation, in the order `figures --all`
/// regenerates them: Tables I–IV, the paper's data figures (1, 7, 8, 11, 12
/// and 13 are architecture diagrams without data), then the repository's
/// own multi-tenant experiments: `mt`, the interference study, `policy`,
/// the pluggable-policy ablation, and `fleet`, the multi-device placement
/// sweep.
pub static EXPERIMENTS: [Experiment; 23] = {
    use crate::experiments::*;
    use Kind::{Figure, Table};
    [
        entry(Table, &["1"], false, |_, _| table1_workloads()),
        entry(Table, &["2"], false, |_, _| table2_parameters()),
        entry(Table, &["3"], false, table3_flash_read_latency),
        entry(Table, &["4"], false, |_, _| table4_nand_parameters()),
        entry(Figure, &["2"], false, fig02_dram_vs_cssd),
        entry(Figure, &["3"], false, fig03_latency_distribution),
        entry(Figure, &["4"], false, fig04_boundedness),
        entry(Figure, &["5"], false, |_, scale| {
            fig05_06_locality_cdf(scale, false)
        }),
        entry(Figure, &["6"], false, |_, scale| {
            fig05_06_locality_cdf(scale, true)
        }),
        entry(Figure, &["9"], false, fig09_threshold_sweep),
        entry(Figure, &["10"], false, fig10_sched_policies),
        entry(Figure, &["14"], false, fig14_main_ablation),
        entry(Figure, &["15"], false, fig15_thread_scaling),
        entry(Figure, &["16"], false, fig16_request_breakdown),
        entry(Figure, &["17"], false, fig17_amat),
        entry(Figure, &["18"], false, fig18_write_traffic),
        entry(Figure, &["19", "20"], false, fig19_20_write_log_sweep),
        entry(Figure, &["21"], false, fig21_dram_size_sweep),
        entry(Figure, &["22"], false, fig22_flash_latency_sweep),
        entry(Figure, &["23"], false, fig23_migration_mechanisms),
        entry(Figure, &["mt"], true, fig_mt_interference),
        entry(Figure, &["policy"], true, fig_policy_ablation),
        entry(Figure, &["fleet"], true, crate::fleet::fig_fleet),
    ]
};

/// The position in [`EXPERIMENTS`] of the `kind` entry called `name`, or a
/// one-line error that lists every valid name of that kind.
pub fn find(kind: Kind, name: &str) -> Result<usize, String> {
    let of_kind = || {
        EXPERIMENTS
            .iter()
            .enumerate()
            .filter(move |(_, e)| e.kind == kind)
    };
    let found = of_kind().find(|(_, e)| e.names.contains(&name));
    found.map(|(i, _)| i).ok_or_else(|| {
        let valid: Vec<&str> = of_kind()
            .flat_map(|(_, e)| e.names.iter().copied())
            .collect();
        let kind = if kind == Kind::Table {
            "table"
        } else {
            "figure"
        };
        format!("unknown {kind} '{name}' (valid: {})", valid.join(", "))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::ExperimentTable;

    /// Builds the `kind` entry called `name`, panicking with `find`'s
    /// error when there is none.
    fn build(kind: Kind, name: &str, runner: &Runner, scale: &ExperimentScale) -> ExperimentTable {
        let i = find(kind, name).unwrap_or_else(|e| panic!("{e}"));
        (EXPERIMENTS[i].build)(runner, scale)
    }

    #[test]
    fn render_formats_rows_and_columns() {
        let mut t = ExperimentTable {
            id: "figure-xx".into(),
            title: "demo".into(),
            columns: vec!["a".into(), "b".into()],
            rows: vec![],
        };
        t.rows.push(("bc".into(), vec![1.0, 12345.0]));
        let s = render(&t);
        assert!(s.contains("figure-xx"));
        assert!(s.contains("bc"));
        assert!(s.contains("12345"));
        assert!(s.contains('a') && s.contains('b'));
    }

    #[test]
    fn tables_1_and_4_render_without_simulation() {
        let runner = Runner::new(1);
        let scale = crate::scale::ExperimentScale::tiny();
        let t1 = render(&build(Kind::Table, "1", &runner, &scale));
        assert!(t1.contains("tpcc"));
        let t4 = render(&build(Kind::Table, "4", &runner, &scale));
        assert!(t4.contains("MLC"));
        let t2 = render(&build(Kind::Table, "2", &runner, &scale));
        assert!(t2.contains("cs.threshold_us"));
        assert_eq!(runner.runs_executed(), 0, "tables 1/2/4 simulate nothing");
    }

    #[test]
    fn csv_export_round_trips_labels_and_values() {
        let mut t = ExperimentTable {
            id: "figure-xx".into(),
            title: "demo".into(),
            columns: vec!["plain".into(), "with,comma".into()],
            rows: vec![],
        };
        t.rows.push(("bc".into(), vec![0.5, 31.4]));
        t.rows.push(("a\"b".into(), vec![1.0, 2.0]));
        let csv = t.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("label,plain,\"with,comma\""));
        assert_eq!(lines.next(), Some("bc,0.5,31.4"));
        assert_eq!(lines.next(), Some("\"a\"\"b\",1,2"));
        assert_eq!(lines.next(), None);
    }

    #[test]
    fn figure_and_paper_tables_back_the_renderers() {
        // Each entry builds the table its names promise.
        let runner = Runner::new(1);
        let scale = crate::scale::ExperimentScale::tiny().with_accesses_per_thread(200);
        let t = build(Kind::Table, "1", &runner, &scale);
        assert_eq!(t, crate::experiments::table1_workloads());
        let f = build(Kind::Figure, "5", &runner, &scale);
        assert_eq!(f.id, "figure-05");
        assert!(!f.to_csv().is_empty());
    }

    #[test]
    fn figure_5_renders_quickly() {
        let runner = Runner::new(1);
        let scale = crate::scale::ExperimentScale::tiny().with_accesses_per_thread(200);
        let s = render(&build(Kind::Figure, "5", &runner, &scale));
        assert!(s.contains("figure-05"));
        assert!(s.contains("dlrm"));
    }

    #[test]
    fn named_lookup_resolves_numbers_and_mt() {
        assert_eq!(find(Kind::Figure, "19"), find(Kind::Figure, "20"));
        assert_ne!(find(Kind::Figure, "2"), find(Kind::Table, "2"));
        // `--all` walks the list: tables, paper figures, then the
        // multi-tenant experiments.
        let multi: Vec<&str> = EXPERIMENTS
            .iter()
            .filter(|e| e.multi_tenant)
            .map(|e| e.names[0])
            .collect();
        assert_eq!(multi, ["mt", "policy", "fleet"]);
        assert!(EXPERIMENTS[20..].iter().all(|e| e.multi_tenant));
        assert!(EXPERIMENTS
            .windows(2)
            .all(|w| w[0].kind == w[1].kind || w[0].kind == Kind::Table));
        // Every name resolves back to its own entry.
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            for name in e.names {
                assert_eq!(find(e.kind, name), Ok(i), "{:?} {name}", e.kind);
            }
        }
        // An unknown name lists every valid one.
        assert_eq!(
            find(Kind::Figure, "bogus").unwrap_err(),
            "unknown figure 'bogus' (valid: 2, 3, 4, 5, 6, 9, 10, 14, 15, 16, 17, 18, 19, 20, \
             21, 22, 23, mt, policy, fleet)"
        );
    }

    #[test]
    #[should_panic(expected = "unknown figure '7' (valid: 2, 3, 4, 5, 6, 9,")]
    fn unknown_figures_panic() {
        // Figure 7 is an architecture diagram: there is nothing to build.
        let scale = crate::scale::ExperimentScale::tiny();
        build(Kind::Figure, "7", &Runner::new(1), &scale);
    }

    #[test]
    #[should_panic(expected = "unknown table '9' (valid: 1, 2, 3, 4)")]
    fn unknown_tables_panic() {
        let scale = crate::scale::ExperimentScale::tiny();
        build(Kind::Table, "9", &Runner::new(1), &scale);
    }
}
