//! Smoke tests keeping the experiment harness honest: every cheap
//! experiment function must produce non-empty, well-formed tables.
//! (The expensive Fig. 9/16/17 paths are exercised by the `repro` binary
//! and their own module tests.)

#[cfg(test)]
mod tests {
    use crate::experiments::*;
    use crate::Scale;

    fn assert_tables(tables: Vec<crate::Table>, min_tables: usize, min_rows: usize) {
        assert!(tables.len() >= min_tables, "expected >= {min_tables} tables");
        for t in tables {
            assert!(t.len() >= min_rows, "table '{}' has {} rows", t.title(), t.len());
            assert!(!t.to_csv().is_empty());
        }
    }

    #[test]
    fn tables_smoke() {
        assert_tables(tables::table1(), 1, 13);
        assert_tables(tables::table2(), 1, 10);
    }

    #[test]
    fn fig10_family_smoke() {
        assert_tables(fig10_12::fig10(Scale::Quick), 4, 8);
        assert_tables(fig10_12::fig11(Scale::Quick), 4, 8);
        assert_tables(fig10_12::fig12(Scale::Quick), 4, 8);
    }

    #[test]
    fn ablation_smoke() {
        assert_tables(ablations::ablate_warp(Scale::Quick), 1, 10);
        assert_tables(ablations::ablate_select(Scale::Quick), 1, 10);
        assert_tables(ablations::ablate_reservoir(Scale::Quick), 1, 10);
        assert_tables(ablations::ablate_divergence(Scale::Quick), 1, 8);
    }

    #[test]
    fn sweep_smoke() {
        assert_tables(sweeps::sweep_depth(Scale::Quick), 2, 8);
        assert_tables(sweeps::sweep_oom(Scale::Quick), 1, 5);
        assert_tables(sweeps::sweep_exec(Scale::Quick), 1, 12);
        assert_tables(sweeps::sweep_disk(Scale::Quick), 1, 3);
        assert_tables(sweeps::sweep_overlay(Scale::Quick), 1, 6);
        assert_tables(sweeps::sweep_method(Scale::Quick), 1, 4);
    }

    #[test]
    fn quality_smoke() {
        assert_tables(ablations::quality(Scale::Quick), 1, 6);
    }
}
