//! TiDB multi-component model (PD, TiKV, TiDB, optional binlog pump).

use crate::view::{Health, SystemModel, SystemView};

/// TiDB: placement drivers (PD) form a consensus group, TiKV stores data,
/// TiDB serves SQL, and an optional pump cluster records binlogs.
///
/// Enabling binlog without a pump cluster crash-loops every TiDB pod — the
/// exact failure of the paper's TiDBOp bug (§6.1.1): the operator restarts
/// TiDB to load the new configuration and the replicas crash because the
/// pump cluster was never set up.
#[derive(Debug, Default)]
pub struct TiDbModel;

impl SystemModel for TiDbModel {
    fn name(&self) -> &'static str {
        "tidb"
    }

    fn tick(&mut self, view: &mut SystemView<'_>) -> Health {
        let pd = view.component_pods("pd");
        let tikv = view.component_pods("tikv");
        let tidb = view.component_pods("tidb");
        if pd.is_empty() && tikv.is_empty() && tidb.is_empty() {
            return Health::Down("no components deployed".to_string());
        }
        // Binlog semantics: pumps must exist before TiDB loads a
        // binlog-enabled configuration.
        let binlog_on = view.config_value("binlog.enabled").as_deref() == Some("true");
        let pumps = view.component_pods("pump");
        if binlog_on && pumps.is_empty() {
            for pod in &tidb {
                view.crash_pod(pod.name(), "binlog enabled but pump cluster missing");
            }
            return Health::Down(
                "tidb crash loop: binlog enabled without pump cluster".to_string(),
            );
        }
        if !binlog_on || !pumps.is_empty() {
            for pod in &tidb {
                view.clear_crash(pod.name());
            }
        }
        let pd_ready = SystemView::ready_count(&pd);
        if !SystemView::has_quorum(pd_ready, pd.len()) {
            return Health::Down(format!("pd quorum lost: {pd_ready}/{} ready", pd.len()));
        }
        if SystemView::ready_count(&tikv) == 0 {
            return Health::Down("no tikv store ready".to_string());
        }
        if SystemView::ready_count(&tidb) == 0 {
            return Health::Down("no tidb server ready".to_string());
        }
        let total: usize = [&pd, &tikv, &tidb].iter().map(|v| v.len()).sum();
        let ready: usize = [&pd, &tikv, &tidb]
            .iter()
            .map(|v| SystemView::ready_count(v))
            .sum();
        if ready < total {
            return Health::Degraded(format!("{ready}/{total} component pods ready"));
        }
        Health::Healthy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::*;

    fn full_deployment(c: &mut simkube::SimCluster) {
        for i in 0..3 {
            add_component_pod(c, "ns", "tidb", &format!("tidb-pd-{i}"), Some("pd"));
        }
        for i in 0..2 {
            add_component_pod(c, "ns", "tidb", &format!("tidb-tikv-{i}"), Some("tikv"));
        }
        for i in 0..2 {
            add_component_pod(c, "ns", "tidb", &format!("tidb-tidb-{i}"), Some("tidb"));
        }
    }

    #[test]
    fn full_stack_is_healthy() {
        let mut c = test_cluster();
        full_deployment(&mut c);
        let mut model = TiDbModel;
        let mut view = SystemView::new(&mut c, "ns", "tidb");
        assert_eq!(model.tick(&mut view), Health::Healthy);
    }

    #[test]
    fn binlog_without_pump_crashes_tidb() {
        let mut c = test_cluster();
        full_deployment(&mut c);
        set_config(&mut c, "ns", "tidb", &[("binlog.enabled", "true")]);
        let mut model = TiDbModel;
        let mut view = SystemView::new(&mut c, "ns", "tidb");
        match model.tick(&mut view) {
            Health::Down(reason) => assert!(reason.contains("pump")),
            other => panic!("expected down, got {other:?}"),
        }
        assert_eq!(c.crashing().count(), 2);
    }

    #[test]
    fn binlog_with_pump_is_fine() {
        let mut c = test_cluster();
        full_deployment(&mut c);
        add_component_pod(&mut c, "ns", "tidb", "tidb-pump-0", Some("pump"));
        set_config(&mut c, "ns", "tidb", &[("binlog.enabled", "true")]);
        let mut model = TiDbModel;
        let mut view = SystemView::new(&mut c, "ns", "tidb");
        assert_eq!(model.tick(&mut view), Health::Healthy);
    }

    #[test]
    fn pd_quorum_loss_is_down() {
        let mut c = test_cluster();
        full_deployment(&mut c);
        fail_pod(&mut c, "ns", "tidb-pd-0");
        fail_pod(&mut c, "ns", "tidb-pd-1");
        let mut model = TiDbModel;
        let mut view = SystemView::new(&mut c, "ns", "tidb");
        assert!(matches!(model.tick(&mut view), Health::Down(_)));
    }

    #[test]
    fn disabling_binlog_clears_crash_loop() {
        let mut c = test_cluster();
        full_deployment(&mut c);
        set_config(&mut c, "ns", "tidb", &[("binlog.enabled", "true")]);
        let mut model = TiDbModel;
        let mut view = SystemView::new(&mut c, "ns", "tidb");
        model.tick(&mut view);
        assert!(c.crashing().count() > 0);
        set_config(&mut c, "ns", "tidb", &[("binlog.enabled", "false")]);
        let mut view = SystemView::new(&mut c, "ns", "tidb");
        model.tick(&mut view);
        assert_eq!(c.crashing().count(), 0);
    }
}
