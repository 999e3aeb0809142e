//! Percona XtraDB (MySQL) cluster model.

use crate::view::{Health, SystemModel, SystemView};

/// XtraDB: a Galera-style synchronous MySQL cluster fronted by ProxySQL.
///
/// The write path requires the primary (ordinal 0); the proxy tier
/// (`component=proxysql`) is required when enabled in configuration. An
/// invalid `sql_mode` crashes members on restart.
#[derive(Debug, Default)]
pub struct XtraDbModel;

/// Accepted `sql_mode` flags.
pub const VALID_SQL_MODES: &[&str] = &[
    "STRICT_TRANS_TABLES",
    "NO_ENGINE_SUBSTITUTION",
    "ONLY_FULL_GROUP_BY",
    "ANSI_QUOTES",
    "TRADITIONAL",
];

impl SystemModel for XtraDbModel {
    fn name(&self) -> &'static str {
        "xtradb"
    }

    fn tick(&mut self, view: &mut SystemView<'_>) -> Health {
        let db = view.component_pods("pxc");
        let pods = if db.is_empty() { view.pods() } else { db };
        if pods.is_empty() {
            return Health::Down("no database members".to_string());
        }
        if let Some(mode) = view.config_value("sql_mode") {
            let invalid = mode
                .split(',')
                .filter(|m| !m.is_empty())
                .any(|m| !VALID_SQL_MODES.contains(&m.trim()));
            if invalid {
                for pod in &pods {
                    view.crash_pod(pod.name(), "invalid sql_mode");
                }
                return Health::Down(format!("invalid sql_mode {mode:?}"));
            }
            for pod in &pods {
                view.clear_crash(pod.name());
            }
        }
        let ready = SystemView::ready_count(&pods);
        if !SystemView::has_quorum(ready, pods.len()) {
            return Health::Down(format!(
                "galera quorum lost: {ready}/{} members ready",
                pods.len()
            ));
        }
        let proxy_enabled = view.config_value("proxysql.enabled").as_deref() == Some("true");
        if proxy_enabled {
            let proxies = view.component_pods("proxysql");
            if SystemView::ready_count(&proxies) == 0 {
                return Health::Degraded("proxysql enabled but no proxy ready".to_string());
            }
        }
        if ready < pods.len() {
            return Health::Degraded(format!("{ready}/{} members ready", pods.len()));
        }
        Health::Healthy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::*;

    #[test]
    fn quorum_and_proxy_requirements() {
        let mut c = test_cluster();
        add_running_pods(&mut c, "ns", "pxc", 3);
        let mut model = XtraDbModel;
        let mut view = SystemView::new(&mut c, "ns", "pxc");
        assert_eq!(model.tick(&mut view), Health::Healthy);
        // Proxy enabled without proxy pods: degraded.
        set_config(&mut c, "ns", "pxc", &[("proxysql.enabled", "true")]);
        let mut view = SystemView::new(&mut c, "ns", "pxc");
        assert!(matches!(model.tick(&mut view), Health::Degraded(_)));
        add_component_pod(&mut c, "ns", "pxc", "pxc-proxysql-0", Some("proxysql"));
        let mut view = SystemView::new(&mut c, "ns", "pxc");
        assert_eq!(model.tick(&mut view), Health::Healthy);
    }

    #[test]
    fn invalid_sql_mode_crashes_members() {
        let mut c = test_cluster();
        add_running_pods(&mut c, "ns", "pxc", 2);
        set_config(
            &mut c,
            "ns",
            "pxc",
            &[("sql_mode", "STRICT_TRANS_TABLES,BOGUS")],
        );
        let mut model = XtraDbModel;
        let mut view = SystemView::new(&mut c, "ns", "pxc");
        assert!(matches!(model.tick(&mut view), Health::Down(_)));
        assert_eq!(c.crashing().count(), 2);
    }

    #[test]
    fn quorum_loss_is_down() {
        let mut c = test_cluster();
        add_running_pods(&mut c, "ns", "pxc", 3);
        fail_pod(&mut c, "ns", "pxc-1");
        fail_pod(&mut c, "ns", "pxc-2");
        let mut model = XtraDbModel;
        let mut view = SystemView::new(&mut c, "ns", "pxc");
        assert!(matches!(model.tick(&mut view), Health::Down(_)));
    }
}
