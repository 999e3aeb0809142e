//! Cassandra ring model.

use crate::view::{Health, SystemModel, SystemView};

/// Cassandra: a peer-to-peer ring bootstrapped through seed nodes.
///
/// Without a ready seed node, new members cannot join and a multi-node
/// cluster degrades — the seed-service labelling semantics behind the
/// CassOp label bugs the paper reports.
#[derive(Debug, Default)]
pub struct CassandraModel;

impl SystemModel for CassandraModel {
    fn name(&self) -> &'static str {
        "cassandra"
    }

    fn tick(&mut self, view: &mut SystemView<'_>) -> Health {
        let pods = view.pods();
        if pods.is_empty() {
            return Health::Down("no ring members".to_string());
        }
        if let Some(tokens) = view.config_value("num_tokens") {
            if tokens.parse::<u32>().map_or(true, |t| t == 0 || t > 4096) {
                for pod in &pods {
                    view.crash_pod(pod.name(), "invalid num_tokens");
                }
                return Health::Down("invalid num_tokens configuration".to_string());
            }
            for pod in &pods {
                view.clear_crash(pod.name());
            }
        }
        // Binding a privileged port fails: processes run unprivileged.
        if let Some(port) = view
            .config_value("nativePort")
            .and_then(|s| s.parse::<i64>().ok())
        {
            if port < 1024 {
                for pod in &pods {
                    view.crash_pod(pod.name(), "cannot bind privileged port");
                }
                return Health::Down(format!(
                    "ring members crash binding privileged native port {port}"
                ));
            }
            for pod in &pods {
                view.clear_crash(pod.name());
            }
        }
        let ready = pods.iter().filter(|p| p.ready()).count();
        if ready == 0 {
            return Health::Down("no ring member ready".to_string());
        }
        let seeds_ready = pods
            .iter()
            .filter(|p| p.label("seed") == Some("true") && p.ready())
            .count();
        if pods.len() > 1 && seeds_ready == 0 {
            return Health::Degraded("no seed node ready; new members cannot join".to_string());
        }
        if ready < pods.len() {
            return Health::Degraded(format!("{ready}/{} ring members ready", pods.len()));
        }
        Health::Healthy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::*;
    use simkube::objects::{Kind, ObjectData};
    use simkube::store::ObjKey;

    fn label_seed(c: &mut simkube::SimCluster, name: &str) {
        let key = ObjKey::new(Kind::Pod, "ns", name);
        c.api_mut()
            .store_mut()
            .update_with(&key, 0, |o| {
                o.meta.labels.insert("seed".to_string(), "true".to_string());
            })
            .unwrap();
        let _ = ObjectData::ConfigMap(Default::default());
    }

    #[test]
    fn ring_with_seed_is_healthy() {
        let mut c = test_cluster();
        add_running_pods(&mut c, "ns", "cass", 3);
        label_seed(&mut c, "cass-0");
        let mut model = CassandraModel;
        let mut view = SystemView::new(&mut c, "ns", "cass");
        assert_eq!(model.tick(&mut view), Health::Healthy);
    }

    #[test]
    fn missing_seed_degrades_multi_node_ring() {
        let mut c = test_cluster();
        add_running_pods(&mut c, "ns", "cass", 3);
        let mut model = CassandraModel;
        let mut view = SystemView::new(&mut c, "ns", "cass");
        match model.tick(&mut view) {
            Health::Degraded(reason) => assert!(reason.contains("seed")),
            other => panic!("expected degraded, got {other:?}"),
        }
    }

    #[test]
    fn single_node_needs_no_seed() {
        let mut c = test_cluster();
        add_running_pods(&mut c, "ns", "cass", 1);
        let mut model = CassandraModel;
        let mut view = SystemView::new(&mut c, "ns", "cass");
        assert_eq!(model.tick(&mut view), Health::Healthy);
    }

    #[test]
    fn invalid_num_tokens_crashes_ring() {
        let mut c = test_cluster();
        add_running_pods(&mut c, "ns", "cass", 2);
        set_config(&mut c, "ns", "cass", &[("num_tokens", "0")]);
        let mut model = CassandraModel;
        let mut view = SystemView::new(&mut c, "ns", "cass");
        assert!(matches!(model.tick(&mut view), Health::Down(_)));
        assert_eq!(c.crashing().count(), 2);
    }
}
