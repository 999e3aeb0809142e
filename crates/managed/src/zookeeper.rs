//! ZooKeeper ensemble model: quorum and split-brain detection.

use crate::view::{Health, SystemModel, SystemView};

/// ZooKeeper: a leader-based ensemble requiring a strict majority.
///
/// A reconfiguration that lets two pods claim leadership simultaneously
/// (annotation `zk-role=leader`) is a split brain and takes the system
/// down — the constraint that makes safe restart ordering hard (paper
/// §6.4).
#[derive(Debug, Default)]
pub struct ZooKeeperModel;

impl SystemModel for ZooKeeperModel {
    fn name(&self) -> &'static str {
        "zookeeper"
    }

    fn tick(&mut self, view: &mut SystemView<'_>) -> Health {
        let pods = view.pods();
        if pods.is_empty() {
            return Health::Down("no ensemble members".to_string());
        }
        let leaders = pods
            .iter()
            .filter(|p| p.annotations().get("zk-role").map(String::as_str) == Some("leader"))
            .count();
        if leaders > 1 {
            return Health::Down("split brain: multiple leaders".to_string());
        }
        let ensemble_size = view
            .config_value("ensembleSize")
            .and_then(|s| s.parse::<usize>().ok())
            .unwrap_or(pods.len());
        // Binding a privileged port fails: the process runs unprivileged.
        if let Some(port) = view
            .config_value("clientPort")
            .and_then(|s| s.parse::<i64>().ok())
        {
            if port < 1024 {
                for pod in &pods {
                    view.crash_pod(pod.name(), "cannot bind privileged client port");
                }
                return Health::Down(format!("members crash binding privileged port {port}"));
            }
            for pod in &pods {
                view.clear_crash(pod.name());
            }
        }
        // snapCount must be numeric; a bad value crashes members on load.
        if let Some(sc) = view.config_value("snapCount") {
            if sc.parse::<u64>().is_err() {
                for pod in &pods {
                    view.crash_pod(pod.name(), "invalid snapCount");
                }
                return Health::Down(format!("invalid snapCount {sc:?}"));
            }
            for pod in &pods {
                view.clear_crash(pod.name());
            }
        }
        // A myid outside the ensemble range crashes that member.
        for pod in &pods {
            match view.config_value(&format!("myid.{}", pod.name())) {
                Some(id) if id.parse::<usize>().map_or(true, |i| i >= ensemble_size) => {
                    view.crash_pod(pod.name(), "myid out of ensemble range");
                }
                _ => {}
            }
        }
        let ready = SystemView::ready_count(&pods);
        if !SystemView::has_quorum(ready, ensemble_size) {
            return Health::Down(format!("quorum lost: {ready}/{ensemble_size} ready"));
        }
        if ready < ensemble_size {
            return Health::Degraded(format!("{ready}/{ensemble_size} members ready"));
        }
        Health::Healthy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::*;

    #[test]
    fn quorum_governs_health() {
        let mut c = test_cluster();
        add_running_pods(&mut c, "ns", "zk", 3);
        let mut model = ZooKeeperModel;
        let mut view = SystemView::new(&mut c, "ns", "zk");
        assert_eq!(model.tick(&mut view), Health::Healthy);
        // One member failing degrades; two lose quorum.
        fail_pod(&mut c, "ns", "zk-2");
        let mut view = SystemView::new(&mut c, "ns", "zk");
        assert!(matches!(model.tick(&mut view), Health::Degraded(_)));
        fail_pod(&mut c, "ns", "zk-1");
        let mut view = SystemView::new(&mut c, "ns", "zk");
        assert!(matches!(model.tick(&mut view), Health::Down(_)));
    }

    #[test]
    fn split_brain_is_down() {
        let mut c = test_cluster();
        add_running_pods(&mut c, "ns", "zk", 3);
        annotate_pod(&mut c, "ns", "zk-0", "zk-role", "leader");
        annotate_pod(&mut c, "ns", "zk-1", "zk-role", "leader");
        let mut model = ZooKeeperModel;
        let mut view = SystemView::new(&mut c, "ns", "zk");
        match model.tick(&mut view) {
            Health::Down(reason) => assert!(reason.contains("split brain")),
            other => panic!("expected down, got {other:?}"),
        }
    }

    #[test]
    fn ensemble_size_from_config_overrides_pod_count() {
        let mut c = test_cluster();
        add_running_pods(&mut c, "ns", "zk", 2);
        set_config(&mut c, "ns", "zk", &[("ensembleSize", "5")]);
        let mut model = ZooKeeperModel;
        let mut view = SystemView::new(&mut c, "ns", "zk");
        // 2 of 5 configured members is no quorum.
        assert!(matches!(model.tick(&mut view), Health::Down(_)));
    }

    #[test]
    fn bad_myid_crashes_member() {
        let mut c = test_cluster();
        add_running_pods(&mut c, "ns", "zk", 3);
        set_config(&mut c, "ns", "zk", &[("myid.zk-1", "9")]);
        let mut model = ZooKeeperModel;
        let mut view = SystemView::new(&mut c, "ns", "zk");
        model.tick(&mut view);
        assert!(c
            .crashing()
            .any(|((ns, pod), _)| ns == "ns" && pod == "zk-1"));
    }

    #[test]
    fn empty_ensemble_is_down() {
        let mut c = test_cluster();
        let mut model = ZooKeeperModel;
        let mut view = SystemView::new(&mut c, "ns", "zk");
        assert!(matches!(model.tick(&mut view), Health::Down(_)));
    }
}
