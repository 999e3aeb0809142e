//! RabbitMQ broker-cluster model.

use crate::view::{Health, SystemModel, SystemView};

/// RabbitMQ: a broker cluster whose membership is the set of ready pods.
///
/// The system serves with one broker but loses queue mirroring below two —
/// the membership-list semantics the single behaviour assertion in
/// RabbitMQOp's manual tests checks (paper §3, Finding 4). The storage
/// backend (`backend` config) must be one of the supported engines;
/// migrating to an unknown backend crashes brokers on restart.
#[derive(Debug, Default)]
pub struct RabbitMqModel;

/// Supported storage backends.
pub const VALID_BACKENDS: &[&str] = &["classic", "quorum", "stream"];

impl SystemModel for RabbitMqModel {
    fn name(&self) -> &'static str {
        "rabbitmq"
    }

    fn tick(&mut self, view: &mut SystemView<'_>) -> Health {
        let pods = view.pods();
        if pods.is_empty() {
            return Health::Down("no brokers".to_string());
        }
        if let Some(backend) = view.config_value("backend") {
            if !VALID_BACKENDS.contains(&backend.as_str()) {
                for pod in &pods {
                    view.crash_pod(pod.name(), "unknown queue backend");
                }
                return Health::Down(format!("unknown queue backend {backend:?}"));
            }
            for pod in &pods {
                view.clear_crash(pod.name());
            }
        }
        // Binding a privileged port fails: processes run unprivileged.
        if let Some(port) = view
            .config_value("amqpPort")
            .and_then(|s| s.parse::<i64>().ok())
        {
            if port < 1024 {
                for pod in &pods {
                    view.crash_pod(pod.name(), "cannot bind privileged port");
                }
                return Health::Down(format!("brokers crash binding privileged AMQP port {port}"));
            }
            for pod in &pods {
                view.clear_crash(pod.name());
            }
        }
        let ready = SystemView::ready_count(&pods);
        if ready == 0 {
            return Health::Down("no broker ready".to_string());
        }
        // Members must run the configuration currently declared; a stale
        // fingerprint means a config change never rolled the pods.
        {
            let expected = view.config_fingerprint();
            if pods
                .iter()
                .any(|p| !p.config_hash().is_empty() && p.config_hash() != expected)
            {
                return Health::Degraded("members running stale configuration".to_string());
            }
        }

        let mirroring = view.config_value("mirroring").as_deref() == Some("true");
        if mirroring && ready < 2 {
            return Health::Degraded("queue mirroring requires at least two brokers".to_string());
        }
        if ready < pods.len() {
            return Health::Degraded(format!("{ready}/{} brokers ready", pods.len()));
        }
        Health::Healthy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::*;

    #[test]
    fn cluster_health_follows_membership() {
        let mut c = test_cluster();
        add_running_pods(&mut c, "ns", "rmq", 3);
        let mut model = RabbitMqModel;
        let mut view = SystemView::new(&mut c, "ns", "rmq");
        assert_eq!(model.tick(&mut view), Health::Healthy);
        fail_pod(&mut c, "ns", "rmq-0");
        let mut view = SystemView::new(&mut c, "ns", "rmq");
        assert!(matches!(model.tick(&mut view), Health::Degraded(_)));
    }

    #[test]
    fn unknown_backend_crashes_brokers() {
        let mut c = test_cluster();
        add_running_pods(&mut c, "ns", "rmq", 2);
        set_config(&mut c, "ns", "rmq", &[("backend", "etcd")]);
        let mut model = RabbitMqModel;
        let mut view = SystemView::new(&mut c, "ns", "rmq");
        assert!(matches!(model.tick(&mut view), Health::Down(_)));
        assert_eq!(c.crashing().count(), 2);
    }

    #[test]
    fn stale_configuration_degrades() {
        let mut c = test_cluster();
        add_running_pods(&mut c, "ns", "rmq", 2);
        set_config(&mut c, "ns", "rmq", &[("backend", "classic")]);
        // Stamp the pods with a hash that cannot match the config map.
        for name in ["rmq-0", "rmq-1"] {
            let key = simkube::store::ObjKey::new(simkube::objects::Kind::Pod, "ns", name);
            c.api_mut()
                .store_mut()
                .update_with(&key, 0, |o| {
                    if let simkube::objects::ObjectData::Pod(p) = &mut o.data {
                        p.containers[0].config_hash = "stale".to_string();
                    }
                })
                .unwrap();
        }
        let mut model = RabbitMqModel;
        let mut view = SystemView::new(&mut c, "ns", "rmq");
        match model.tick(&mut view) {
            Health::Degraded(reason) => assert!(reason.contains("stale")),
            other => panic!("expected degraded, got {other:?}"),
        }
    }

    #[test]
    fn privileged_amqp_port_crashes_brokers() {
        let mut c = test_cluster();
        add_running_pods(&mut c, "ns", "rmq", 2);
        set_config(&mut c, "ns", "rmq", &[("amqpPort", "80")]);
        let mut model = RabbitMqModel;
        let mut view = SystemView::new(&mut c, "ns", "rmq");
        assert!(matches!(model.tick(&mut view), Health::Down(_)));
        assert_eq!(c.crashing().count(), 2);
    }

    #[test]
    fn mirroring_needs_two_brokers() {
        let mut c = test_cluster();
        add_running_pods(&mut c, "ns", "rmq", 1);
        set_config(&mut c, "ns", "rmq", &[("mirroring", "true")]);
        let mut model = RabbitMqModel;
        let mut view = SystemView::new(&mut c, "ns", "rmq");
        match model.tick(&mut view) {
            Health::Degraded(reason) => assert!(reason.contains("mirroring")),
            other => panic!("expected degraded, got {other:?}"),
        }
    }
}
