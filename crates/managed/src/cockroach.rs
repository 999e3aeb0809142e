//! CockroachDB consensus model.

use simkube::objects::Kind;
use simkube::store::ObjKey;

use crate::view::{Health, SystemModel, SystemView};

/// CockroachDB: a Raft-consensus SQL cluster with TLS between nodes.
///
/// Health requires a Raft majority. Nodes keep serving with the
/// certificates they started with: when the `{instance}-tls` secret is
/// rotated but `tlsSecretVersion` in the running configuration still
/// references the old generation, the system is degraded on outdated
/// secrets — the security bug the paper reports against CockroachOp.
#[derive(Debug, Default)]
pub struct CockroachModel;

impl SystemModel for CockroachModel {
    fn name(&self) -> &'static str {
        "cockroachdb"
    }

    fn tick(&mut self, view: &mut SystemView<'_>) -> Health {
        let pods = view.pods();
        if pods.is_empty() {
            return Health::Down("no cockroach nodes".to_string());
        }
        // Binding a privileged port fails: processes run unprivileged.
        if let Some(port) = view
            .config_value("sqlPort")
            .and_then(|s| s.parse::<i64>().ok())
        {
            if port < 1024 {
                for pod in &pods {
                    view.crash_pod(pod.name(), "cannot bind privileged port");
                }
                return Health::Down(format!("nodes crash binding privileged SQL port {port}"));
            }
            for pod in &pods {
                view.clear_crash(pod.name());
            }
        }
        let ready = pods.iter().filter(|p| p.ready()).count();
        if !SystemView::has_quorum(ready, pods.len()) {
            return Health::Down(format!(
                "raft majority lost: {ready}/{} nodes ready",
                pods.len()
            ));
        }
        // Compare the certificate serial the nodes run with against the
        // serial of the secret currently served.
        let secret_key = ObjKey::new(
            Kind::Secret,
            &view.namespace,
            &format!("{}-tls", view.instance),
        );
        let actual_serial = view.with_store(|store| {
            store.get(&secret_key).and_then(|obj| match &obj.data {
                simkube::objects::ObjectData::Secret(s) => {
                    s.data.get("serial").and_then(|v| v.parse::<u64>().ok())
                }
                _ => None,
            })
        });
        if let (Some(running), Some(actual)) = (
            view.config_value("tlsSecretVersion")
                .and_then(|s| s.parse::<u64>().ok()),
            actual_serial,
        ) {
            if running < actual {
                return Health::Degraded("nodes serving with outdated TLS secrets".to_string());
            }
        }
        if ready < pods.len() {
            return Health::Degraded(format!("{ready}/{} nodes ready", pods.len()));
        }
        Health::Healthy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::*;
    use simkube::meta::ObjectMeta;
    use simkube::objects::{ObjectData, Secret};

    #[test]
    fn majority_governs_health() {
        let mut c = test_cluster();
        add_running_pods(&mut c, "ns", "crdb", 3);
        let mut model = CockroachModel;
        let mut view = SystemView::new(&mut c, "ns", "crdb");
        assert_eq!(model.tick(&mut view), Health::Healthy);
        fail_pod(&mut c, "ns", "crdb-1");
        fail_pod(&mut c, "ns", "crdb-2");
        let mut view = SystemView::new(&mut c, "ns", "crdb");
        assert!(matches!(model.tick(&mut view), Health::Down(_)));
    }

    #[test]
    fn outdated_tls_secret_degrades() {
        let mut c = test_cluster();
        add_running_pods(&mut c, "ns", "crdb", 3);
        // Secret serial 1; nodes claim they run with serial 1.
        let mut secret = Secret::default();
        secret.data.insert("serial".to_string(), "1".to_string());
        c.api_mut()
            .create_object(
                ObjectMeta::named("ns", "crdb-tls"),
                ObjectData::Secret(secret),
                0,
            )
            .unwrap();
        set_config(&mut c, "ns", "crdb", &[("tlsSecretVersion", "1")]);
        let mut model = CockroachModel;
        let mut view = SystemView::new(&mut c, "ns", "crdb");
        assert_eq!(model.tick(&mut view), Health::Healthy);
        // Rotate the secret to serial 2 without updating the running
        // configuration.
        let key = ObjKey::new(Kind::Secret, "ns", "crdb-tls");
        c.api_mut()
            .store_mut()
            .update_with(&key, 1, |o| {
                if let ObjectData::Secret(s) = &mut o.data {
                    s.data.insert("serial".to_string(), "2".to_string());
                }
            })
            .unwrap();
        let mut view = SystemView::new(&mut c, "ns", "crdb");
        match model.tick(&mut view) {
            Health::Degraded(reason) => assert!(reason.contains("outdated")),
            other => panic!("expected degraded, got {other:?}"),
        }
    }
}
