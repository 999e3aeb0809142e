//! MongoDB replica-set model.

use crate::view::{Health, SystemModel, SystemView};

/// Versions the model accepts for `featureCompatibilityVersion`.
pub const VALID_FCV: &[&str] = &["4.4", "5.0", "6.0"];

/// Storage engines MongoDB members can start with.
pub const VALID_ENGINES: &[&str] = &["wiredTiger", "inMemory"];

/// MongoDB: a replica set with primary election, arbiters, and the
/// `featureCompatibilityVersion` semantics behind the paper's headline
/// OFC/MongoOp bug — an invalid FCV takes the whole system down and it
/// cannot recover until the value is corrected *and* members restart.
#[derive(Debug, Default)]
pub struct MongoDbModel;

impl SystemModel for MongoDbModel {
    fn name(&self) -> &'static str {
        "mongodb"
    }

    fn tick(&mut self, view: &mut SystemView<'_>) -> Health {
        let pods = view.pods();
        if pods.is_empty() {
            return Health::Down("no replica-set members".to_string());
        }
        if let Some(fcv) = view.config_value("featureCompatibilityVersion") {
            if !VALID_FCV.contains(&fcv.as_str()) {
                for pod in &pods {
                    view.crash_pod(pod.name(), "invalid featureCompatibilityVersion");
                }
                return Health::Down(format!("invalid featureCompatibilityVersion {fcv:?}"));
            }
            // Valid again: members may restart.
            for pod in &pods {
                view.clear_crash(pod.name());
            }
        }
        if let Some(engine) = view.config_value("storageEngine") {
            if !VALID_ENGINES.contains(&engine.as_str()) {
                for pod in &pods {
                    view.crash_pod(pod.name(), "unknown storage engine");
                }
                return Health::Down(format!("unknown storage engine {engine:?}"));
            }
            for pod in &pods {
                view.clear_crash(pod.name());
            }
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
        let arbiters = view
            .config_value("arbiters")
            .and_then(|s| s.parse::<usize>().ok())
            .unwrap_or(0);
        let data_members: Vec<_> = pods
            .iter()
            .filter(|p| p.label("component") != Some("arbiter"))
            .collect();
        if arbiters >= data_members.len() && !data_members.is_empty() {
            return Health::Degraded("arbiters outnumber data-bearing members".to_string());
        }
        let ready = pods.iter().filter(|p| p.ready()).count();
        if !SystemView::has_quorum(ready, pods.len()) {
            return Health::Down(format!(
                "no primary electable: {ready}/{} voting members ready",
                pods.len()
            ));
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
    fn healthy_replica_set() {
        let mut c = test_cluster();
        add_running_pods(&mut c, "ns", "mongo", 3);
        set_config(
            &mut c,
            "ns",
            "mongo",
            &[("featureCompatibilityVersion", "6.0")],
        );
        let mut model = MongoDbModel;
        let mut view = SystemView::new(&mut c, "ns", "mongo");
        assert_eq!(model.tick(&mut view), Health::Healthy);
    }

    #[test]
    fn invalid_fcv_takes_system_down_and_recovers_on_fix() {
        let mut c = test_cluster();
        add_running_pods(&mut c, "ns", "mongo", 3);
        set_config(
            &mut c,
            "ns",
            "mongo",
            &[("featureCompatibilityVersion", "9.9")],
        );
        let mut model = MongoDbModel;
        let mut view = SystemView::new(&mut c, "ns", "mongo");
        assert!(matches!(model.tick(&mut view), Health::Down(_)));
        assert_eq!(c.crashing().count(), 3);
        // Correcting the value clears the crash condition.
        set_config(
            &mut c,
            "ns",
            "mongo",
            &[("featureCompatibilityVersion", "6.0")],
        );
        let mut view = SystemView::new(&mut c, "ns", "mongo");
        model.tick(&mut view);
        assert_eq!(c.crashing().count(), 0);
    }

    #[test]
    fn quorum_loss_prevents_primary() {
        let mut c = test_cluster();
        add_running_pods(&mut c, "ns", "mongo", 3);
        fail_pod(&mut c, "ns", "mongo-1");
        fail_pod(&mut c, "ns", "mongo-2");
        let mut model = MongoDbModel;
        let mut view = SystemView::new(&mut c, "ns", "mongo");
        assert!(matches!(model.tick(&mut view), Health::Down(_)));
    }

    #[test]
    fn too_many_arbiters_degrade() {
        let mut c = test_cluster();
        add_running_pods(&mut c, "ns", "mongo", 2);
        set_config(&mut c, "ns", "mongo", &[("arbiters", "2")]);
        let mut model = MongoDbModel;
        let mut view = SystemView::new(&mut c, "ns", "mongo");
        assert!(matches!(model.tick(&mut view), Health::Degraded(_)));
    }
}
