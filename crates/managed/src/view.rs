//! The interface between system models and the simulated cluster.

use std::collections::BTreeMap;
use std::sync::Arc;

use simkube::objects::{config_fingerprint, Kind, ObjectData, Pod, PodPhase, StoredObject};
use simkube::store::ObjKey;
use simkube::SimCluster;

/// System-level health, the signal Acto's error oracle reads from runtime
/// status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Health {
    /// The system serves requests normally.
    Healthy,
    /// The system serves requests with reduced guarantees.
    Degraded(String),
    /// The system is unavailable.
    Down(String),
}

impl Health {
    /// Returns `true` for [`Health::Healthy`].
    pub fn is_healthy(&self) -> bool {
        matches!(self, Health::Healthy)
    }

    /// The human-readable reason for non-healthy states.
    pub fn reason(&self) -> Option<&str> {
        match self {
            Health::Healthy => None,
            Health::Degraded(r) | Health::Down(r) => Some(r),
        }
    }
}

/// A model's view of one pod: a shared handle to the stored pod, read
/// through accessors.
///
/// A model ticks once per simulated second and only reads its pods, so the
/// view copies nothing out of the store: cloning a `PodView` or taking one
/// from [`SystemView::pods`] bumps a reference count, and every accessor
/// borrows from the stored object. The handle pins the version it was
/// taken from; a later write (say, [`SystemView::crash_pod`]) replaces the
/// stored object and leaves this view as it was.
#[derive(Debug, Clone, PartialEq)]
pub struct PodView(Arc<StoredObject>);

impl PodView {
    /// Wraps a stored object, if it is a pod.
    fn of(obj: Arc<StoredObject>) -> Option<PodView> {
        matches!(obj.data, ObjectData::Pod(_)).then_some(PodView(obj))
    }

    fn pod(&self) -> &Pod {
        match &self.0.data {
            ObjectData::Pod(p) => p,
            _ => unreachable!("a PodView always holds a pod"),
        }
    }

    /// Pod name.
    pub fn name(&self) -> &str {
        &self.0.meta.name
    }

    /// Lifecycle phase.
    pub fn phase(&self) -> PodPhase {
        self.pod().phase
    }

    /// Readiness.
    pub fn ready(&self) -> bool {
        self.pod().ready
    }

    /// Failure reason, when not running.
    pub fn reason(&self) -> &str {
        &self.pod().reason
    }

    /// Pod labels.
    pub fn labels(&self) -> &BTreeMap<String, String> {
        &self.0.meta.labels
    }

    /// One label's value.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels().get(key).map(String::as_str)
    }

    /// Pod annotations.
    pub fn annotations(&self) -> &BTreeMap<String, String> {
        &self.0.meta.annotations
    }

    /// First container's image (empty without containers).
    pub fn image(&self) -> &str {
        self.pod().containers.first().map_or("", |c| &c.image)
    }

    /// First container's configuration hash (empty without containers).
    pub fn config_hash(&self) -> &str {
        self.pod().containers.first().map_or("", |c| &c.config_hash)
    }
}

/// A managed system's window into the cluster, scoped to one application
/// instance.
///
/// Conventions (followed by every operator in this repository):
/// - pods of the instance carry the label `app={instance}`;
/// - component pods additionally carry `component=<name>`;
/// - the instance's configuration lives in the `{instance}-config` config
///   map.
pub struct SystemView<'a> {
    cluster: &'a mut SimCluster,
    /// Namespace of the instance.
    pub namespace: String,
    /// Instance (application) name.
    pub instance: String,
    /// Key of the `{instance}-config` map, built once per view: a tick
    /// reads several entries.
    config_key: ObjKey,
}

impl<'a> SystemView<'a> {
    /// Creates a view of `instance` in `namespace`.
    pub fn new(cluster: &'a mut SimCluster, namespace: &str, instance: &str) -> SystemView<'a> {
        SystemView {
            cluster,
            namespace: namespace.to_string(),
            instance: instance.to_string(),
            config_key: ObjKey::new(Kind::ConfigMap, namespace, &format!("{instance}-config")),
        }
    }

    /// All pods of the instance (label `app={instance}`), sorted by name.
    pub fn pods(&self) -> Vec<PodView> {
        self.pods_with("app", &self.instance)
    }

    /// Pods of one component (`component={component}`), sorted by name.
    pub fn component_pods(&self, component: &str) -> Vec<PodView> {
        let mut pods = self.pods();
        pods.retain(|p| p.label("component") == Some(component));
        pods
    }

    /// Pods matching an arbitrary label, sorted by name.
    pub fn pods_with(&self, key: &str, value: &str) -> Vec<PodView> {
        self.cluster
            .api()
            .store()
            .list_shared(&Kind::Pod, &self.namespace)
            .filter(|o| o.meta.labels.get(key).map(String::as_str) == Some(value))
            .cloned()
            .filter_map(PodView::of)
            .collect()
    }

    /// Reads one config entry, cloning only that entry.
    pub fn config_value(&self, key: &str) -> Option<String> {
        self.config_data()?.get(key).cloned()
    }

    /// The instance's config map (`{instance}-config`) data, borrowed in
    /// place.
    pub fn config_data(&self) -> Option<&BTreeMap<String, String>> {
        match &self.cluster.api().get(&self.config_key)?.data {
            ObjectData::ConfigMap(c) => Some(&c.data),
            _ => None,
        }
    }

    /// The fingerprint operators stamp into containers for the config map
    /// as it stands ([`config_fingerprint`]), hashed from the borrowed map.
    /// A missing map hashes as an empty one.
    pub fn config_fingerprint(&self) -> String {
        match self.config_data() {
            Some(data) => config_fingerprint(data),
            None => config_fingerprint(&BTreeMap::new()),
        }
    }

    /// Marks a pod as crash-looping for a system-semantic reason. The
    /// condition is scoped to this view's namespace.
    pub fn crash_pod(&mut self, pod: &str, reason: &str) {
        let namespace = self.namespace.clone();
        self.cluster.set_crashing(&namespace, pod, reason);
    }

    /// Clears a crash-loop condition.
    pub fn clear_crash(&mut self, pod: &str) {
        let namespace = self.namespace.clone();
        self.cluster.clear_crash(&namespace, pod);
    }

    /// Runs a closure over the underlying object store (read-only). Models
    /// use this for lookups beyond the pod/config conventions.
    pub fn with_store<R>(&self, f: impl FnOnce(&simkube::ObjectStore) -> R) -> R {
        f(self.cluster.api().store())
    }

    /// Number of ready pods among `pods`.
    pub fn ready_count(pods: &[PodView]) -> usize {
        pods.iter()
            .filter(|p| p.phase() == PodPhase::Running && p.ready())
            .count()
    }

    /// Quorum check: more than half of `total` members are ready.
    pub fn has_quorum(ready: usize, total: usize) -> bool {
        total > 0 && ready * 2 > total
    }
}

/// A managed-system behavioural model.
pub trait SystemModel: Send {
    /// The system's name (matches the operator registry).
    fn name(&self) -> &'static str;

    /// Advances the model one tick: reads the cluster, injects semantic
    /// failures, and reports system health.
    ///
    /// Contract: a tick is a deterministic function of the cluster state.
    /// It never reads the clock, and keeps no in-memory state that changes
    /// a later tick. The operator harness relies on this to skip a tick
    /// whose cluster is unchanged since a tick that changed nothing, and
    /// reuse that tick's health.
    fn tick(&mut self, view: &mut SystemView<'_>) -> Health;
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkube::meta::ObjectMeta;
    use simkube::objects::{ConfigMap, Pod};
    use simkube::{ClusterConfig, PlatformBugs};

    fn cluster() -> SimCluster {
        SimCluster::new(ClusterConfig {
            bugs: PlatformBugs::none(),
            ..ClusterConfig::default()
        })
    }

    #[test]
    fn pods_filtered_by_instance_label() {
        let mut c = cluster();
        for (name, app) in [("zk-0", "zk"), ("zk-1", "zk"), ("other-0", "other")] {
            c.api_mut()
                .create_object(
                    ObjectMeta::named("ns", name).with_label("app", app),
                    ObjectData::Pod(Pod::default()),
                    0,
                )
                .unwrap();
        }
        let view = SystemView::new(&mut c, "ns", "zk");
        assert_eq!(view.pods().len(), 2);
        assert_eq!(view.pods_with("app", "other").len(), 1);
    }

    #[test]
    fn config_map_lookup() {
        let mut c = cluster();
        let mut data = BTreeMap::new();
        data.insert("a".to_string(), "1".to_string());
        c.api_mut()
            .create_object(
                ObjectMeta::named("ns", "zk-config"),
                ObjectData::ConfigMap(ConfigMap { data }),
                0,
            )
            .unwrap();
        let view = SystemView::new(&mut c, "ns", "zk");
        assert_eq!(view.config_value("a").as_deref(), Some("1"));
        assert_eq!(view.config_value("b"), None);
    }

    #[test]
    fn quorum_math() {
        assert!(SystemView::has_quorum(2, 3));
        assert!(!SystemView::has_quorum(1, 3));
        assert!(!SystemView::has_quorum(2, 4));
        assert!(SystemView::has_quorum(3, 4));
        assert!(!SystemView::has_quorum(0, 0));
    }

    #[test]
    fn health_accessors() {
        assert!(Health::Healthy.is_healthy());
        assert_eq!(Health::Healthy.reason(), None);
        assert_eq!(
            Health::Down("quorum lost".to_string()).reason(),
            Some("quorum lost")
        );
        assert!(!Health::Degraded("x".to_string()).is_healthy());
    }
}
