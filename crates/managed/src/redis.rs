//! Redis primary–replica model.

use crate::view::{Health, SystemModel, SystemView};

/// Redis: a single primary (ordinal 0) with read replicas.
///
/// The system is down without a ready primary and degraded when replicas
/// lag the expected follower count. An unparseable `maxmemory` crashes
/// every instance on restart, which is how resource misconfigurations in
/// the OCK/RedisOp bugs surfaced.
#[derive(Debug, Default)]
pub struct RedisModel;

impl SystemModel for RedisModel {
    fn name(&self) -> &'static str {
        "redis"
    }

    fn tick(&mut self, view: &mut SystemView<'_>) -> Health {
        let pods = view.pods();
        if pods.is_empty() {
            return Health::Down("no redis instances".to_string());
        }
        if let Some(mm) = view.config_value("maxmemory") {
            if mm.parse::<simkube::Quantity>().is_err() {
                for pod in &pods {
                    view.crash_pod(pod.name(), "invalid maxmemory");
                }
                return Health::Down("invalid maxmemory configuration".to_string());
            }
            // A corrected configuration lets instances restart.
            for pod in &pods {
                view.clear_crash(pod.name());
            }
        }
        let primary_name = format!("{}-0", view.instance);
        let is_primary = |p: &crate::view::PodView| {
            p.name() == primary_name || p.label("component") == Some("leader")
        };
        let primary_ready = pods.iter().any(|p| is_primary(p) && p.ready());
        if !primary_ready {
            return Health::Down("primary not ready".to_string());
        }
        let expected_followers = view
            .config_value("followers")
            .and_then(|s| s.parse::<usize>().ok())
            .unwrap_or(pods.len().saturating_sub(1));
        let ready_followers = pods.iter().filter(|p| !is_primary(p) && p.ready()).count();
        if ready_followers < expected_followers {
            return Health::Degraded(format!(
                "{ready_followers}/{expected_followers} followers ready"
            ));
        }
        Health::Healthy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::*;

    #[test]
    fn primary_down_takes_system_down() {
        let mut c = test_cluster();
        add_running_pods(&mut c, "ns", "redis", 3);
        let mut model = RedisModel;
        let mut view = SystemView::new(&mut c, "ns", "redis");
        assert_eq!(model.tick(&mut view), Health::Healthy);
        fail_pod(&mut c, "ns", "redis-0");
        let mut view = SystemView::new(&mut c, "ns", "redis");
        assert!(matches!(model.tick(&mut view), Health::Down(_)));
    }

    #[test]
    fn missing_followers_degrade() {
        let mut c = test_cluster();
        add_running_pods(&mut c, "ns", "redis", 3);
        fail_pod(&mut c, "ns", "redis-2");
        let mut model = RedisModel;
        let mut view = SystemView::new(&mut c, "ns", "redis");
        assert!(matches!(model.tick(&mut view), Health::Degraded(_)));
    }

    #[test]
    fn invalid_maxmemory_crashes_instances() {
        let mut c = test_cluster();
        add_running_pods(&mut c, "ns", "redis", 2);
        set_config(&mut c, "ns", "redis", &[("maxmemory", "notaquantity")]);
        let mut model = RedisModel;
        let mut view = SystemView::new(&mut c, "ns", "redis");
        assert!(matches!(model.tick(&mut view), Health::Down(_)));
        assert_eq!(c.crashing().count(), 2);
    }

    #[test]
    fn configured_follower_count_respected() {
        let mut c = test_cluster();
        add_running_pods(&mut c, "ns", "redis", 2);
        set_config(&mut c, "ns", "redis", &[("followers", "3")]);
        let mut model = RedisModel;
        let mut view = SystemView::new(&mut c, "ns", "redis");
        assert!(matches!(model.tick(&mut view), Health::Degraded(_)));
    }
}
