//! Checks shared by the integration tests.

use acto_repro::acto::CampaignResult;

/// Panics if a segment of `result`'s run was quarantined. The sequential
/// campaign runs under the scheduler like any segmented run, so a panic
/// inside it — in the simulator, an oracle or a debug assertion — becomes
/// a `worker-panic` trial instead of failing the test, and two runs that
/// panic alike would still compare equal.
pub fn assert_not_quarantined(label: &str, result: &CampaignResult) {
    if let Some(t) = result
        .trials
        .iter()
        .find(|t| t.op.scenario == "worker-panic")
    {
        panic!("{label}: a segment was quarantined: {:?}", t.alarms);
    }
}
