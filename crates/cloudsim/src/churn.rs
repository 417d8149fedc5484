//! Replica churn: autoscaling and migration events.
//!
//! The paper stresses that µsegment labels must keep up when "pods in
//! kubernetes migrate or scale up or down". Churn events change a role's
//! live replica set mid-simulation; the engine allocates fresh addresses for
//! scale-ups and retires addresses on scale-downs, so downstream analyses
//! see exactly the label-drift problem the paper describes.

use crate::roles::RoleId;
use serde::{Deserialize, Serialize};

/// One scheduled change to a role's replica count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct ChurnEvent {
    /// Minute (from simulation start) the event applies.
    pub(crate) at_min: u64,
    /// Role whose replica set changes.
    pub(crate) role: RoleId,
    /// Positive to scale out, negative to scale in.
    pub(crate) delta: i32,
}

/// An ordered plan of churn events.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ChurnPlan {
    events: Vec<ChurnEvent>,
}

impl ChurnPlan {
    /// No churn.
    pub fn none() -> Self {
        ChurnPlan::default()
    }

    /// Add an event (builder style). Events may be added in any order.
    pub fn with(mut self, at_min: u64, role: RoleId, delta: i32) -> Self {
        self.events.push(ChurnEvent { at_min, role, delta });
        self.events.sort_by_key(|e| e.at_min);
        self
    }

    /// Events that fire exactly at minute `t`.
    pub(crate) fn events_at(&self, t: u64) -> impl Iterator<Item = &ChurnEvent> {
        self.events.iter().filter(move |e| e.at_min == t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_sorts_and_filters() {
        let plan =
            ChurnPlan::none().with(30, RoleId(1), 4).with(10, RoleId(0), -2).with(30, RoleId(0), 1);
        let ats: Vec<u64> = plan.events.iter().map(|e| e.at_min).collect();
        assert_eq!(ats, vec![10, 30, 30]);
        assert_eq!(plan.events_at(30).count(), 2);
        assert_eq!(plan.events_at(11).count(), 0);
    }
}
