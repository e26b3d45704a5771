//! CARD protocol configuration.
//!
//! Every parameter the paper sweeps lives here, under the paper's own
//! names: R (neighborhood radius), r (maximum contact distance), NoC
//! (number of contacts), D (depth of search), plus the selection method and
//! timing knobs the paper leaves implicit (validation period, mobility
//! tick) with documented defaults.

use sim_core::time::SimDuration;

/// Which contact-selection decision rule a node applies (§III.C.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SelectionMethod {
    /// Probabilistic method with equation (1): `P = (d − R)/(r − R)`.
    /// Kept for the paper's Fig 1 discussion and Figs 3–4, which sweep it
    /// beside EM.
    ProbabilisticEq1,
    /// Probabilistic method with equation (2): `P = (d − 2R)/(r − 2R)`
    /// (contacts only between 2R and r hops).
    ProbabilisticEq2,
    /// Edge method: deterministic acceptance once the candidate's
    /// neighborhood is disjoint from the source's neighborhood, every
    /// already-chosen contact's neighborhood, and every source edge node's
    /// neighborhood. The paper's preferred method.
    Edge,
}

impl SelectionMethod {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            SelectionMethod::ProbabilisticEq1 => "PM(eq1)",
            SelectionMethod::ProbabilisticEq2 => "PM(eq2)",
            SelectionMethod::Edge => "EM",
        }
    }
}

/// Full CARD configuration.
#[derive(Clone, Copy, Debug)]
pub struct CardConfig {
    /// Neighborhood radius R in hops (§III.B).
    pub radius: u16,
    /// Maximum contact distance r in hops (§III.B).
    pub max_contact_distance: u16,
    /// NoC: the maximum number of contacts to search for per node.
    pub target_contacts: usize,
    /// D: depth of search for queries (levels of contacts).
    pub depth: u16,
    /// Contact-selection method.
    pub method: SelectionMethod,
    /// Period between contact-validation rounds (§III.C.3). The paper does
    /// not state a value; 1 s is consistent with its 2-second reporting
    /// buckets (Figs 10–13).
    pub validation_period: SimDuration,
    /// Whether maintenance attempts local recovery on broken paths
    /// (§III.C.3); `tests/mobility_maintenance.rs`
    /// (`local_recovery_ablation_loses_more`) runs with it off.
    pub local_recovery: bool,
    /// Mobility/topology refresh tick. Connectivity and neighborhood tables
    /// are recomputed at this granularity.
    pub mobility_tick: SimDuration,
    /// Hard cap on DFS steps per CSQ (forward + backtrack), floored at 2r
    /// so one out-and-back traversal stays possible — a TTL-like lifetime,
    /// without which a failed CSQ in a saturated region would exhaust every
    /// edge within r hops (thousands of messages), far beyond the per-node
    /// overheads the paper reports.
    pub max_csq_steps: u32,
    /// Root seed for every random decision (placement, walk choices, PM
    /// probability draws).
    pub seed: u64,
    /// LRU slots per distance bucket of each node's hint table
    /// (`hints::HINT_BUCKETS` buckets per node). The §V route-hint cache
    /// itself is switched with `CardWorld::set_hints_enabled`; a world is
    /// built with it off, the bit-identical reference the hinted sweeps
    /// are measured against.
    pub hint_slots_per_bucket: usize,
    /// Hint TTL in validation rounds: a hint older than this is reported
    /// stale and recycled instead of probed.
    pub hint_ttl: u32,
    /// How many times a failed query is retried with capped exponential
    /// backoff before being abandoned (fault injection only).
    pub query_retry_cap: u32,
}

impl Default for CardConfig {
    /// Paper-flavored defaults: R=3, r=16, NoC=10, D=1, edge method.
    fn default() -> Self {
        CardConfig {
            radius: 3,
            max_contact_distance: 16,
            target_contacts: 10,
            depth: 1,
            method: SelectionMethod::Edge,
            validation_period: SimDuration::from_secs(1),
            local_recovery: true,
            mobility_tick: SimDuration::from_millis(100),
            max_csq_steps: 320,
            seed: 1,
            hint_slots_per_bucket: 4,
            hint_ttl: 32,
            query_retry_cap: 3,
        }
    }
}

impl CardConfig {
    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style neighborhood radius override.
    pub fn with_radius(mut self, radius: u16) -> Self {
        self.radius = radius;
        self
    }

    /// Builder-style maximum contact distance override.
    pub fn with_max_contact_distance(mut self, r: u16) -> Self {
        self.max_contact_distance = r;
        self
    }

    /// Builder-style NoC override.
    pub fn with_target_contacts(mut self, noc: usize) -> Self {
        self.target_contacts = noc;
        self
    }

    /// Builder-style depth-of-search override.
    pub fn with_depth(mut self, depth: u16) -> Self {
        self.depth = depth;
        self
    }

    /// Builder-style selection-method override.
    pub fn with_method(mut self, method: SelectionMethod) -> Self {
        self.method = method;
        self
    }

    /// Builder-style hint-table size override (LRU slots per bucket).
    pub fn with_hint_slots_per_bucket(mut self, slots: usize) -> Self {
        self.hint_slots_per_bucket = slots;
        self
    }

    /// Validate the parameter combination.
    ///
    /// # Panics
    /// Panics when R = 0, D = 0, the hint TTL or slot count is 0, or the
    /// contact annulus is inverted (for eq.2/EM that means `r < 2R`; eq.1
    /// needs `r >= R`). Hint sizing is checked whether or not the cache
    /// is on, since it can be switched on at runtime. The *degenerate*
    /// case `r = 2R` is allowed — Fig 6 sweeps it — and simply yields
    /// (almost) no contacts, since no candidate can be both within `r`
    /// walk hops and strictly beyond `2R` true hops.
    pub fn validate(&self) {
        assert!(self.radius >= 1, "R must be >= 1");
        assert!(self.depth >= 1, "D must be >= 1");
        assert!(
            self.hint_slots_per_bucket >= 1,
            "hint buckets need at least one slot"
        );
        assert!(self.hint_ttl >= 1, "hint TTL must be >= 1 round");
        match self.method {
            SelectionMethod::ProbabilisticEq1 => assert!(
                self.max_contact_distance >= self.radius,
                "PM(eq1) needs r >= R (got r={}, R={})",
                self.max_contact_distance,
                self.radius
            ),
            SelectionMethod::ProbabilisticEq2 | SelectionMethod::Edge => assert!(
                self.max_contact_distance >= 2 * self.radius,
                "{} needs r >= 2R (got r={}, R={})",
                self.method.label(),
                self.max_contact_distance,
                self.radius
            ),
        }
    }

    /// The closed hop interval `[2R, r]` a maintained contact path must
    /// stay within (§III.C.3 rule 4).
    pub fn valid_path_hops(&self) -> (u16, u16) {
        (2 * self.radius, self.max_contact_distance)
    }

    /// Effective per-walk CSQ step budget (see `max_csq_steps`).
    pub fn csq_budget(&self) -> u32 {
        self.max_csq_steps.max(2 * self.max_contact_distance as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_paper_flavored() {
        let c = CardConfig::default();
        assert_eq!(c.radius, 3);
        assert_eq!(c.max_contact_distance, 16);
        assert_eq!(c.target_contacts, 10);
        assert_eq!(c.depth, 1);
        assert_eq!(c.method, SelectionMethod::Edge);
        assert!(c.local_recovery);
        assert_eq!(c.hint_slots_per_bucket, 4);
        assert_eq!(c.hint_ttl, 32);
        assert_eq!(c.query_retry_cap, 3);
        c.validate();
    }

    #[test]
    fn hint_builders_chain_and_validate() {
        let c = CardConfig {
            hint_ttl: 8,
            ..CardConfig::default().with_hint_slots_per_bucket(2)
        };
        assert_eq!(c.hint_slots_per_bucket, 2);
        assert_eq!(c.hint_ttl, 8);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn hints_reject_zero_slots() {
        CardConfig::default()
            .with_hint_slots_per_bucket(0)
            .validate();
    }

    #[test]
    fn builders_chain() {
        let c = CardConfig::default()
            .with_seed(9)
            .with_radius(4)
            .with_max_contact_distance(20)
            .with_target_contacts(5)
            .with_depth(3)
            .with_method(SelectionMethod::ProbabilisticEq2);
        assert_eq!(c.seed, 9);
        assert_eq!(c.radius, 4);
        assert_eq!(c.max_contact_distance, 20);
        assert_eq!(c.target_contacts, 5);
        assert_eq!(c.depth, 3);
        assert_eq!(c.method, SelectionMethod::ProbabilisticEq2);
        c.validate();
    }

    #[test]
    fn valid_path_hops_interval() {
        let c = CardConfig::default()
            .with_radius(3)
            .with_max_contact_distance(10);
        assert_eq!(c.valid_path_hops(), (6, 10));
    }

    #[test]
    fn csq_budget_combines_cap_factor_and_floor() {
        // default: the flat 320-step cap governs
        let c = CardConfig::default()
            .with_radius(3)
            .with_max_contact_distance(10);
        assert_eq!(c.csq_budget(), 320);
        // a tighter cap applies
        let mut tight = c;
        tight.max_csq_steps = 50;
        assert_eq!(tight.csq_budget(), 50);
        // and the floor keeps at least one out-and-back traversal possible
        let mut tiny = c;
        tiny.max_csq_steps = 1;
        assert_eq!(tiny.csq_budget(), 20);
    }

    #[test]
    #[should_panic(expected = "needs r >= 2R")]
    fn em_rejects_inverted_annulus() {
        CardConfig::default()
            .with_radius(3)
            .with_max_contact_distance(5)
            .validate();
    }

    #[test]
    fn em_allows_degenerate_r_equals_2r() {
        // Fig 6's r = 2R sweep point: legal, yields ~no contacts.
        CardConfig::default()
            .with_radius(3)
            .with_max_contact_distance(6)
            .validate();
    }

    #[test]
    fn eq1_allows_r_between_r_and_2r() {
        CardConfig::default()
            .with_method(SelectionMethod::ProbabilisticEq1)
            .with_radius(3)
            .with_max_contact_distance(5)
            .validate();
    }

    #[test]
    #[should_panic(expected = "R must be >= 1")]
    fn zero_radius_rejected() {
        CardConfig::default().with_radius(0).validate();
    }

    #[test]
    fn labels() {
        assert_eq!(SelectionMethod::ProbabilisticEq1.label(), "PM(eq1)");
        assert_eq!(SelectionMethod::ProbabilisticEq2.label(), "PM(eq2)");
        assert_eq!(SelectionMethod::Edge.label(), "EM");
    }
}
