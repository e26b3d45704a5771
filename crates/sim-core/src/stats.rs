//! Measurement infrastructure: per-kind message accounting, time-bucketed
//! series and percentage histograms.
//!
//! Every overhead number in the paper is a count of control messages,
//! sometimes split by kind (contact-selection vs backtracking vs
//! maintenance) and sometimes bucketed over time (Figs 10–13). This module
//! provides exactly those aggregations, independent of any protocol.

use crate::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Classification of every control message the reproduction can emit.
///
/// The variants mirror the paper's overhead taxonomy (§III.B "Overhead",
/// §IV.B) plus the baseline schemes of Fig 15.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MsgKind {
    /// Contact Selection Query forward hop (§III.C.1).
    Csq,
    /// CSQ backtracking hop (DFS retreat) — Figs 4, 12.
    CsqBacktrack,
    /// Path returned from a newly selected contact to the source.
    CsqReply,
    /// Periodic contact validation hop (§III.C.3).
    Validation,
    /// Validation acknowledgement hop back to the source.
    ValidationReply,
    /// Destination Search Query hop (§III.C.4).
    Dsq,
    /// DSQ answer hop carrying the path to the target.
    DsqReply,
    /// Standing-query resolution hop: the DSQ-style search a long-lived
    /// subscription runs when first registered or re-resolved after a break.
    StandingDsq,
    /// Standing-query resolution answer hop back to the subscriber.
    StandingReply,
    /// Standing-query revalidation hop: probing the cached contact chain
    /// after mobility or a validation round touched it.
    StandingProbe,
    /// Flooding baseline transmission.
    Flood,
    /// Bordercast (ZRP IERP) transmission.
    Bordercast,
    /// Expanding-ring-search transmission (the §III.C.4 comparison point).
    ExpandingRing,
}

impl MsgKind {
    /// All variants, for iteration in reports (declaration order, which is
    /// also `Ord` order — `in_bucket_where` relies on the first and last
    /// entries being the `Ord` extremes).
    pub const ALL: [MsgKind; 13] = [
        MsgKind::Csq,
        MsgKind::CsqBacktrack,
        MsgKind::CsqReply,
        MsgKind::Validation,
        MsgKind::ValidationReply,
        MsgKind::Dsq,
        MsgKind::DsqReply,
        MsgKind::StandingDsq,
        MsgKind::StandingReply,
        MsgKind::StandingProbe,
        MsgKind::Flood,
        MsgKind::Bordercast,
        MsgKind::ExpandingRing,
    ];

    /// Is this message part of CARD's *contact selection* overhead
    /// (including backtracking), as counted in §IV.B item 1?
    pub fn is_selection(self) -> bool {
        matches!(
            self,
            MsgKind::Csq | MsgKind::CsqBacktrack | MsgKind::CsqReply
        )
    }

    /// Is this message part of CARD's *contact maintenance* overhead
    /// (§IV.B item 2)?
    pub fn is_maintenance(self) -> bool {
        matches!(self, MsgKind::Validation | MsgKind::ValidationReply)
    }

    /// Is this message part of query traffic (Fig 15)?
    pub fn is_query(self) -> bool {
        matches!(
            self,
            MsgKind::Dsq
                | MsgKind::DsqReply
                | MsgKind::Flood
                | MsgKind::Bordercast
                | MsgKind::ExpandingRing
        )
    }

    /// Is this message part of standing-query upkeep (resolution,
    /// re-resolution or cached-path revalidation of long-lived
    /// subscriptions)?
    pub fn is_standing(self) -> bool {
        matches!(
            self,
            MsgKind::StandingDsq | MsgKind::StandingReply | MsgKind::StandingProbe
        )
    }
}

/// Per-kind, time-bucketed message statistics.
///
/// `bucket_width` controls the resolution of the time series (the paper
/// plots 2-second buckets). Counts are recorded with [`MsgStats::record`]
/// at a given virtual time and can be read back either as totals or as a
/// per-bucket series.
#[derive(Clone, Debug)]
pub struct MsgStats {
    bucket_width: SimDuration,
    totals: BTreeMap<MsgKind, u64>,
    /// (bucket index, kind) -> count
    buckets: BTreeMap<(u64, MsgKind), u64>,
}

impl MsgStats {
    /// New statistics with the given time-bucket width.
    ///
    /// # Panics
    /// Panics if `bucket_width` is zero.
    pub fn new(bucket_width: SimDuration) -> Self {
        assert!(!bucket_width.is_zero(), "bucket width must be positive");
        MsgStats {
            bucket_width,
            totals: BTreeMap::new(),
            buckets: BTreeMap::new(),
        }
    }

    /// Record `count` messages of `kind` at virtual time `at`.
    pub fn record_n(&mut self, at: SimTime, kind: MsgKind, count: u64) {
        if count == 0 {
            return;
        }
        *self.totals.entry(kind).or_insert(0) += count;
        let idx = at.ticks() / self.bucket_width.ticks();
        *self.buckets.entry((idx, kind)).or_insert(0) += count;
    }

    /// Record one message of `kind` at virtual time `at`.
    #[inline]
    pub fn record(&mut self, at: SimTime, kind: MsgKind) {
        self.record_n(at, kind, 1);
    }

    /// Total messages of `kind` over the whole run.
    pub fn total(&self, kind: MsgKind) -> u64 {
        self.totals.get(&kind).copied().unwrap_or(0)
    }

    /// Total over all kinds satisfying `pred`.
    pub fn total_where(&self, pred: impl Fn(MsgKind) -> bool) -> u64 {
        self.totals
            .iter()
            .filter(|(k, _)| pred(**k))
            .map(|(_, v)| v)
            .sum()
    }

    /// Grand total over every kind.
    pub fn grand_total(&self) -> u64 {
        self.totals.values().sum()
    }

    /// Count of `kind` within time bucket `idx` (bucket `i` covers
    /// `[i*width, (i+1)*width)`).
    pub fn in_bucket(&self, idx: u64, kind: MsgKind) -> u64 {
        self.buckets.get(&(idx, kind)).copied().unwrap_or(0)
    }

    /// Count within bucket `idx` over all kinds satisfying `pred`.
    pub fn in_bucket_where(&self, idx: u64, pred: impl Fn(MsgKind) -> bool) -> u64 {
        self.buckets
            .range((idx, MsgKind::ALL[0])..=(idx, *MsgKind::ALL.last().unwrap()))
            .filter(|((_, k), _)| pred(*k))
            .map(|(_, v)| v)
            .sum()
    }

    /// Index of the last non-empty bucket, if any message was recorded.
    pub fn last_bucket(&self) -> Option<u64> {
        self.buckets.keys().map(|(i, _)| *i).max()
    }

    /// The configured bucket width.
    pub fn bucket_width(&self) -> SimDuration {
        self.bucket_width
    }

    /// Series of per-bucket counts for kinds satisfying `pred`, from bucket
    /// 0 through the last non-empty bucket (inclusive).
    pub fn series_where(&self, pred: impl Fn(MsgKind) -> bool + Copy) -> Vec<u64> {
        match self.last_bucket() {
            None => Vec::new(),
            Some(last) => (0..=last).map(|i| self.in_bucket_where(i, pred)).collect(),
        }
    }

    /// Merge the contents of `other` into `self` (bucket widths must match).
    pub fn merge(&mut self, other: &MsgStats) {
        assert_eq!(
            self.bucket_width, other.bucket_width,
            "cannot merge MsgStats with different bucket widths"
        );
        for (k, v) in &other.totals {
            *self.totals.entry(*k).or_insert(0) += v;
        }
        for (key, v) in &other.buckets {
            *self.buckets.entry(*key).or_insert(0) += v;
        }
    }
}

impl Default for MsgStats {
    fn default() -> Self {
        MsgStats::new(SimDuration::from_secs(2))
    }
}

/// A simple append-only `(time, value)` series for scalar observations
/// (e.g., "total contacts selected" over time, Fig 13).
#[derive(Clone, Debug, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// New empty series.
    pub fn new() -> Self {
        TimeSeries { points: Vec::new() }
    }

    /// Append an observation. Times must be non-decreasing.
    ///
    /// # Panics
    /// Panics if `at` precedes the previous observation.
    pub fn push(&mut self, at: SimTime, value: f64) {
        if let Some((last, _)) = self.points.last() {
            assert!(*last <= at, "TimeSeries observations must be time-ordered");
        }
        self.points.push((at, value));
    }

    /// All recorded points.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Latest value, if any.
    pub fn last_value(&self) -> Option<f64> {
        self.points.last().map(|(_, v)| *v)
    }
}

/// A fixed-bucket histogram over percentages (0–100], as used for every
/// reachability distribution figure (Figs 5–9).
///
/// Bucket `i` (0-based) covers `(i*width, (i+1)*width]`; a value of exactly
/// zero is counted in the first bucket.
#[derive(Clone, Debug)]
pub struct PercentHistogram {
    width: f64,
    counts: Vec<u64>,
}

impl PercentHistogram {
    /// Histogram with buckets of `width` percent (the paper uses 5%).
    ///
    /// # Panics
    /// Panics unless `0 < width <= 100` and divides 100 evenly enough to
    /// give at least one bucket.
    pub fn new(width: f64) -> Self {
        assert!(
            width > 0.0 && width <= 100.0,
            "invalid bucket width {width}"
        );
        let n = (100.0 / width).ceil() as usize;
        PercentHistogram {
            width,
            counts: vec![0; n],
        }
    }

    /// Record one observation of `pct` (clamped to [0, 100]).
    pub fn record(&mut self, pct: f64) {
        let pct = pct.clamp(0.0, 100.0);
        let idx = if pct == 0.0 {
            0
        } else {
            ((pct / self.width).ceil() as usize - 1).min(self.counts.len() - 1)
        };
        self.counts[idx] += 1;
    }

    /// Bucket counts, lowest bucket first.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Upper edge (inclusive) of bucket `i`, e.g. 5.0, 10.0, … for width 5.
    pub fn upper_edge(&self, i: usize) -> f64 {
        (i as f64 + 1.0) * self.width
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msg_kind_taxonomy() {
        assert!(MsgKind::Csq.is_selection());
        assert!(MsgKind::CsqBacktrack.is_selection());
        assert!(MsgKind::CsqReply.is_selection());
        assert!(MsgKind::Validation.is_maintenance());
        assert!(MsgKind::ValidationReply.is_maintenance());
        assert!(MsgKind::Dsq.is_query());
        assert!(MsgKind::Flood.is_query());
        assert!(MsgKind::StandingDsq.is_standing());
        assert!(MsgKind::StandingReply.is_standing());
        assert!(MsgKind::StandingProbe.is_standing());
        assert!(!MsgKind::StandingDsq.is_query());
        // taxonomy is a partition over the kinds it covers
        for k in MsgKind::ALL {
            let cats = k.is_selection() as u8
                + k.is_maintenance() as u8
                + k.is_query() as u8
                + k.is_standing() as u8;
            assert!(cats <= 1, "{k:?} in multiple categories");
        }
        // `in_bucket_where` ranges over `(idx, ALL[0])..=(idx, ALL[last])`,
        // so the array must stay in declaration (= `Ord`) order.
        for w in MsgKind::ALL.windows(2) {
            assert!(w[0] < w[1], "MsgKind::ALL out of Ord order at {w:?}");
        }
    }

    #[test]
    fn record_and_totals() {
        let mut s = MsgStats::new(SimDuration::from_secs(2));
        s.record(SimTime::from_secs(1), MsgKind::Csq);
        s.record(SimTime::from_secs(1), MsgKind::Csq);
        s.record_n(SimTime::from_secs(3), MsgKind::CsqBacktrack, 5);
        assert_eq!(s.total(MsgKind::Csq), 2);
        assert_eq!(s.total(MsgKind::CsqBacktrack), 5);
        assert_eq!(s.total(MsgKind::Validation), 0);
        assert_eq!(s.grand_total(), 7);
        assert_eq!(s.total_where(MsgKind::is_selection), 7);
    }

    #[test]
    fn bucketing() {
        let mut s = MsgStats::new(SimDuration::from_secs(2));
        s.record(SimTime::from_millis(0), MsgKind::Csq); // bucket 0
        s.record(SimTime::from_millis(1999), MsgKind::Csq); // bucket 0
        s.record(SimTime::from_millis(2000), MsgKind::Csq); // bucket 1
        s.record(SimTime::from_secs(9), MsgKind::Validation); // bucket 4
        assert_eq!(s.in_bucket(0, MsgKind::Csq), 2);
        assert_eq!(s.in_bucket(1, MsgKind::Csq), 1);
        assert_eq!(s.in_bucket(4, MsgKind::Validation), 1);
        assert_eq!(s.last_bucket(), Some(4));
        let series = s.series_where(|k| k == MsgKind::Csq);
        assert_eq!(series, vec![2, 1, 0, 0, 0]);
        let all = s.series_where(|_| true);
        assert_eq!(all, vec![2, 1, 0, 0, 1]);
    }

    #[test]
    fn record_zero_is_noop() {
        let mut s = MsgStats::default();
        s.record_n(SimTime::ZERO, MsgKind::Dsq, 0);
        assert_eq!(s.grand_total(), 0);
        assert_eq!(s.last_bucket(), None);
        assert!(s.series_where(|_| true).is_empty());
    }

    #[test]
    fn merge_accumulates() {
        let mut a = MsgStats::new(SimDuration::from_secs(2));
        let mut b = MsgStats::new(SimDuration::from_secs(2));
        a.record(SimTime::from_secs(1), MsgKind::Csq);
        b.record(SimTime::from_secs(1), MsgKind::Csq);
        b.record(SimTime::from_secs(5), MsgKind::Dsq);
        a.merge(&b);
        assert_eq!(a.total(MsgKind::Csq), 2);
        assert_eq!(a.total(MsgKind::Dsq), 1);
        assert_eq!(a.in_bucket(0, MsgKind::Csq), 2);
        assert_eq!(a.in_bucket(2, MsgKind::Dsq), 1);
    }

    #[test]
    #[should_panic(expected = "different bucket widths")]
    fn merge_width_mismatch_panics() {
        let mut a = MsgStats::new(SimDuration::from_secs(1));
        let b = MsgStats::new(SimDuration::from_secs(2));
        a.merge(&b);
    }

    #[test]
    fn timeseries_ordering_enforced() {
        let mut ts = TimeSeries::new();
        ts.push(SimTime::from_secs(1), 1.0);
        ts.push(SimTime::from_secs(1), 2.0); // equal time allowed
        ts.push(SimTime::from_secs(2), 3.0);
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.last_value(), Some(3.0));
        assert!(!ts.is_empty());
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn timeseries_rejects_backwards() {
        let mut ts = TimeSeries::new();
        ts.push(SimTime::from_secs(2), 1.0);
        ts.push(SimTime::from_secs(1), 2.0);
    }

    #[test]
    fn percent_histogram_buckets() {
        let mut h = PercentHistogram::new(5.0);
        assert_eq!(h.counts().len(), 20);
        h.record(0.0); // first bucket
        h.record(0.1); // (0,5]
        h.record(5.0); // (0,5]
        h.record(5.1); // (5,10]
        h.record(100.0); // last
        h.record(250.0); // clamped to last
        assert_eq!(h.counts()[0], 3);
        assert_eq!(h.counts()[1], 1);
        assert_eq!(h.counts()[19], 2);
        assert_eq!(h.total(), 6);
        assert_eq!(h.upper_edge(0), 5.0);
        assert_eq!(h.upper_edge(19), 100.0);
    }
}
