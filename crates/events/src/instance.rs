//! Event instances and the indexed store the RCA engine queries.
//!
//! An event instance is the paper's `(event-name, start-time, end-time,
//! event location, additional info)` tuple (§II-A). The [`EventStore`]
//! groups instances by event name, sorted by start time, and answers
//! "instances of event E whose window could overlap W" with a binary
//! search — the inner loop of temporal joining.
//!
//! Hot-path design: names are interned [`Symbol`]s (4-byte `Copy` ids), so
//! lookups hash an integer instead of a string, and cloning an instance
//! copies no text — the optional info payload is a shared `Arc<str>`.

use grca_net_model::Location;
use grca_types::{Duration, Symbol, TimeWindow, Timestamp};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// One occurrence of an event.
#[derive(Debug, Clone, PartialEq)]
pub struct EventInstance {
    /// The event definition's name.
    pub name: Symbol,
    pub window: TimeWindow,
    pub location: Location,
    /// Free-form additional info (for the Result Browser). Reference
    /// counted so cloning an instance never copies the text.
    pub info: Option<Arc<str>>,
}

impl EventInstance {
    pub fn new(name: impl Into<Symbol>, window: TimeWindow, location: Location) -> Self {
        EventInstance {
            name: name.into(),
            window,
            location,
            info: None,
        }
    }

    /// Attach additional info. Accepts `&str`/`String` (allocates once)
    /// or a shared `Arc<str>` — extraction passes [`Symbol::as_arc`]
    /// (via [`grca_types::Symbol`]) for bounded-vocabulary text so the
    /// same circuit name or activity attached to thousands of instances
    /// is one allocation process-wide.
    pub fn with_info(mut self, info: impl Into<Arc<str>>) -> Self {
        self.info = Some(info.into());
        self
    }

    /// The additional-info text (empty when none was attached).
    pub fn info(&self) -> &str {
        self.info.as_deref().unwrap_or("")
    }

    pub fn start(&self) -> Timestamp {
        self.window.start
    }
}

/// Per-event-name index of instances.
///
/// Equality compares the indexed instances per name (including their
/// order) — what the single-pass-vs-baseline and incremental-vs-batch
/// extraction equivalence tests assert on.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct EventStore {
    by_name: HashMap<Symbol, NameIndex>,
}

#[derive(Debug, Default, Clone, PartialEq)]
struct NameIndex {
    /// Sorted by `window.start`.
    instances: Vec<EventInstance>,
    /// Longest window among instances (bounds the candidate scan).
    max_dur: Duration,
}

impl EventStore {
    pub fn new() -> Self {
        EventStore::default()
    }

    /// Add instances (any order); the store keeps them sorted. Each index
    /// touched by the batch is re-sorted exactly once, so ingesting N
    /// instances costs O(N + Σ k log k) rather than the O(N·Σ k log k) of
    /// sorting every index after every push.
    pub fn add(&mut self, instances: Vec<EventInstance>) {
        let mut touched: HashSet<Symbol> = HashSet::new();
        for inst in instances {
            let idx = self.by_name.entry(inst.name).or_default();
            if inst.window.duration() > idx.max_dur {
                idx.max_dur = inst.window.duration();
            }
            touched.insert(inst.name);
            idx.instances.push(inst);
        }
        for name in touched {
            let idx = self.by_name.get_mut(&name).expect("touched index exists");
            if !idx.instances.is_sorted_by_key(|i| i.window.start) {
                idx.instances.sort_by_key(|i| i.window.start);
            }
            // A store is filled once and then read; a serving epoch keeps
            // it for as long as any reader does. Hold no growth slack.
            idx.instances.shrink_to_fit();
        }
    }

    /// All instances of one event, in start order.
    pub fn instances(&self, name: impl Into<Symbol>) -> &[EventInstance] {
        self.by_name
            .get(&name.into())
            .map(|i| i.instances.as_slice())
            .unwrap_or(&[])
    }

    /// Event names present, in name order.
    pub fn names(&self) -> impl Iterator<Item = &'static str> {
        let mut names: Vec<Symbol> = self.by_name.keys().copied().collect();
        names.sort();
        names.into_iter().map(Symbol::as_str)
    }

    /// Total instance count.
    pub fn total(&self) -> usize {
        self.by_name.values().map(|i| i.instances.len()).sum()
    }

    /// Instances of `name` whose raw window, after expansion by at most
    /// `slack` on either side, could overlap `w`. The caller still applies
    /// its precise temporal rule; this is the index-driven candidate cut.
    pub fn candidates(
        &self,
        name: impl Into<Symbol>,
        w: TimeWindow,
        slack: Duration,
    ) -> &[EventInstance] {
        let Some(idx) = self.by_name.get(&name.into()) else {
            return &[];
        };
        let lo_start = w.start - slack - idx.max_dur;
        let hi_start = w.end + slack;
        let v = &idx.instances;
        let lo = v.partition_point(|i| i.window.start < lo_start);
        let hi = v.partition_point(|i| i.window.start <= hi_start);
        &v[lo..hi]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grca_net_model::RouterId;

    fn inst(name: &str, s: i64, e: i64) -> EventInstance {
        EventInstance::new(
            name,
            TimeWindow::new(Timestamp(s), Timestamp(e)),
            Location::Router(RouterId::new(0)),
        )
    }

    #[test]
    fn store_sorts_and_indexes() {
        let mut st = EventStore::new();
        st.add(vec![inst("a", 50, 60), inst("a", 10, 20), inst("b", 5, 5)]);
        let a = st.instances("a");
        assert_eq!(a.len(), 2);
        assert!(a[0].start() < a[1].start());
        assert_eq!(st.instances("missing").len(), 0);
        assert_eq!(st.total(), 3);
        assert_eq!(st.names().count(), 2);
    }

    #[test]
    fn incremental_adds_keep_indexes_sorted() {
        // The batched sort must hold across multiple add() calls, including
        // batches that only touch some of the names.
        let mut st = EventStore::new();
        st.add(vec![inst("a", 500, 510), inst("b", 30, 40)]);
        st.add(vec![inst("a", 100, 110), inst("a", 900, 910)]);
        st.add(vec![inst("b", 10, 15)]);
        let starts: Vec<i64> = st.instances("a").iter().map(|i| i.start().0).collect();
        assert_eq!(starts, vec![100, 500, 900]);
        let starts: Vec<i64> = st.instances("b").iter().map(|i| i.start().0).collect();
        assert_eq!(starts, vec![10, 30]);
        assert_eq!(st.total(), 5);
    }

    #[test]
    fn info_is_shared_not_copied() {
        let i = inst("a", 0, 10).with_info("circuit-7");
        assert_eq!(i.info(), "circuit-7");
        let j = i.clone();
        assert!(Arc::ptr_eq(
            i.info.as_ref().unwrap(),
            j.info.as_ref().unwrap()
        ));
        assert_eq!(inst("a", 0, 10).info(), "");
    }

    #[test]
    fn candidates_cut_respects_slack_and_duration() {
        let mut st = EventStore::new();
        st.add(vec![
            inst("a", 0, 100), // long instance starting well before the window
            inst("a", 500, 510),
            inst("a", 2000, 2010),
        ]);
        let w = TimeWindow::new(Timestamp(520), Timestamp(530));
        // slack 50: only the instance at 500 can overlap; the long one at
        // [0,100] is out of reach even with max_dur widening, and 2000 is
        // past the upper cut.
        let c = st.candidates("a", w, Duration::secs(50));
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].start(), Timestamp(500));
        // Widen the window so max_dur matters: a window starting at 130
        // must still see the long [0,100] instance (expanded end 150).
        let w2 = TimeWindow::new(Timestamp(130), Timestamp(140));
        let c2 = st.candidates("a", w2, Duration::secs(50));
        assert_eq!(c2.len(), 1);
        assert_eq!(c2[0].start(), Timestamp(0));
    }

    #[test]
    fn candidates_window_boundaries_are_exact() {
        // Candidates at the exact edges of the cut: start == w.start -
        // slack - max_dur is included; one second earlier is excluded.
        // start == w.end + slack is included; one second later is excluded.
        let mut st = EventStore::new();
        let max_dur = 100;
        st.add(vec![
            inst("a", 0, max_dur), // establishes max_dur = 100
            inst("a", 1000 - 50 - max_dur - 1, 1000 - 50 - max_dur - 1), // just below the low cut
            inst("a", 1000 - 50 - max_dur, 1000 - 50 - max_dur), // exactly on the low cut
            inst("a", 2000 + 50, 2000 + 50), // exactly on the high cut
            inst("a", 2000 + 51, 2000 + 51), // just past the high cut
        ]);
        let w = TimeWindow::new(Timestamp(1000), Timestamp(2000));
        let c = st.candidates("a", w, Duration::secs(50));
        let starts: Vec<i64> = c.iter().map(|i| i.start().0).collect();
        assert!(starts.contains(&(1000 - 50 - max_dur)), "{starts:?}");
        assert!(!starts.contains(&(1000 - 50 - max_dur - 1)), "{starts:?}");
        assert!(starts.contains(&(2000 + 50)), "{starts:?}");
        assert!(!starts.contains(&(2000 + 51)), "{starts:?}");
    }

    #[test]
    fn candidates_never_miss_overlaps() {
        // Property-ish check: every instance that truly overlaps the
        // slack-expanded window is in the candidate set.
        let mut st = EventStore::new();
        let mut all = Vec::new();
        for s in (0..2000).step_by(37) {
            let e = s + (s % 90);
            all.push(inst("a", s as i64, e as i64));
        }
        st.add(all.clone());
        let w = TimeWindow::new(Timestamp(700), Timestamp(800));
        let slack = Duration::secs(60);
        let expanded = TimeWindow::new(w.start - slack, w.end + slack);
        let c = st.candidates("a", w, slack);
        for i in &all {
            if i.window.overlaps(&expanded) {
                assert!(c.contains(i), "missed {:?}", i.window);
            }
        }
    }
}
