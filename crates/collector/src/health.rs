//! Per-feed health: cadence expectations, last-seen watermarks, and the
//! `Healthy → Lagging → Stalled → Dead` state ladder.
//!
//! The paper's deployment consumed hundreds of live data sources (§II-A),
//! and real feeds lag, stall, and die. The [`FeedRegistry`] models this
//! explicitly so the online RCA path can tell *"this feed is silent
//! because nothing happened"* from *"this feed is silent because it is
//! broken"* — the distinction behind per-feed watermark gating and
//! degraded-mode diagnosis in `grca-apps`.
//!
//! Each feed has an expected **cadence**: the largest silent gap a healthy
//! feed plausibly shows (short for periodic telemetry like SNMP bins, long
//! for sparse event logs like layer-1 restorations). A feed whose
//! watermark trails the clock by
//!
//! * at most its cadence is [`FeedState::Healthy`];
//! * at most [`FeedRegistry::stale_after`] (3× cadence) is
//!   [`FeedState::Lagging`] — behind, but silence is still plausible;
//! * at most [`FeedRegistry::dead_after`] (12× cadence) is
//!   [`FeedState::Stalled`];
//! * beyond that (or if never seen) it is [`FeedState::Dead`].
//!
//! While a feed is Healthy/Lagging its silence is *vouched for*: the
//! [`FeedRegistry::effective_watermark`] reports the feed as complete up
//! to the clock. Once it goes Stalled/Dead only data actually delivered
//! (its real watermark) counts — downstream symptoms then wait for it, and
//! eventually emit degraded, naming the feed. Faults shorter than the
//! staleness allowance are absorbed by the hold-back margin instead; like
//! any watermark scheme without per-source heartbeats, sub-allowance gaps
//! are fundamentally undetectable until the data arrives.

use crate::db::{Database, FEEDS};
use grca_types::{Duration, Timestamp};
use std::collections::BTreeMap;

/// Liveness ladder for one feed. Ordering is by increasing badness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FeedState {
    Healthy,
    Lagging,
    Stalled,
    Dead,
}

impl FeedState {
    pub fn as_str(self) -> &'static str {
        match self {
            FeedState::Healthy => "healthy",
            FeedState::Lagging => "lagging",
            FeedState::Stalled => "stalled",
            FeedState::Dead => "dead",
        }
    }
}

/// Snapshot of one feed's health at a given clock instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeedHealth {
    pub feed: &'static str,
    /// Latest normalized UTC instant delivered; `None` if never seen.
    pub watermark: Option<Timestamp>,
    /// Rows delivered so far.
    pub records: usize,
    /// How far the watermark trails the clock (clamped at zero).
    pub lag: Duration,
    pub state: FeedState,
}

/// Tracks every feed's cadence expectation and delivery watermark.
///
/// Deterministic by construction: health is a pure function of the
/// observed watermarks and the caller-supplied clock — no wall-clock
/// reads — so chaos replays reproduce bit-identical gating decisions.
#[derive(Debug, Clone)]
pub struct FeedRegistry {
    cadence: BTreeMap<&'static str, Duration>,
    /// feed → (max normalized UTC seen, rows delivered).
    seen: BTreeMap<&'static str, (Timestamp, usize)>,
}

impl Default for FeedRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl FeedRegistry {
    /// Registry with the default cadence table. Three tiers: syslog is a
    /// dense message stream (half an hour of total silence is anomalous);
    /// periodic telemetry (SNMP, probes, CDN monitors, server load) is
    /// binned, so the allowance covers one bin plus transfer slack; pure
    /// event logs (OSPF/BGP monitors, TACACS, workflow, layer-1) can
    /// legitimately be silent for days — without per-source heartbeats
    /// their loss is undetectable, so their cadence is effectively "never
    /// stale" and gating rests on what they actually delivered. Operators
    /// tighten any of these with [`FeedRegistry::set_cadence`] when a
    /// deployment's feeds are denser.
    pub fn new() -> Self {
        let mut cadence = BTreeMap::new();
        cadence.insert("syslog", Duration::mins(30));
        cadence.insert("snmp", Duration::hours(3));
        cadence.insert("perf", Duration::hours(3));
        cadence.insert("cdnmon", Duration::hours(3));
        cadence.insert("serverlog", Duration::hours(3));
        cadence.insert("ospfmon", Duration::days(7));
        cadence.insert("bgpmon", Duration::days(7));
        cadence.insert("tacacs", Duration::days(7));
        cadence.insert("workflow", Duration::days(7));
        cadence.insert("l1log", Duration::days(7));
        FeedRegistry {
            cadence,
            seen: BTreeMap::new(),
        }
    }

    /// Override one feed's cadence expectation.
    pub fn set_cadence(&mut self, feed: &'static str, cadence: Duration) {
        self.cadence.insert(feed, cadence);
    }

    pub fn cadence(&self, feed: &str) -> Duration {
        self.cadence
            .get(feed)
            .copied()
            .unwrap_or(Duration::hours(1))
    }

    /// Lag beyond which silence is no longer vouched for (feed leaves the
    /// live states).
    pub fn stale_after(&self, feed: &str) -> Duration {
        Duration::secs(self.cadence(feed).as_secs() * 3)
    }

    /// Lag beyond which the feed is considered gone.
    pub fn dead_after(&self, feed: &str) -> Duration {
        Duration::secs(self.cadence(feed).as_secs() * 12)
    }

    /// Record a delivery observation (watermarks only ever advance).
    pub fn observe(&mut self, feed: &'static str, utc: Timestamp, records: usize) {
        let e = self.seen.entry(feed).or_insert((utc, 0));
        e.0 = e.0.max(utc);
        e.1 = records;
    }

    /// Pull watermarks and row counts from the accumulated database.
    pub fn observe_db(&mut self, db: &Database) {
        let counts = db.row_counts();
        for (i, (feed, w)) in db.feed_watermarks().into_iter().enumerate() {
            if let Some(w) = w {
                self.observe(feed, w, counts[i]);
            }
        }
    }

    /// Every observed feed's `(name, watermark, records)`, in feed-name
    /// order — exported for checkpointing; restore replays them through
    /// [`FeedRegistry::observe`].
    pub fn export_seen(&self) -> Vec<(&'static str, Timestamp, usize)> {
        self.seen.iter().map(|(&f, &(w, n))| (f, w, n)).collect()
    }

    /// Latest delivered instant, or `None` if the feed has never been
    /// seen (treated as not provisioned rather than dead — without
    /// per-source heartbeats the two are indistinguishable).
    pub fn watermark(&self, feed: &str) -> Option<Timestamp> {
        self.seen.get(feed).map(|&(w, _)| w)
    }

    /// The feed's state at clock instant `now`.
    pub fn state(&self, feed: &str, now: Timestamp) -> FeedState {
        match self.seen.get(feed) {
            None => FeedState::Dead,
            Some(&(w, _)) => {
                let lag = now - w;
                if lag <= self.cadence(feed) {
                    FeedState::Healthy
                } else if lag <= self.stale_after(feed) {
                    FeedState::Lagging
                } else if lag <= self.dead_after(feed) {
                    FeedState::Stalled
                } else {
                    FeedState::Dead
                }
            }
        }
    }

    /// Through what instant can `feed`'s data be presumed complete?
    ///
    /// A live feed (lag within the staleness allowance) vouches for its
    /// silence: complete through `now`. A stalled/dead feed vouches only
    /// for what it actually delivered: its watermark. A never-seen feed
    /// vouches for nothing.
    pub fn effective_watermark(&self, feed: &str, now: Timestamp) -> Option<Timestamp> {
        let (w, _) = *self.seen.get(feed)?;
        if now - w <= self.stale_after(feed) {
            Some(now.max(w))
        } else {
            Some(w)
        }
    }

    /// Health snapshot of every known feed at `now`, in [`FEEDS`] order.
    pub fn health(&self, now: Timestamp) -> Vec<FeedHealth> {
        FEEDS
            .iter()
            .map(|&feed| {
                let (watermark, records) = match self.seen.get(feed) {
                    Some(&(w, n)) => (Some(w), n),
                    None => (None, 0),
                };
                let lag = watermark
                    .map(|w| (now - w).max(Duration::secs(0)))
                    .unwrap_or(Duration::secs(i64::MAX));
                FeedHealth {
                    feed,
                    watermark,
                    records,
                    lag,
                    state: self.state(feed, now),
                }
            })
            .collect()
    }

    /// One line per feed, for operator reports.
    pub fn render(&self, now: Timestamp) -> String {
        let mut out = String::new();
        for h in self.health(now) {
            let lag = match h.watermark {
                Some(_) => format!("{}s behind", h.lag.as_secs()),
                None => "never seen".to_string(),
            };
            out.push_str(&format!(
                "{:>10}: {:8} {} ({} rows)\n",
                h.feed,
                h.state.as_str(),
                lag,
                h.records
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(s: i64) -> Timestamp {
        Timestamp::from_unix(s)
    }

    #[test]
    fn state_ladder_follows_lag() {
        let mut reg = FeedRegistry::new();
        reg.set_cadence("snmp", Duration::mins(10));
        reg.observe("snmp", ts(0), 5);
        assert_eq!(reg.state("snmp", ts(0)), FeedState::Healthy);
        assert_eq!(reg.state("snmp", ts(600)), FeedState::Healthy);
        assert_eq!(reg.state("snmp", ts(601)), FeedState::Lagging);
        assert_eq!(reg.state("snmp", ts(1800)), FeedState::Lagging);
        assert_eq!(reg.state("snmp", ts(1801)), FeedState::Stalled);
        assert_eq!(reg.state("snmp", ts(7200)), FeedState::Stalled);
        assert_eq!(reg.state("snmp", ts(7201)), FeedState::Dead);
        assert_eq!(reg.state("l1log", ts(7201)), FeedState::Dead); // never seen
    }

    #[test]
    fn live_feeds_vouch_for_silence_stalled_ones_do_not() {
        let mut reg = FeedRegistry::new();
        reg.set_cadence("syslog", Duration::mins(10));
        reg.observe("syslog", ts(1000), 1);
        // Within the staleness allowance the feed is presumed complete
        // through the clock...
        assert_eq!(reg.effective_watermark("syslog", ts(2000)), Some(ts(2000)));
        // ...beyond it, only delivered data counts.
        assert_eq!(reg.effective_watermark("syslog", ts(9000)), Some(ts(1000)));
        // Never-seen feeds vouch for nothing.
        assert_eq!(reg.effective_watermark("perf", ts(2000)), None);
    }

    #[test]
    fn watermarks_are_monotone() {
        let mut reg = FeedRegistry::new();
        reg.observe("perf", ts(500), 1);
        reg.observe("perf", ts(300), 2); // late arrival cannot rewind
        assert_eq!(reg.watermark("perf"), Some(ts(500)));
        reg.observe("perf", ts(800), 3);
        assert_eq!(reg.watermark("perf"), Some(ts(800)));
    }

    #[test]
    fn recovery_returns_to_healthy() {
        let mut reg = FeedRegistry::new();
        reg.set_cadence("perf", Duration::mins(10));
        reg.observe("perf", ts(0), 1);
        assert_eq!(reg.state("perf", ts(4000)), FeedState::Stalled);
        reg.observe("perf", ts(3900), 2);
        assert_eq!(reg.state("perf", ts(4000)), FeedState::Healthy);
    }

    #[test]
    fn render_lists_every_feed() {
        let mut reg = FeedRegistry::new();
        reg.observe("syslog", ts(0), 3);
        let s = reg.render(ts(60));
        assert!(s.contains("syslog"));
        assert!(s.contains("healthy"));
        assert!(s.contains("never seen"));
    }
}
