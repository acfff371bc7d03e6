//! The online replay driver: the one place records are replayed through
//! [`OnlineRca`] cycle by cycle.
//!
//! Every harness that streams a scenario — the chaos gate
//! ([`crate::chaos`]), the kill/restart matrix ([`mod@crate::recovery`]),
//! the soak ([`crate::soak`]) and `exp_ext_online` — builds its own
//! pipeline and scores its own output, but the cycle in between is this
//! module's:
//!
//! 1. the **clock schedule** — the delivery clocks of a
//!    [`MicroBatches`] grid plus the drain tail that lets the last
//!    evidence horizons close. The schedule has two inputs, both given to
//!    [`Replay::new`]: the cycle length and the [`Cadence`] the feeds
//!    vouch under, which fixes the tail's step and bound;
//! 2. the **step** — ingest the cycle's records (whole, or in sub-chunks
//!    with a kill check after each), advance the study's pipeline
//!    ([`Study::advance`]), hand the emissions to the caller, then
//!    checkpoint at the configured cadence with a [`KillSwitch`] consulted
//!    at every stage of the write.
//!
//! [`labels`] is the comparator those harnesses read the result with.

use crate::chaos::STRICT_CADENCE;
use grca_apps::{checkpoint as ckpt, OnlineRca, Study};
use grca_collector::{DurableStore, SaveStage, StorageConfig};
use grca_core::{Diagnosis, Emission};
use grca_net_model::Topology;
use grca_simnet::{KillPoint, KillSwitch, MicroBatches};
use grca_telemetry::records::RawRecord;
use grca_types::{Duration, Timestamp};
use std::path::Path;

/// Sorted `((location, window start), label)` of a diagnosis set — the
/// form every label-identity contract (online ≡ batch, recovered ≡ fresh)
/// compares in, independent of diagnosis order.
pub fn labels<'d>(
    topo: &Topology,
    diagnoses: impl IntoIterator<Item = &'d Diagnosis>,
) -> Vec<((String, i64), String)> {
    let mut out: Vec<_> = diagnoses
        .into_iter()
        .map(|d| {
            (
                (
                    d.symptom.location.display(topo),
                    d.symptom.window.start.unix(),
                ),
                d.label(),
            )
        })
        .collect();
    out.sort();
    out
}

/// How the replayed feeds vouch for their silence, which decides how the
/// drain tail after the last delivery must be walked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cadence {
    /// Strict watermark mode (see [`crate::chaos`]): every relevant feed
    /// is tightened to [`STRICT_CADENCE`], so gating depends on delivered
    /// watermarks alone. The tail steps by the cycle length until every
    /// held-back symptom has resolved — full once watermarks pass,
    /// degraded once wait budgets lapse.
    Strict,
    /// The registry's default liveness-vouching cadences. The tail steps
    /// in sub-allowance 10-minute increments, so quiet-but-live feeds keep
    /// vouching for their silence while the last horizons close.
    Liveness,
}

/// One executed cycle, as handed to [`Replay::run`]'s callback.
#[derive(Debug, Clone, Copy)]
pub struct Cycle {
    /// Global cycle index across the whole replay (restores included).
    pub index: u64,
    /// The clock the pipeline was advanced to.
    pub clock: Timestamp,
    /// Records delivered this cycle (0 during the drain).
    pub records: usize,
}

/// Should the replay die at `at`? Aborts in place when configured to.
fn fires(kill: &KillSwitch, abort: bool, at: KillPoint) -> Result<(), KillPoint> {
    if !kill.check(at) {
        return Ok(());
    }
    if abort {
        std::process::abort();
    }
    Err(at)
}

/// A study's online pipeline plus the replay position, checkpoint
/// cadence and kill switch that drive it.
pub struct Replay<'a> {
    study: Study,
    topo: &'a Topology,
    online: OnlineRca<'a>,
    cycle_len: Duration,
    cadence: Cadence,
    /// Next cycle to execute.
    cycle: u64,
    /// The cycle the first clock of the next [`Replay::run`] call stands
    /// for; behind `cycle` only after a restore.
    window: u64,
    /// Checkpoint store and cadence (every n-th cycle closes with one).
    checkpoints: Option<(DurableStore, u64)>,
    checkpoints_written: usize,
    kill: KillSwitch,
    abort_on_kill: bool,
    /// `Some(n)`: ingest each cycle in `n` sub-chunks, a kill point after
    /// each. `None`: the cycle's records go to [`Study::advance`] whole.
    ingest_chunks: Option<u32>,
}

impl<'a> Replay<'a> {
    /// Drive `online` — built by [`Study::online`] and configured by the
    /// caller — in cycles of `cycle_len` under `cadence`.
    pub fn new(
        study: Study,
        topo: &'a Topology,
        mut online: OnlineRca<'a>,
        cycle_len: Duration,
        cadence: Cadence,
    ) -> Self {
        if cadence == Cadence::Strict {
            for feed in online.relevant_feeds().to_vec() {
                online = online.with_feed_cadence(feed, STRICT_CADENCE);
            }
        }
        Replay {
            study,
            topo,
            online,
            cycle_len,
            cadence,
            cycle: 0,
            window: 0,
            checkpoints: None,
            checkpoints_written: 0,
            kill: KillSwitch::disarmed(),
            abort_on_kill: false,
            ingest_chunks: None,
        }
    }

    /// Close every `every`-th cycle with a pipeline checkpoint
    /// ([`grca_apps::checkpoint`]) into `dir`. The pipeline must run
    /// durable segmented storage spilling there.
    pub fn with_checkpoints(mut self, dir: &Path, every: u64) -> Self {
        let store = DurableStore::open(dir).expect("open durable store");
        self.checkpoints = Some((store, every.max(1)));
        self
    }

    /// Ingest each cycle in `ingest_chunks` sub-chunks and consult `kill`
    /// after every chunk and around every checkpoint stage. With `abort`
    /// the process dies on the spot — no destructors, exactly like a
    /// power cut; otherwise [`Replay::run`] returns the point that fired.
    pub fn with_kill(mut self, kill: KillSwitch, abort: bool, ingest_chunks: u32) -> Self {
        self.kill = kill;
        self.abort_on_kill = abort;
        self.ingest_chunks = Some(ingest_chunks.max(1));
        self
    }

    /// Restore the pipeline from the latest checkpoint in `dir`
    /// ([`grca_apps::checkpoint::restore`]) and position the replay just
    /// after it. Returns the checkpointed cycle, `None` on a cold start.
    pub fn restore(&mut self, dir: &Path, cfg: &StorageConfig) -> Option<u64> {
        let resumed = ckpt::restore(&mut self.online, dir, cfg).expect("restore must not error");
        if let Some(c) = resumed {
            self.cycle = c + 1;
        }
        resumed
    }

    pub fn online(&self) -> &OnlineRca<'a> {
        &self.online
    }

    /// The next cycle [`Replay::run`] will execute.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Checkpoints written so far.
    pub fn checkpoints(&self) -> usize {
        self.checkpoints_written
    }

    /// The delivery clocks of a micro-batch grid: the end-of-cycle instant
    /// of each cycle, what the online consumer uses as "now".
    pub fn delivery_clocks(mb: &MicroBatches) -> Vec<Timestamp> {
        (0..mb.cycles()).map(|i| mb.clock(i)).collect()
    }

    /// The drain tail after the delivery clock `last` of a window ending
    /// at `end`: keep polling until the last horizons have closed.
    pub fn drain_clocks(&self, last: Timestamp, end: Timestamp) -> Vec<Timestamp> {
        let (step, past_end) = match self.cadence {
            Cadence::Strict => (
                self.cycle_len,
                self.online.hold_back() + self.online.wait_budget() + Duration::hours(1),
            ),
            Cadence::Liveness => (
                Duration::mins(10),
                self.online.hold_back() + Duration::mins(30),
            ),
        };
        let mut clocks = Vec::new();
        let mut now = last;
        while now < end + past_end {
            now += step;
            clocks.push(now);
        }
        clocks
    }

    /// The full schedule of a window ending at `end`: `mb`'s delivery
    /// clocks followed by the drain tail.
    pub fn clocks(&self, mb: &MicroBatches, end: Timestamp) -> Vec<Timestamp> {
        let mut clocks = Self::delivery_clocks(mb);
        let last = *clocks.last().expect("a schedule has at least one cycle");
        clocks.extend(self.drain_clocks(last, end));
        clocks
    }

    /// Execute one cycle per clock: cycle `i` ingests `delivered[i]`
    /// (nothing once `delivered` runs out — the drain), advances the
    /// pipeline to `clocks[i]`, hands the emissions to `on_cycle`, then
    /// checkpoints if the cadence says so. Successive calls take
    /// successive windows of the schedule; leading cycles a restored
    /// checkpoint already closed are skipped. Returns the kill point that
    /// stopped the run early, if one fired.
    pub fn run(
        &mut self,
        clocks: &[Timestamp],
        delivered: &[Vec<RawRecord>],
        mut on_cycle: impl FnMut(&OnlineRca<'a>, Cycle, Vec<Emission>),
    ) -> Option<KillPoint> {
        let closed = (self.cycle - self.window) as usize;
        self.window += clocks.len() as u64;
        for (i, &now) in clocks.iter().enumerate().skip(closed) {
            let records = delivered.get(i).map_or(&[][..], Vec::as_slice);
            if let Err(at) = self.step(records, now, &mut on_cycle) {
                return Some(at);
            }
        }
        None
    }

    fn killed(&self, at: KillPoint) -> Result<(), KillPoint> {
        fires(&self.kill, self.abort_on_kill, at)
    }

    fn step(
        &mut self,
        records: &[RawRecord],
        now: Timestamp,
        on_cycle: &mut impl FnMut(&OnlineRca<'a>, Cycle, Vec<Emission>),
    ) -> Result<(), KillPoint> {
        let cycle = self.cycle;
        let new = match self.ingest_chunks {
            None => self
                .study
                .advance(&mut self.online, records, now, self.topo),
            Some(of) => {
                for chunk in 0..of {
                    let lo = records.len() * chunk as usize / of as usize;
                    let hi = records.len() * (chunk as usize + 1) / of as usize;
                    self.online.ingest(&records[lo..hi]);
                    self.killed(KillPoint::Ingest { cycle, chunk, of })?;
                }
                // Diagnose on the fully ingested cycle: the records are
                // already in the database, so `advance` sees exactly what
                // a one-shot ingest would have.
                self.study.advance(&mut self.online, &[], now, self.topo)
            }
        };
        on_cycle(
            &self.online,
            Cycle {
                index: cycle,
                clock: now,
                records: records.len(),
            },
            new,
        );

        if let Some((store, every)) = &self.checkpoints {
            if (cycle + 1).is_multiple_of(*every) {
                self.killed(KillPoint::BeforeCheckpoint { cycle })?;
                let (kill, abort) = (&self.kill, self.abort_on_kill);
                let mut fired: Option<KillPoint> = None;
                let res = ckpt::checkpoint_with(&mut self.online, store, cycle, &mut |stage| {
                    let at = match stage {
                        SaveStage::TmpWritten => KillPoint::CheckpointTmp { cycle },
                        SaveStage::Rotated => KillPoint::CheckpointRotated { cycle },
                        SaveStage::Renamed => return false,
                    };
                    fired = fires(kill, abort, at).err();
                    fired.is_some()
                });
                match (res, fired) {
                    (Err(_), Some(at)) => return Err(at),
                    (Err(e), None) => panic!("checkpoint failed: {e}"),
                    (Ok(_), _) => {
                        self.checkpoints_written += 1;
                        self.killed(KillPoint::AfterCheckpoint { cycle })?;
                    }
                }
            }
        }
        self.cycle += 1;
        Ok(())
    }
}
