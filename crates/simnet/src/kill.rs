//! Process-level kill-point injection for crash-recovery testing.
//!
//! [`chaos`](crate::chaos) perturbs the *transport* — feeds stall, die,
//! corrupt. This module perturbs the *pipeline process itself*: a
//! [`KillPoint`] names an instant in the online loop (between ingest
//! sub-chunks, immediately before a checkpoint, inside the checkpoint's
//! manifest rotation, or just after it), and a [`KillSwitch`] fires there
//! — either by aborting the process (the child-process recovery harness:
//! `abort` runs no destructors, so the on-disk state is exactly what a
//! power cut would leave) or by reporting "die here" to an in-process
//! driver (the proptest harness, which simulates the crash by dropping
//! the pipeline instead).
//!
//! Kill points round-trip through a compact string form so the recovery
//! experiment can pass them to a re-executed child via an environment
//! variable.

use std::fmt;

/// An instant in the online pipeline's cycle loop at which to die.
/// `cycle` is the 0-based micro-batch cycle index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillPoint {
    /// Mid-cycle: after delivering sub-chunk `chunk` (0-based) of the
    /// cycle's records, split into `of` sub-chunks — a crash at an
    /// arbitrary record boundary, with part of the cycle ingested but no
    /// diagnosis pass run.
    Ingest { cycle: u64, chunk: u32, of: u32 },
    /// End of the cycle, after emission but before the checkpoint write
    /// begins — the whole cycle's work must be replayed.
    BeforeCheckpoint { cycle: u64 },
    /// Inside the checkpoint: the new manifest's temp file is written
    /// but the rotation has not started (`MANIFEST` still points at the
    /// previous checkpoint).
    CheckpointTmp { cycle: u64 },
    /// Inside the checkpoint: `MANIFEST` has rotated to `MANIFEST.prev`
    /// but the new manifest is not in place yet — recovery must fall
    /// back to the previous checkpoint.
    CheckpointRotated { cycle: u64 },
    /// Just after the checkpoint completed — restart should resume from
    /// this very cycle with nothing to replay before the next batch.
    AfterCheckpoint { cycle: u64 },
}

impl KillPoint {
    /// The cycle this point lives in.
    pub fn cycle(&self) -> u64 {
        match *self {
            KillPoint::Ingest { cycle, .. }
            | KillPoint::BeforeCheckpoint { cycle }
            | KillPoint::CheckpointTmp { cycle }
            | KillPoint::CheckpointRotated { cycle }
            | KillPoint::AfterCheckpoint { cycle } => cycle,
        }
    }

    /// Parse the compact string form produced by `Display`.
    pub fn parse(s: &str) -> Option<KillPoint> {
        let mut it = s.split(':');
        let kind = it.next()?;
        let cycle: u64 = it.next()?.parse().ok()?;
        let point = match kind {
            "ingest" => {
                let chunk: u32 = it.next()?.parse().ok()?;
                let of: u32 = it.next()?.parse().ok()?;
                if of == 0 || chunk >= of {
                    return None;
                }
                KillPoint::Ingest { cycle, chunk, of }
            }
            "before-ckpt" => KillPoint::BeforeCheckpoint { cycle },
            "ckpt-tmp" => KillPoint::CheckpointTmp { cycle },
            "ckpt-rotated" => KillPoint::CheckpointRotated { cycle },
            "after-ckpt" => KillPoint::AfterCheckpoint { cycle },
            _ => return None,
        };
        if it.next().is_some() {
            return None;
        }
        Some(point)
    }
}

impl fmt::Display for KillPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            KillPoint::Ingest { cycle, chunk, of } => write!(f, "ingest:{cycle}:{chunk}:{of}"),
            KillPoint::BeforeCheckpoint { cycle } => write!(f, "before-ckpt:{cycle}"),
            KillPoint::CheckpointTmp { cycle } => write!(f, "ckpt-tmp:{cycle}"),
            KillPoint::CheckpointRotated { cycle } => write!(f, "ckpt-rotated:{cycle}"),
            KillPoint::AfterCheckpoint { cycle } => write!(f, "after-ckpt:{cycle}"),
        }
    }
}

/// Arms at most one [`KillPoint`] for a pipeline run.
#[derive(Debug, Clone, Default)]
pub struct KillSwitch {
    point: Option<KillPoint>,
}

impl KillSwitch {
    /// A switch that never fires (the uninterrupted reference run).
    pub fn disarmed() -> Self {
        KillSwitch { point: None }
    }

    pub fn armed(point: KillPoint) -> Self {
        KillSwitch { point: Some(point) }
    }

    /// Read the kill point from an environment variable (the recovery
    /// harness arms its re-executed child this way). Unset or unparsable
    /// values leave the switch disarmed.
    pub fn from_env(var: &str) -> Self {
        KillSwitch {
            point: std::env::var(var).ok().and_then(|s| KillPoint::parse(&s)),
        }
    }

    pub fn point(&self) -> Option<KillPoint> {
        self.point
    }

    /// Should the pipeline die at `at`?
    pub fn check(&self, at: KillPoint) -> bool {
        self.point == Some(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_points_roundtrip_through_strings() {
        let points = [
            KillPoint::Ingest {
                cycle: 17,
                chunk: 2,
                of: 4,
            },
            KillPoint::BeforeCheckpoint { cycle: 0 },
            KillPoint::CheckpointTmp { cycle: 3 },
            KillPoint::CheckpointRotated { cycle: 9 },
            KillPoint::AfterCheckpoint { cycle: 41 },
        ];
        for p in points {
            assert_eq!(KillPoint::parse(&p.to_string()), Some(p), "{p}");
            assert_eq!(p.cycle(), p.cycle());
        }
        for bad in [
            "",
            "ingest:1",
            "ingest:1:4:4", // chunk out of range
            "ingest:1:0:0", // zero chunks
            "ckpt-tmp:x",
            "nonsense:1",
            "after-ckpt:1:2", // trailing junk
        ] {
            assert_eq!(KillPoint::parse(bad), None, "{bad:?} should not parse");
        }
    }

    #[test]
    fn switch_fires_only_at_its_armed_point() {
        let p = KillPoint::BeforeCheckpoint { cycle: 5 };
        let armed = KillSwitch::armed(p);
        assert!(armed.check(p));
        assert!(!armed.check(KillPoint::BeforeCheckpoint { cycle: 6 }));
        assert!(!armed.check(KillPoint::AfterCheckpoint { cycle: 5 }));
        assert!(!KillSwitch::disarmed().check(p));
        assert_eq!(KillSwitch::disarmed().point(), None);
    }

    #[test]
    fn env_round_trip_arms_the_switch() {
        let var = "GRCA_KILL_TEST_VAR";
        std::env::set_var(var, KillPoint::CheckpointTmp { cycle: 7 }.to_string());
        let sw = KillSwitch::from_env(var);
        assert_eq!(sw.point(), Some(KillPoint::CheckpointTmp { cycle: 7 }));
        std::env::set_var(var, "garbage");
        assert_eq!(KillSwitch::from_env(var).point(), None);
        std::env::remove_var(var);
        assert_eq!(KillSwitch::from_env(var).point(), None);
    }
}
