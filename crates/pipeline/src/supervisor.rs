//! Supervision & recovery: the state and arithmetic that turn a worker
//! crash into a bounded-loss restart instead of a pipeline-fatal error.
//!
//! ## The shard lifecycle state machine
//!
//! ```text
//!            progress resumes
//!          ┌───────────────────┐
//!          ▼                   │
//!       Running ──stall──▶ Suspect ──deadline──▶ Restarting ─┐
//!          ▲                                        │        │
//!          └──────────── respawned ◀────────────────┘        │
//!                                       strikes > max ──▶ Quarantined
//! ```
//!
//! The router (single-threaded, in `pipeline.rs`) drives the machine: it
//! detects death via `PushError::Disconnected` (the worker's `AliveGuard`
//! flips the ring flag on any exit, including panic unwind) and hangs via
//! the per-shard [`ShardRecovery::progress`] counter checked against a
//! deadline whenever pushes stall. A crashed shard restarts with capped
//! exponential backoff; after `max_strikes` rapid crashes it is
//! quarantined and the pipeline degrades (that shard's items fail with a
//! typed per-item outcome) rather than dies.
//!
//! ## Checkpoint + journal: what recovery rebuilds from
//!
//! Every worker hands each applied slab to a bounded in-memory **replay
//! journal** and seals a wire-v2 snapshot **checkpoint** every
//! `checkpoint_interval` applied items. The journal holds whole slabs:
//! the worker *moves* the slab's item buffer in (no item is copied) and
//! the journal records only the applied-item sequence of the slab's first
//! item, so committing costs the same for a 1-item slab as for a
//! 4096-item one. Checkpoints are double-buffered: a new seal lands in
//! the standby slot and only then becomes "latest", so a torn or
//! corrupted checkpoint never replaces a good one. The journal is pruned
//! by whole slabs, only up to the *older* checkpoint's sequence, which
//! means `older checkpoint + journal` still reconstructs the full state
//! when the newest checkpoint fails its own checksum — corruption costs
//! replay time, not data. Seals happen only between slab commits, so a
//! checkpoint's sequence is always a slab boundary and no slab straddles
//! the prune point. The journal's bound is counted in items,
//! `2 × (checkpoint_interval + slab_capacity)` with saturating
//! arithmetic, and nothing is reserved up front.
//!
//! Recovery therefore rebuilds `restore(newest valid checkpoint) +
//! replay(journal suffix)`, yielding a filter equal to the crashed one at
//! its last journaled item. Everything past that point — the slab being
//! applied at crash time plus whatever slabs sat in the SPSC ring — is
//! the **loss window**, accounted exactly in [`RecoveryRecord::lost`] and
//! the pipeline summary, never silently absorbed. (Items still buffered
//! router-side survive a crash — they re-flush to the replacement worker
//! — so they are excluded from the window.)
//!
//! All of this state lives behind one uncontended mutex per shard
//! ([`ShardRecovery`]), written by the worker once per slab (one lock
//! acquisition and one journal push per slab of up to
//! `PipelineConfig::slab_capacity` items) and read by the router only
//! during recovery — so the fault-free hot path pays one uncontended
//! lock plus a handful of word writes per slab. Generation fencing
//! makes abandoned workers harmless: the router bumps
//! `RecoveryInner::generation` under the lock before rebuilding, and a
//! stale worker (e.g. one that was hung and later wakes) observes the
//! mismatch on its next batch commit and exits without journaling,
//! reporting, or sealing anything.

use crate::chaos::ArmedChaos;
use crate::telemetry;
use core::time::Duration;
use qf_model::sync::atomic::{AtomicU64, Ordering};
use qf_model::sync::{Mutex, MutexGuard};
use quantile_filter::{HashedItem, ItemHasher, QuantileFilter};
use std::collections::VecDeque;

/// Lifecycle state of a supervised shard. See the module docs for the
/// transition diagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardState {
    /// The worker is alive and making progress.
    #[default]
    Running,
    /// Pushes are stalling and the progress counter has stopped moving;
    /// the watchdog deadline is ticking.
    Suspect,
    /// A crash or hang was confirmed; the shard is being rebuilt from
    /// checkpoint + journal.
    Restarting,
    /// The shard exceeded its strike budget and will not be restarted;
    /// its items are rejected with a typed per-item outcome.
    Quarantined,
}

impl ShardState {
    /// Numeric encoding used by the `qf_pipeline_shard_state` gauge
    /// (which exports the *sum* of codes across shards, so `0` means
    /// every shard is `Running`).
    pub fn code(self) -> i64 {
        match self {
            Self::Running => 0,
            Self::Suspect => 1,
            Self::Restarting => 2,
            Self::Quarantined => 3,
        }
    }

    /// Inverse of [`code`](Self::code); `None` for unknown encodings.
    pub fn from_code(code: i64) -> Option<Self> {
        match code {
            0 => Some(Self::Running),
            1 => Some(Self::Suspect),
            2 => Some(Self::Restarting),
            3 => Some(Self::Quarantined),
            _ => None,
        }
    }

    /// Stable lowercase name used by the `/health` ops endpoint.
    pub fn name(self) -> &'static str {
        match self {
            Self::Running => "running",
            Self::Suspect => "suspect",
            Self::Restarting => "restarting",
            Self::Quarantined => "quarantined",
        }
    }
}

/// Supervision policy knobs. Passed to
/// [`Pipeline::launch_supervised`](crate::Pipeline::launch_supervised);
/// [`Default`] is tuned for production-ish streams (checkpoint every 8Ki
/// items, 200 ms watchdog).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Seal a checkpoint every this many applied items (per shard). The
    /// replay journal is bounded at `2 × (interval + slab)` items
    /// (saturating) so that even a corrupted newest checkpoint recovers
    /// losslessly from the older one.
    pub checkpoint_interval: u64,
    /// How long a shard's progress counter may stay frozen while its
    /// queue is refusing items before the worker is declared hung.
    pub watchdog_deadline: Duration,
    /// Crashes tolerated in quick succession before the shard is
    /// quarantined instead of restarted.
    pub max_strikes: u32,
    /// Backoff before the first restart; doubles per strike.
    pub backoff_base: Duration,
    /// Ceiling on the exponential backoff.
    pub backoff_cap: Duration,
    /// Applied items after a restart that reset the strike counter — a
    /// shard that runs this far is considered healthy again.
    pub strike_forgiveness: u64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            checkpoint_interval: 8192,
            watchdog_deadline: Duration::from_millis(200),
            max_strikes: 3,
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(200),
            strike_forgiveness: 4 * 8192,
        }
    }
}

impl SupervisorConfig {
    /// Reject configurations the supervisor cannot honor.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.checkpoint_interval == 0 {
            return Err("checkpoint interval must be at least 1 item");
        }
        if self.watchdog_deadline.is_zero() {
            return Err("watchdog deadline must be non-zero");
        }
        Ok(())
    }

    /// Backoff before restart number `strikes` (1-based): capped
    /// exponential.
    pub fn backoff_for(&self, strikes: u32) -> Duration {
        let factor = 1u32 << strikes.saturating_sub(1).min(16);
        self.backoff_base
            .saturating_mul(factor)
            .min(self.backoff_cap)
    }
}

/// Why a shard was recovered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashCause {
    /// The worker thread exited without being told to (panic unwind,
    /// observed as `PushError::Disconnected`).
    Panic,
    /// The worker stopped making progress past the watchdog deadline.
    Hang,
    /// The worker failed to drain and exit within the shutdown deadline.
    ShutdownStall,
}

impl CrashCause {
    /// Numeric encoding carried in the `a` payload of flight-recorder
    /// restart/quarantine events (`0` is reserved for "unknown").
    pub fn code(self) -> u64 {
        match self {
            Self::Panic => 1,
            Self::Hang => 2,
            Self::ShutdownStall => 3,
        }
    }

    /// Stable lowercase name used in flight dumps and `/health` output.
    pub fn name(self) -> &'static str {
        match self {
            Self::Panic => "panic",
            Self::Hang => "hang",
            Self::ShutdownStall => "shutdown_stall",
        }
    }

    /// Inverse of [`code`](Self::code); `None` for `0` and unknown codes.
    pub fn from_code(code: u64) -> Option<Self> {
        match code {
            1 => Some(Self::Panic),
            2 => Some(Self::Hang),
            3 => Some(Self::ShutdownStall),
            _ => None,
        }
    }
}

/// What recovery rebuilt the shard's filter from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveredBase {
    /// `restore(checkpoint at seq)` + journal replay.
    Checkpoint {
        /// Applied-item sequence the checkpoint captured.
        seq: u64,
    },
    /// No checkpoint existed yet; a fresh filter replayed the full
    /// journal (which still covered the shard's whole history).
    Fresh,
    /// Neither checkpoint decoded *and* the journal no longer reached
    /// back to item 1: the shard restarted empty and its prior state is
    /// gone. `RecoveryRecord::prior_applied` says how much.
    StateLoss,
}

/// One recovery event, as recorded in
/// [`PipelineSummary::recoveries`](crate::PipelineSummary::recoveries).
/// The loss bound: a crash loses exactly `lost` items — the slab being
/// applied plus the slabs queued in its ring at crash time — and nothing
/// else.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryRecord {
    /// Shard that crashed.
    pub shard: usize,
    /// Generation that was fenced (the replacement runs `generation+1`).
    pub generation: u64,
    /// What the supervisor observed.
    pub cause: CrashCause,
    /// What the replacement filter was rebuilt from; `None` when no
    /// rebuild was attempted (quarantine on strike exhaustion, terminal
    /// fence at shutdown).
    pub base: Option<RecoveredBase>,
    /// Journal items re-applied on top of the base (reports suppressed —
    /// they were already emitted by the crashed generation).
    pub replayed: u64,
    /// Applied-item sequence the replacement resumed from.
    pub recovered_seq: u64,
    /// Items whose effect did not survive: enqueued but never journaled.
    pub lost: u64,
    /// Items the fenced generation had applied before the crash (only
    /// differs from `recovered_seq` under [`RecoveredBase::StateLoss`]).
    pub prior_applied: u64,
    /// `true` when this crash exhausted the strike budget and the shard
    /// was quarantined instead of restarted.
    pub quarantined: bool,
    /// Detection-to-respawn wall time (zero when quarantined).
    pub restart_latency: Duration,
}

/// One committed slab: its hashed items, moved in from the worker, and
/// the applied-item sequence of the first of them.
#[derive(Debug)]
struct JournalSlab {
    first_seq: u64,
    items: Vec<HashedItem>,
}

impl JournalSlab {
    /// Sequence of the slab's last item.
    fn last_seq(&self) -> u64 {
        self.first_seq + self.items.len() as u64 - 1
    }
}

#[derive(Debug, Clone)]
struct Checkpoint {
    seq: u64,
    bytes: Vec<u8>,
}

/// The mutex-guarded half of a shard's recovery state. Workers commit to
/// it once per slab; the router reads it only while recovering or
/// summarizing.
#[derive(Debug)]
pub(crate) struct RecoveryInner {
    /// Fencing token: bumped by the router before every rebuild. A
    /// worker whose own generation no longer matches must exit without
    /// side effects.
    pub(crate) generation: u64,
    /// Applied-and-journaled items of the surviving lineage.
    pub(crate) applied: u64,
    /// Reports emitted for journaled items (crash-safe report count).
    pub(crate) reports: u64,
    /// Items shed by the worker under `DropOldest` (popped, discarded,
    /// never applied).
    pub(crate) shed: u64,
    /// Committed slabs in sequence order, never empty ones.
    journal: VecDeque<JournalSlab>,
    /// Items held across `journal`.
    journal_items: u64,
    /// Bound on `journal_items`.
    journal_cap: u64,
    /// The hasher the router hashes this shard's items with (`None`: the
    /// worker hashes); replay applies the journaled records through it.
    hasher: Option<ItemHasher>,
    slots: [Option<Checkpoint>; 2],
    latest: usize,
    seals: u64,
}

/// Per-shard recovery state shared between the router, the live worker,
/// and any abandoned predecessors (which the generation fence renders
/// inert).
#[derive(Debug)]
pub(crate) struct ShardRecovery {
    inner: Mutex<RecoveryInner>,
    /// Liveness counter: bumped per popped item, read by the watchdog.
    /// Monotone across generations; only "has it moved" matters.
    // sync: counter — relaxed watchdog heartbeat; a stale read only
    // delays a hang verdict by one scan, and every state handoff goes
    // through `inner`'s lock edges.
    progress: AtomicU64,
}

impl ShardRecovery {
    /// `max_slab` is the largest slab a worker commits under one lock
    /// acquisition — the pipeline's slab capacity — so the journal can
    /// always absorb a full checkpoint interval plus one in-flight slab
    /// on both sides of the double-buffered prune horizon. The bound
    /// saturates (an interval near `u64::MAX` means "never prune") and
    /// nothing is allocated until the first commit. `hasher` is the one
    /// the shard's router hashes items with, if any, which every filter
    /// of the lineage shares (recovery keeps the shard's seeds).
    pub(crate) fn new(
        checkpoint_interval: u64,
        max_slab: usize,
        hasher: Option<ItemHasher>,
    ) -> Self {
        let journal_cap = checkpoint_interval
            .saturating_add(max_slab as u64)
            .saturating_mul(2);
        Self {
            inner: Mutex::new(RecoveryInner {
                generation: 0,
                applied: 0,
                reports: 0,
                shed: 0,
                journal: VecDeque::new(),
                journal_items: 0,
                journal_cap,
                hasher,
                slots: [None, None],
                latest: 0,
                seals: 0,
            }),
            progress: AtomicU64::new(0),
        }
    }

    /// Bump the liveness counter by `n` popped items; returns the value
    /// *before* the bump (the pop ordinal base for the slab).
    pub(crate) fn note_progress(&self, n: u64) -> u64 {
        self.progress.fetch_add(n, Ordering::Relaxed)
    }

    /// Current liveness counter (watchdog side).
    pub(crate) fn progress(&self) -> u64 {
        self.progress.load(Ordering::Relaxed)
    }

    /// The shard's router hasher. Takes the lock, so workers call it
    /// once per generation, not per slab.
    pub(crate) fn hasher(&self) -> Option<ItemHasher> {
        self.lock().hasher.clone()
    }

    /// Lock the inner state. Poisoning is tolerated (the shim's `lock`
    /// continues with the inner data): a worker can only panic inside
    /// `filter.insert` (outside the lock) or via injected chaos, but if
    /// a panic ever does land mid-commit the recovery data is still the
    /// best information available.
    pub(crate) fn lock(&self) -> MutexGuard<'_, RecoveryInner> {
        self.inner.lock()
    }
}

/// What [`RecoveryInner::recover`] rebuilt.
#[derive(Debug)]
pub(crate) struct Recovered {
    pub(crate) filter: QuantileFilter,
    pub(crate) base: RecoveredBase,
    pub(crate) replayed: u64,
    /// `applied` of the fenced lineage at recovery time.
    pub(crate) prior_applied: u64,
    /// `applied` the replacement resumes from (== `prior_applied` except
    /// under `StateLoss`, where it is 0).
    pub(crate) recovered_seq: u64,
}

impl RecoveryInner {
    /// Journal one applied slab by moving its item buffer in. Called by
    /// the worker inside its slab commit, after the generation check.
    pub(crate) fn commit_slab(&mut self, mut items: Vec<HashedItem>) {
        let n = items.len() as u64;
        if n == 0 {
            return;
        }
        // A slab flushed early (quiesce, explicit flush, shutdown) would
        // otherwise pin its full capacity for as long as it is journaled.
        if items.len() < items.capacity() / 2 {
            items.shrink_to_fit();
        }
        self.journal.push_back(JournalSlab {
            first_seq: self.applied + 1,
            items,
        });
        self.applied += n;
        self.journal_items += n;
        // Unreachable by construction (seals prune faster than the cap),
        // but a bounded journal must stay bounded regardless.
        while self.journal_items > self.journal_cap {
            self.pop_journal_front();
        }
    }

    fn pop_journal_front(&mut self) {
        if let Some(slab) = self.journal.pop_front() {
            self.journal_items -= slab.items.len() as u64;
        }
    }

    /// Checkpoints sealed so far (the chaos seal ordinal).
    #[cfg(test)]
    pub(crate) fn seals(&self) -> u64 {
        self.seals
    }

    fn latest_seq(&self) -> u64 {
        self.slots[self.latest].as_ref().map_or(0, |c| c.seq)
    }

    /// Is the shard due for a checkpoint at the current batch boundary?
    pub(crate) fn due_seal(&self, interval: u64) -> bool {
        self.applied - self.latest_seq() >= interval
    }

    /// Seal a checkpoint of `filter` (whose state must equal the journal
    /// head, i.e. call this only at a batch boundary). Cold by contract:
    /// runs once per `checkpoint_interval` items, never per item.
    pub(crate) fn seal_checkpoint(
        &mut self,
        shard: usize,
        filter: &QuantileFilter,
        chaos: Option<&ArmedChaos>,
    ) {
        let mut bytes = filter.snapshot();
        self.seals += 1;
        if let Some(ch) = chaos {
            ch.corrupt_checkpoint(shard, self.seals, &mut bytes);
        }
        let standby = 1 - self.latest;
        self.slots[standby] = Some(Checkpoint {
            seq: self.applied,
            bytes,
        });
        self.latest = standby;
        // Keep the journal reaching back to the *older* checkpoint so a
        // corrupt newest one still recovers losslessly. Seals fall between
        // slab commits, so `bound` is a slab boundary and whole-slab
        // pruning stops exactly at it.
        let bound = self.slots[1 - standby].as_ref().map_or(0, |c| c.seq);
        while self.journal.front().is_some_and(|s| s.last_seq() <= bound) {
            self.pop_journal_front();
        }
        telemetry::checkpoint_sealed();
        // Runs on the worker thread (under the commit lock), so the
        // thread-local flight context routes this to the shard's ring.
        crate::flight::checkpoint_seal(self.seals, self.applied);
    }

    /// Rebuild a filter from the best available base without mutating
    /// anything: newest valid checkpoint + journal suffix, else older
    /// checkpoint, else a fresh filter when the journal still covers the
    /// whole history. `None` means the state is unrecoverable (both
    /// checkpoints bad and the journal is pruned) or `build_fresh`
    /// failed.
    pub(crate) fn reconstruct(
        &self,
        build_fresh: &mut dyn FnMut() -> Option<QuantileFilter>,
    ) -> Option<(QuantileFilter, RecoveredBase, u64)> {
        for idx in [self.latest, 1 - self.latest] {
            let Some(c) = &self.slots[idx] else { continue };
            let Ok(mut filter) = QuantileFilter::restore(&c.bytes) else {
                continue;
            };
            if let Some(replayed) = self.replay_onto(&mut filter, c.seq) {
                return Some((filter, RecoveredBase::Checkpoint { seq: c.seq }, replayed));
            }
        }
        // No checkpoint decoded. A fresh filter works iff the journal
        // still reaches back to item 1 (or nothing was ever applied).
        let covers_all =
            self.applied == 0 || self.journal.front().is_some_and(|s| s.first_seq == 1);
        if covers_all {
            let mut filter = build_fresh()?;
            let replayed = self.replay_onto(&mut filter, 0)?;
            return Some((filter, RecoveredBase::Fresh, replayed));
        }
        None
    }

    /// Replay journaled items `(base_seq, applied]` onto `filter`,
    /// suppressing reports (the crashed generation already emitted
    /// them). `None` if the journal does not contiguously cover that
    /// range.
    fn replay_onto(&self, filter: &mut QuantileFilter, base_seq: u64) -> Option<u64> {
        let mut expected = base_seq + 1;
        for slab in &self.journal {
            if slab.last_seq() < expected {
                continue;
            }
            // Only a base inside the first replayed slab skips a prefix;
            // a gap before the slab cannot be bridged.
            let skip = expected.checked_sub(slab.first_seq)? as usize;
            let items = &slab.items[skip..];
            filter.insert_hashed(self.hasher.as_ref(), items, &mut |_, _| {});
            expected += items.len() as u64;
        }
        if expected != self.applied + 1 {
            return None;
        }
        Some(self.applied - base_seq)
    }

    /// Fence the current generation and rebuild the shard's filter.
    /// `None` only when `build_fresh` itself fails — every other path
    /// degrades to [`RecoveredBase::StateLoss`] (restart empty, account
    /// the rollback) rather than giving up.
    pub(crate) fn recover(
        &mut self,
        build_fresh: &mut dyn FnMut() -> Option<QuantileFilter>,
    ) -> Option<Recovered> {
        self.generation += 1;
        let prior_applied = self.applied;
        if let Some((filter, base, replayed)) = self.reconstruct(build_fresh) {
            telemetry::replayed(replayed);
            return Some(Recovered {
                filter,
                base,
                replayed,
                prior_applied,
                recovered_seq: prior_applied,
            });
        }
        // Unrecoverable state: restart the lineage from empty.
        let filter = build_fresh()?;
        self.applied = 0;
        self.journal.clear();
        self.journal_items = 0;
        self.slots = [None, None];
        self.latest = 0;
        Some(Recovered {
            filter,
            base: RecoveredBase::StateLoss,
            replayed: 0,
            prior_applied,
            recovered_seq: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::Slab;
    use quantile_filter::{Criteria, QuantileFilterBuilder};

    fn build() -> QuantileFilter {
        let criteria = match Criteria::new(5.0, 0.9, 100.0) {
            Ok(c) => c,
            Err(e) => panic!("criteria: {e:?}"),
        };
        match QuantileFilterBuilder::new(criteria)
            .memory_budget_bytes(16 * 1024)
            .seed(7)
            .try_build()
        {
            Ok(f) => f,
            Err(e) => panic!("build: {e:?}"),
        }
    }

    /// A recovery state for `build()`'s filters, whose router hashes.
    fn recovery(interval: u64, max_slab: usize) -> ShardRecovery {
        recovery_hashing(interval, max_slab, true)
    }

    /// A recovery state for `build()`'s filters; `router_hashes` picks
    /// whether the journaled records carry coordinates.
    fn recovery_hashing(interval: u64, max_slab: usize, router_hashes: bool) -> ShardRecovery {
        let hasher = router_hashes.then(|| build().item_hasher().clone());
        ShardRecovery::new(interval, max_slab, hasher)
    }

    /// `items` as the router would slab them for `hasher`.
    fn records(hasher: Option<&ItemHasher>, items: &[(u64, f64)]) -> Vec<HashedItem> {
        let mut slab = Slab::with_capacity(items.len());
        for &(k, v) in items {
            slab.push(hasher, k, v);
        }
        slab.into_items()
    }

    /// Apply and commit `items` the way the supervised worker does, one
    /// slab per lock hold, cutting slabs at the lengths in `slabs`
    /// (cycled; a one-element `[1]` commits item by item).
    fn drive_slabs(
        rec: &ShardRecovery,
        filter: &mut QuantileFilter,
        items: &[(u64, f64)],
        interval: u64,
        slabs: &[usize],
    ) {
        let hasher = rec.hasher();
        let mut rest = items;
        for &len in slabs.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (slab, tail) = rest.split_at(len.min(rest.len()));
            rest = tail;
            let slab = records(hasher.as_ref(), slab);
            filter.insert_hashed(hasher.as_ref(), &slab, &mut |_, _| {});
            let mut inner = rec.lock();
            inner.commit_slab(slab);
            if inner.due_seal(interval) {
                inner.seal_checkpoint(0, filter, None);
            }
            inner.assert_journal_invariants();
        }
    }

    fn drive(
        rec: &ShardRecovery,
        filter: &mut QuantileFilter,
        items: &[(u64, f64)],
        interval: u64,
    ) {
        drive_slabs(rec, filter, items, interval, &[1]);
    }

    impl RecoveryInner {
        /// The journal invariants: it holds at most its bound in items,
        /// its slabs are contiguous, and it reaches back exactly to the
        /// older checkpoint's seq + 1 (item 1 before a second seal).
        fn assert_journal_invariants(&self) {
            let held: u64 = self.journal.iter().map(|s| s.items.len() as u64).sum();
            assert_eq!(held, self.journal_items);
            assert!(held <= self.journal_cap, "{held} > {}", self.journal_cap);
            let older = self.slots[1 - self.latest].as_ref().map_or(0, |c| c.seq);
            match self.journal.front() {
                Some(front) => assert_eq!(front.first_seq, older + 1),
                None => assert_eq!(self.applied, older),
            }
            let mut next = self.journal.front().map_or(0, |s| s.first_seq);
            for slab in &self.journal {
                assert_eq!(slab.first_seq, next, "journal slabs not contiguous");
                next = slab.last_seq() + 1;
            }
            if !self.journal.is_empty() {
                assert_eq!(next, self.applied + 1);
            }
        }
    }

    fn workload(n: usize) -> Vec<(u64, f64)> {
        (0..n)
            .map(|i| {
                let key = (i as u64 * 2654435761) % 37;
                let value = if i % 9 == 0 { 450.0 } else { (i % 20) as f64 };
                (key, value)
            })
            .collect()
    }

    #[test]
    fn recover_equals_uncrashed_filter() {
        let rec = recovery(16, 16);
        let mut filter = build();
        let items = workload(300);
        drive(&rec, &mut filter, &items, 16);
        let mut inner = rec.lock();
        let recovered = match inner.recover(&mut || Some(build())) {
            Some(r) => r,
            None => panic!("recover failed"),
        };
        assert_eq!(recovered.recovered_seq, 300);
        assert_eq!(recovered.prior_applied, 300);
        assert!(matches!(
            recovered.base,
            RecoveredBase::Checkpoint { .. } | RecoveredBase::Fresh
        ));
        // The rebuilt filter is byte-identical to the live one.
        assert_eq!(recovered.filter.snapshot(), filter.snapshot());
        assert_eq!(inner.generation, 1);
    }

    #[test]
    fn recover_before_first_checkpoint_replays_full_journal() {
        let rec = recovery(1000, 16);
        let mut filter = build();
        let items = workload(50);
        drive(&rec, &mut filter, &items, 1000);
        let mut inner = rec.lock();
        assert_eq!(inner.seals(), 0);
        let recovered = match inner.recover(&mut || Some(build())) {
            Some(r) => r,
            None => panic!("recover failed"),
        };
        assert_eq!(recovered.base, RecoveredBase::Fresh);
        assert_eq!(recovered.replayed, 50);
        assert_eq!(recovered.filter.snapshot(), filter.snapshot());
    }

    #[test]
    fn corrupt_newest_checkpoint_falls_back_to_older() {
        let rec = recovery(16, 16);
        let mut filter = build();
        drive(&rec, &mut filter, &workload(200), 16);
        let mut inner = rec.lock();
        // Corrupt the newest slot in place.
        let latest = inner.latest;
        if let Some(c) = inner.slots[latest].as_mut() {
            let mid = c.bytes.len() / 2;
            c.bytes[mid] ^= 0x40;
        } else {
            panic!("no newest checkpoint after 200 items at interval 16");
        }
        let newest_seq = inner.latest_seq();
        let recovered = match inner.recover(&mut || Some(build())) {
            Some(r) => r,
            None => panic!("recover failed"),
        };
        match recovered.base {
            RecoveredBase::Checkpoint { seq } => {
                assert!(seq < newest_seq, "fell back past the corrupt newest")
            }
            other => panic!("expected older-checkpoint base, got {other:?}"),
        }
        assert_eq!(recovered.recovered_seq, 200, "fallback is lossless");
        assert_eq!(recovered.filter.snapshot(), filter.snapshot());
    }

    #[test]
    fn both_checkpoints_corrupt_degrades_to_state_loss() {
        let rec = recovery(16, 16);
        let mut filter = build();
        drive(&rec, &mut filter, &workload(200), 16);
        let mut inner = rec.lock();
        for slot in inner.slots.iter_mut().flatten() {
            slot.bytes[0] ^= 0xFF;
        }
        let recovered = match inner.recover(&mut || Some(build())) {
            Some(r) => r,
            None => panic!("recover failed"),
        };
        assert_eq!(recovered.base, RecoveredBase::StateLoss);
        assert_eq!(recovered.prior_applied, 200);
        assert_eq!(recovered.recovered_seq, 0);
        assert_eq!(inner.applied, 0);
        // The lineage restarts cleanly: new commits journal from seq 1.
        let slab = records(inner.hasher.as_ref(), &[(1, 1.0), (2, 2.0)]);
        inner.commit_slab(slab);
        assert_eq!(inner.applied, 2);
        inner.assert_journal_invariants();
    }

    #[test]
    fn huge_interval_bound_saturates_and_keeps_the_whole_journal() {
        // An interval that passes `validate()` but overflows any
        // `interval + slab` sum: the bound saturates instead of wrapping
        // to a tiny cap, and nothing is reserved up front.
        for interval in [1u64 << 40, u64::MAX] {
            let rec = recovery(interval, 256);
            let mut filter = build();
            let items = workload(700);
            drive_slabs(&rec, &mut filter, &items, interval, &[256, 3, 64]);
            let mut inner = rec.lock();
            assert_eq!(inner.seals(), 0);
            assert_eq!(inner.journal_items, 700);
            let recovered = match inner.recover(&mut || Some(build())) {
                Some(r) => r,
                None => panic!("recover failed"),
            };
            assert_eq!(recovered.base, RecoveredBase::Fresh);
            assert_eq!(recovered.replayed, 700);
            assert_eq!(recovered.filter.snapshot(), filter.snapshot());
        }
    }

    #[test]
    fn sparse_slabs_do_not_pin_their_capacity() {
        let rec = recovery(1000, 256);
        let mut slab = Vec::with_capacity(256);
        slab.extend(records(rec.hasher().as_ref(), &[(1, 1.0)]));
        let mut inner = rec.lock();
        inner.commit_slab(slab);
        inner.commit_slab(Vec::new());
        assert_eq!(inner.journal.len(), 1, "empty slabs are not journaled");
        assert!(inner.journal[0].items.capacity() < 128);
        inner.assert_journal_invariants();
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let cfg = SupervisorConfig {
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(12),
            ..SupervisorConfig::default()
        };
        assert_eq!(cfg.backoff_for(1), Duration::from_millis(2));
        assert_eq!(cfg.backoff_for(2), Duration::from_millis(4));
        assert_eq!(cfg.backoff_for(3), Duration::from_millis(8));
        assert_eq!(cfg.backoff_for(4), Duration::from_millis(12));
        assert_eq!(cfg.backoff_for(30), Duration::from_millis(12));
    }

    #[test]
    fn config_validation() {
        assert!(SupervisorConfig::default().validate().is_ok());
        let bad = SupervisorConfig {
            checkpoint_interval: 0,
            ..SupervisorConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = SupervisorConfig {
            watchdog_deadline: Duration::ZERO,
            ..SupervisorConfig::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn shard_state_codes_are_ordered() {
        assert_eq!(ShardState::Running.code(), 0);
        assert!(ShardState::Suspect.code() < ShardState::Restarting.code());
        assert_eq!(ShardState::Quarantined.code(), 3);
        assert_eq!(ShardState::default(), ShardState::Running);
    }

    /// Replay an arbitrary prefix `items[..upto]` into a fresh filter —
    /// the uncrashed serial reference for the equivalence property.
    fn reference_over(items: &[(u64, f64)], upto: usize) -> QuantileFilter {
        let mut f = build();
        for &(k, v) in &items[..upto] {
            let _ = f.insert(&k, v);
        }
        f
    }

    const PROPTEST_CASES: u32 = if cfg!(miri) { 6 } else { 48 };

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(PROPTEST_CASES))]

        /// The recovery-equivalence property: for ANY crash point, ANY
        /// checkpoint interval, ANY workload, ANY corruption mode, and
        /// journaled records with or without router-computed coordinates,
        /// `restore(checkpoint) + replay(journal)` rebuilds a filter
        /// byte-identical to an uncrashed run over the same prefix — or,
        /// when corruption forces `StateLoss`, says so honestly with
        /// `recovered_seq == 0` instead of resurrecting silent garbage.
        #[test]
        fn prop_recovery_matches_uncrashed_run(
            raw in proptest::collection::vec((0u64..64, 0.0f64..500.0), 1..300),
            interval in 1u64..40,
            corrupt_mode in 0u8..3,
            slabs in proptest::collection::vec(1usize..=64, 1..8),
            hash_mode in 0u8..2,
        ) {
            let crash_at = raw.len();
            let max_slab = slabs.iter().copied().max().unwrap_or(1);
            let rec = recovery_hashing(interval, max_slab, hash_mode == 1);
            let mut live = build();
            drive_slabs(&rec, &mut live, &raw, interval, &slabs);
            let mut inner = rec.lock();
            match corrupt_mode {
                0 => {}
                1 => {
                    let latest = inner.latest;
                    if let Some(c) = inner.slots[latest].as_mut() {
                        let mid = c.bytes.len() / 2;
                        c.bytes[mid] ^= 0x40;
                    }
                }
                _ => {
                    for slot in inner.slots.iter_mut().flatten() {
                        slot.bytes[0] ^= 0xFF;
                    }
                }
            }
            let had_checkpoint = inner.slots.iter().any(Option::is_some);
            let recovered = match inner.recover(&mut || Some(build())) {
                Some(r) => r,
                None => panic!("recover with a working builder must not fail"),
            };
            proptest::prop_assert_eq!(recovered.prior_applied, crash_at as u64);
            match recovered.base {
                RecoveredBase::Checkpoint { .. } | RecoveredBase::Fresh => {
                    proptest::prop_assert_eq!(recovered.recovered_seq, crash_at as u64);
                    proptest::prop_assert_eq!(
                        recovered.filter.snapshot(),
                        reference_over(&raw, crash_at).snapshot(),
                        "recovered filter diverged: crash_at={} interval={} mode={}",
                        crash_at, interval, corrupt_mode
                    );
                }
                RecoveredBase::StateLoss => {
                    // Only reachable when corruption removed every usable
                    // base AND the journal no longer reaches item 1.
                    proptest::prop_assert!(corrupt_mode == 2 && had_checkpoint);
                    proptest::prop_assert_eq!(recovered.recovered_seq, 0);
                    proptest::prop_assert_eq!(inner.applied, 0);
                }
            }
            // Single-slot corruption is ALWAYS lossless: the journal is
            // pruned only to the older checkpoint's seq, so the older
            // slot (or the journal alone) still covers the gap.
            if corrupt_mode < 2 {
                proptest::prop_assert_eq!(recovered.recovered_seq, crash_at as u64);
            }
        }
    }

    /// Exhaustive model check of the generation fence (runs only under
    /// `RUSTFLAGS='--cfg qf_model'`, via `cargo xtask model`).
    ///
    /// The protocol under verification is the worker's batch commit
    /// (`worker.rs`): take the recovery lock, compare
    /// `RecoveryInner::generation` against the worker's own generation
    /// *under that lock*, and only then journal the batch. The fence
    /// invariant: once the router has bumped the generation, a stale
    /// worker's commit is side-effect-free — `applied` never moves
    /// after the router snapshots it at recovery time.
    #[cfg(qf_model)]
    mod fencing {
        use super::super::ShardRecovery;
        use super::build;
        use qf_model::sync::thread;
        use qf_model::{try_model, Checker};
        use std::sync::Arc;

        /// Worker committing concurrently with the router fencing: in
        /// every interleaving the commit either lands before the fence
        /// (and is counted in the router's snapshot) or is refused by
        /// the generation check — the snapshot is final either way.
        #[test]
        fn stale_commit_after_fence_is_side_effect_free() {
            let hasher = build().item_hasher().clone();
            let item = hasher.hash(1, 1.0);
            let stats = Checker::new()
                .check(move || {
                    let rec = Arc::new(ShardRecovery::new(8, 4, Some(hasher.clone())));
                    let worker = {
                        let rec = Arc::clone(&rec);
                        // Worker of generation 0: the real commit shape —
                        // generation checked under the same lock hold as
                        // the journal commit.
                        thread::spawn(move || {
                            let mut inner = rec.lock();
                            if inner.generation == 0 {
                                inner.commit_slab(vec![item]);
                            }
                        })
                    };
                    let snap = {
                        let mut inner = rec.lock();
                        // `build_fresh` refusing means recover() bumps the
                        // fence and leaves every other field untouched —
                        // the minimal router rebuild.
                        let _ = inner.recover(&mut || None);
                        inner.applied
                    };
                    worker.join().unwrap();
                    let final_applied = rec.lock().applied;
                    assert_eq!(
                        final_applied, snap,
                        "stale commit landed after the generation fence"
                    );
                })
                .expect("generation fence must make stale commits side-effect-free");
            assert!(stats.executions > 1, "stats: {stats:?}");
        }

        /// Seeded-bug self-test: the same commit with the generation
        /// check hoisted *outside* the lock hold that commits. The
        /// fence can then land between check and commit, and the stale
        /// commit goes through — the checker must catch it.
        #[test]
        fn seeded_check_outside_lock_caught() {
            let hasher = build().item_hasher().clone();
            let item = hasher.hash(1, 1.0);
            let v = try_model(move || {
                let rec = Arc::new(ShardRecovery::new(8, 4, Some(hasher.clone())));
                let worker = {
                    let rec = Arc::clone(&rec);
                    thread::spawn(move || {
                        // BUG under test: generation read under one lock
                        // hold, commit under another.
                        let gen_then = rec.lock().generation;
                        if gen_then == 0 {
                            rec.lock().commit_slab(vec![item]);
                        }
                    })
                };
                let snap = {
                    let mut inner = rec.lock();
                    let _ = inner.recover(&mut || None);
                    inner.applied
                };
                worker.join().unwrap();
                let final_applied = rec.lock().applied;
                assert_eq!(
                    final_applied, snap,
                    "stale commit landed after the generation fence"
                );
            });
            let v = v.expect_err("unfenced check-then-append must admit a stale commit");
            assert!(v.message.contains("stale commit"), "{}", v.message);
        }
    }
}
