//! The incremental miner: one event in, classifications out at every
//! epoch close.
//!
//! A [`StreamMiner`] steps one [`EventSession`] replay and reads the
//! miner's input straight from it:
//!
//! * the **per-record table** is the session's own
//!   [`EventSession::rr_stats`] — the exact below-the-recursives query
//!   count and above-the-recursives miss count per resource record that
//!   every replay keeps, and the very table the batch miner reads after
//!   the day. The stream path holds no second copy of it;
//! * the observer adds only what no other structure holds: the **set of
//!   distinct clients**, the four fpDNS counters the report prints and
//!   the served-class tallies. Both distinct counts are exact: the
//!   clients are the set's size, the owner names the close-time tree's
//!   black-node count.
//!
//! The table keeps its rows in first-seen order, so the rows past any
//! earlier length are exactly the records first seen since
//! ([`RrDayStats::rows_since`]). The miner reads its two day-long
//! consumers off that order:
//!
//! * the **rpDNS store** gets each record once, at its first sighting:
//!   after every push the miner hands it the rows past its `stored`
//!   cursor, so the store sees one observe per distinct record, not one
//!   per answer record;
//! * the **domain tree** lives all day. At each epoch boundary (and at
//!   [`StreamMiner::finish`]) [`DomainTree::fold`] inserts the rows first
//!   seen since the last close, refreshes every row's counters and
//!   re-colours the tree, and the trained classifier runs Algorithm 1
//!   over it. A fold equals a fresh [`DomainTree::from_day_stats`] — the
//!   function the batch pipeline calls — so stream ≡ batch holds by
//!   construction, and a close costs its epoch's new rows plus one
//!   Algorithm 1 walk, not a rebuild of the day so far. Snapshots are
//!   non-destructive: closing an epoch mid-stream and resuming is
//!   indistinguishable from an uninterrupted run.

use std::borrow::Borrow;
use std::collections::{HashSet, VecDeque};
use std::path::PathBuf;

use dnsnoise_core::{DomainTree, Finding, Miner, MiningReport};
use dnsnoise_dns::hash::SeededState;
use dnsnoise_dns::{Record, StampWindow, SuffixList, SECS_PER_DAY, STAMP_NEIGHBORS};
use dnsnoise_pdns::store::io;
use dnsnoise_pdns::{FpDnsSummary, RunStore, StoreError, StoreStats};
use dnsnoise_resolver::{
    DayReport, EventSession, Observer, ResolverSim, RrDayStats, Served, SimConfig,
};
use dnsnoise_workload::{GroundTruth, QueryEvent};

use crate::checkpoint::Checkpoint;

/// Modeled resident bytes per distinct client: one `u64` id.
const CLIENT_BYTES: usize = std::mem::size_of::<u64>();

/// Streaming miner knobs (see DESIGN.md §streaming-miner). Every count
/// is exact and needs none.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// Seconds per classification epoch (default 21 600 — four mid-day
    /// closes per day).
    pub epoch_secs: u64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig { epoch_secs: 21_600 }
    }
}

/// One epoch-close classification snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochSummary {
    /// Zero-based epoch index within the day.
    pub epoch: u64,
    /// Second-of-day this epoch ends at (exclusive).
    pub end_secs: u64,
    /// Cumulative events pushed when the epoch closed.
    pub events: u64,
    /// Algorithm 1 findings over the day-so-far tree.
    pub findings: Vec<Finding>,
    /// Exact distinct owner names: the close-time tree's black nodes,
    /// counted before Algorithm 1 decolors any.
    pub distinct_names: u64,
    /// Exact distinct clients among the responses so far that were
    /// neither shed nor failed.
    pub distinct_clients: u64,
    /// Resident streaming state at close, in bytes: the session's
    /// per-record table ([`RrDayStats::state_bytes`]) plus 8 bytes per
    /// distinct client.
    pub state_bytes: usize,
}

/// End-of-day summary of the rpDNS store the stream fed. Not part of the
/// rendered golden report, which a spill directory must not change, but
/// surfaced so the CLI can print it out of band.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RpdnsStoreSummary {
    /// Distinct records stored.
    pub records: u64,
    /// Modeled rpDNS storage bytes.
    pub storage_bytes: u64,
    /// The store's shape and write counters.
    pub stats: StoreStats,
}

impl From<&RunStore> for RpdnsStoreSummary {
    fn from(store: &RunStore) -> Self {
        RpdnsStoreSummary {
            records: store.len() as u64,
            storage_bytes: store.storage_bytes(),
            stats: store.stats(),
        }
    }
}

/// The end-of-day output of a [`StreamMiner`].
#[derive(Debug, Clone, PartialEq)]
pub struct StreamReport {
    /// Zero-based day.
    pub day: u64,
    /// Epoch length used.
    pub epoch_secs: u64,
    /// Mid-day classification snapshots, in close order.
    pub epochs: Vec<EpochSummary>,
    /// End-of-day Algorithm 1 findings.
    pub final_findings: Vec<Finding>,
    /// The resolver-side day report, exactly as the batch replay of the
    /// same events produces it.
    pub day_report: DayReport,
    /// Ground-truth evaluation of the final findings, when ground truth
    /// was attached.
    pub mining: Option<MiningReport>,
    /// Online fpDNS counters.
    pub pdns: FpDnsSummary,
    /// The rpDNS store's end-of-day summary.
    pub rpdns_store: RpdnsStoreSummary,
    /// The first persistence failure the rpDNS store latched, if any
    /// (rendered message). The store degraded to memory-only — counters
    /// stay exact, the on-disk mirror is stale — and the CLI surfaces
    /// this as a non-zero exit. Not part of [`StreamReport::render`],
    /// which stays byte-identical with or without a spill directory.
    pub rpdns_store_error: Option<String>,
    /// Events pushed into the session.
    pub events_pushed: u64,
    /// Events answered with records.
    pub events_answered: u64,
    /// NXDOMAIN responses.
    pub events_nxdomain: u64,
    /// SERVFAIL responses.
    pub events_failed: u64,
    /// Queries shed by admission control (always 0: the streaming
    /// session runs without an overload stage).
    pub events_shed: u64,
    /// Exact distinct owner names at end of day.
    pub distinct_names: u64,
    /// Exact distinct clients at end of day (see
    /// [`EpochSummary::distinct_clients`]).
    pub distinct_clients: u64,
    /// Largest resident state of the day. The per-record table only
    /// grows within a day, so this is the end-of-day state.
    pub peak_state_bytes: usize,
}

impl StreamReport {
    /// The event-conservation invariant: every pushed event was answered,
    /// NXDOMAIN'd, SERVFAIL'd, or shed — none silently vanished.
    pub fn conserves(&self) -> bool {
        self.events_pushed
            == self.events_answered + self.events_nxdomain + self.events_failed + self.events_shed
    }

    /// The conservation line, in the same spirit as the ingest ledger's
    /// byte-conservation line.
    pub fn conservation_line(&self) -> String {
        format!(
            "events: {} pushed = {} answered + {} nxdomain + {} servfail + {} shed ({})",
            self.events_pushed,
            self.events_answered,
            self.events_nxdomain,
            self.events_failed,
            self.events_shed,
            if self.conserves() { "conserved" } else { "NOT CONSERVED" },
        )
    }

    /// Renders the whole report as deterministic `key = value` text: the
    /// golden-snapshot and CLI format. Byte-identical across runs for the
    /// same trace and configuration.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut line = |s: String| {
            out.push_str(&s);
            out.push('\n');
        };
        line(format!("day = {}", self.day));
        line(format!("epoch_secs = {}", self.epoch_secs));
        for e in &self.epochs {
            line(format!("-- epoch {} (close @ {}s, {} events) --", e.epoch, e.end_secs, e.events));
            line(format!("state_bytes = {}", e.state_bytes));
            line(format!("distinct_names = {}", e.distinct_names));
            line(format!("distinct_clients = {}", e.distinct_clients));
            line(format!("findings = {}", e.findings.len()));
            for f in &e.findings {
                line(render_finding(f));
            }
        }
        line("-- final --".to_string());
        line(format!("events = {}", self.events_pushed));
        line(format!("distinct_names = {}", self.distinct_names));
        line(format!("distinct_clients = {}", self.distinct_clients));
        line(format!("peak_state_bytes = {}", self.peak_state_bytes));
        line(format!(
            "pdns = {} responses / {} records / {} nx / {} bytes",
            self.pdns.total_responses,
            self.pdns.total_records,
            self.pdns.nx_responses,
            self.pdns.storage_bytes
        ));
        line(format!("below_total = {}", self.day_report.below_total()));
        line(format!("above_total = {}", self.day_report.above_total()));
        line(format!("cache.hits = {}", self.day_report.cache.hits));
        line(format!("cache.misses = {}", self.day_report.cache.misses));
        line(format!("findings = {}", self.final_findings.len()));
        for f in &self.final_findings {
            line(render_finding(f));
        }
        let _ = write!(out, "{}", self.conservation_line());
        out.push('\n');
        out
    }
}

fn render_finding(f: &Finding) -> String {
    format!(
        "finding = {} depth={} confidence={:.6} members={}",
        f.zone, f.depth, f.confidence, f.members
    )
}

/// The online statistics the observer accumulates — what the replay
/// session does not already hold: the client set, the pDNS counters and
/// the served-class tallies behind the conservation line.
#[derive(Debug, Default)]
pub(crate) struct StreamState {
    /// The client of every response that was neither shed nor failed.
    pub(crate) clients: HashSet<u64, SeededState>,
    pub(crate) pdns: FpDnsSummary,
    pub(crate) answered: u64,
    pub(crate) nxdomain: u64,
    pub(crate) failed: u64,
    pub(crate) shed: u64,
}

impl StreamState {
    /// Total resident streaming state in bytes: the session's per-record
    /// `table` + one `u64` per distinct client.
    fn state_bytes(&self, table: &RrDayStats) -> usize {
        table.state_bytes() + self.clients.len() * CLIENT_BYTES
    }
}

impl Observer for StreamState {
    fn observe(&mut self, event: &QueryEvent, served: Served, answers: &[Record]) {
        if served.is_shed() {
            self.shed += 1;
            return;
        }
        if served.is_failure() {
            self.failed += 1;
            return;
        }
        self.clients.insert(event.client);
        if served.is_nxdomain() {
            self.nxdomain += 1;
            // Empty answer section marks the response NXDOMAIN in fpDNS.
            self.pdns.collect(&[]);
            return;
        }
        self.answered += 1;
        self.pdns.collect(answers);
    }
}

/// One classification of the day so far: folds `table`'s new rows into
/// the day's `tree` and runs Algorithm 1 over it. Returns the tree's
/// distinct owner names — counted before Algorithm 1 decolors the zones
/// it classifies — and the findings.
fn classify(
    miner: &Miner,
    psl: &SuffixList,
    tree: &mut DomainTree,
    table: &RrDayStats,
) -> (u64, Vec<Finding>) {
    tree.fold(table);
    let distinct_names = tree.black_count() as u64;
    (distinct_names, miner.mine(tree, psl))
}

/// The streaming online miner: feed it one [`QueryEvent`] at a time with
/// [`StreamMiner::push`]; epochs close automatically as event timestamps
/// cross epoch boundaries, and [`StreamMiner::finish`] produces the
/// end-of-day [`StreamReport`].
///
/// The epoch clock counts seconds from the streamed day's midnight, so
/// midnight does not run it backwards, and stops at the day's last
/// epoch. An event whose own stamp names the clock's epoch is replayed at
/// once. Any other waits for its [`STAMP_NEIGHBORS`] successors and is
/// clocked on the median of its [`StampWindow`]: one stamp far from its
/// neighbours moves nothing, and a clock that moves closes every epoch it
/// passes.
///
/// The classifier is trained *before* deployment (the paper trains once
/// on seed days, then mines daily), so the miner borrows an
/// already-trained [`Miner`].
#[derive(Debug)]
pub struct StreamMiner<'m> {
    config: StreamConfig,
    miner: &'m Miner,
    psl: SuffixList,
    ground_truth: Option<&'m GroundTruth>,
    session: EventSession,
    state: StreamState,
    /// The day's domain tree, folded up to the last close.
    tree: DomainTree,
    /// The deduplicating rpDNS store. Excluded from the report's
    /// `state_bytes`: the paper's streaming-state budget covers the
    /// per-record table and the client set, and the store's own footprint
    /// is reported separately as rpDNS storage bytes.
    store: RunStore,
    /// Rows of the session's table the store has been handed: the rows
    /// past it are first sightings the store has not seen.
    stored: usize,
    /// The day being streamed, named by its first event: every record is
    /// observed into `store` under it, whatever its answer's timestamp
    /// says, so one hostile stamp cannot size the store's per-day table.
    day: u64,
    current_epoch: Option<u64>,
    /// The stamps of the events replayed last, for the epoch clock's
    /// median.
    stamps: StampWindow,
    /// Events pushed but not yet replayed: one whose stamp disagrees with
    /// the clock, waiting for its successors, and the successors.
    pending: VecDeque<QueryEvent>,
    epochs: Vec<EpochSummary>,
    /// Events replayed into the session.
    pushed: u64,
    /// Whether the first event has named the day yet ([`StreamMiner::push`]
    /// for a fresh session, [`StreamMiner::resume`] for a restored one).
    session_started: bool,
    /// Where epoch-boundary checkpoints are written, when enabled.
    checkpoint_dir: Option<PathBuf>,
    /// First checkpoint-write failure, latched; checkpointing stops but
    /// the in-memory stream continues exactly.
    checkpoint_error: Option<StoreError>,
}

impl<'m> StreamMiner<'m> {
    /// Creates a miner over a fresh default cluster, streaming day 0.
    pub fn new(config: StreamConfig, miner: &'m Miner) -> StreamMiner<'m> {
        StreamMiner::with_sim(config, miner, ResolverSim::new(SimConfig::default()), 0)
    }

    /// Creates a miner over an existing cluster (whose caches carry prior
    /// days' state) for simulated day `day`. A member a previous day's
    /// crash window left down restarts cold at the first event, as in batch.
    pub fn with_sim(
        config: StreamConfig,
        miner: &'m Miner,
        sim: ResolverSim,
        day: u64,
    ) -> StreamMiner<'m> {
        assert!(config.epoch_secs > 0, "epoch length must be positive");
        StreamMiner {
            config,
            miner,
            psl: SuffixList::builtin(),
            ground_truth: None,
            session: EventSession::new(sim, day),
            state: StreamState::default(),
            tree: DomainTree::new(),
            store: RunStore::new(),
            stored: 0,
            day,
            current_epoch: None,
            stamps: StampWindow::default(),
            pending: VecDeque::new(),
            epochs: Vec::new(),
            pushed: 0,
            session_started: false,
            checkpoint_dir: None,
            checkpoint_error: None,
        }
    }

    /// Attaches ground truth: enables operator attribution in the day
    /// report and ground-truth evaluation of the final findings. Never
    /// visible to the classifier.
    pub fn ground_truth(mut self, gt: &'m GroundTruth) -> StreamMiner<'m> {
        self.ground_truth = Some(gt);
        self
    }

    /// Sets the rpDNS store the stream deduplicates answers into (the
    /// CLI gives it a spill directory with `--store-path`). Call before
    /// pushing events: the previous store is replaced along with anything
    /// it collected. Findings and the rendered report do not depend on the
    /// store; only [`StreamReport::rpdns_store`] does.
    pub fn with_store(mut self, store: RunStore) -> StreamMiner<'m> {
        self.store = store;
        self
    }

    /// Enables epoch-boundary checkpointing under `dir` (the CLI's
    /// `stream --checkpoint` flag): when the first event names the day
    /// and each time an epoch closes, the stream position and the closed
    /// epochs are atomically swapped into `dir/checkpoint.bin`, so a killed
    /// process can [`StreamMiner::resume`] from the last boundary (or the
    /// start of the day) instead of starting over. Write
    /// failures latch into [`StreamMiner::checkpoint_error`]; the stream
    /// itself is never perturbed.
    pub fn with_checkpoint(mut self, dir: impl Into<PathBuf>) -> StreamMiner<'m> {
        let dir = dir.into();
        if let Err(e) = io::create_dir_all(&dir) {
            self.checkpoint_error = Some(e);
        }
        self.checkpoint_dir = Some(dir);
        self
    }

    /// Streams one event: closes every epoch the clock passes, then
    /// replays the event through the cluster, folds the response into the
    /// online state and hands the store the records it carried for the
    /// first time today. An event whose stamp disagrees with the clock is
    /// copied and waits for its successors (see [`StreamMiner`]).
    pub fn push(&mut self, event: &QueryEvent) {
        if !self.session_started {
            self.start_day(event);
        }
        let secs = event.time.as_secs();
        if self.pending.is_empty() && Some(self.epoch_of(secs)) == self.current_epoch {
            self.stamps.pass(secs);
            self.replay(event);
        } else {
            self.pending.push_back(event.clone());
            self.drain(STAMP_NEIGHBORS);
        }
    }

    /// Names the day after `event` (a stdin-fed miner cannot know it up
    /// front) and checkpoints before that event counts: a process killed
    /// before the first boundary may already have flushed to the store
    /// directory, so its rerun must resume and take the directory over.
    fn start_day(&mut self, event: &QueryEvent) {
        self.session_started = true;
        self.day = event.time.day();
        self.session.set_day(self.day);
        self.write_checkpoint();
    }

    /// The epoch `secs` falls in: seconds from the streamed day's
    /// midnight, in whole epochs, no later than the day's last epoch.
    fn epoch_of(&self, secs: u64) -> u64 {
        let since_midnight = secs.saturating_sub(self.day.saturating_mul(SECS_PER_DAY));
        since_midnight.min(SECS_PER_DAY - 1) / self.config.epoch_secs
    }

    /// Replays the pending events in order while each either agrees with
    /// the clock or has `lookahead` successors to take the median with.
    fn drain(&mut self, lookahead: usize) {
        while let Some(secs) = self.pending.front().map(|event| event.time.as_secs()) {
            if Some(self.epoch_of(secs)) == self.current_epoch {
                self.stamps.pass(secs);
            } else if self.pending.len() > lookahead {
                let after = self.pending.iter().skip(1).map(|event| event.time.as_secs());
                let median = self.stamps.median(secs, after);
                self.advance_clock(self.epoch_of(median));
            } else {
                return;
            }
            if let Some(event) = self.pending.pop_front() {
                self.replay(&event);
            }
        }
    }

    /// Moves the clock to `epoch` if that is later, closing every epoch
    /// it passes, then checkpoints before the event that moved it counts:
    /// a resumed process replays the first `pushed` events as warmup and
    /// re-pushes everything after, that event included.
    fn advance_clock(&mut self, epoch: u64) {
        let current = *self.current_epoch.get_or_insert(epoch);
        if epoch > current {
            for passed in current..epoch {
                self.close_epoch(passed);
            }
            self.current_epoch = Some(epoch);
            self.write_checkpoint();
        }
    }

    /// Replays `event` through the cluster and the observer, then hands
    /// the store the records it carried for the first time today.
    fn replay(&mut self, event: &QueryEvent) {
        self.pushed += 1;
        self.session.push(event, self.ground_truth, &mut self.state);
        self.feed_store();
    }

    /// Observes the table's rows past the `stored` cursor into the store:
    /// each record once, at its first sighting.
    fn feed_store(&mut self) {
        let table = self.session.rr_stats();
        for (key, _) in table.rows_since(self.stored) {
            self.store.observe_key(key, self.day);
        }
        self.stored = self.stored.max(table.len());
    }

    /// Events replayed so far: those pushed, less any still waiting for
    /// their successors.
    pub fn events_pushed(&self) -> u64 {
        self.pushed
    }

    /// The first checkpoint-write failure, if any. Once set, no further
    /// checkpoints are attempted; the in-memory stream stays exact.
    pub fn checkpoint_error(&self) -> Option<&StoreError> {
        self.checkpoint_error.as_ref()
    }

    /// Forces a checkpoint write now, mid-epoch (a checkpointing miner
    /// also writes one automatically at every epoch boundary). A no-op
    /// without [`StreamMiner::with_checkpoint`].
    // lint:allow(dead-api): crates/stream/tests/checkpoint_resume.rs checkpoints mid-epoch with it
    pub fn checkpoint_now(&mut self) {
        self.write_checkpoint();
    }

    fn write_checkpoint(&mut self) {
        if self.checkpoint_error.is_some() {
            return;
        }
        let Some(dir) = self.checkpoint_dir.clone() else { return };
        let ckpt = Checkpoint::capture(
            &self.config,
            self.day,
            self.pushed,
            self.current_epoch,
            &self.epochs,
        );
        if let Err(e) = ckpt.save(&dir) {
            self.checkpoint_error = Some(e);
        }
    }

    /// Restores a freshly-built miner to the exact point `ckpt` was
    /// written: the first `ckpt.pushed` events of the day's trace are
    /// pulled from `warmup` and replayed through the resolver session and
    /// the live observer, so the code that built the interrupted process's
    /// state — caches, per-record table, client set, pDNS counters,
    /// served-class tallies — rebuilds it, and the store is handed the
    /// records first seen in it; only the closed epochs come from the
    /// checkpoint. Pushing the remaining events and
    /// finishing then produces a report byte-identical to an uninterrupted
    /// run.
    ///
    /// A store with a spill directory is reopened with
    /// [`RunStore::open`] (orphans collected, corrupt runs quarantined)
    /// rather than rebuilt: it holds the day's first few distinct records,
    /// in the order the table first saw them, so the miner hands it only
    /// the table rows after those, whether that count is behind the
    /// checkpoint or ahead of it.
    ///
    /// `warmup` may be the whole trace: exactly `ckpt.pushed` events are
    /// taken from it and nothing is buffered, so a reader handed over
    /// with `by_ref()` is left positioned at the first event to push.
    ///
    /// Call on a miner built with the same configuration and (for
    /// fresh-day streams) the same simulator seed as the interrupted
    /// process, before any events are pushed. The store's spill directory
    /// may differ: the checkpoint holds none of it.
    ///
    /// # Errors
    ///
    /// [`StoreError::ConfigMismatch`] when the checkpoint's configuration
    /// echo contradicts this miner's configuration, when the store
    /// directory holds observations of another day (both found before
    /// any event is read), or when `warmup` ends before the checkpointed
    /// prefix does; [`StoreError::Corrupt`] when reopening the store
    /// directory lost a run its `MANIFEST` lists, or the `MANIFEST`
    /// itself.
    pub fn resume<E: Borrow<QueryEvent>>(
        mut self,
        ckpt: &Checkpoint,
        warmup: impl IntoIterator<Item = E>,
    ) -> Result<StreamMiner<'m>, StoreError> {
        ckpt.verify(&self.config)?;
        self.reopen_store(ckpt.day)?;
        self.session_started = true;
        self.day = ckpt.day;
        self.session.set_day(ckpt.day);
        // The count bounds the pull, so a forged `pushed` sizes nothing.
        let mut warmup = warmup.into_iter();
        let mut supplied = 0;
        while supplied < ckpt.pushed {
            let Some(event) = warmup.next() else { break };
            let event = event.borrow();
            self.stamps.pass(event.time.as_secs());
            self.session.push(event, self.ground_truth, &mut self.state);
            supplied += 1;
        }
        self.feed_store();
        if supplied != ckpt.pushed {
            return Err(StoreError::ConfigMismatch {
                detail: format!(
                    "checkpoint replay prefix: checkpoint consumed {} events but {supplied} were \
                     supplied",
                    ckpt.pushed
                ),
            });
        }
        self.epochs = ckpt.epochs.clone();
        self.pushed = ckpt.pushed;
        self.current_epoch = ckpt.current_epoch;
        Ok(self)
    }

    /// Takes over the store's spill directory, if it has one:
    /// reopens it and moves the `stored` cursor past the records it
    /// already holds. Refuses a directory whose recovery lost a
    /// manifest-listed run (the store would silently miss records) or
    /// that holds observations of a day other than `day`.
    fn reopen_store(&mut self, day: u64) -> Result<(), StoreError> {
        let Some(dir) = self.store.config().spill.clone() else { return Ok(()) };
        let store = RunStore::open(&dir, self.store.config().clone())?;
        if let Some(report) = store.recovery() {
            let lost = report.runs_lost();
            if lost > 0 {
                return Err(StoreError::corrupt(
                    &dir,
                    format!(
                        "recovery lost {lost} run(s) the MANIFEST lists, kept as *.quarantined; \
                         delete the directory to rebuild the store from the trace"
                    ),
                ));
            }
        }
        let other_day = store.per_day().iter().enumerate().find(|(d, counts)| {
            *d as u64 != day && counts.new_records + counts.repeated_records > 0
        });
        if let Some((other, _)) = other_day {
            return Err(StoreError::ConfigMismatch {
                detail: format!(
                    "store directory {} holds observations of day {other}, the checkpoint's \
                     day is {day}",
                    dir.display()
                ),
            });
        }
        self.stored = store.len();
        self.store = store;
        Ok(())
    }

    /// Forces an epoch close now, mid-stream: snapshots the day-so-far
    /// tree and classifies it, without the events still waiting for their
    /// successors. Non-destructive — pushing more events and
    /// finishing yields exactly the report an uninterrupted run produces,
    /// with this one extra epoch entry.
    // lint:allow(dead-api): tests/determinism.rs closes an epoch mid-stream with it
    pub fn close_epoch_now(&mut self) {
        let epoch = self.current_epoch.unwrap_or(0);
        self.close_epoch(epoch);
    }

    fn close_epoch(&mut self, epoch: u64) {
        let table = self.session.rr_stats();
        let (distinct_names, findings) = classify(self.miner, &self.psl, &mut self.tree, table);
        self.epochs.push(EpochSummary {
            epoch,
            end_secs: (epoch + 1) * self.config.epoch_secs,
            events: self.pushed,
            findings,
            distinct_names,
            distinct_clients: self.state.clients.len() as u64,
            state_bytes: self.state.state_bytes(table),
        });
    }

    /// Closes the day: runs the final end-of-day classification, folds
    /// the cache deltas into the day report, and returns the report
    /// together with the simulator for the next day.
    pub fn finish(mut self) -> (StreamReport, ResolverSim) {
        self.drain(0);
        let StreamMiner {
            config,
            miner,
            psl,
            ground_truth,
            session,
            state,
            mut tree,
            mut store,
            stored: _,
            day: _,
            current_epoch: _,
            stamps: _,
            pending: _,
            epochs,
            pushed,
            session_started: _,
            checkpoint_dir: _,
            checkpoint_error: _,
        } = self;
        // Close out the store: flush and collapse to one optimized run,
        // so a spill directory holds the complete, final day image.
        store.optimize();
        let rpdns_store_error = store.io_error().map(StoreError::to_string);
        let rpdns_store = RpdnsStoreSummary::from(&store);
        let (day_report, sim) = session.finish();
        let (distinct_names, final_findings) =
            classify(miner, &psl, &mut tree, &day_report.rr_stats);
        let mining = ground_truth.map(|gt| {
            // Eligibility bookkeeping needs the pristine (un-decolored)
            // tree: a fold with no new rows colours it again.
            tree.fold(&day_report.rr_stats);
            MiningReport::evaluate(
                day_report.day,
                final_findings.clone(),
                &tree,
                gt,
                &psl,
                miner.config().min_group_size,
            )
        });
        let report = StreamReport {
            day: day_report.day,
            epoch_secs: config.epoch_secs,
            epochs,
            final_findings,
            mining,
            pdns: state.pdns,
            rpdns_store,
            rpdns_store_error,
            events_pushed: pushed,
            events_answered: state.answered,
            events_nxdomain: state.nxdomain,
            events_failed: state.failed,
            events_shed: state.shed,
            distinct_names,
            distinct_clients: state.clients.len() as u64,
            peak_state_bytes: state.state_bytes(&day_report.rr_stats),
            day_report,
        };
        (report, sim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnsnoise_core::{DailyPipeline, MinerConfig};
    use dnsnoise_workload::{Scenario, ScenarioConfig};

    fn scenario(seed: u64) -> Scenario {
        Scenario::new(ScenarioConfig::paper_epoch(1.0).with_scale(0.05), seed)
    }

    fn trained_miner(scenario: &Scenario) -> Miner {
        let mut pipeline = DailyPipeline::new(MinerConfig::default());
        let _ = pipeline.run_day(scenario, 0);
        pipeline.into_miner().expect("day 0 trains the model")
    }

    #[test]
    fn stream_day_report_matches_batch_and_conserves() {
        let s = scenario(21);
        let miner = trained_miner(&s);
        let trace = s.generate_day(0);

        let mut stream =
            StreamMiner::new(StreamConfig::default(), &miner).ground_truth(s.ground_truth());
        for event in &trace.events {
            stream.push(event);
        }
        let (report, _) = stream.finish();

        let mut batch = ResolverSim::new(SimConfig::default());
        let expected = batch.day(&trace).ground_truth(s.ground_truth()).run();
        assert_eq!(report.day_report, expected);
        assert!(report.conserves(), "{}", report.conservation_line());
        assert_eq!(report.events_pushed, trace.events.len() as u64);
        assert!(report.events_shed == 0);
        assert!(!report.epochs.is_empty(), "a full day must close epochs");
        assert!(report.pdns.total_responses > 0);
    }

    #[test]
    fn a_spill_directory_reproduces_the_report_without_one() {
        let s = scenario(21);
        let miner = trained_miner(&s);
        let trace = s.generate_day(1);
        let dir =
            std::env::temp_dir().join(format!("dnsnoise-stream-spill-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut reports = Vec::new();
        for spill in [None, Some(&dir)] {
            let mut stream =
                StreamMiner::new(StreamConfig::default(), &miner).ground_truth(s.ground_truth());
            if let Some(dir) = spill {
                let config = dnsnoise_pdns::StoreConfig::default().with_spill(dir);
                stream = stream.with_store(RunStore::with_config(config));
            }
            for event in &trace.events {
                stream.push(event);
            }
            let (report, _) = stream.finish();
            reports.push(report);
        }
        // The rendered report and findings never depend on the directory…
        assert_eq!(reports[0].render(), reports[1].render());
        assert_eq!(reports[0].final_findings, reports[1].final_findings);
        assert_eq!(reports[1].rpdns_store_error, None);
        // …nor do the store's contents. Without a directory the store
        // never flushes before `finish()` optimizes it into one run.
        let (memory, durable) = (reports[0].rpdns_store, reports[1].rpdns_store);
        assert!(memory.records > 0);
        assert_eq!(
            (memory.records, memory.storage_bytes),
            (durable.records, durable.storage_bytes)
        );
        assert_eq!(
            (memory.stats.runs, memory.stats.flushes, memory.stats.bytes_written),
            (1, 1, 0)
        );
        assert_eq!(durable.stats.runs, 1, "finish() optimizes to one run");
        assert!(durable.stats.bytes_written > 0);
        let reopened = RunStore::open(&dir, dnsnoise_pdns::StoreConfig::default()).unwrap();
        assert_eq!(reopened.len() as u64, durable.records);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cache_state_carries_across_days() {
        let s = Scenario::new(ScenarioConfig::paper_epoch(1.0).with_scale(0.03), 17);
        let miner = trained_miner(&s);
        let run_day = |sim: ResolverSim, day: u64| {
            let mut stream = StreamMiner::with_sim(StreamConfig::default(), &miner, sim, day)
                .ground_truth(s.ground_truth());
            for event in &s.generate_day(day).events {
                stream.push(event);
            }
            stream.finish()
        };
        let (day1, sim) = run_day(ResolverSim::new(SimConfig::default()), 1);
        let (day2, _) = run_day(sim, 2);
        assert!(day1.conserves() && day2.conserves());
        assert_eq!(day1.day, 1);
        assert_eq!(day2.day, 2);
        // Warm caches on day 2: repeat queries hit below without going above.
        assert!(day2.day_report.above_total() < day2.day_report.below_total());
    }

    #[test]
    fn mid_stream_close_does_not_perturb_the_final_report() {
        let s = scenario(33);
        let miner = trained_miner(&s);
        let trace = s.generate_day(0);

        let run = |force_close: bool| {
            let mut stream =
                StreamMiner::new(StreamConfig::default(), &miner).ground_truth(s.ground_truth());
            for (i, event) in trace.events.iter().enumerate() {
                if force_close && i == trace.events.len() / 2 {
                    stream.close_epoch_now();
                }
                stream.push(event);
            }
            stream.finish().0
        };
        let uninterrupted = run(false);
        let resumed = run(true);
        assert_eq!(resumed.final_findings, uninterrupted.final_findings);
        assert_eq!(resumed.day_report, uninterrupted.day_report);
        assert_eq!(resumed.conservation_line(), uninterrupted.conservation_line());
        // The forced close adds exactly one epoch entry and nothing else.
        assert_eq!(resumed.epochs.len(), uninterrupted.epochs.len() + 1);
    }

    /// The observer's four fpDNS counters: an answered NODATA counts as
    /// `nx` like an NXDOMAIN, a SERVFAIL or a shed query not at all, and
    /// neither adds its client to the set, whatever the event's own stamp
    /// says.
    #[test]
    fn observer_counts_like_the_fpdns_log() {
        use dnsnoise_dns::{QType, RData, Timestamp, Ttl};
        use dnsnoise_workload::Outcome;

        let name: dnsnoise_dns::Name = "www.example.com".parse().unwrap();
        let rr = |ip: u8| {
            let ip = std::net::Ipv4Addr::new(192, 0, 2, ip);
            Record::new(name.clone(), QType::A, Ttl::from_secs(60), RData::A(ip))
        };
        let event = |secs: u64, client: u64| QueryEvent {
            time: Timestamp::from_secs(secs),
            client,
            name: name.clone(),
            qtype: QType::A,
            outcome: Outcome::NxDomain,
            zone_tag: u32::MAX,
        };
        let answered = [rr(1), rr(2)];
        let responses: [(u64, u64, Served, &[Record]); 6] = [
            (86_400 + 10, 1, Served::CacheMiss, &answered),
            (86_400 + 20, 2, Served::CacheHit, &[]),
            (86_400 + 30, 1, Served::NxMiss, &[]),
            (86_400 + 40, 3, Served::ServFail, &[]),
            (86_400 + 50, 4, Served::Dropped, &[]),
            (u64::MAX, 2, Served::CacheHit, &answered[..1]),
        ];
        let mut state = StreamState::default();
        for (secs, client, served, answers) in responses {
            state.observe(&event(secs, client), served, answers);
        }
        let expected = FpDnsSummary {
            total_responses: 4,
            total_records: 3,
            nx_responses: 2,
            storage_bytes: 3 * 43,
        };
        assert_eq!(state.pdns, expected);
        assert_eq!(state.clients, HashSet::from_iter([1, 2]), "no failed or shed client");
        assert_eq!((state.failed, state.shed), (1, 1));
    }

    #[test]
    fn render_is_stable_across_runs() {
        let s = scenario(5);
        let miner = trained_miner(&s);
        let trace = s.generate_day(0);
        let render = || {
            let mut stream = StreamMiner::new(StreamConfig { epoch_secs: 7200 }, &miner);
            for event in &trace.events {
                stream.push(event);
            }
            stream.finish().0.render()
        };
        assert_eq!(render(), render());
    }

    /// Holds the miner's all-day tree, as the close just left it, against
    /// a fresh build of the same table: re-folding it must restore every
    /// node Algorithm 1 decoloured, and the two trees must agree on the
    /// owner count, the registered-domain walk, every group's member and
    /// adjacent names, and Algorithm 1's findings.
    fn assert_close_matches_a_rebuild(stream: &mut StreamMiner<'_>, what: &str) -> usize {
        let table = stream.session.rr_stats();
        let mut fresh = DomainTree::from_day_stats(table);
        stream.tree.fold(table);
        let (tree, psl) = (&stream.tree, &stream.psl);
        let close = stream.epochs.last().expect("an epoch closed");
        assert_eq!(tree.black_count(), fresh.black_count(), "{what}");
        assert_eq!(close.distinct_names, fresh.black_count() as u64, "{what}");
        let zones = tree.registered_domains(psl);
        let fresh_zones = fresh.registered_domains(psl);
        let names = |zones: &[(usize, dnsnoise_dns::Name)]| -> Vec<dnsnoise_dns::Name> {
            zones.iter().map(|(_, name)| name.clone()).collect()
        };
        assert_eq!(names(&zones), names(&fresh_zones), "{what}");
        let named = |t: &DomainTree, ids: &[usize]| -> Vec<dnsnoise_dns::Name> {
            ids.iter().map(|&id| t.name_of(id)).collect()
        };
        for ((id, zone), (fresh_id, _)) in zones.iter().zip(&fresh_zones) {
            let ours = tree.groups_under_id(*id, zone.depth());
            let theirs = fresh.groups_under_id(*fresh_id, zone.depth());
            assert!(ours.groups.keys().eq(theirs.groups.keys()), "{what}: {zone}");
            for (a, b) in ours.groups.values().zip(theirs.groups.values()) {
                assert_eq!(named(tree, &a.members), named(&fresh, &b.members), "{what}: {zone}");
                assert_eq!(named(tree, &a.adjacent), named(&fresh, &b.adjacent), "{what}: {zone}");
            }
        }
        assert_eq!(stream.miner.mine(&mut fresh, psl), close.findings, "{what}");
        close.findings.len()
    }

    #[test]
    fn the_all_day_tree_folds_to_a_fresh_build_at_every_close() {
        for seed in [7, 301] {
            let s = scenario(seed);
            let miner = trained_miner(&s);
            let trace = s.generate_day(1);
            for epoch_secs in [600, 3600, 21_600] {
                let mut stream = StreamMiner::new(StreamConfig { epoch_secs }, &miner);
                stream.start_day(&trace.events[0]);
                let (mut closes, mut findings) = (0, 0);
                for (i, event) in trace.events.iter().enumerate() {
                    let what = format!("seed {seed}, epoch_secs {epoch_secs}, event {i}");
                    if i == trace.events.len() / 2 {
                        stream.close_epoch_now();
                        findings += assert_close_matches_a_rebuild(&mut stream, &what);
                        closes += 1;
                    }
                    // A clean trace's median is the event's own stamp, so
                    // this is `push` with the closes held up for checking.
                    // Epochs passed together close on one table; the last
                    // stands for them all.
                    let closed = stream.epochs.len();
                    stream.advance_clock(stream.epoch_of(event.time.as_secs()));
                    if stream.epochs.len() > closed {
                        findings += assert_close_matches_a_rebuild(&mut stream, &what);
                        closes += stream.epochs.len() - closed;
                    }
                    stream.replay(event);
                }
                assert_eq!(closes, stream.epochs.len(), "seed {seed}: every close was checked");
                assert!(
                    findings > 0,
                    "seed {seed}, epoch_secs {epoch_secs}: no close found anything"
                );
            }
        }
    }

    /// The store is handed each table row once, at its first sighting,
    /// under the streamed day whatever an event's own stamp says.
    #[test]
    fn the_store_takes_each_first_sighting_once_under_the_streamed_day() {
        use dnsnoise_dns::Timestamp;

        let s = scenario(21);
        let miner = trained_miner(&s);
        let mut events = s.generate_day(1).events;
        events[500].time = Timestamp::from_secs(u64::MAX);
        let mut stream = StreamMiner::new(StreamConfig::default(), &miner);
        for event in &events {
            stream.push(event);
        }
        let rows = stream.session.rr_stats().len();
        assert_eq!(stream.stored, rows);
        assert_eq!(stream.store.len(), rows);
        let days = stream.store.per_day();
        assert_eq!(days.len(), 2, "days 0 and 1 only");
        assert_eq!((days[1].new_records, days[1].repeated_records), (rows as u64, 0));
    }
}
