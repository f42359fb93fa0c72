//! The per-stripe group-commit batcher: the one way a durable upload
//! reaches the disk.
//!
//! Connection handlers *stage* validated uploads on a queue and the
//! commit runs leader/follower: the staging thread that finds no commit
//! in progress becomes the leader, takes the whole queue — its own
//! upload plus everything staged behind it — appends every record
//! ([`Wal::append_buffered`]), makes the batch durable with a single
//! [`Wal::commit`], folds the records into the stripe state in queue
//! order, and releases every waiter. Threads that stage while a leader
//! is mid-commit become followers: they park until the leader finishes,
//! and the first follower whose upload was *not* in that batch leads
//! the next one. No client is acknowledged before its record is on
//! disk, yet the dominant syscall is paid once per batch instead of
//! once per upload, and no handoff to a separate writer thread sits on
//! the commit path.
//!
//! Failure is all-or-nothing per batch: if any append or the commit
//! fails, no record in the batch is folded or acknowledged, every
//! waiter gets [`RejectReason::StorageFailed`], the staged sequence
//! reservations are released, and the log stays wedged (fail-stop)
//! until a checkpoint heals it or a restart salvages it.

use std::collections::{BTreeSet, VecDeque};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use graphprof_monitor::GmonData;

use crate::store::{RejectReason, StripeShared};
use crate::wal::Wal;

/// One validated upload parked on the commit queue.
pub(crate) struct Staged {
    pub series: String,
    pub seq: u64,
    pub blob: Vec<u8>,
    /// The parsed profile, validated before staging; folded after the
    /// batch commits.
    pub gmon: GmonData,
    /// Tolerated analyzer codes the upload carried.
    pub flags: BTreeSet<&'static str>,
    /// Released with the upload's outcome once the batch resolves.
    pub waiter: Arc<CommitWaiter>,
}

/// A one-shot completion slot. The winning uploader of a `(series,
/// seq)` reservation waits on it for the commit outcome; concurrent
/// duplicates of the same pair wait on the *same* waiter, so a loser
/// is only told `Duplicate` once the winner's upload has actually
/// committed (a winner that fails releases the reservation instead).
#[derive(Debug, Default)]
pub(crate) struct CommitWaiter {
    slot: Mutex<Option<Result<u64, RejectReason>>>,
    cv: Condvar,
}

impl CommitWaiter {
    pub(crate) fn new() -> Self {
        CommitWaiter::default()
    }

    pub(crate) fn complete(&self, result: Result<u64, RejectReason>) {
        let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        *slot = Some(result);
        self.cv.notify_all();
    }

    /// Whether the outcome has been posted (a follower's cheap check
    /// after its leader finishes, made while holding the queue lock).
    pub(crate) fn is_complete(&self) -> bool {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner).is_some()
    }

    pub(crate) fn wait(&self) -> Result<u64, RejectReason> {
        let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(result) = slot.as_ref() {
                return result.clone();
            }
            slot = self.cv.wait(slot).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

#[derive(Default)]
struct QueueState {
    staged: VecDeque<Staged>,
    /// Whether a leader is mid-commit. Serializes batches: exactly one
    /// thread appends and fsyncs at a time, in queue order.
    committing: bool,
    shutdown: bool,
}

/// The group-commit front end one stripe's lane holds: the staging
/// queue, the leader-election state, and the stripe's [`Wal`] (locked
/// only by the elected leader, so the mutex is uncontended).
pub(crate) struct Committer {
    queue: Mutex<QueueState>,
    /// Signaled when a commit finishes (followers re-check their slot
    /// and elect the next leader) and on shutdown.
    cv: Condvar,
    wal: Mutex<Wal>,
    shared: Arc<StripeShared>,
}

impl std::fmt::Debug for Committer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Committer").finish_non_exhaustive()
    }
}

impl Committer {
    /// Wraps stripe state and its `wal` for leader/follower commits.
    pub(crate) fn new(wal: Wal, shared: Arc<StripeShared>) -> Committer {
        Committer {
            queue: Mutex::new(QueueState::default()),
            cv: Condvar::new(),
            wal: Mutex::new(wal),
            shared,
        }
    }

    /// The stripe's WAL. A checkpoint locks this *first* (the same
    /// order the commit leader uses) as its quiesce point: no batch
    /// can commit between the state freeze and the log compaction.
    pub(crate) fn wal(&self) -> &Mutex<Wal> {
        &self.wal
    }

    /// Stages one upload and sees it through a commit. On return `true`
    /// the upload's waiter holds its outcome: either this thread led
    /// the batch containing it, or it followed a leader who did.
    /// Returns `false` without staging when the committer has shut
    /// down (the caller releases its reservation and reports a storage
    /// failure).
    pub(crate) fn submit(&self, staged: Staged) -> bool {
        let waiter = Arc::clone(&staged.waiter);
        let mut queue = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        if queue.shutdown {
            return false;
        }
        queue.staged.push_back(staged);
        loop {
            if !queue.committing {
                queue.committing = true;
                drop(queue);
                // One scheduler yield before taking the batch: peers
                // the previous commit just released get a chance to
                // stage their next upload, so batch sizes converge to
                // the number of active clients instead of collapsing
                // to whoever re-staged first. Costs nothing when
                // nobody else is ready.
                std::thread::yield_now();
                let batch = {
                    let mut queue = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
                    std::mem::take(&mut queue.staged)
                };
                // Append, fsync, fold, and release outside the queue
                // lock, so followers stage the next batch meanwhile.
                {
                    let mut wal = self.wal.lock().unwrap_or_else(PoisonError::into_inner);
                    process_batch(&mut wal, &self.shared, batch);
                }
                let mut queue = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
                queue.committing = false;
                drop(queue);
                self.cv.notify_all();
                return true;
            }
            // A leader is mid-commit. If it took our record, the wake
            // below finds the waiter resolved; otherwise we contend to
            // lead the next batch.
            queue = self.cv.wait(queue).unwrap_or_else(PoisonError::into_inner);
            if waiter.is_complete() {
                return true;
            }
        }
    }
}

impl Drop for Committer {
    fn drop(&mut self) {
        // By the time the store drops, every thread that staged an
        // upload has been answered and left `submit` (each staged
        // record's owner blocks inside it until its waiter resolves),
        // so there is nothing to drain — just refuse any latecomer.
        let mut queue = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        queue.shutdown = true;
        drop(queue);
        self.cv.notify_all();
    }
}

/// Appends and commits one batch, then resolves every staged upload
/// under the stripe lock: the stripe's one fold and an ack on success,
/// reservation release and `StorageFailed` for the whole batch
/// otherwise.
fn process_batch(wal: &mut Wal, shared: &StripeShared, batch: VecDeque<Staged>) {
    let mut failure: Option<String> = None;
    for item in &batch {
        if let Err(e) = wal.append_buffered(&item.series, item.seq, &item.blob) {
            failure = Some(e.to_string());
            break;
        }
    }
    if failure.is_none() {
        // The batch's records are all in the page cache now. Give other
        // stripes' leaders a scheduling round to finish their appends
        // and reach their own commits before this one starts — syncs
        // that arrive together share journal commits instead of each
        // paying a full device flush.
        std::thread::yield_now();
        if let Err(e) = wal.commit() {
            failure = Some(e.to_string());
        }
    }
    let mut state = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
    for item in batch {
        state.release_inflight(&item.series, item.seq);
        let result = match &failure {
            Some(e) => {
                state.charge_reject(&item.series);
                Err(RejectReason::StorageFailed(e.clone()))
            }
            None => {
                state.fold(&item.series, item.seq, item.blob.len() as u64, item.gmon, item.flags)
            }
        };
        item.waiter.complete(result);
    }
}
