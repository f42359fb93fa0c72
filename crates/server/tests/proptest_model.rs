//! The one ingest path, checked against an executable reference model.
//!
//! Random sequences of full and delta uploads (fresh, duplicate-retry,
//! and out-of-order seqs; delta bases right and stale), checkpoints,
//! clean restarts, and restarts with a torn or failed WAL append armed
//! through [`FaultPlan`] run against a durable [`SeriesStore`] and
//! against [`Model`], a small in-memory account of what the store must
//! hold. After every operation the two are compared: the operation's
//! outcome, each series' aggregate bytes against the offline sum of its
//! accepted windows, its counters, its retained windows, and its
//! window and trailing-baseline queries.
//!
//! The model also encodes what a restart legitimately forgets. The WAL
//! logs accepted records only, so reject counters, and series that only
//! refused uploads created, survive a restart exactly as far as the
//! owning stripe's last checkpoint snapshot covers them.
//!
//! Generation is deterministic from each property's name: a failure
//! names its case and the failing operation, and re-running the test
//! replays it.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use proptest::prelude::*;

use graphprof_machine::{CompileOptions, Executable, Machine, MachineConfig};
use graphprof_monitor::{encode_delta, GmonData, RuntimeProfiler};
use graphprof_server::{FaultPlan, FaultSpec, RejectReason, SeriesStore, StoreOptions};

const SERIES: [&str; 4] = ["alpha", "beta", "gamma", "delta"];
const RETAIN: usize = 3;

/// A small profiled executable, distinct mergeable windows of one run,
/// and whether the store flags each window (a tolerated analyzer code,
/// which live windows cut mid-run legitimately carry).
struct Corpus {
    exe: Executable,
    windows: Vec<GmonData>,
    flagged: Vec<bool>,
}

fn corpus() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let mut b = graphprof_machine::Program::builder();
        b.routine("main", |r| r.call_n("leaf", 200).work(500));
        b.routine("leaf", |r| r.work(40));
        let exe = b.build().unwrap().compile(&CompileOptions::profiled()).unwrap();
        let config = MachineConfig { cycles_per_tick: 10, ..MachineConfig::default() };
        let mut machine = Machine::with_config(exe.clone(), config);
        let mut profiler = RuntimeProfiler::new(&exe, 10);
        let windows: Vec<GmonData> = (0..5u64)
            .map(|i| {
                machine.run_for(&mut profiler, 1_500 + 700 * i).expect("runs");
                let window = profiler.snapshot();
                profiler.reset();
                window
            })
            .collect();
        let probe = SeriesStore::new(exe.clone(), windows.len());
        let flagged = windows
            .iter()
            .enumerate()
            .map(|(i, w)| {
                probe.upload(&i.to_string(), 0, &w.to_bytes()).expect("the corpus validates");
                probe.stats(&i.to_string()).unwrap().flagged == 1
            })
            .collect();
        Corpus { exe, windows, flagged }
    })
}

/// Which seq an upload carries.
#[derive(Debug, Clone, Copy)]
enum Seq {
    /// Never used before.
    Fresh,
    /// One the series already folded (a duplicate retry), if any.
    Retry(usize),
    /// An unfolded seq below the series' newest one (out of order).
    Gap(usize),
    /// `u64::MAX`, the largest seq the protocol carries.
    Max,
}

#[derive(Debug, Clone)]
enum Op {
    Full {
        series: usize,
        window: usize,
        seq: Seq,
    },
    /// A delta upload; `stale` encodes it against a base other than the
    /// series' last window.
    Delta {
        series: usize,
        window: usize,
        seq: Seq,
        stale: bool,
    },
    Checkpoint,
    /// Drop the store and reopen it, with `(append index, torn keep)`
    /// armed for the reopened store: `Some(keep)` tears that append after
    /// `keep` bytes, `None` fails it outright.
    Restart {
        fault: Option<(u64, Option<usize>)>,
    },
}

fn arb_seq() -> impl Strategy<Value = Seq> {
    prop_oneof![
        Just(Seq::Fresh),
        Just(Seq::Fresh),
        (0usize..16).prop_map(Seq::Retry),
        (0usize..16).prop_map(Seq::Gap),
        Just(Seq::Max),
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..4, 0usize..5, arb_seq()).prop_map(|(series, window, seq)| Op::Full {
            series,
            window,
            seq
        }),
        (0usize..4, 0usize..5, arb_seq(), any::<bool>())
            .prop_map(|(series, window, seq, stale)| Op::Delta { series, window, seq, stale }),
        Just(Op::Checkpoint),
        Just(Op::Restart { fault: None }),
        (0u64..8, prop_oneof![Just(None), (0usize..48).prop_map(Some)])
            .prop_map(|(at, keep)| Op::Restart { fault: Some((at, keep)) }),
    ]
}

/// What the store must hold for one series.
#[derive(Debug, Clone, Default)]
struct ModelSeries {
    /// Folded uploads in fold order: `(seq, window index)`.
    accepted: Vec<(u64, usize)>,
    rejects: u64,
    exists: bool,
    /// `(rejects, exists)` as the owning stripe's last checkpoint froze
    /// them: all a restart keeps of what the WAL does not log.
    snapshot: (u64, bool),
}

impl ModelSeries {
    fn seen(&self, seq: u64) -> bool {
        self.accepted.iter().any(|&(s, _)| s == seq)
    }

    fn last(&self) -> Option<(u64, usize)> {
        self.accepted.last().copied()
    }

    fn ring(&self) -> &[(u64, usize)] {
        &self.accepted[self.accepted.len().saturating_sub(RETAIN)..]
    }
}

/// The reference model of a durable store.
struct Model {
    series: Vec<ModelSeries>,
    /// Each series' next fresh seq; fresh seqs step by two, so the odd
    /// seqs below stay free for out-of-order uploads.
    next_seq: Vec<u64>,
    /// WAL appends since the last open, and the one the armed fault hits.
    appends: u64,
    fault_at: Option<u64>,
}

impl Model {
    fn pick_seq(&mut self, series: usize, seq: Seq) -> u64 {
        let s = &self.series[series];
        let candidates: Vec<u64> = match seq {
            Seq::Max => return u64::MAX,
            Seq::Fresh => Vec::new(),
            Seq::Retry(_) => s.accepted.iter().map(|&(q, _)| q).collect(),
            Seq::Gap(_) => (0..self.next_seq[series]).filter(|&q| !s.seen(q)).collect(),
        };
        match seq {
            Seq::Retry(i) | Seq::Gap(i) if !candidates.is_empty() => {
                candidates[i % candidates.len()]
            }
            _ => {
                self.next_seq[series] += 2;
                self.next_seq[series] - 2
            }
        }
    }

    /// An upload that validated: dedup, then the WAL append (where the
    /// armed fault fires and the heal checkpoints the stripe), then the
    /// fold.
    fn upload(&mut self, series: usize, seq: u64, window: usize, stripe: &[usize]) -> Expect {
        let s = &mut self.series[series];
        s.exists = true;
        if s.seen(seq) {
            s.rejects += 1;
            return Err(RejectReason::DuplicateSeq(seq));
        }
        self.appends += 1;
        if self.fault_at == Some(self.appends - 1) {
            s.rejects += 1;
            self.checkpoint(|other| stripe[other] == stripe[series]);
            return Err(RejectReason::StorageFailed(String::new()));
        }
        s.accepted.push((seq, window));
        Ok(s.accepted.len() as u64)
    }

    fn delta(
        &mut self,
        series: usize,
        base: u64,
        seq: u64,
        window: usize,
        stripe: &[usize],
    ) -> Expect {
        let s = &mut self.series[series];
        if !s.exists {
            return Err(RejectReason::ResyncRequired { base_seq: base, expected: None });
        }
        if s.seen(seq) {
            s.rejects += 1;
            return Err(RejectReason::DuplicateSeq(seq));
        }
        let expected = s.last().map(|(q, _)| q);
        if expected != Some(base) {
            return Err(RejectReason::ResyncRequired { base_seq: base, expected });
        }
        self.upload(series, seq, window, stripe)
    }

    fn checkpoint(&mut self, covers: impl Fn(usize) -> bool) {
        for (i, s) in self.series.iter_mut().enumerate() {
            if covers(i) {
                s.snapshot = (s.rejects, s.exists);
            }
        }
    }

    fn restart(&mut self, fault_at: Option<u64>) {
        for s in &mut self.series {
            s.rejects = s.snapshot.0;
            s.exists = s.snapshot.1 || !s.accepted.is_empty();
        }
        self.appends = 0;
        self.fault_at = fault_at;
    }
}

type Expect = Result<u64, RejectReason>;

fn opts(stripes: usize, fault: FaultPlan) -> StoreOptions {
    StoreOptions {
        max_series: 64,
        stripes,
        // Small segments, so checkpoints rotate and compact the log.
        segment_bytes: 2048,
        retain: RETAIN,
        fault,
        ..StoreOptions::default()
    }
}

fn plan(fault: Option<(u64, Option<usize>)>) -> FaultPlan {
    match fault {
        None => FaultPlan::none(),
        Some((at, None)) => {
            FaultPlan::new(FaultSpec { fail_append_at: Some(at), ..FaultSpec::default() })
        }
        Some((at, Some(keep))) => {
            FaultPlan::new(FaultSpec { torn_append_at: Some((at, keep)), ..FaultSpec::default() })
        }
    }
}

fn sum(windows: &[(u64, usize)]) -> Option<Vec<u8>> {
    let pool = &corpus().windows;
    let picked: Vec<&GmonData> = windows.iter().map(|&(_, w)| &pool[w]).collect();
    (!picked.is_empty()).then(|| graphprof::sum_profiles(picked).expect("merges").to_bytes())
}

/// Every observable of every series, store against model.
fn compare(store: &SeriesStore, model: &Model, at: &str) {
    let c = corpus();
    for (name, s) in SERIES.iter().zip(&model.series) {
        let exists = s.exists.then_some(());
        let got_total = store.series_total(name);
        assert_eq!(
            got_total,
            exists.map(|()| s.accepted.len() as u64),
            "{at}: series_total({name})"
        );
        let got = store.aggregate(name).map(|a| a.to_bytes());
        assert_eq!(got, sum(&s.accepted), "{at}: aggregate({name})");
        let stats = store.stats(name).map(|st| (st.uploads, st.rejects, st.bytes, st.flagged));
        let want = exists.map(|()| {
            let bytes = s.accepted.iter().map(|&(_, w)| c.windows[w].to_bytes().len() as u64);
            let flagged = s.accepted.iter().filter(|&&(_, w)| c.flagged[w]).count() as u64;
            (s.accepted.len() as u64, s.rejects, bytes.sum(), flagged)
        });
        assert_eq!(stats, want, "{at}: (uploads, rejects, bytes, flagged) of {name}");
        let ring: Vec<(u64, Vec<u8>)> =
            s.ring().iter().map(|&(q, w)| (q, c.windows[w].to_bytes())).collect();
        assert_eq!(store.retained_windows(name), exists.map(|()| ring), "{at}: ring({name})");
        for n in 1..=RETAIN + 1 {
            let want = s.ring().iter().rev().nth(n - 1).map(|&(_, w)| c.windows[w].to_bytes());
            let got = store.window(name, n as u64).map(|w| w.to_bytes());
            assert_eq!(got, want, "{at}: window({name}, {n})");
        }
        for k in 1..=RETAIN {
            let want = s.ring().split_last().filter(|(_, before)| !before.is_empty()).map(
                |(_, before)| {
                    let take = k.min(before.len());
                    (sum(&before[before.len() - take..]).unwrap(), take as u64)
                },
            );
            let got = store.baseline(name, k as u64).map(|(b, n)| (b.to_bytes(), n));
            assert_eq!(got, want, "{at}: baseline({name}, {k})");
        }
    }
}

/// Runs `ops` against a fresh durable store at `stripes`, comparing
/// with the model after every operation.
fn run(tag: &str, stripes: usize, ops: &[Op]) {
    let c = corpus();
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "graphprof-proptest-model-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id(),
    ));
    let _ = fs::remove_dir_all(&dir);
    let open =
        |dir: &Path, fault| SeriesStore::open(c.exe.clone(), dir, opts(stripes, plan(fault)));
    let mut store = Some(open(&dir, None).expect("store opens").0);
    let live = store.as_ref().unwrap();
    let stripe: Vec<usize> = SERIES.iter().map(|name| live.stripe_of(name)).collect();
    let mut model = Model {
        series: vec![ModelSeries::default(); SERIES.len()],
        next_seq: vec![0; SERIES.len()],
        appends: 0,
        fault_at: None,
    };
    for (i, op) in ops.iter().enumerate() {
        let at = format!("{stripes} stripe(s), op {i} of {}: {op:?}", ops.len());
        let live = store.as_ref().unwrap();
        let (got, want): (Expect, Expect) = match *op {
            Op::Full { series, window, seq } => {
                let seq = model.pick_seq(series, seq);
                let blob = c.windows[window].to_bytes();
                (
                    live.upload(SERIES[series], seq, &blob),
                    model.upload(series, seq, window, &stripe),
                )
            }
            Op::Delta { series, window, seq, stale } => {
                let seq = model.pick_seq(series, seq);
                let (base, from) = match model.series[series].last() {
                    Some((q, w)) if !stale => (q, w),
                    // Any base but the last seq; past `u64::MAX` it wraps to 0.
                    last => (last.map_or(1, |(q, _)| q.wrapping_add(1)), 0),
                };
                let body = encode_delta(&c.windows[from], &c.windows[window]).expect("encodes");
                let got = live.upload_delta(SERIES[series], base, seq, &body);
                (got, model.delta(series, base, seq, window, &stripe))
            }
            Op::Checkpoint => {
                let report = live.checkpoint().expect("durable stores checkpoint");
                model.checkpoint(|_| true);
                let counts = (report.stripes, report.healed, report.failed);
                assert_eq!(counts, (stripes as u64, 0, 0), "{at}: {report:?}");
                (Ok(0), Ok(0))
            }
            Op::Restart { fault } => {
                drop(store.take());
                store = Some(open(&dir, fault).expect("store reopens").0);
                model.restart(fault.map(|(at, _)| at));
                (Ok(0), Ok(0))
            }
        };
        match want {
            Err(RejectReason::StorageFailed(_)) => assert!(
                matches!(got, Err(RejectReason::StorageFailed(_))),
                "{at}: got {got:?}, want StorageFailed"
            ),
            want => assert_eq!(got, want, "{at}: outcome"),
        }
        compare(store.as_ref().unwrap(), &model, &at);
    }
    drop(store);
    let _ = fs::remove_dir_all(&dir);
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(arb_op(), 1..48)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn one_stripe_matches_the_model(ops in arb_ops()) {
        run("s1", 1, &ops);
    }

    #[test]
    fn four_stripes_match_the_model(ops in arb_ops()) {
        run("s4", 4, &ops);
    }
}

/// The fault arm is live: an armed append really fails, the heal
/// checkpoint snapshots the refused upload's reject, and the restart
/// keeps it while an unsnapshotted reject resets.
#[test]
fn the_model_tracks_a_healed_fault_across_restart() {
    let ops = [
        Op::Full { series: 0, window: 0, seq: Seq::Fresh },
        Op::Restart { fault: Some((0, Some(5))) },
        Op::Full { series: 1, window: 1, seq: Seq::Fresh },
        Op::Full { series: 0, window: 2, seq: Seq::Retry(0) },
        Op::Restart { fault: None },
        Op::Full { series: 1, window: 1, seq: Seq::Gap(0) },
        Op::Delta { series: 1, window: 2, seq: Seq::Fresh, stale: false },
    ];
    run("healed", 1, &ops);
}
