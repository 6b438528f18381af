//! `store_ingest`: one thread drives a [`DurableStore`] directly, with no
//! mailbox in between.
//!
//! 64 objects of 4–16 KB each have a [`CachingClient`] subscribed in
//! [`PushMode::Delta`]; every push a put produces is applied to it. Ops
//! come in shuffled decks that give every object nine edits, which
//! overwrite one contiguous range of 1–5% of the object, one rewrite with
//! fresh random bytes, and seven pulls by a client holding a version 1 to
//! `HISTORY` behind, rebuilt from the delta (or full copy) the store
//! replies with: 59% puts. Every half deck, once the WAL tail next holds
//! `CRASH_TAIL` records, the store crashes and recovers from its WAL
//! image, so every recovery replays the same tail and every deck holds the
//! same work.
//!
//! Checks: each applied push and each pull rebuilds the exact bytes, and
//! each recovery's `export_state` equals the pre-crash one. Check time is
//! taken off the measured clock. A traced phase also times
//! `DurableStore::put` / `fetch` and `CachingClient::apply_push`, and
//! re-encodes each (retained, new) version pair with `DeltaCodec::encode`
//! off the clock.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use bytes::Bytes;
use coda_store::{CachingClient, DeltaCodec, DurableStore, FetchReply, PushMode};

use crate::util::{self, Digest, Rng};
use crate::Phase;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
const OBJECTS: usize = 64;
const MIN_SIZE: usize = 4 << 10;
const MAX_SIZE: usize = 16 << 10;
/// Versions the store retains per object for deltas.
const HISTORY: usize = 4;
/// WAL records between snapshots.
const SNAPSHOT_EVERY: usize = 64;
/// Edits, rewrites and pulls of each object in a deck.
const EDITS: usize = 9;
const REWRITES: usize = 1;
const PULLS: usize = 7;
/// Ops in a deck, and so in a measurement window.
pub const DECK: usize = OBJECTS * (EDITS + REWRITES + PULLS);
/// Ops between crash → recover cycles: two per deck.
const CRASH_EVERY: u64 = DECK as u64 / 2;
/// WAL tail a crash waits for: half a snapshot interval, the mean tail of
/// a crash at a random point. A deck puts a multiple of `SNAPSHOT_EVERY`
/// records, so a crash at a fixed op count would always find the same,
/// nearly empty tail.
const CRASH_TAIL: usize = SNAPSHOT_EVERY / 2;
/// The deterministic counts cover this many ops; every run completes them.
const COUNT_OPS: u64 = 2_000;
/// Lease length: long enough never to expire during a run.
const LEASE_TICKS: u64 = 1 << 40;

/// One generated op.
enum Op {
    /// Put `data` as the object's next version.
    Put { obj: usize, data: Bytes },
    /// Pull while holding the version `lag` behind the current one.
    Pull { obj: usize, lag: usize },
}

/// The seeded op stream, with the last `HISTORY + 1` versions of each
/// object (newest last) so every reply can be checked.
struct Stream {
    rng: Rng,
    sizes: Vec<usize>,
    versions: Vec<VecDeque<(u64, Bytes)>>,
    /// The rest of the current deck: (object, kind), taken from the back.
    deck: Vec<(usize, Kind)>,
}

#[derive(Clone, Copy)]
enum Kind {
    Edit,
    Rewrite,
    Pull,
}

fn object_id(obj: usize) -> String {
    format!("obj-{obj}")
}

impl Stream {
    fn new(seed: u64) -> Self {
        // sizes step evenly through the range, so the seed changes what
        // is written but not how much
        let sizes =
            (0..OBJECTS).map(|i| MIN_SIZE + (MAX_SIZE - MIN_SIZE) * i / (OBJECTS - 1)).collect();
        Stream {
            rng: Rng::new(seed, 0x5707e),
            sizes,
            versions: vec![VecDeque::new(); OBJECTS],
            deck: Vec::new(),
        }
    }

    fn current(&self, obj: usize) -> &(u64, Bytes) {
        self.versions[obj].back().expect("object preloaded")
    }

    /// Records `data` as the object's next version and returns it.
    fn push(&mut self, obj: usize, data: Vec<u8>) -> Op {
        let version = self.versions[obj].back().map_or(1, |(v, _)| v + 1);
        let data = Bytes::from(data);
        self.versions[obj].push_back((version, data.clone()));
        if self.versions[obj].len() > HISTORY + 1 {
            self.versions[obj].pop_front();
        }
        Op::Put { obj, data }
    }

    fn rewrite(&mut self, obj: usize) -> Op {
        let data = self.rng.bytes(self.sizes[obj]);
        self.push(obj, data)
    }

    fn edit(&mut self, obj: usize) -> Op {
        let mut data = self.current(obj).1.to_vec();
        let len = data.len() / 100 + self.rng.below((data.len() / 25) as u64) as usize;
        let at = self.rng.below((data.len() - len + 1) as u64) as usize;
        data[at..at + len].copy_from_slice(&self.rng.bytes(len));
        self.push(obj, data)
    }

    /// The set-up puts: a random first version of every object, then
    /// `HISTORY` edits each, so every history is full.
    fn preload(&mut self) -> Vec<Op> {
        let mut ops: Vec<Op> = (0..OBJECTS).map(|obj| self.rewrite(obj)).collect();
        for _ in 0..HISTORY {
            ops.extend((0..OBJECTS).map(|obj| self.edit(obj)));
        }
        ops
    }

    fn next(&mut self) -> Op {
        if self.deck.is_empty() {
            for obj in 0..OBJECTS {
                let kinds = [(Kind::Edit, EDITS), (Kind::Rewrite, REWRITES), (Kind::Pull, PULLS)];
                for (kind, n) in kinds {
                    self.deck.extend(std::iter::repeat_n((obj, kind), n));
                }
            }
            for i in (1..self.deck.len()).rev() {
                let j = self.rng.below(i as u64 + 1) as usize;
                self.deck.swap(i, j);
            }
        }
        let (obj, kind) = self.deck.pop().expect("refilled above");
        match kind {
            Kind::Edit => self.edit(obj),
            Kind::Rewrite => self.rewrite(obj),
            Kind::Pull => Op::Pull { obj, lag: 1 + self.rng.below(HISTORY as u64) as usize },
        }
    }
}

/// Digest of the set-up puts and the first `n` generated ops.
pub fn input_digest(seed: u64, n: usize) -> u64 {
    let mut stream = Stream::new(seed);
    let mut d = Digest::default();
    let mut ops = stream.preload();
    ops.extend((0..n).map(|_| stream.next()));
    for op in ops {
        match op {
            Op::Put { obj, data } => {
                d.u64(obj as u64);
                d.bytes(&data);
            }
            Op::Pull { obj, lag } => {
                d.u64(obj as u64 | 1 << 32);
                d.u64(lag as u64);
            }
        }
    }
    d.finish()
}

/// The store, one subscribed client per object, and the stream.
struct Rig {
    store: DurableStore,
    clients: Vec<CachingClient>,
    stream: Stream,
}

fn set_up(seed: u64) -> Rig {
    let mut store = DurableStore::new("ingest", HISTORY, SNAPSHOT_EVERY);
    let mut clients: Vec<CachingClient> =
        (0..OBJECTS).map(|obj| CachingClient::new(format!("client-{obj}"))).collect();
    for (obj, client) in clients.iter().enumerate() {
        store.subscribe(client.name(), &object_id(obj), PushMode::Delta, LEASE_TICKS);
    }
    let mut stream = Stream::new(seed);
    for op in stream.preload() {
        let Op::Put { obj, data } = op else { unreachable!("set-up only puts") };
        for msg in store.put(&object_id(obj), data).1 {
            clients[obj].apply_push(&msg).expect("set-up push applies");
        }
    }
    Rig { store, clients, stream }
}

/// Per-layer samples of a traced phase.
#[derive(Default)]
struct Layers {
    put_us: Vec<f64>,
    fetch_us: Vec<f64>,
    apply_us: Vec<f64>,
    encode_us: Vec<f64>,
    recovery_us: Vec<f64>,
    replayed: usize,
    literal_bytes: usize,
    target_bytes: usize,
}

/// Runs one phase; see the module doc.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Phase {
    let mut phase =
        Phase { input_digest: input_digest(seed, COUNT_OPS as usize), ..Phase::default() };
    let mut rig = None;
    for _ in 0..SETUP_REPEATS {
        drop(rig.take());
        let t0 = Instant::now();
        rig = Some(set_up(seed));
        phase.setup_s.push(t0.elapsed().as_secs_f64());
    }
    let Rig { mut store, mut clients, mut stream } = rig.expect("set up at least once");

    let mut layers = Layers::default();
    let (mut put_bytes, mut wire_bytes, wal_start) = (0usize, 0usize, store.ops());
    let run = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    // time spent checking outputs or re-encoding for the trace, taken
    // off the measured clock
    let mut paused = Duration::ZERO;
    let (mut n, mut crash_due) = (0u64, false);
    while start.elapsed() - paused < run || n < COUNT_OPS {
        let op = stream.next();
        let t0 = Instant::now();
        let ok = match op {
            Op::Put { obj, data } => {
                let (version, msgs) = store.put(&object_id(obj), data.clone());
                let t1 = Instant::now();
                let applied = msgs.iter().all(|m| clients[obj].apply_push(m).is_ok());
                let t2 = Instant::now();
                phase.ops.push(((t2 - start - paused).as_secs_f64(), util::us(t2 - t0)));
                if n < COUNT_OPS {
                    put_bytes += data.len();
                    wire_bytes += msgs.iter().map(|m| m.wire_size()).sum::<usize>();
                }
                if traced {
                    layers.put_us.push(util::us(t1 - t0));
                    // one subscribed client per object: one push per put
                    layers.apply_us.push(util::us(t2 - t1));
                    // the store encoded a delta to the new version from
                    // every retained one; do the same, timed, off the clock
                    let history = &stream.versions[obj];
                    let (new_version, _) = history.back().expect("just pushed");
                    for (v, old) in history.iter().take(history.len() - 1).rev().take(HISTORY) {
                        let e0 = Instant::now();
                        let delta = DeltaCodec::encode(old, &data, *v, *new_version);
                        layers.encode_us.push(util::us(e0.elapsed()));
                        if n < COUNT_OPS {
                            layers.literal_bytes += delta.literal_bytes();
                            layers.target_bytes += data.len();
                        }
                    }
                }
                let held = &clients[obj];
                let ok = applied
                    && held.held_version(&object_id(obj)) == Some(version)
                    && held.held_data(&object_id(obj)) == Some(&data);
                paused += t2.elapsed();
                ok
            }
            Op::Pull { obj, lag } => {
                let history = &stream.versions[obj];
                let (held_version, held) = &history[history.len() - 1 - lag];
                let Ok(reply) = store.fetch(&object_id(obj), Some(*held_version));
                let t1 = Instant::now();
                let rebuilt = match reply {
                    Some(FetchReply::Delta(d)) => {
                        DeltaCodec::apply(held, &d).ok().map(|b| (d.target_version, b))
                    }
                    Some(FetchReply::Full { version, data }) => Some((version, data)),
                    _ => None,
                };
                let t2 = Instant::now();
                phase.ops.push(((t2 - start - paused).as_secs_f64(), util::us(t2 - t0)));
                if traced {
                    layers.fetch_us.push(util::us(t1 - t0));
                }
                let ok = rebuilt.as_ref() == Some(stream.current(obj));
                paused += t2.elapsed();
                ok
            }
        };
        phase.attempted += 1;
        if !ok {
            phase.fail(format!("op {n} rebuilt the wrong bytes"));
        }
        n += 1;
        if n == COUNT_OPS {
            phase.layer("delta.wire_ratio", wire_bytes as f64 / put_bytes as f64);
            phase.layer("wal.records_per_op", (store.ops() - wal_start) as f64 / n as f64);
        }
        crash_due |= n.is_multiple_of(CRASH_EVERY);
        if crash_due && store.wal().len() == CRASH_TAIL {
            crash_due = false;
            let c0 = Instant::now();
            let expected = store.export_state();
            let r0 = Instant::now();
            let (recovered, replayed) = DurableStore::recover_in(store.crash(), None, None);
            let r1 = Instant::now();
            store = recovered;
            layers.recovery_us.push(util::us(r1 - r0));
            layers.replayed += replayed;
            phase.attempted += 1;
            if store.export_state() != expected {
                phase.fail(format!("recovery after op {n} diverged"));
            }
            paused += (r0 - c0) + r1.elapsed();
        }
    }
    phase.elapsed_s = (start.elapsed() - paused).as_secs_f64();
    phase.peak_rss_mb = util::peak_rss_mb();

    phase.layer("wal.recovery_us.p50", util::median(&layers.recovery_us));
    if traced {
        let q = util::quantile;
        phase.layer("store.put_us.p50", q(&layers.put_us, 0.5));
        phase.layer("store.put_us.p99", q(&layers.put_us, 0.99));
        phase.layer("store.fetch_us.p50", q(&layers.fetch_us, 0.5));
        phase.layer("delta.apply_us.p50", q(&layers.apply_us, 0.5));
        phase.layer("delta.encode_us.p50", q(&layers.encode_us, 0.5));
        phase.layer("delta.encode_us.p99", q(&layers.encode_us, 0.99));
        let sum = |v: &[f64]| v.iter().sum::<f64>();
        phase.layer("delta.encode_share", sum(&layers.encode_us) / sum(&layers.put_us));
        phase.layer("delta.literal_frac", layers.literal_bytes as f64 / layers.target_bytes as f64);
        phase.layer(
            "wal.replay_us_per_record",
            sum(&layers.recovery_us) / layers.replayed.max(1) as f64,
        );
    }
    phase
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_digest_follows_the_seed() {
        assert_eq!(input_digest(7, 500), input_digest(7, 500));
        assert_ne!(input_digest(7, 500), input_digest(8, 500));
    }

    #[test]
    fn deterministic_counts_repeat_for_a_seed() {
        let counts = |p: &Phase| {
            ["delta.wire_ratio", "wal.records_per_op", "delta.literal_frac"].map(|k| p.layers[k])
        };
        let (a, b) = (run(5, 0.01, true), run(5, 0.01, true));
        for p in [&a, &b] {
            assert!(p.errors.is_empty(), "{:?}", p.errors);
            assert!(p.ops.len() as u64 >= COUNT_OPS);
        }
        assert_eq!(counts(&a), counts(&b));
        let c = run(6, 0.01, true);
        assert_ne!(counts(&a), counts(&c));
    }
}
