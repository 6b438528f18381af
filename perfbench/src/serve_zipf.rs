//! `serve_zipf`: two closed-loop submitters drive a 2-shard
//! [`ServeTier`] with zipf(1.1) keys over 512 objects.
//!
//! Each submitter owns 256 objects: it alone puts them, so it knows their
//! bytes and checks every pull reply against them. The mix is ~50% pulls,
//! ~20% DARR lookups, ~20% claims (a won claim is completed at once) and
//! ~10% puts of 256-byte payloads with a 16-byte local edit. The claim keys
//! are shared: both submitters walk the same key sequence, claiming each
//! key four times, so they race for it and then reuse the winner's result.
//!
//! After the loop the run replays both op streams in-thread into one
//! unsharded [`ShardCore`] and demands its canonical state equal the tier's
//! byte for byte, and that each shared key was won, and completed, by one
//! submitter only. A traced phase times each `ShardCore::apply` of that
//! replay, and `Darr::try_claim` / `complete` on a direct replay of the
//! claim stream, and attaches an `Obs` to the tier for its batch counter.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

use bytes::Bytes;
use coda_darr::{ClaimOutcome, ComputationKey, Darr};
use coda_obs::Obs;
use coda_serve::{
    merge_canonical_exports, ServeConfig, ServeRequest, ServeResponse, ServeTier, ShardCore,
};
use coda_store::{DeltaCodec, FetchReply};

use crate::util::{self, Digest, Rng, Zipf};
use crate::Phase;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
const SUBMITTERS: usize = 2;
const SHARDS: usize = 2;
const OBJECTS_PER_SUBMITTER: usize = 256;
const PAYLOAD: usize = 256;
const EDIT: usize = 16;
/// Versions written per object in set-up, so every history is full.
const PRELOAD_VERSIONS: usize = 4;
/// Set-up puts in flight at once, below the mailbox capacity.
const PRELOAD_PIPELINE: usize = 32;
/// Ops after which the run samples its peak RSS: a fixed amount of work,
/// since the DARR keeps every result and so grows with ops completed.
const RSS_AFTER_OPS: u64 = 100_000;
/// Longest traced phase: the tier's `Obs` keeps every span it records,
/// several hundred bytes per request, so a traced phase stops early.
const TRACED_MAX_SECONDS: f64 = 3.0;
/// WAL records between snapshots in the untimed oracle replay: rare, but
/// enough to bound its log.
const ORACLE_SNAPSHOT_EVERY: usize = 1024;
/// Claims each submitter makes on a shared key before moving to the next:
/// the first claim on a key wins, the rest reuse its result.
const CLAIMS_PER_KEY: u64 = 4;
/// Claim lease: long enough never to expire during a run.
const CLAIM_TICKS: u64 = 1 << 40;

fn config() -> ServeConfig {
    ServeConfig { n_shards: SHARDS, ..ServeConfig::default() }
}

/// Request kinds, for per-kind latency splits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Pull,
    Lookup,
    Claim,
    Complete,
    Put,
}

const KINDS: [Kind; 5] = [Kind::Pull, Kind::Lookup, Kind::Claim, Kind::Complete, Kind::Put];

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Pull => "pull",
            Kind::Lookup => "lookup",
            Kind::Claim => "claim",
            Kind::Complete => "complete",
            Kind::Put => "put",
        }
    }
}

/// One generated op, with what its reply must show.
enum Op {
    /// Pull while holding `held`; the reply must rebuild `now`.
    Pull {
        obj: usize,
        held: (u64, Bytes),
        now: (u64, Bytes),
    },
    /// Put `data` as version `version`.
    Put {
        obj: usize,
        version: u64,
        data: Bytes,
    },
    Claim {
        key: u64,
    },
    Lookup {
        key: u64,
    },
}

impl Op {
    fn kind(&self) -> Kind {
        match self {
            Op::Pull { .. } => Kind::Pull,
            Op::Put { .. } => Kind::Put,
            Op::Claim { .. } => Kind::Claim,
            Op::Lookup { .. } => Kind::Lookup,
        }
    }
}

fn darr_key(key: u64) -> ComputationKey {
    ComputationKey::new("zipf-ds", 1, &format!("p{key}"), "kfold(3)", "rmse")
}

fn client(sub: usize) -> String {
    format!("submitter-{sub}")
}

/// One submitter's seeded op stream. It tracks the current bytes of the
/// objects it owns and the copy it last pulled of each, so the stream, and
/// what each reply must contain, is a pure function of seed and submitter.
struct Stream {
    sub: usize,
    rng: Rng,
    zipf: Zipf,
    objects: Vec<(u64, Bytes)>,
    held: Vec<(u64, Bytes)>,
    claims: u64,
}

impl Stream {
    fn new(seed: u64, sub: usize) -> Self {
        let empty = vec![(0, Bytes::new()); OBJECTS_PER_SUBMITTER];
        Stream {
            sub,
            rng: Rng::new(seed, 1 + sub as u64),
            zipf: Zipf::new(OBJECTS_PER_SUBMITTER, 1.1),
            objects: empty.clone(),
            held: empty,
            claims: 0,
        }
    }

    /// The set-up puts: every object written `PRELOAD_VERSIONS` times; the
    /// submitter then holds the latest copy of each.
    fn preload(&mut self) -> Vec<Op> {
        let ops = (0..PRELOAD_VERSIONS)
            .flat_map(|_| 0..OBJECTS_PER_SUBMITTER)
            .map(|obj| self.put(obj))
            .collect();
        self.held = self.objects.clone();
        ops
    }

    fn put(&mut self, obj: usize) -> Op {
        let (version, current) = &self.objects[obj];
        let data = if current.is_empty() {
            self.rng.bytes(PAYLOAD)
        } else {
            let mut data = current.to_vec();
            let at = self.rng.below((PAYLOAD - EDIT + 1) as u64) as usize;
            data[at..at + EDIT].copy_from_slice(&self.rng.bytes(EDIT));
            data
        };
        let (version, data) = (version + 1, Bytes::from(data));
        self.objects[obj] = (version, data.clone());
        Op::Put { obj, version, data }
    }

    fn next(&mut self) -> Op {
        let obj = self.zipf.sample(&mut self.rng);
        match self.rng.below(100) {
            0..=49 => {
                let now = self.objects[obj].clone();
                let held = std::mem::replace(&mut self.held[obj], now.clone());
                Op::Pull { obj, held, now }
            }
            50..=69 => {
                Op::Lookup { key: (self.claims / CLAIMS_PER_KEY).saturating_sub(self.rng.below(4)) }
            }
            70..=89 => {
                self.claims += 1;
                Op::Claim { key: self.claims / CLAIMS_PER_KEY }
            }
            _ => self.put(obj),
        }
    }

    fn object_id(&self, obj: usize) -> String {
        format!("obj-{}-{obj}", self.sub)
    }

    fn request(&self, op: &Op) -> ServeRequest {
        match op {
            Op::Pull { obj, held, .. } => {
                ServeRequest::Pull { id: self.object_id(*obj), client_version: Some(held.0) }
            }
            Op::Put { obj, data, .. } => {
                ServeRequest::Put { id: self.object_id(*obj), data: data.clone() }
            }
            Op::Claim { key } => ServeRequest::Claim {
                key: darr_key(*key),
                client: client(self.sub),
                duration: CLAIM_TICKS,
            },
            Op::Lookup { key } => ServeRequest::Lookup { key: darr_key(*key) },
        }
    }

    /// The completion a submitter publishes after winning `key`.
    fn complete(&self, key: u64) -> ServeRequest {
        let score = (key % 1000) as f64 / 1000.0;
        ServeRequest::Complete {
            key: darr_key(key),
            client: client(self.sub),
            score,
            fold_scores: vec![score; 3],
            explanation: String::new(),
        }
    }
}

/// Digest of the first `n` generated ops of every submitter's stream
/// (set-up puts included).
pub fn input_digest(seed: u64, n: usize) -> u64 {
    let mut d = Digest::default();
    for sub in 0..SUBMITTERS {
        let mut stream = Stream::new(seed, sub);
        let mut ops = stream.preload();
        ops.extend((0..n).map(|_| stream.next()));
        for op in &ops {
            match op {
                Op::Pull { obj, held, .. } => {
                    d.u64(*obj as u64);
                    d.u64(held.0);
                }
                Op::Put { obj, data, .. } => {
                    d.u64(*obj as u64);
                    d.bytes(data);
                }
                Op::Claim { key } | Op::Lookup { key } => d.u64(*key),
            }
            d.u64(op.kind() as u64);
        }
    }
    d.finish()
}

/// What one submitter did.
#[derive(Default)]
struct SubmitterLog {
    /// Ops drawn from the stream (completions not included).
    generated: u64,
    /// Keys this submitter won and completed.
    won: Vec<u64>,
    /// `(key, producer)` of every record a lookup or claim returned.
    seen: Vec<(u64, String)>,
    /// `(end offset s, latency µs, kind)` of every submit, in `f32` to
    /// keep a long run's samples small.
    samples: Vec<(f32, f32, Kind)>,
    claims: u64,
    failures: Vec<String>,
}

/// Checks a pull reply rebuilds the expected version and bytes.
fn check_pull(reply: Option<FetchReply>, held: &(u64, Bytes), now: &(u64, Bytes)) -> bool {
    let rebuilt = match reply {
        Some(FetchReply::Full { version, data }) => (version, data),
        Some(FetchReply::Delta(d)) => match DeltaCodec::apply(&held.1, &d) {
            Ok(data) => (d.target_version, data),
            Err(_) => return false,
        },
        Some(FetchReply::UpToDate { version }) => (version, held.1.clone()),
        None => return false,
    };
    rebuilt == *now
}

/// What the submitters share: the run's clock and its op count.
struct Shared {
    /// When the measured loop started.
    start: Instant,
    run: Duration,
    ops: AtomicU64,
    rss_mb: OnceLock<f64>,
}

/// One submitter's closed loop: it sends its next request only when the
/// reply to the previous one is in, and completes each claim it wins.
fn submit_loop(tier: &ServeTier, mut stream: Stream, shared: &Shared) -> SubmitterLog {
    let mut log = SubmitterLog::default();
    let me = client(stream.sub);
    let timed = |req: ServeRequest, kind: Kind, log: &mut SubmitterLog| {
        let t0 = Instant::now();
        let reply = tier.submit(req);
        let t1 = Instant::now();
        log.samples.push(((t1 - shared.start).as_secs_f32(), util::us(t1 - t0) as f32, kind));
        if shared.ops.fetch_add(1, Ordering::Relaxed) + 1 == RSS_AFTER_OPS {
            let _ = shared.rss_mb.set(util::peak_rss_mb());
        }
        reply
    };
    while shared.start.elapsed() < shared.run {
        let op = stream.next();
        let kind = op.kind();
        log.generated += 1;
        let reply = timed(stream.request(&op), kind, &mut log);
        let ok = match (op, reply) {
            (Op::Put { version, .. }, Ok(ServeResponse::Put { version: got, .. })) => {
                got == version
            }
            (Op::Pull { held, now, .. }, Ok(ServeResponse::Pull(reply))) => {
                check_pull(reply, &held, &now)
            }
            (Op::Lookup { key }, Ok(ServeResponse::Lookup(record))) => {
                log.seen.extend(record.map(|r| (key, r.producer)));
                true
            }
            (Op::Claim { key }, Ok(ServeResponse::Claim(outcome))) => {
                log.claims += 1;
                match outcome {
                    ClaimOutcome::Claimed => {
                        log.won.push(key);
                        let done = timed(stream.complete(key), Kind::Complete, &mut log);
                        matches!(done, Ok(ServeResponse::Complete(r)) if r.producer == me)
                    }
                    ClaimOutcome::HeldBy(owner) => owner != me,
                    ClaimOutcome::AlreadyComputed(r) => {
                        log.seen.push((key, r.producer));
                        true
                    }
                }
            }
            (_, reply) => {
                log.failures.push(format!("{} request got {reply:?}", kind.name()));
                continue;
            }
        };
        if !ok {
            log.failures.push(format!("{me} got a wrong {} reply", kind.name()));
        }
    }
    log
}

/// Starts a tier and loads every submitter's objects through it.
fn set_up(seed: u64, obs: Option<&Obs>) -> (ServeTier, Vec<Stream>) {
    let tier = ServeTier::start_obs(&config(), obs);
    let mut streams: Vec<Stream> = (0..SUBMITTERS).map(|s| Stream::new(seed, s)).collect();
    for stream in &mut streams {
        let requests: Vec<ServeRequest> =
            stream.preload().iter().map(|op| stream.request(op)).collect();
        // pipelined below the mailbox capacity, so no put is shed and the
        // set-up time is the shards' work rather than per-request wake-ups
        for chunk in requests.chunks(PRELOAD_PIPELINE) {
            let pending: Vec<_> = chunk
                .iter()
                .map(|req| tier.submit_nowait(req.clone()).expect("set-up put admitted"))
                .collect();
            for p in pending {
                p.wait().expect("set-up put applied");
            }
        }
    }
    (tier, streams)
}

/// Runs one phase; see the module doc.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Phase {
    let mut phase = Phase { input_digest: input_digest(seed, 10_000), ..Phase::default() };
    let obs = traced.then(Obs::wall);
    let mut ready = None;
    for _ in 0..SETUP_REPEATS {
        if let Some((tier, _)) = ready.take() {
            let _ = ServeTier::finish(tier);
        }
        let t0 = Instant::now();
        ready = Some(set_up(seed, obs.as_ref()));
        phase.setup_s.push(t0.elapsed().as_secs_f64());
    }
    let (tier, streams) = ready.expect("set up at least once");

    let barrier = Barrier::new(SUBMITTERS);
    let shared = Shared {
        start: Instant::now(),
        run: Duration::from_secs_f64(if traced {
            seconds.min(TRACED_MAX_SECONDS)
        } else {
            seconds
        }),
        ops: AtomicU64::new(0),
        rss_mb: OnceLock::new(),
    };
    let mut logs: Vec<SubmitterLog> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .into_iter()
            .map(|stream| {
                let (tier, barrier, shared) = (&tier, &barrier, &shared);
                s.spawn(move || {
                    barrier.wait();
                    submit_loop(tier, stream, shared)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("submitter thread")).collect()
    });
    phase.elapsed_s = shared.start.elapsed().as_secs_f64();
    phase.peak_rss_mb = shared.rss_mb.get().copied().unwrap_or_else(util::peak_rss_mb);
    let report = tier.finish();

    for kind in KINDS {
        let lats: Vec<f64> = logs
            .iter()
            .flat_map(|l| &l.samples)
            .filter(|s| s.2 == kind)
            .map(|s| f64::from(s.1))
            .collect();
        phase.layer(&format!("serve.ops.{}", kind.name()), lats.len() as f64);
        phase.layer(&format!("serve.submit_us.p50.{}", kind.name()), util::quantile(&lats, 0.5));
    }
    phase.ops.reserve_exact(logs.iter().map(|l| l.samples.len()).sum());
    for log in &mut logs {
        let samples = std::mem::take(&mut log.samples);
        phase.ops.extend(samples.into_iter().map(|(end, lat, _)| (f64::from(end), f64::from(lat))));
        for failure in &log.failures {
            phase.fail(failure.clone());
        }
    }
    phase.ops.sort_by(|a, b| a.0.total_cmp(&b.0));
    phase.attempted = phase.ops.len() as u64;

    // each shared key is won, and completed, by one submitter, and every
    // record anyone read names that winner
    let mut winner: BTreeMap<u64, usize> = BTreeMap::new();
    for (sub, log) in logs.iter().enumerate() {
        for &key in &log.won {
            if let Some(other) = winner.insert(key, sub) {
                phase.fail(format!("key p{key} won by submitters {other} and {sub}"));
            }
        }
    }
    for log in &logs {
        for (key, producer) in &log.seen {
            if winner.get(key).map(|&w| client(w)).as_ref() != Some(producer) {
                phase.fail(format!("record p{key} names {producer}, not its claim winner"));
            }
        }
    }

    let replayed = replay(seed, &logs, traced.then_some(&mut phase));
    phase.attempted += 1;
    if replayed != report.canonical_state() {
        phase.fail("tier state differs from the in-thread ShardCore replay".to_string());
    }

    if let Some(obs) = obs {
        let snap = obs.registry().snapshot();
        let batches = snap.counter("coda_serve_batches").max(1);
        phase.layer(
            "serve.batch_mean",
            snap.counter("coda_serve_ops_total") as f64 / batches as f64,
        );
        let per_shard: Vec<f64> = report.per_shard_ops().iter().map(|&n| n as f64).collect();
        let mean = per_shard.iter().sum::<f64>() / per_shard.len() as f64;
        phase.layer("serve.shard_skew", per_shard.iter().copied().fold(0.0, f64::max) / mean);
        phase.layer("serve.shed_frac", report.shed_total as f64 / phase.ops.len() as f64);
        let claims: u64 = logs.iter().map(|l| l.claims).sum();
        let won: usize = logs.iter().map(|l| l.won.len()).sum();
        phase.layer("darr.claim_won_frac", won as f64 / claims.max(1) as f64);
    }
    phase
}

/// Replays every submitter's stream, set-up included, into one unsharded
/// `ShardCore` and returns its canonical state. With `timing`, also times
/// each `apply` by kind, and each claim and completion against a direct
/// `Darr`.
fn replay(seed: u64, logs: &[SubmitterLog], timing: Option<&mut Phase>) -> String {
    let timed = timing.is_some();
    let cfg = config();
    // only puts and completions change the canonical state, and snapshots
    // never show in it: the untimed oracle applies just those, and rarely
    // snapshots, while a timed replay applies every request at the tier's
    // snapshot cadence
    let snapshot_every = if timed { cfg.snapshot_every } else { ORACLE_SNAPSHOT_EVERY };
    let mut core = ShardCore::new("replay", cfg.history_depth, snapshot_every, cfg.trigger);
    let darr = Darr::new();
    let mut streams: Vec<Stream> = (0..SUBMITTERS).map(|s| Stream::new(seed, s)).collect();
    for stream in &mut streams {
        for op in stream.preload() {
            core.apply(stream.request(&op));
        }
    }
    let mut apply_us: BTreeMap<Kind, Vec<f64>> = BTreeMap::new();
    let (mut claim_us, mut complete_us) = (Vec::new(), Vec::new());
    let mut timed_apply = |core: &mut ShardCore, req: ServeRequest, kind: Kind| {
        let t0 = Instant::now();
        core.apply(req);
        apply_us.entry(kind).or_default().push(util::us(t0.elapsed()));
    };
    for (stream, log) in streams.iter_mut().zip(logs) {
        let won: std::collections::BTreeSet<u64> = log.won.iter().copied().collect();
        for _ in 0..log.generated {
            let op = stream.next();
            if timed || matches!(op, Op::Put { .. }) {
                timed_apply(&mut core, stream.request(&op), op.kind());
            }
            let Op::Claim { key } = op else { continue };
            if timed {
                let (k, me) = (darr_key(key), client(stream.sub));
                let t0 = Instant::now();
                let outcome = darr.try_claim(&k, &me, CLAIM_TICKS);
                claim_us.push(util::us(t0.elapsed()));
                if outcome == ClaimOutcome::Claimed {
                    let t0 = Instant::now();
                    darr.complete(&k, &me, 0.0, vec![0.0; 3], "");
                    complete_us.push(util::us(t0.elapsed()));
                }
            }
            if won.contains(&key) {
                timed_apply(&mut core, stream.complete(key), Kind::Complete);
            }
        }
    }
    if let Some(phase) = timing {
        let all: Vec<f64> = apply_us.values().flatten().copied().collect();
        phase.layer("serve.apply_us.p50", util::quantile(&all, 0.5));
        phase.layer("serve.apply_us.p99", util::quantile(&all, 0.99));
        for (kind, lats) in &apply_us {
            phase.layer(&format!("serve.apply_us.p50.{}", kind.name()), util::quantile(lats, 0.5));
        }
        phase.layer("darr.claim_us.p50", util::quantile(&claim_us, 0.5));
        phase.layer("darr.complete_us.p50", util::quantile(&complete_us, 0.5));
    }
    merge_canonical_exports(&[core.export_raw()])
}

/// `serve.mailbox_us.p50`: per kind, the untraced phase's submit p50 less
/// the traced replay's apply p50, weighted by how often each kind ran.
pub fn finish_traced(base: &Phase, traced: &mut Phase) {
    let get = |p: &Phase, name: String| p.layers.get(&name).copied().unwrap_or(0.0);
    let (mut sum, mut n) = (0.0, 0.0);
    for kind in KINDS {
        let count = get(base, format!("serve.ops.{}", kind.name()));
        let submit = get(base, format!("serve.submit_us.p50.{}", kind.name()));
        let apply = get(traced, format!("serve.apply_us.p50.{}", kind.name()));
        sum += count * (submit - apply);
        n += count;
    }
    traced.layer("serve.mailbox_us.p50", sum / n.max(1.0));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_digest_follows_the_seed() {
        assert_eq!(input_digest(7, 2_000), input_digest(7, 2_000));
        assert_ne!(input_digest(7, 2_000), input_digest(8, 2_000));
    }

    #[test]
    fn a_short_run_checks_out() {
        let phase = run(3, 0.3, true);
        assert!(phase.errors.is_empty(), "{:?}", phase.errors);
        assert_eq!(phase.failed, 0);
        assert!(phase.ops.len() > 100, "only {} ops", phase.ops.len());
        assert!(phase.layers["serve.batch_mean"] >= 1.0);
        assert!(phase.layers["darr.claim_won_frac"] > 0.0);
    }
}
