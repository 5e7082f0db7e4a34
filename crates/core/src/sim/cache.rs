//! Content-addressed caching of a sweep's invariant derivations.
//!
//! Expanding a sweep grid multiplies scenarios that *share* expensive
//! derivations: every point of a power×distance grid hears the same host
//! programme (one station broadcasts, many receivers listen), and every
//! point of a BER figure encodes the same `(bitrate, payload_seed,
//! n_bits)` waveform. [`SweepCache`] memoises both behind their exact
//! derivation inputs:
//!
//! * `(program_seed, programme, duration, rate)` → host audio
//!   (mono, L−R), the [`Scenario::host_audio`] derivation;
//! * the [`Workload`]'s own fields + rate → synthesised tag baseband,
//!   the [`Workload::synthesise`] derivation;
//! * for the physical tier, the full RF **front end** — host modulator
//!   IQ and the tag's un-scaled backscatter product — keyed by the host
//!   and payload derivation inputs plus both sample rates and `f_back`.
//!   Power scaling, fading and noise are per-point (geometry, seed) and
//!   applied downstream, so a power×distance grid modulates its host
//!   station once per programme realisation instead of once per point —
//!   what makes physical-tier sweeps tractable;
//! * **pure derivations of the layers above** through the generic
//!   [`SweepCache::derive`] memo, keyed by each derivation's exact
//!   inputs. Two kinds use it, both from `fmbs-net`: the FEC packet
//!   model (`PacketModel::for_frame`, keyed by `(packet_bits, coding)`)
//!   and the calibrated link table (`BerTable::calibrate`, keyed by the
//!   simulator's name and every `BerTableSpec` field). They cost
//!   seconds, depend on nothing else, and recur across every figure
//!   and city of a campaign. The memo lives exactly as long as the
//!   installed cache: a sweep run on its own derives them once per
//!   sweep, a `repro --campaign` run once per campaign, and code that
//!   installs no cache (metro set-up, `repro --perf`) computes them on
//!   every call, as before.
//!
//! The cache is **semantically invisible**: keys capture every input of
//! the derivation, values are exactly what the uncached path computes,
//! and both simulation tiers read through the same lookup — so a cached
//! sweep run is bit-identical to a cache-disabled run (property-tested
//! in [`super::sweep`]).
//!
//! One `Arc<SweepCache>` is shared by all of a sweep's worker threads
//! (the maps are mutex-guarded; hit/miss counters are atomics reported
//! in the sweep results). Workers *install* the cache into a
//! thread-local so the scenario derivations deep inside the simulators
//! can consult it without threading a handle through every signature;
//! the [`ActiveCacheGuard`] restores the previous handle on drop, which
//! keeps nested sweeps (a metric running its own sweep) correct.

use super::scenario::{Scenario, SynthesisedPayload, Workload};
use crate::modem::Bitrate;
use fmbs_audio::program::ProgramKind;
use fmbs_dsp::complex::Complex;
use serde::{Deserialize, Serialize, Value};
use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Host-audio cache key: every input of the
/// [`Scenario::host_audio_uncached`] derivation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct HostKey {
    program_seed: u64,
    program: ProgramKind,
    n: usize,
    rate_bits: u64,
}

/// Payload cache key: every input of the
/// [`Workload::synthesise_uncached`] derivation, with `f64` fields
/// compared exactly (by bit pattern).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum PayloadKey {
    Silence {
        secs_bits: u64,
    },
    Tone {
        freq_bits: u64,
        secs_bits: u64,
        amp_bits: u64,
    },
    Data {
        bitrate: Bitrate,
        n_bits: u32,
        payload_seed: u64,
    },
    Speech {
        secs_bits: u64,
        payload_seed: u64,
    },
    CoopAudio {
        secs_bits: u64,
        payload_seed: u64,
    },
}

impl PayloadKey {
    fn new(w: &Workload) -> Self {
        match *w {
            Workload::Silence { secs } => PayloadKey::Silence {
                secs_bits: secs.to_bits(),
            },
            // `stereo_band` routes the waveform, it does not change it —
            // leave it out of the key so overlay and stereo sweeps share
            // encodings.
            Workload::Tone {
                freq_hz, secs, amp, ..
            } => PayloadKey::Tone {
                freq_bits: freq_hz.to_bits(),
                secs_bits: secs.to_bits(),
                amp_bits: amp.to_bits(),
            },
            Workload::Data {
                bitrate,
                n_bits,
                payload_seed,
                ..
            } => PayloadKey::Data {
                bitrate,
                n_bits,
                payload_seed,
            },
            Workload::Speech {
                secs, payload_seed, ..
            } => PayloadKey::Speech {
                secs_bits: secs.to_bits(),
                payload_seed,
            },
            Workload::CoopAudio { secs, payload_seed } => PayloadKey::CoopAudio {
                secs_bits: secs.to_bits(),
                payload_seed,
            },
        }
    }
}

/// Physical front-end cache key: every input of the
/// [`super::physical::PhysicalSim`] RF front end (host modulator output
/// and the tag's un-scaled backscatter product). Geometry, link budget,
/// fading and noise are applied *after* the front end, so they stay out
/// of the key. The host-station configuration is fixed by the physical
/// tier's scenario path (mono, no pre-emphasis); if that ever becomes
/// scenario-dependent it must join the key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct FrontEndKey {
    program_seed: u64,
    program: ProgramKind,
    payload: PayloadKey,
    /// Host-audio length in samples at [`super::fast::FAST_AUDIO_RATE`].
    n: usize,
    /// Rate the tag baseband enters the chain at (48 kHz mono-band,
    /// 192 kHz stereo multiplex).
    tag_rate_bits: u64,
    iq_rate_bits: u64,
    f_back_bits: u64,
    stereo_band: bool,
}

/// A cached RF front end: `(host_iq, backscatter_iq)` before power
/// scaling, fading and noise.
pub type RfFrontEnd = Arc<(Vec<Complex>, Vec<Complex>)>;

/// Upper bound on the total IQ samples the front-end cache retains
/// across all entries (both vectors counted). Front-end buffers are
/// huge — a 0.5 s tone at 2.56 MHz is ~2.6M samples (~41 MB) per
/// entry, an 8 s `--full` speech realisation ~41M (~656 MB) — and a
/// sweep's repetitions each key their own entry, so an unbounded map
/// could grow to multiple GB on dense physical grids. Past the budget
/// new entries are simply not retained: every lookup stays
/// semantically invisible (the computed value is returned either way),
/// oversized sweeps just recompute per point.
const FRONT_END_MAX_SAMPLES: usize = 64_000_000; // ~1 GB at 16 B/sample

/// Schema version written by [`CacheStats::to_value`]. Version 1 (the
/// implicit pre-versioned schema) lacked the `version` and
/// `front_end_*` fields; version 2 added the physical front end;
/// version 3 carries the `derived_*` memo counters too.
pub const CACHE_STATS_VERSION: u32 = 3;

/// Hit/miss counters of one sweep's cache, reported in
/// [`super::sweep::SweepResults`].
///
/// Serialization is hand-written (the vendored serde derive has no
/// field defaults): committed perf records embed this struct, and the
/// series predates the `version`, `front_end_*` and `derived_*` fields, so
/// deserialization defaults anything missing instead of erroring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Schema version of the serialized form (see
    /// [`CACHE_STATS_VERSION`]); records without the field read as 1.
    pub version: u32,
    /// Host-audio derivations served from the cache.
    pub host_hits: usize,
    /// Host-audio derivations computed (then inserted).
    pub host_misses: usize,
    /// Payload syntheses served from the cache.
    pub payload_hits: usize,
    /// Payload syntheses computed (then inserted).
    pub payload_misses: usize,
    /// Physical-tier RF front-end derivations served from the cache.
    pub front_end_hits: usize,
    /// Physical-tier RF front-end derivations computed (then inserted).
    pub front_end_misses: usize,
    /// [`SweepCache::derive`] lookups served from the memo (a lookup
    /// that waited for another thread's computation counts here).
    pub derived_hits: usize,
    /// [`SweepCache::derive`] computations — one per distinct key.
    pub derived_misses: usize,
}

impl Default for CacheStats {
    fn default() -> Self {
        CacheStats {
            version: CACHE_STATS_VERSION,
            host_hits: 0,
            host_misses: 0,
            payload_hits: 0,
            payload_misses: 0,
            front_end_hits: 0,
            front_end_misses: 0,
            derived_hits: 0,
            derived_misses: 0,
        }
    }
}

impl CacheStats {
    /// Total lookups served from the cache.
    pub fn hits(&self) -> usize {
        self.host_hits + self.payload_hits + self.front_end_hits + self.derived_hits
    }

    /// Total lookups that had to compute.
    pub fn misses(&self) -> usize {
        self.host_misses + self.payload_misses + self.front_end_misses + self.derived_misses
    }
}

impl Serialize for CacheStats {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("version".into(), Value::U64(u64::from(self.version))),
            ("host_hits".into(), Value::U64(self.host_hits as u64)),
            ("host_misses".into(), Value::U64(self.host_misses as u64)),
            ("payload_hits".into(), Value::U64(self.payload_hits as u64)),
            (
                "payload_misses".into(),
                Value::U64(self.payload_misses as u64),
            ),
            (
                "front_end_hits".into(),
                Value::U64(self.front_end_hits as u64),
            ),
            (
                "front_end_misses".into(),
                Value::U64(self.front_end_misses as u64),
            ),
            ("derived_hits".into(), Value::U64(self.derived_hits as u64)),
            (
                "derived_misses".into(),
                Value::U64(self.derived_misses as u64),
            ),
        ])
    }
}

impl Deserialize for CacheStats {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        // Absent fields default rather than error so records of earlier
        // versions (committed before the front-end or derived counters
        // were serialized) stay parseable.
        fn field<T: Deserialize + Default>(v: &Value, name: &str) -> Result<T, serde::Error> {
            match v.get_field(name) {
                Ok(f) => T::from_value(f),
                Err(_) => Ok(T::default()),
            }
        }
        Ok(CacheStats {
            version: match v.get_field("version") {
                Ok(f) => u32::from_value(f)?,
                Err(_) => 1,
            },
            host_hits: field(v, "host_hits")?,
            host_misses: field(v, "host_misses")?,
            payload_hits: field(v, "payload_hits")?,
            payload_misses: field(v, "payload_misses")?,
            front_end_hits: field(v, "front_end_hits")?,
            front_end_misses: field(v, "front_end_misses")?,
            derived_hits: field(v, "derived_hits")?,
            derived_misses: field(v, "derived_misses")?,
        })
    }
}

/// A cached `(mono, L−R)` host-audio derivation.
type HostAudio = Arc<(Vec<f64>, Vec<f64>)>;

/// One derivation kind's memo: each key owns a cell that the first
/// caller fills while later callers wait on it, so a key is computed
/// exactly once even when workers ask for it at the same time.
type DerivedMap<K, V> = HashMap<K, Arc<OnceLock<V>>>;

/// The [`SweepCache::derive`] store: one [`DerivedMap`] per
/// `(key, value)` type pair, type-erased because the derivations belong
/// to crates this one cannot name.
#[derive(Default)]
struct DerivedStore(HashMap<TypeId, Box<dyn Any + Send + Sync>>);

impl std::fmt::Debug for DerivedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DerivedStore({} kinds)", self.0.len())
    }
}

/// A sweep-scoped content-addressed cache (see the module docs).
#[derive(Debug, Default)]
pub struct SweepCache {
    host: Mutex<HashMap<HostKey, HostAudio>>,
    // Keyed by (workload derivation inputs, sample-rate bits).
    payload: Mutex<HashMap<(PayloadKey, u64), Arc<SynthesisedPayload>>>,
    // The physical tier's scenario-invariant RF front end.
    front_end: Mutex<HashMap<FrontEndKey, RfFrontEnd>>,
    // IQ samples currently retained by `front_end` (mutated only under
    // its lock; atomic so `stats` can read without locking).
    front_end_samples: AtomicUsize,
    host_hits: AtomicUsize,
    host_misses: AtomicUsize,
    payload_hits: AtomicUsize,
    payload_misses: AtomicUsize,
    front_end_hits: AtomicUsize,
    front_end_misses: AtomicUsize,
    derived: Mutex<DerivedStore>,
    derived_hits: AtomicUsize,
    derived_misses: AtomicUsize,
}

impl SweepCache {
    /// Creates an empty cache behind the `Arc` the sweep workers share.
    pub fn new() -> Arc<Self> {
        Arc::new(SweepCache::default())
    }

    /// Snapshot of the hit/miss counters (all derivation kinds,
    /// physical front end included).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            version: CACHE_STATS_VERSION,
            host_hits: self.host_hits.load(Ordering::Relaxed),
            host_misses: self.host_misses.load(Ordering::Relaxed),
            payload_hits: self.payload_hits.load(Ordering::Relaxed),
            payload_misses: self.payload_misses.load(Ordering::Relaxed),
            front_end_hits: self.front_end_hits.load(Ordering::Relaxed),
            front_end_misses: self.front_end_misses.load(Ordering::Relaxed),
            derived_hits: self.derived_hits.load(Ordering::Relaxed),
            derived_misses: self.derived_misses.load(Ordering::Relaxed),
        }
    }

    /// A pure derivation, memoised behind `key`. `key` must hold every
    /// input of `compute` (`f64`s by bit pattern, as the keys above);
    /// its type names the derivation kind, so kinds never share
    /// entries. The first caller of a key runs `compute` outside the
    /// store's lock; callers of the same key on other threads wait for
    /// that value instead of computing it again.
    pub fn derive<K, V>(&self, key: K, compute: impl FnOnce() -> V) -> V
    where
        K: Hash + Eq + Send + Sync + 'static,
        V: Clone + Send + Sync + 'static,
    {
        let cell = {
            let mut store = locked(&self.derived);
            let map = store
                .0
                .entry(TypeId::of::<DerivedMap<K, V>>())
                .or_insert_with(|| Box::new(DerivedMap::<K, V>::new()))
                .downcast_mut::<DerivedMap<K, V>>()
                .expect("each derived map is stored under its own type");
            map.entry(key).or_default().clone()
        };
        let mut computed = false;
        let value = cell
            .get_or_init(|| {
                computed = true;
                compute()
            })
            .clone();
        if computed {
            self.derived_misses.fetch_add(1, Ordering::Relaxed);
            fmbs_obs::counter!("cache.derived_misses");
        } else {
            self.derived_hits.fetch_add(1, Ordering::Relaxed);
            fmbs_obs::counter!("cache.derived_hits");
        }
        value
    }

    /// The [`Scenario::host_audio`] derivation, memoised.
    pub fn host_audio(&self, s: &Scenario, rate: f64, n: usize) -> (Vec<f64>, Vec<f64>) {
        let key = HostKey {
            program_seed: s.program_seed,
            program: s.program,
            n,
            rate_bits: rate.to_bits(),
        };
        if let Some(hit) = locked(&self.host).get(&key).cloned() {
            self.host_hits.fetch_add(1, Ordering::Relaxed);
            fmbs_obs::counter!("cache.host_hits");
            return (*hit).clone();
        }
        // Compute outside the lock; a racing duplicate insert stores the
        // identical (deterministic) value, so last-write-wins is fine.
        self.host_misses.fetch_add(1, Ordering::Relaxed);
        fmbs_obs::counter!("cache.host_misses");
        let computed = s.host_audio_uncached(rate, n);
        locked(&self.host).insert(key, Arc::new(computed.clone()));
        computed
    }

    /// The physical tier's RF front end (host modulator output + un-scaled
    /// tag backscatter product), memoised behind every derivation input:
    /// the host-audio key, the payload key, both sample rates and
    /// `f_back`. `compute` runs outside the lock; a racing duplicate
    /// insert stores the identical (deterministic) value.
    pub fn physical_front_end(
        &self,
        scenario: &Scenario,
        n: usize,
        tag_rate: f64,
        iq_rate: f64,
        compute: impl FnOnce() -> (Vec<Complex>, Vec<Complex>),
    ) -> RfFrontEnd {
        let key = FrontEndKey {
            program_seed: scenario.program_seed,
            program: scenario.program,
            payload: PayloadKey::new(&scenario.workload),
            n,
            tag_rate_bits: tag_rate.to_bits(),
            iq_rate_bits: iq_rate.to_bits(),
            f_back_bits: scenario.f_back_hz.to_bits(),
            stereo_band: scenario.workload.stereo_band(),
        };
        if let Some(hit) = locked(&self.front_end).get(&key).cloned() {
            self.front_end_hits.fetch_add(1, Ordering::Relaxed);
            fmbs_obs::counter!("cache.front_end_hits");
            return hit;
        }
        self.front_end_misses.fetch_add(1, Ordering::Relaxed);
        fmbs_obs::counter!("cache.front_end_misses");
        let computed = Arc::new(compute());
        // Retain the entry only while the sample budget holds
        // ([`FRONT_END_MAX_SAMPLES`]); the computed value is returned
        // either way, so the cap never changes results.
        let samples = computed.0.len() + computed.1.len();
        let mut map = locked(&self.front_end);
        if self.front_end_samples.load(Ordering::Relaxed) + samples <= FRONT_END_MAX_SAMPLES
            && map.insert(key, computed.clone()).is_none()
        {
            self.front_end_samples.fetch_add(samples, Ordering::Relaxed);
        }
        computed
    }

    /// The [`Workload::synthesise`] derivation, memoised.
    pub fn payload(&self, w: &Workload, rate: f64) -> SynthesisedPayload {
        let key = (PayloadKey::new(w), rate.to_bits());
        if let Some(hit) = locked(&self.payload).get(&key).cloned() {
            self.payload_hits.fetch_add(1, Ordering::Relaxed);
            fmbs_obs::counter!("cache.payload_hits");
            return (*hit).clone();
        }
        // Compute outside the lock; a racing duplicate insert stores the
        // identical (deterministic) value, so last-write-wins is fine.
        self.payload_misses.fetch_add(1, Ordering::Relaxed);
        fmbs_obs::counter!("cache.payload_misses");
        let computed = w.synthesise_uncached(rate);
        locked(&self.payload).insert(key, Arc::new(computed.clone()));
        computed
    }
}

/// Locks one of the cache's maps.
fn locked<T>(map: &Mutex<T>) -> MutexGuard<'_, T> {
    map.lock()
        .expect("a sweep worker panicked while holding a cache lock")
}

thread_local! {
    static ACTIVE: RefCell<Option<Arc<SweepCache>>> = const { RefCell::new(None) };
}

/// The cache installed on this thread, if any.
pub fn active() -> Option<Arc<SweepCache>> {
    ACTIVE.with(|a| a.borrow().clone())
}

/// `compute`, memoised in this thread's active cache under `key` (see
/// [`SweepCache::derive`]); with no cache installed it simply runs.
pub fn derive<K, V>(key: K, compute: impl FnOnce() -> V) -> V
where
    K: Hash + Eq + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    match active() {
        Some(cache) => cache.derive(key, compute),
        None => compute(),
    }
}

/// Installs `cache` as this thread's active cache until the returned
/// guard drops (restoring whatever was active before — nested sweeps
/// each see their own cache).
pub fn install(cache: Option<Arc<SweepCache>>) -> ActiveCacheGuard {
    let prev = ACTIVE.with(|a| a.replace(cache));
    ActiveCacheGuard { prev }
}

/// Restores the previously active cache on drop (see [`install`]).
pub struct ActiveCacheGuard {
    prev: Option<Arc<SweepCache>>,
}

impl Drop for ActiveCacheGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        ACTIVE.with(|a| *a.borrow_mut() = prev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[derive(Debug, PartialEq, Eq, Hash)]
    struct KeyA(u64);
    #[derive(Debug, PartialEq, Eq, Hash)]
    struct KeyB(u64);

    #[test]
    fn derive_computes_each_key_once_and_keeps_kinds_apart() {
        let cache = SweepCache::new();
        let runs = AtomicUsize::new(0);
        let square = |x: u64| {
            runs.fetch_add(1, Ordering::Relaxed);
            x * x
        };
        assert_eq!(cache.derive(KeyA(3), || square(3)), 9);
        assert_eq!(cache.derive(KeyA(3), || square(3)), 9);
        assert_eq!(cache.derive(KeyA(4), || square(4)), 16);
        // Same key value, different kind: its own entry.
        assert_eq!(cache.derive(KeyB(3), || square(3) + 1), 10);
        assert_eq!(runs.load(Ordering::Relaxed), 3);
        let stats = cache.stats();
        assert_eq!((stats.derived_hits, stats.derived_misses), (1, 3));
        assert_eq!(stats.hits(), 1);
        assert_eq!(stats.misses(), 3);
    }

    // Workers asking for a key while its first caller is still
    // computing it: they wait for that value and count as hits, so
    // misses equal distinct keys under any schedule. The computation
    // holds until every other worker is about to ask.
    #[test]
    fn concurrent_derive_of_one_key_computes_once() {
        let cache = SweepCache::new();
        let runs = AtomicUsize::new(0);
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (asking_tx, asking_rx) = std::sync::mpsc::channel();
        let values = std::thread::scope(|scope| {
            let (cache, runs) = (&cache, &runs);
            let first = scope.spawn(move || {
                cache.derive(KeyA(7), || {
                    runs.fetch_add(1, Ordering::Relaxed);
                    started_tx.send(()).expect("test thread listening");
                    for _ in 0..3 {
                        asking_rx.recv().expect("every waiter announces itself");
                    }
                    49u64
                })
            });
            started_rx.recv().expect("first caller computes");
            let waiters: Vec<_> = (0..3)
                .map(|_| {
                    let asking_tx = asking_tx.clone();
                    scope.spawn(move || {
                        asking_tx.send(()).expect("computation listening");
                        cache.derive(KeyA(7), || -> u64 { panic!("key computed twice") })
                    })
                })
                .collect();
            std::iter::once(first)
                .chain(waiters)
                .map(|h| h.join().expect("worker finished"))
                .collect::<Vec<_>>()
        });
        assert_eq!(values, [49; 4]);
        assert_eq!(runs.load(Ordering::Relaxed), 1);
        let stats = cache.stats();
        assert_eq!((stats.derived_hits, stats.derived_misses), (3, 1));
    }

    #[test]
    fn module_derive_memoises_only_under_an_installed_cache() {
        let runs = AtomicUsize::new(0);
        let run = || {
            derive(KeyA(1), || runs.fetch_add(1, Ordering::Relaxed));
        };
        run();
        run();
        assert_eq!(
            runs.load(Ordering::Relaxed),
            2,
            "no cache: every call computes"
        );
        let cache = SweepCache::new();
        let _guard = install(Some(cache.clone()));
        run();
        run();
        assert_eq!(runs.load(Ordering::Relaxed), 3);
        assert_eq!(cache.stats().derived_misses, 1);
    }

    #[test]
    fn version_2_records_parse_with_zero_derived_counters() {
        let v2 = serde_json::from_str::<Value>(concat!(
            r#"{"version":2,"host_hits":4,"host_misses":1,"payload_hits":4,"#,
            r#""payload_misses":1,"front_end_hits":2,"front_end_misses":1}"#,
        ))
        .unwrap();
        let stats = CacheStats::from_value(&v2).unwrap();
        assert_eq!(stats.version, 2);
        assert_eq!(stats.front_end_hits, 2);
        assert_eq!((stats.derived_hits, stats.derived_misses), (0, 0));
        let current = CacheStats {
            derived_hits: 5,
            derived_misses: 2,
            ..CacheStats::default()
        };
        assert_eq!(
            CacheStats::from_value(&current.to_value()).unwrap(),
            current
        );
        assert_eq!(current.version, CACHE_STATS_VERSION);
    }
}
