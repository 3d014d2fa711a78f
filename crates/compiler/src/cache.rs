//! The shared compiled-artifact cache: a thread-safe, capacity-bounded
//! memo of [`compile`] results keyed on exactly the fields compilation
//! depends on — plus the *layer tier* beneath it, a sibling memo of
//! per-layer evaluation results ([`LayerArtifactCache`]).
//!
//! Compilation — the buffer-constrained tile-size search plus block
//! emission — dominates the cost of every evaluation path (a single
//! `report` spends most of its time here, and a design-space sweep
//! re-visits the same geometry at every bandwidth point). The paper's
//! toolchain reflects the same split: the Fusion-ISA binary is produced
//! once per (network, accelerator organization) and then evaluated many
//! times (§IV–V of Sharma et al., ISCA 2018). This module makes that
//! compile-once artifact a first-class, shared object:
//!
//! * **key** — [`ArtifactKey`] captures `(model, batch, geometry,
//!   buffers)`: the model identity (name plus a structural fingerprint, so
//!   a mutated model under a reused name cannot alias a stale plan), the
//!   batch size, and the compile-relevant [`ArchConfig`] fields. Off-chip
//!   bandwidth and clock frequency are deliberately **excluded** — tiling
//!   never depends on them, which is what lets a whole bandwidth axis
//!   share one compilation;
//! * **storage** — [`ArtifactCache`] holds `Arc`-shared compile results
//!   (including failures, so an infeasible corner is not re-searched)
//!   behind a mutex, with least-recently-used eviction at a fixed
//!   capacity;
//! * **stats** — [`CacheStats`] exposes hits/misses/evictions so callers
//!   (the session facade, the DSE engine) can report cache effectiveness.
//!
//! Failed compilations are cached too, but an eviction pass prefers
//! evicting failures first: they are cheap to reproduce relative to a
//! successful plan's tile search.
//!
//! The layer tier sits *below* the model tier: once a plan is resolved
//! (from the model tier or a fresh compilation), each of its layers can be
//! evaluated at most once per ([`layer_fingerprint`], batch, geometry,
//! bandwidth, evaluation context) — [`LayerKey`] — however many requests,
//! sweep points, or models share that layer. Networks built from
//! repeated blocks (ResNet-18's basic blocks, VGG's conv stacks) collapse
//! dramatically under this key; see `DESIGN.md`, "Two-tier compile/sim
//! cache".

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::{Arc, Mutex};

use bitfusion_core::arch::ArchConfig;
use bitfusion_dnn::model::Model;

use crate::error::CompileError;
use crate::plan::{compile, ExecutionPlan, PlannedLayer};

/// A cached compile result: the plan, or the error the compiler produced.
pub type CachedPlan = Arc<Result<ExecutionPlan, CompileError>>;

/// The identity of one compiled artifact: every input [`compile`] actually
/// reads, and nothing else.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ArtifactKey {
    /// Model name.
    pub model: String,
    /// Structural fingerprint of the model (layer topology, shapes,
    /// precisions), guarding against two different models sharing a name.
    pub fingerprint: u64,
    /// Batch size compiled for.
    pub batch: u64,
    /// Array rows.
    pub rows: usize,
    /// Array columns.
    pub cols: usize,
    /// Input-buffer capacity in bytes.
    pub ibuf_bytes: usize,
    /// Weight-buffer capacity in bytes.
    pub wbuf_bytes: usize,
    /// Output-buffer capacity in bytes.
    pub obuf_bytes: usize,
    /// Bits per SRAM data-array access.
    pub buffer_access_bits: u32,
}

impl ArtifactKey {
    /// Builds the key for compiling `model` at `batch` onto `arch`.
    pub fn of(model: &Model, arch: &ArchConfig, batch: u64) -> Self {
        ArtifactKey::with_fingerprint(&model.name, fingerprint(model), arch, batch)
    }

    /// Builds the key from a precomputed [`fingerprint`] — for callers
    /// (like the DSE engine) that key many architectures against the same
    /// model and hash it once, not once per geometry.
    pub fn with_fingerprint(
        model: &str,
        fingerprint: u64,
        arch: &ArchConfig,
        batch: u64,
    ) -> Self {
        ArtifactKey {
            model: model.to_string(),
            fingerprint,
            batch,
            rows: arch.rows,
            cols: arch.cols,
            ibuf_bytes: arch.ibuf_bytes,
            wbuf_bytes: arch.wbuf_bytes,
            obuf_bytes: arch.obuf_bytes,
            buffer_access_bits: arch.buffer_access_bits,
        }
    }
}

/// FNV-1a as a [`Hasher`]: the one hash behind every cache key in the
/// workspace (see [`fnv1a`]). Byte strings fold one byte per step, as
/// FNV-1a specifies; integers — nearly everything a derived `Hash` writes
/// — fold one whole word per step, rotated so high bits reach the next
/// multiply.
///
/// Through [`FnvBuildHasher`] it also hashes in-process tables whose keys
/// are already fingerprints or small integer structs, where std's seeded
/// SipHash costs more than the lookups it guards.
pub struct Fnv1a(u64);

/// Builds [`Fnv1a`] hashers: `HashMap<K, V, FnvBuildHasher>` is an unseeded
/// FNV-1a map (`HashMap::default()` constructs one).
pub type FnvBuildHasher = BuildHasherDefault<Fnv1a>;

const FNV_PRIME: u64 = 0x1000_0000_01b3;

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// One FNV-1a step over a whole word. A multiply carries each bit of
    /// the word only upward, so the rotation brings the high bits down
    /// where the next step's multiply spreads them again; without it, two
    /// words that both differ only in bit 63 would cancel. Every step is
    /// a bijection of the state, so two inputs written alike but for one
    /// word never collide.
    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(FNV_PRIME).rotate_left(29);
    }
}

impl Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.word(n.into());
    }

    fn write_u16(&mut self, n: u16) {
        self.word(n.into());
    }

    fn write_u32(&mut self, n: u32) {
        self.word(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        self.word(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.word(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Hashes `value`'s derived [`Hash`] with FNV-1a. Unlike `DefaultHasher`,
/// FNV-1a is unseeded and fully specified, and it needs no dependency.
/// The values never leave the process, so the native-endian writes of
/// derived `Hash` impls need no fixed byte layout.
pub fn fnv1a<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = Fnv1a::default();
    value.hash(&mut h);
    h.finish()
}

/// FNV-1a over the model's derived `Hash`: the model name and every
/// layer's name, shape and precisions, so any structural edit changes the
/// fingerprint. Every field is an integer, bool, string or enum, so the
/// hash is exact structure with no float rounding. It costs ~0.02–0.9 µs
/// (LSTM to ResNet-18, release build; the layer names are hashed byte by
/// byte), against a ~8–70 µs whole-plan compile at batch 16.
pub fn fingerprint(model: &Model) -> u64 {
    fnv1a(model)
}

/// FNV-1a over one planned layer's evaluation-relevant structure, through
/// its derived `Hash`: the GEMM view (shape and `PairPrecision`), the
/// chosen tiling, the fused post-ops (a fused residual stream's extra
/// input bits land here), and the mapping facts.
///
/// The layer's *name* and its position in the plan are excluded on
/// purpose: two identically shaped groups at different depths share a
/// fingerprint, which is what lets the layer tier collapse ResNet-style
/// repeated blocks. The instruction block is excluded too — it is a
/// deterministic function of the covered fields plus the geometry already
/// present in [`LayerKey`] (its only position-dependent field, the
/// next-block link, never affects traffic or timing). The hash costs
/// ~30 ns (zoo mean, release build), against a ~2–3 µs evaluation.
pub fn layer_fingerprint(layer: &PlannedLayer) -> u64 {
    fnv1a(&(&layer.gemm, &layer.tile_plan, &layer.postops, &layer.mapping))
}

/// Snapshot of a cache's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that required a fresh compilation.
    pub misses: u64,
    /// Entries evicted to stay within capacity.
    pub evictions: u64,
    /// Entries currently resident.
    pub len: usize,
    /// Maximum resident entries.
    pub capacity: usize,
}

impl CacheStats {
    /// Hit rate over all lookups so far, or `None` for a cache that has
    /// never been looked up — so an untouched cache reads as "n/a", not as
    /// a suspicious 0%. The sum saturates: pathological counter values can
    /// never overflow the total.
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits.saturating_add(self.misses);
        if total == 0 {
            None
        } else {
            Some(self.hits as f64 / total as f64)
        }
    }
}

struct Entry {
    plan: CachedPlan,
    last_used: u64,
}

struct Inner {
    map: HashMap<ArtifactKey, Entry>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A thread-safe, capacity-bounded, least-recently-used cache of compiled
/// execution plans.
///
/// # Examples
///
/// ```
/// use bitfusion_compiler::cache::ArtifactCache;
/// use bitfusion_core::arch::ArchConfig;
/// use bitfusion_dnn::zoo::Benchmark;
///
/// let cache = ArtifactCache::new(8);
/// let arch = ArchConfig::isca_45nm();
/// let model = Benchmark::Rnn.model();
/// let cold = cache.get_or_compile(&model, &arch, 16);
/// let warm = cache.get_or_compile(&model, &arch, 16);
/// assert!(std::sync::Arc::ptr_eq(&cold, &warm));
/// assert_eq!(cache.stats().hits, 1);
/// assert_eq!(cache.stats().misses, 1);
/// ```
pub struct ArtifactCache {
    inner: Mutex<Inner>,
    capacity: usize,
}

/// Default capacity: comfortably holds the whole zoo at several batch
/// sizes and a modest geometry grid without unbounded growth.
pub const DEFAULT_CACHE_CAPACITY: usize = 128;

impl Default for ArtifactCache {
    fn default() -> Self {
        ArtifactCache::new(DEFAULT_CACHE_CAPACITY)
    }
}

impl std::fmt::Debug for ArtifactCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("ArtifactCache")
            .field("len", &s.len)
            .field("capacity", &s.capacity)
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .field("evictions", &s.evictions)
            .finish()
    }
}

impl ArtifactCache {
    /// Creates a cache holding at most `capacity` compiled plans
    /// (`capacity` is clamped to at least 1).
    pub fn new(capacity: usize) -> Self {
        ArtifactCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
            capacity: capacity.max(1),
        }
    }

    /// Looks `key` up, counting a hit or miss and refreshing recency on a
    /// hit.
    pub fn lookup(&self, key: &ArtifactKey) -> Option<CachedPlan> {
        let mut inner = self.inner.lock().expect("artifact cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(key) {
            Some(entry) => {
                entry.last_used = tick;
                let plan = entry.plan.clone();
                inner.hits += 1;
                Some(plan)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Whether `key` is resident, without touching counters or recency.
    pub fn contains(&self, key: &ArtifactKey) -> bool {
        self.inner
            .lock()
            .expect("artifact cache poisoned")
            .map
            .contains_key(key)
    }

    /// Inserts a compile result, evicting the least-recently-used entry
    /// when full (failed plans are evicted before successful ones — they
    /// are cheap to reproduce).
    pub fn insert(&self, key: ArtifactKey, plan: CachedPlan) {
        let mut inner = self.inner.lock().expect("artifact cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        if !inner.map.contains_key(&key) && inner.map.len() >= self.capacity {
            let victim = inner
                .map
                .iter()
                .min_by_key(|(_, e)| (e.plan.is_ok(), e.last_used))
                .map(|(k, _)| k.clone());
            if let Some(victim) = victim {
                inner.map.remove(&victim);
                inner.evictions += 1;
            }
        }
        inner.map.insert(
            key,
            Entry {
                plan,
                last_used: tick,
            },
        );
    }

    /// Returns the cached plan for `(model, arch, batch)`, compiling and
    /// inserting it on a miss.
    ///
    /// The compilation itself runs *outside* the cache lock, so concurrent
    /// misses on different keys compile in parallel. Two threads racing on
    /// the same cold key may both compile it; the plans are identical
    /// (compilation is deterministic), the last insert wins, and the
    /// duplicated work is bounded by one compilation.
    pub fn get_or_compile(&self, model: &Model, arch: &ArchConfig, batch: u64) -> CachedPlan {
        let key = ArtifactKey::of(model, arch, batch);
        if let Some(plan) = self.lookup(&key) {
            return plan;
        }
        let plan: CachedPlan = Arc::new(compile(model, arch, batch));
        self.insert(key, plan.clone());
        plan
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("artifact cache poisoned");
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            len: inner.map.len(),
            capacity: self.capacity,
        }
    }
}

/// The identity of one memoized layer evaluation in the layer tier: the
/// layer's structural [`layer_fingerprint`] (covering shape,
/// `PairPrecision`, tiling, and fused post-ops), the batch it was planned
/// at, the compile-relevant [`ArchConfig`] geometry (the same field set as
/// [`ArtifactKey`]), plus the off-chip bandwidth — unlike *compilation*,
/// *evaluation* depends on it — and an opaque caller-supplied `context`
/// discriminant folding in whatever else the evaluation reads (backend
/// identity, calibration knobs). Clock frequency stays excluded: cached
/// results live in the cycle domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LayerKey {
    /// Structural layer fingerprint ([`layer_fingerprint`]).
    pub fingerprint: u64,
    /// Batch size the layer was planned at.
    pub batch: u64,
    /// Array rows.
    pub rows: usize,
    /// Array columns.
    pub cols: usize,
    /// Input-buffer capacity in bytes.
    pub ibuf_bytes: usize,
    /// Weight-buffer capacity in bytes.
    pub wbuf_bytes: usize,
    /// Output-buffer capacity in bytes.
    pub obuf_bytes: usize,
    /// Bits per SRAM data-array access.
    pub buffer_access_bits: u32,
    /// Off-chip bandwidth in bits/cycle (an evaluation input, though not a
    /// compilation input).
    pub dram_bits_per_cycle: u32,
    /// Discriminant for evaluation inputs the key cannot cover
    /// structurally (backend identity, calibration options).
    pub context: u64,
}

impl LayerKey {
    /// Builds the key for evaluating a layer with `fingerprint` at `batch`
    /// on `arch` under `context`.
    pub fn of(fingerprint: u64, arch: &ArchConfig, batch: u64, context: u64) -> Self {
        LayerKey {
            fingerprint,
            batch,
            rows: arch.rows,
            cols: arch.cols,
            ibuf_bytes: arch.ibuf_bytes,
            wbuf_bytes: arch.wbuf_bytes,
            obuf_bytes: arch.obuf_bytes,
            buffer_access_bits: arch.buffer_access_bits,
            dram_bits_per_cycle: arch.dram_bits_per_cycle,
            context,
        }
    }
}

/// Default layer-tier capacity. The tier is filled by the `report`,
/// `compare` and `sweep` paths (design-space exploration deduplicates
/// layers per run instead), where every plan brings one key per layer
/// and a sweep one more per swept value. Per-layer precisions, batches
/// and bandwidths vary per request, so keys rarely repeat, and the
/// capacity sits at the knee of the measured hit-rate curve: on the repo
/// benchmark's `serve_unique` stream (traced replay, seeds 1 and 3) the
/// layer hit rate reads 0.21/0.20 at 1 792 entries, 0.27/0.30 at 3 584
/// and 0.30/0.32 at 7 168, where it stops rising, for a serving peak
/// RSS of 6.2, 7.0–7.3 and 9.1–9.2 MB. Each entry holds two
/// table slots (see [`LayerArtifactCache::new`]) of 224 bytes, key and
/// `LayerPerf` value. `DESIGN.md`, "Two-tier compile/sim cache", has the
/// whole curve.
pub const DEFAULT_LAYER_CACHE_CAPACITY: usize = 3_584;

struct LayerEntry<V> {
    value: V,
    last_used: u64,
}

struct LayerInner<V> {
    map: HashMap<LayerKey, LayerEntry<V>>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// The layer tier of the two-tier cache: a thread-safe, capacity-bounded,
/// least-recently-used memo of per-layer evaluation results, sibling to
/// the model-level [`ArtifactCache`].
///
/// Generic over the cached value so this crate does not depend on the
/// simulator's result types — `bitfusion-sim` instantiates it with its
/// `LayerPerf` (as `LayerPerfCache`). Lookup and insert mirror
/// [`ArtifactCache`]: counters on every lookup, recency refreshed on hits,
/// LRU eviction at capacity (there is no cheap-to-reproduce failure class
/// here — evaluation is total — so eviction is recency only). Unlike the
/// 128-plan model tier, this tier is large enough that scanning it for one
/// victim on every full insert would dominate a serving workload, so
/// eviction works in batches (see [`LayerArtifactCache::insert`]).
pub struct LayerArtifactCache<V> {
    inner: Mutex<LayerInner<V>>,
    capacity: usize,
}

impl<V> Default for LayerArtifactCache<V> {
    fn default() -> Self {
        LayerArtifactCache::new(DEFAULT_LAYER_CACHE_CAPACITY)
    }
}

impl<V> std::fmt::Debug for LayerArtifactCache<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("LayerArtifactCache")
            .field("len", &s.len)
            .field("capacity", &s.capacity)
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .field("evictions", &s.evictions)
            .finish()
    }
}

impl<V> LayerArtifactCache<V> {
    /// Creates a layer cache holding at most `capacity` evaluation results
    /// (`capacity` is clamped to at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        LayerArtifactCache {
            inner: Mutex::new(LayerInner {
                // Room for twice the entries, so the table never grows:
                // `HashMap` reclaims the slots `retain` frees by rehashing
                // in place only while it is at most half full, and grows
                // to a second table (both live while it moves) otherwise.
                // The slots are allocated but only touched as they fill.
                map: HashMap::with_capacity(2 * capacity),
                tick: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
            capacity,
        }
    }

    /// Whether `key` is resident, without touching counters or recency.
    pub fn contains(&self, key: &LayerKey) -> bool {
        self.inner
            .lock()
            .expect("layer cache poisoned")
            .map
            .contains_key(key)
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("layer cache poisoned");
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            len: inner.map.len(),
            capacity: self.capacity,
        }
    }
}

impl<V: Clone> LayerArtifactCache<V> {
    /// Looks `key` up, counting a hit or miss, and refreshing recency on a
    /// hit.
    pub fn lookup(&self, key: &LayerKey) -> Option<V> {
        let mut inner = self.inner.lock().expect("layer cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(key) {
            Some(entry) => {
                entry.last_used = tick;
                let value = entry.value.clone();
                inner.hits += 1;
                Some(value)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Inserts an evaluation result after a [`lookup`](Self::lookup) of
    /// `key` missed. A full cache first evicts its least-recently-used
    /// eighth, so the scan for the oldest entries runs once per
    /// `capacity / 8` inserts rather than on every one.
    ///
    /// Two threads can both miss `key` while it is being evaluated (two
    /// serve connections evaluating the same layer do). When the second insert finds the entry
    /// already there, its lookup is recounted as the hit it would have
    /// been one evaluation later, so `misses` counts the entries created
    /// and the counters do not depend on thread timing.
    pub fn insert(&self, key: LayerKey, value: V) {
        let mut inner = self.inner.lock().expect("layer cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        if inner.map.contains_key(&key) {
            inner.misses = inner.misses.saturating_sub(1);
            inner.hits += 1;
        } else if inner.map.len() >= self.capacity {
            // Ticks are unique, so exactly the `batch` oldest entries
            // fall at or below the cutoff.
            let batch = (self.capacity / 8).max(1);
            let mut ticks: Vec<u64> = inner.map.values().map(|e| e.last_used).collect();
            let cutoff = *ticks.select_nth_unstable(batch - 1).1;
            inner.map.retain(|_, e| e.last_used > cutoff);
            inner.evictions += batch as u64;
        }
        inner.map.insert(
            key,
            LayerEntry {
                value,
                last_used: tick,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitfusion_dnn::zoo::Benchmark;

    fn key(tag: u64) -> ArtifactKey {
        ArtifactKey {
            model: format!("m{tag}"),
            fingerprint: tag,
            batch: 1,
            rows: 32,
            cols: 16,
            ibuf_bytes: 1,
            wbuf_bytes: 1,
            obuf_bytes: 1,
            buffer_access_bits: 32,
        }
    }

    fn ok_plan() -> CachedPlan {
        let arch = ArchConfig::isca_45nm();
        Arc::new(compile(&Benchmark::Rnn.model(), &arch, 1))
    }

    #[test]
    fn capacity_bound_evicts_lru() {
        let cache = ArtifactCache::new(2);
        let plan = ok_plan();
        cache.insert(key(1), plan.clone());
        cache.insert(key(2), plan.clone());
        // Touch key 1 so key 2 is the least recently used.
        assert!(cache.lookup(&key(1)).is_some());
        cache.insert(key(3), plan.clone());
        let stats = cache.stats();
        assert_eq!(stats.len, 2);
        assert_eq!(stats.evictions, 1);
        assert!(cache.contains(&key(1)), "recently used survives");
        assert!(!cache.contains(&key(2)), "LRU entry evicted");
        assert!(cache.contains(&key(3)));
    }

    #[test]
    fn hit_rate_counts_lookups() {
        let cache = ArtifactCache::new(4);
        let arch = ArchConfig::isca_45nm();
        let model = Benchmark::Lstm.model();
        assert!(cache.get_or_compile(&model, &arch, 4).is_ok());
        for _ in 0..3 {
            assert!(cache.get_or_compile(&model, &arch, 4).is_ok());
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 3);
        assert!((stats.hit_rate().unwrap() - 0.75).abs() < 1e-12);
        assert_eq!(stats.len, 1);
    }

    #[test]
    fn hit_rate_is_none_until_first_lookup_and_never_overflows() {
        // An untouched cache has no rate — not a 0% one.
        assert_eq!(CacheStats::default().hit_rate(), None);
        assert_eq!(ArtifactCache::default().stats().hit_rate(), None);
        // Saturating sum: counters at the u64 ceiling still produce a
        // finite in-range rate instead of overflowing the total.
        let saturated = CacheStats {
            hits: u64::MAX,
            misses: u64::MAX,
            ..CacheStats::default()
        };
        let rate = saturated.hit_rate().unwrap();
        assert!(rate.is_finite() && rate > 0.0 && rate <= 1.0, "{rate}");
    }

    #[test]
    fn bandwidth_and_frequency_share_an_artifact() {
        let cache = ArtifactCache::default();
        let model = Benchmark::Rnn.model();
        let a = cache.get_or_compile(&model, &ArchConfig::isca_45nm(), 16);
        let b = cache.get_or_compile(
            &model,
            &ArchConfig::isca_45nm().with_bandwidth(512).with_frequency(980),
            16,
        );
        assert!(Arc::ptr_eq(&a, &b), "bandwidth/frequency are not key fields");
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn quantizations_of_one_model_never_alias() {
        // The cache-aliasing guard for precision as an axis: two different
        // QuantSpecs applied to the same-named network must produce
        // distinct keys (the fingerprint covers per-layer precisions), so
        // a mixed-precision what-if can never be answered with the paper
        // assignment's plan.
        use bitfusion_dnn::quantspec::QuantSpec;
        let base = Benchmark::Lstm.model();
        let u8m = QuantSpec::parse("uniform8").unwrap().apply(&base).unwrap();
        let u16m = QuantSpec::parse("uniform16").unwrap().apply(&base).unwrap();
        assert_eq!(base.name, u8m.name, "apply keeps the name");
        let arch = ArchConfig::isca_45nm();
        let keys = [
            ArtifactKey::of(&base, &arch, 4),
            ArtifactKey::of(&u8m, &arch, 4),
            ArtifactKey::of(&u16m, &arch, 4),
        ];
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b, "quantizations alias one artifact");
            }
        }
        // And end-to-end: three compilations, three distinct plans.
        let cache = ArtifactCache::default();
        let p0 = cache.get_or_compile(&base, &arch, 4);
        let p1 = cache.get_or_compile(&u8m, &arch, 4);
        let p2 = cache.get_or_compile(&u16m, &arch, 4);
        assert!(!Arc::ptr_eq(&p0, &p1));
        assert!(!Arc::ptr_eq(&p1, &p2));
        assert_eq!(cache.stats().misses, 3);
        assert_eq!(cache.stats().len, 3);
    }

    #[test]
    fn mutated_model_with_same_name_is_a_different_artifact() {
        let cache = ArtifactCache::default();
        let model = Benchmark::Rnn.model();
        let mut mutated = model.clone();
        mutated.layers.pop();
        let arch = ArchConfig::isca_45nm();
        let a = cache.get_or_compile(&model, &arch, 1);
        let b = cache.get_or_compile(&mutated, &arch, 1);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn failed_compiles_are_cached_and_evicted_first() {
        let cache = ArtifactCache::new(2);
        let mut tiny = ArchConfig::isca_45nm();
        tiny.obuf_bytes = 1;
        let model = Benchmark::Svhn.model();
        let failed = cache.get_or_compile(&model, &tiny, 4);
        assert!(failed.is_err());
        // Second lookup of the failure is a hit, not a fresh search.
        assert!(cache.get_or_compile(&model, &tiny, 4).is_err());
        assert_eq!(cache.stats().hits, 1);

        // Fill past capacity: the failure goes before the newest success
        // even though the success is older by recency.
        let plan = ok_plan();
        cache.insert(key(7), plan.clone());
        cache.insert(key(8), plan);
        assert!(!cache.contains(&ArtifactKey::of(&model, &tiny, 4)));
        assert!(cache.contains(&key(7)));
        assert!(cache.contains(&key(8)));
    }

    #[test]
    fn layer_fingerprints_collapse_repeated_blocks_but_not_names() {
        // ResNet-18-style repetition: identically shaped groups at
        // different depths (different names) share a fingerprint, which is
        // the whole point of the layer tier.
        let arch = ArchConfig::isca_45nm();
        let plan = compile(&Benchmark::ResNet18.model(), &arch, 16).unwrap();
        let mut unique = std::collections::HashSet::new();
        for l in &plan.layers {
            unique.insert(layer_fingerprint(l));
        }
        assert!(
            unique.len() < plan.layers.len(),
            "{} unique fingerprints across {} layers: repeated basic \
             blocks must share",
            unique.len(),
            plan.layers.len()
        );
        // But distinct shapes never collide in practice.
        assert!(unique.len() > 1);
    }

    /// FNV-1a over the model's `Debug` string: the reference partition
    /// that [`fingerprint`] must reproduce.
    fn debug_fingerprint(model: &Model) -> u64 {
        debug_fnv1a(&format!("{model:?}"))
    }

    /// The Debug-string layer fingerprint, as [`debug_fingerprint`].
    fn debug_layer_fingerprint(layer: &PlannedLayer) -> u64 {
        debug_fnv1a(&format!(
            "{:?}|{:?}|{:?}|{:?}",
            layer.gemm, layer.tile_plan, layer.postops, layer.mapping
        ))
    }

    fn debug_fnv1a(text: &str) -> u64 {
        let mut h = Fnv1a::default();
        h.write(text.as_bytes());
        h.finish()
    }

    /// Asserts that structural equality, the new key and the Debug key
    /// split `items` (each `(structure, new key, debug key)`) into the same
    /// classes: equal structures get equal keys, and equal keys (of either
    /// kind) come only from equal structures. Returns the class count.
    fn assert_same_classes<T: Eq + Hash + std::fmt::Debug>(items: &[(T, u64, u64)]) -> usize {
        let mut by_structure: HashMap<&T, (u64, u64)> = HashMap::new();
        let mut by_new: HashMap<u64, &T> = HashMap::new();
        let mut by_debug: HashMap<u64, &T> = HashMap::new();
        for (structure, new, debug) in items {
            let keys = *by_structure.entry(structure).or_insert((*new, *debug));
            assert_eq!(keys, (*new, *debug), "equal structures, split keys");
            let first = *by_new.entry(*new).or_insert(structure);
            assert_eq!(first, structure, "structural key collides");
            let first = *by_debug.entry(*debug).or_insert(structure);
            assert_eq!(first, structure, "debug key collides");
        }
        by_structure.len()
    }

    #[test]
    fn structural_keys_split_exactly_like_the_debug_keys() {
        use bitfusion_dnn::quantspec::QuantSpec;
        use bitfusion_dnn::synth::{synthesize, SynthConfig};
        let mut models = Vec::new();
        for b in Benchmark::ALL {
            for quant in ["paper", "uniform8", "uniform16"] {
                models.push(b.model_with(&QuantSpec::parse(quant).unwrap()).unwrap());
            }
        }
        models.extend((0..4).map(|seed| synthesize(SynthConfig::default(), seed)));
        let mut square = ArchConfig::isca_45nm();
        (square.rows, square.cols) = (16, 16);
        let mut wide = ArchConfig::isca_45nm();
        (wide.rows, wide.cols, wide.buffer_access_bits) = (8, 64, 64);
        let mut tiny = ArchConfig::isca_45nm();
        (tiny.ibuf_bytes, tiny.wbuf_bytes, tiny.obuf_bytes) = (1024, 1024, 1024);
        let archs = [ArchConfig::isca_45nm(), square, wide, tiny];
        let mut plans = Vec::new();
        for model in &models {
            for arch in &archs {
                for batch in [1, 16, 256] {
                    plans.extend(compile(model, arch, batch));
                }
            }
        }
        let layers: Vec<_> = plans
            .iter()
            .flat_map(|p| &p.layers)
            .map(|l| {
                let structure = (&l.gemm, &l.tile_plan, &l.postops, &l.mapping);
                (structure, layer_fingerprint(l), debug_layer_fingerprint(l))
            })
            .collect();
        let models: Vec<_> = models
            .iter()
            .map(|m| (m, fingerprint(m), debug_fingerprint(m)))
            .collect();
        let layer_classes = assert_same_classes(&layers);
        let model_classes = assert_same_classes(&models);
        eprintln!(
            "{} models ({model_classes} distinct), {} plans, {} layers \
             ({layer_classes} distinct)",
            models.len(),
            plans.len(),
            layers.len()
        );
        // Some corners fail to compile into 1 KB buffers; most do not.
        assert!(plans.len() >= 250 && layer_classes >= 1500 && model_classes >= 25);
    }

    #[test]
    fn layer_keys_separate_batch_arch_bandwidth_and_context() {
        let arch = ArchConfig::isca_45nm();
        let base = LayerKey::of(7, &arch, 16, 0);
        assert_eq!(base, LayerKey::of(7, &arch, 16, 0));
        assert_ne!(base, LayerKey::of(8, &arch, 16, 0), "fingerprint");
        assert_ne!(base, LayerKey::of(7, &arch, 8, 0), "batch");
        assert_ne!(base, LayerKey::of(7, &arch, 16, 1), "context");
        // Bandwidth is an evaluation input: unlike ArtifactKey, it splits
        // layer keys.
        let wide = arch.clone().with_bandwidth(512);
        assert_ne!(base, LayerKey::of(7, &wide, 16, 0), "bandwidth");
        // Frequency stays excluded: results are cycle-domain.
        let fast = arch.clone().with_frequency(980);
        assert_eq!(base, LayerKey::of(7, &fast, 16, 0), "frequency excluded");
    }

    #[test]
    fn layer_cache_counts_and_evicts_lru() {
        let arch = ArchConfig::isca_45nm();
        let key = |fp: u64| LayerKey::of(fp, &arch, 1, 0);
        let cache: LayerArtifactCache<u64> = LayerArtifactCache::new(2);
        assert_eq!(cache.lookup(&key(1)), None);
        cache.insert(key(1), 10);
        cache.insert(key(2), 20);
        assert_eq!(cache.lookup(&key(1)), Some(10));
        cache.insert(key(3), 30);
        let stats = cache.stats();
        assert_eq!(stats.len, 2);
        assert_eq!(stats.evictions, 1);
        assert!(cache.contains(&key(1)), "recently used survives");
        assert!(!cache.contains(&key(2)), "LRU entry evicted");
        assert!(cache.contains(&key(3)));
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn racing_misses_on_one_key_count_as_one_miss() {
        // Two workers both miss key 1, then both publish it: the counts
        // match the sequential order (one miss, then one hit).
        let key = LayerKey::of(1, &ArchConfig::isca_45nm(), 1, 0);
        let cache: LayerArtifactCache<u64> = LayerArtifactCache::new(4);
        assert_eq!(cache.lookup(&key), None);
        assert_eq!(cache.lookup(&key), None);
        cache.insert(key, 10);
        cache.insert(key, 10);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (1, 1, 1));
    }

    #[test]
    fn full_layer_cache_evicts_its_least_recently_used_eighth() {
        let arch = ArchConfig::isca_45nm();
        let key = |fp: u64| LayerKey::of(fp, &arch, 1, 0);
        let cache: LayerArtifactCache<u64> = LayerArtifactCache::new(16);
        for fp in 0..16 {
            cache.insert(key(fp), fp);
        }
        // Touch the two oldest, so entries 2 and 3 become the oldest pair.
        assert_eq!(cache.lookup(&key(0)), Some(0));
        assert_eq!(cache.lookup(&key(1)), Some(1));
        cache.insert(key(16), 16);
        let stats = cache.stats();
        assert_eq!((stats.len, stats.evictions), (15, 2));
        assert!(!cache.contains(&key(2)) && !cache.contains(&key(3)));
        assert!((0..2).chain(4..17).all(|fp| cache.contains(&key(fp))));
        // Below capacity again: the next insert evicts nothing.
        cache.insert(key(17), 17);
        assert_eq!((cache.stats().len, cache.stats().evictions), (16, 2));
    }

    #[test]
    fn eviction_churn_never_grows_the_layer_table() {
        // `retain` leaves tombstones that `HashMap` only reclaims in place
        // while at most half full; a table sized to the capacity alone
        // grows to a second, double-size table under churn. `capacity()`
        // is the entries plus the free slots, so tombstones lower it and
        // an in-place rehash restores it, but only a new table raises it.
        let arch = ArchConfig::isca_45nm();
        let key = |fp: u64| LayerKey::of(fp, &arch, 1, 0);
        const CAPACITY: u64 = 64;
        let cache: LayerArtifactCache<u64> = LayerArtifactCache::new(CAPACITY as usize);
        let table = || cache.inner.lock().unwrap().map.capacity();
        for fp in 0..CAPACITY {
            cache.insert(key(fp), fp);
        }
        let first = table();
        for fp in CAPACITY..11 * CAPACITY {
            assert_eq!(cache.lookup(&key(fp)), None);
            cache.insert(key(fp), fp);
            assert!(table() <= first, "the table grew at insert {fp}");
        }
        assert_eq!(cache.stats().evictions, 10 * CAPACITY);
    }

    #[test]
    fn concurrent_get_or_compile_is_safe() {
        let cache = ArtifactCache::default();
        let arch = ArchConfig::isca_45nm();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for b in [Benchmark::Rnn, Benchmark::Lstm] {
                        let plan = cache.get_or_compile(&b.model(), &arch, 2);
                        assert!(plan.is_ok());
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.len, 2);
        assert_eq!(stats.hits + stats.misses, 8);
    }
}
