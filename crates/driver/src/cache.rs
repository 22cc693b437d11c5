//! The content-addressed solution cache.
//!
//! Register allocation is a pure function of (function body, machine
//! model, solver configuration), and bench suites are regenerated from
//! seeds — so across runs the service sees the *same* allocation problems
//! over and over. The cache memoizes solved allocations under a canonical
//! content key so repeat runs are warm:
//!
//! * **Key** — FNV-1a over the function-body fingerprint
//!   ([`regalloc_ir::fingerprint`], stable across processes and
//!   print/parse round trips and independent of the function *name*),
//!   chained with the machine-model name and every solver-configuration
//!   field. Change any input and the key changes; rename a function and
//!   it does not.
//! * **Entry** — the full allocated function in canonical text, the spill
//!   slot table the text cannot carry (widths, §5.5 home coalescing), the
//!   spill statistics, model statistics and the degradation-ladder
//!   outcome; guarded by a checksum over the payload.
//! * **Persistence** — one file per entry under the cache directory
//!   (`results/cache/` for the bench harness), written atomically
//!   (temp file + rename) so concurrent workers never expose torn
//!   entries.
//!
//! **A hit is never trusted blindly.** The stored allocation is re-parsed
//! and replayed through [`regalloc_ir::verify_allocated`]; a checksum
//! mismatch, parse failure, malformed field or verification error rejects
//! the entry (counted in [`SolutionCache::rejected`]) and the driver
//! falls through to a fresh solve. A poisoned cache can therefore cost
//! time, never correctness.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use regalloc_core::{ReasonCode, Rung, SpillStats, SymbolicSolution, WarmStartKind};
use regalloc_ilp::SolverConfig;
use regalloc_ir::fingerprint::{fingerprint, fnv1a, FNV_OFFSET};
use regalloc_ir::{
    parse_function, verify_allocated, Function, ShapeVector, SlotId, SlotInfo, Width,
};
use regalloc_machine::TargetId;

/// First line of every cache file; bump the version to invalidate old
/// entries wholesale on a format change. v5 added the target identifier
/// to the key and a `target` payload line; v4 entries fail the magic
/// check and are treated as misses, never as errors.
pub const MAGIC: &str = "regalloc-cache v5";

/// Checksum guarding an entry's payload (everything after the `check`
/// line). Public so tooling and tests can produce well-formed entries.
pub fn checksum(payload: &str) -> u64 {
    fnv1a(FNV_OFFSET, payload.as_bytes())
}

/// The content key for allocating `f` on `target` under `solver`.
///
/// The target identifier is part of the key, so the same function
/// allocated for two targets occupies two distinct entries — a shared
/// cache directory can never serve one target's allocation to another.
///
/// `solver` must be the *configured* base configuration, never one
/// adjusted by the per-function [`BudgetGovernor`] — a governed deadline
/// in the key would fragment the cache across `--budget-secs` settings
/// and across positions in the run order. The deadline actually granted
/// is recorded inside the entry ([`CacheEntry::effective_deadline`])
/// where lookups can judge it instead.
///
/// [`BudgetGovernor`]: crate::schedule::BudgetGovernor
pub fn cache_key(f: &Function, target: TargetId, solver: &SolverConfig) -> u64 {
    let mut h = fingerprint(f);
    h = fnv1a(h, target.name().as_bytes());
    h = fnv1a(h, &solver.time_limit.as_nanos().to_le_bytes());
    h = fnv1a(h, &solver.lp_iter_limit.to_le_bytes());
    h = fnv1a(h, &solver.node_limit.to_le_bytes());
    h = fnv1a(h, &(solver.max_rows as u64).to_le_bytes());
    h
}

/// One cached allocation: everything the driver needs to reproduce a
/// solved function's result without re-running the solver.
#[derive(Clone, Debug, PartialEq)]
pub struct CacheEntry {
    /// The target the allocation was produced for. Recorded in the
    /// payload as well as the key so a damaged or hand-moved file can
    /// never masquerade as another target's entry.
    pub target: TargetId,
    /// Degradation-ladder rung that produced the allocation.
    pub rung: Rung,
    /// Demotion reasons recorded on the way down.
    pub reasons: Vec<ReasonCode>,
    /// Spill accounting of the accepted allocation.
    pub stats: SpillStats,
    /// Constraints in the integer program.
    pub num_constraints: usize,
    /// Decision variables in the integer program.
    pub num_vars: usize,
    /// Intermediate instructions analysed.
    pub num_insts: usize,
    /// Branch-and-bound nodes the original solve used.
    pub solver_nodes: u64,
    /// Simplex iterations the original solve used (all relaxations,
    /// including pruned and abandoned nodes).
    pub lp_iters: u64,
    /// Encoded size of the allocation, in bytes.
    pub ip_bytes: u64,
    /// The per-function solve budget actually granted when this entry was
    /// produced. The cache key deliberately ignores the governed budget;
    /// this field lets a lookup recognise an entry that degraded under a
    /// smaller deadline than the one now available and re-solve instead.
    pub effective_deadline: Duration,
    /// Body fingerprint of the source function (donor identity: an exact
    /// fingerprint match means the donor solution lowers, not projects).
    pub fingerprint: u64,
    /// Shape vector of the source function, for nearest-neighbour donor
    /// queries on cache misses.
    pub shape: ShapeVector,
    /// Which warm start the accepted solve consumed.
    pub warm_start: WarmStartKind,
    /// The accepted allocation lifted into stable IR coordinates, when
    /// the IP rungs produced it — the donor payload for cross-function
    /// warm starts. Degraded rungs carry `None`.
    pub symbolic: Option<SymbolicSolution>,
    /// The audit-verified proof certificate in its text codec
    /// ([`regalloc_ilp::Certificate::to_text`]), present only for
    /// [`Rung::IpOptimal`] entries produced under auditing. Hits are
    /// re-audited against a freshly rebuilt model before the optimality
    /// claim is trusted; entries without one are treated as stale when
    /// auditing is on.
    pub cert: Option<String>,
    /// The spill-slot table (the canonical text carries only slot
    /// *references*).
    pub slots: Vec<SlotInfo>,
    /// The allocated function in canonical textual form.
    pub func_text: String,
}

fn width_from_bits(s: &str) -> Option<Width> {
    match s {
        "8" => Some(Width::B8),
        "16" => Some(Width::B16),
        "32" => Some(Width::B32),
        "64" => Some(Width::B64),
        _ => None,
    }
}

impl CacheEntry {
    /// Render the entry payload (everything after the `check` line).
    fn payload(&self) -> String {
        use std::fmt::Write;
        let mut p = String::new();
        writeln!(p, "target {}", self.target.name()).unwrap();
        writeln!(p, "rung {}", self.rung.name()).unwrap();
        if self.reasons.is_empty() {
            p.push_str("reasons -\n");
        } else {
            let names: Vec<&str> = self.reasons.iter().map(|r| r.name()).collect();
            writeln!(p, "reasons {}", names.join(",")).unwrap();
        }
        writeln!(
            p,
            "stats {} {} {} {} {} {}",
            self.stats.loads,
            self.stats.stores,
            self.stats.remats,
            self.stats.copies,
            self.stats.mem_operand_cycles,
            self.stats.code_bytes
        )
        .unwrap();
        writeln!(
            p,
            "model {} {} {} {} {}",
            self.num_constraints, self.num_vars, self.num_insts, self.solver_nodes, self.lp_iters
        )
        .unwrap();
        writeln!(p, "bytes {}", self.ip_bytes).unwrap();
        writeln!(p, "deadline {}", self.effective_deadline.as_nanos()).unwrap();
        writeln!(p, "fp {:016x}", self.fingerprint).unwrap();
        let shape: Vec<String> = self.shape.counts.iter().map(u64::to_string).collect();
        writeln!(p, "shape {}", shape.join(",")).unwrap();
        writeln!(p, "warm {}", self.warm_start.name()).unwrap();
        match &self.symbolic {
            None => p.push_str("sym -\n"),
            Some(s) => {
                let text = s.serialize();
                writeln!(p, "sym {}", text.lines().count()).unwrap();
                p.push_str(&text);
            }
        }
        match &self.cert {
            None => p.push_str("cert -\n"),
            Some(text) => {
                writeln!(p, "cert {}", text.lines().count()).unwrap();
                p.push_str(text);
                if !text.ends_with('\n') {
                    p.push('\n');
                }
            }
        }
        if self.slots.is_empty() {
            p.push_str("slots -\n");
        } else {
            let slots: Vec<String> = self
                .slots
                .iter()
                .map(|s| match s.home {
                    Some(g) => format!("{}:g{}", s.width.bits(), g),
                    None => format!("{}:-", s.width.bits()),
                })
                .collect();
            writeln!(p, "slots {}", slots.join(",")).unwrap();
        }
        writeln!(p, "func {}", self.func_text.lines().count()).unwrap();
        p.push_str(&self.func_text);
        if !self.func_text.ends_with('\n') {
            p.push('\n');
        }
        p
    }

    /// Serialize to the on-disk file format.
    pub fn serialize(&self) -> String {
        let payload = self.payload();
        format!("{MAGIC}\ncheck {:016x}\n{payload}", checksum(&payload))
    }

    /// Parse an on-disk entry, rejecting checksum mismatches and
    /// malformed fields. Returns `None` rather than an error: every
    /// failure mode is handled identically (treat as a miss).
    pub fn deserialize(text: &str) -> Option<CacheEntry> {
        let rest = text.strip_prefix(MAGIC)?.strip_prefix('\n')?;
        let (check_line, payload) = rest.split_once('\n')?;
        let stored: u64 = u64::from_str_radix(check_line.strip_prefix("check ")?, 16).ok()?;
        if checksum(payload) != stored {
            return None;
        }

        let mut lines = payload.lines();
        let target = TargetId::parse(lines.next()?.strip_prefix("target ")?)?;
        let rung = Rung::from_name(lines.next()?.strip_prefix("rung ")?)?;
        let reasons_s = lines.next()?.strip_prefix("reasons ")?;
        let reasons = if reasons_s == "-" {
            Vec::new()
        } else {
            reasons_s
                .split(',')
                .map(ReasonCode::from_name)
                .collect::<Option<Vec<_>>>()?
        };
        let st: Vec<i64> = lines
            .next()?
            .strip_prefix("stats ")?
            .split(' ')
            .map(|v| v.parse().ok())
            .collect::<Option<Vec<_>>>()?;
        let [loads, stores, remats, copies, mem_operand_cycles, code_bytes] = st[..] else {
            return None;
        };
        let md: Vec<u64> = lines
            .next()?
            .strip_prefix("model ")?
            .split(' ')
            .map(|v| v.parse().ok())
            .collect::<Option<Vec<_>>>()?;
        let [num_constraints, num_vars, num_insts, solver_nodes, lp_iters] = md[..] else {
            return None;
        };
        let ip_bytes: u64 = lines.next()?.strip_prefix("bytes ")?.parse().ok()?;
        let deadline_nanos: u128 = lines.next()?.strip_prefix("deadline ")?.parse().ok()?;
        let effective_deadline = Duration::from_nanos(u64::try_from(deadline_nanos).ok()?);
        let fp = u64::from_str_radix(lines.next()?.strip_prefix("fp ")?, 16).ok()?;
        let counts: Vec<u64> = lines
            .next()?
            .strip_prefix("shape ")?
            .split(',')
            .map(|v| v.parse().ok())
            .collect::<Option<Vec<_>>>()?;
        let shape = ShapeVector {
            counts: counts.try_into().ok()?,
        };
        let warm_start = WarmStartKind::from_name(lines.next()?.strip_prefix("warm ")?)?;
        let sym_s = lines.next()?.strip_prefix("sym ")?;
        let symbolic = if sym_s == "-" {
            None
        } else {
            let n: usize = sym_s.parse().ok()?;
            let mut text = String::new();
            for _ in 0..n {
                text.push_str(lines.next()?);
                text.push('\n');
            }
            Some(SymbolicSolution::deserialize(&text)?)
        };
        let cert_s = lines.next()?.strip_prefix("cert ")?;
        let cert = if cert_s == "-" {
            None
        } else {
            let n: usize = cert_s.parse().ok()?;
            let mut text = String::new();
            for _ in 0..n {
                text.push_str(lines.next()?);
                text.push('\n');
            }
            // The embedded certificate must itself parse; a cache entry
            // carrying syntactic garbage is damaged, not merely unproven.
            regalloc_ilp::Certificate::from_text(&text)?;
            Some(text)
        };
        let slots_s = lines.next()?.strip_prefix("slots ")?;
        let slots = if slots_s == "-" {
            Vec::new()
        } else {
            slots_s
                .split(',')
                .map(|s| {
                    let (w, home) = s.split_once(':')?;
                    let width = width_from_bits(w)?;
                    let home = match home {
                        "-" => None,
                        g => Some(g.strip_prefix('g')?.parse().ok()?),
                    };
                    Some(SlotInfo { width, home })
                })
                .collect::<Option<Vec<_>>>()?
        };
        let nlines: usize = lines.next()?.strip_prefix("func ")?.parse().ok()?;
        let func_lines: Vec<&str> = lines.collect();
        if func_lines.len() != nlines {
            return None;
        }
        let mut func_text = func_lines.join("\n");
        func_text.push('\n');
        Some(CacheEntry {
            target,
            rung,
            reasons,
            stats: SpillStats {
                loads,
                stores,
                remats,
                copies,
                mem_operand_cycles,
                code_bytes,
            },
            num_constraints: num_constraints as usize,
            num_vars: num_vars as usize,
            num_insts: num_insts as usize,
            solver_nodes,
            lp_iters,
            ip_bytes,
            effective_deadline,
            fingerprint: fp,
            shape,
            warm_start,
            symbolic,
            cert,
            slots,
            func_text,
        })
    }

    /// Rebuild the allocated function from the stored text: parse,
    /// restore the slot table, and run structural verification. `None`
    /// means the entry cannot be trusted.
    pub fn realize(&self) -> Option<Function> {
        let mut func = parse_function(&self.func_text).ok()?;
        // The parser reconstructs slots (32-bit, no home) from the
        // references it sees; the stored table is authoritative. Fewer
        // stored slots than referenced ones means the entry is damaged.
        if self.slots.len() < func.slots().len() {
            return None;
        }
        for (i, &info) in self.slots.iter().enumerate() {
            if i < func.slots().len() {
                func.set_slot(SlotId(i as u32), info);
            } else {
                func.add_slot(info.width, info.home);
            }
        }
        if verify_allocated(&func).is_err() {
            return None;
        }
        Some(func)
    }
}

/// A verified allocation recovered from the cache.
#[derive(Clone, Debug)]
pub struct CachedAlloc {
    /// The allocated function, slot table restored, structurally
    /// verified.
    pub func: Function,
    /// The stored record.
    pub entry: CacheEntry,
}

/// One donor candidate for cross-function warm starts: a solved entry's
/// symbolic solution plus the coordinates used to match it against new
/// functions.
#[derive(Clone, Debug)]
pub struct DonorEntry {
    /// Body fingerprint of the donor's source function.
    pub fingerprint: u64,
    /// Shape vector of the donor's source function.
    pub shape: ShapeVector,
    /// The donor's allocation in stable IR coordinates.
    pub solution: SymbolicSolution,
}

/// Retention limits for a long-lived cache. `None` fields are unlimited
/// (the batch driver's historical behavior); the daemon and the CLI's
/// `--cache-max-entries`/`--cache-max-bytes` flags bound growth with
/// least-recently-used eviction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheLimits {
    /// Maximum live entries (memory and disk together).
    pub max_entries: Option<usize>,
    /// Maximum total serialized bytes across live entries.
    pub max_bytes: Option<u64>,
}

impl CacheLimits {
    /// No bounds at all.
    pub fn unlimited() -> CacheLimits {
        CacheLimits::default()
    }

    fn is_unlimited(&self) -> bool {
        self.max_entries.is_none() && self.max_bytes.is_none()
    }
}

/// Recency/size bookkeeping per live key.
#[derive(Default)]
struct LruMeta {
    clock: u64,
    /// key -> (last-use stamp, serialized bytes).
    entries: HashMap<u64, (u64, u64)>,
}

/// RAII pin: while alive, the pinned key is exempt from LRU eviction.
/// The driver pins an entry across lookup + static revalidation so the
/// allocation being verified can never be yanked from under the verifier.
pub struct CachePin<'a> {
    cache: &'a SolutionCache,
    key: u64,
}

impl Drop for CachePin<'_> {
    fn drop(&mut self) {
        let mut pins = self.cache.pins.lock().unwrap();
        if let Some(n) = pins.get_mut(&self.key) {
            *n -= 1;
            if *n == 0 {
                pins.remove(&self.key);
            }
        }
    }
}

/// The two-level (memory + optional disk) solution cache. Safe to share
/// across worker threads.
pub struct SolutionCache {
    dir: Option<PathBuf>,
    mem: Mutex<HashMap<u64, CacheEntry>>,
    rejected: AtomicUsize,
    evicted: AtomicUsize,
    limits: CacheLimits,
    lru: Mutex<LruMeta>,
    pins: Mutex<HashMap<u64, usize>>,
}

impl SolutionCache {
    /// A cache persisting under `dir` (`None` = in-memory only, which
    /// still deduplicates identical bodies within one run). The directory
    /// is created eagerly; persistence degrades to memory-only if the
    /// filesystem refuses. No retention limits — see
    /// [`SolutionCache::with_limits`].
    pub fn new(dir: Option<PathBuf>) -> SolutionCache {
        SolutionCache::with_limits(dir, CacheLimits::unlimited())
    }

    /// A cache with LRU retention limits. Pre-existing entries under
    /// `dir` are adopted into the accounting (stamped in sorted-filename
    /// order, i.e. treated as equally old) and evicted immediately if the
    /// directory already exceeds the limits — the bound holds *across*
    /// runs, not just within one.
    pub fn with_limits(dir: Option<PathBuf>, limits: CacheLimits) -> SolutionCache {
        let dir = dir.filter(|d| std::fs::create_dir_all(d).is_ok());
        let cache = SolutionCache {
            dir,
            mem: Mutex::new(HashMap::new()),
            rejected: AtomicUsize::new(0),
            evicted: AtomicUsize::new(0),
            limits,
            lru: Mutex::new(LruMeta::default()),
            pins: Mutex::new(HashMap::new()),
        };
        if !cache.limits.is_unlimited() {
            cache.adopt_disk_entries();
            cache.enforce_limits();
        }
        cache
    }

    /// Record every `*.alloc` file already on disk in the LRU accounting.
    fn adopt_disk_entries(&self) {
        let Some(dir) = &self.dir else { return };
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        let mut found: Vec<(u64, u64)> = rd
            .flatten()
            .filter_map(|d| {
                let path = d.path();
                let stem = path.file_stem()?.to_str()?;
                if path.extension()? != "alloc" {
                    return None;
                }
                let key = u64::from_str_radix(stem, 16).ok()?;
                let bytes = d.metadata().ok()?.len();
                Some((key, bytes))
            })
            .collect();
        found.sort_unstable();
        let mut lru = self.lru.lock().unwrap();
        for (key, bytes) in found {
            lru.clock += 1;
            let stamp = lru.clock;
            lru.entries.insert(key, (stamp, bytes));
        }
    }

    /// The file path backing `key`, when persistence is on.
    pub fn path_for(&self, key: u64) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(format!("{key:016x}.alloc")))
    }

    /// Pin `key` against LRU eviction for the guard's lifetime.
    pub fn pin(&self, key: u64) -> CachePin<'_> {
        *self.pins.lock().unwrap().entry(key).or_insert(0) += 1;
        CachePin { cache: self, key }
    }

    /// Bump `key`'s recency stamp. `size` gives the entry's serialized
    /// bytes and is only called when the limits need it: a store passes
    /// `fresh` and always records the new size, while a hit keeps the
    /// size recorded at store or adoption.
    fn touch(&self, key: u64, fresh: bool, size: impl FnOnce() -> u64) {
        if self.limits.is_unlimited() {
            return;
        }
        let mut lru = self.lru.lock().unwrap();
        lru.clock += 1;
        let stamp = lru.clock;
        let bytes = match lru.entries.get(&key) {
            Some(&(_, bytes)) if !fresh => bytes,
            _ => size(),
        };
        lru.entries.insert(key, (stamp, bytes));
    }

    /// Forget `key` in the LRU accounting.
    fn forget(&self, key: u64) {
        if !self.limits.is_unlimited() {
            self.lru.lock().unwrap().entries.remove(&key);
        }
    }

    /// Evict least-recently-used unpinned entries until the cache fits
    /// its limits again. A single oversized entry that is pinned simply
    /// waits: eviction retries on the next store.
    fn enforce_limits(&self) {
        if self.limits.is_unlimited() {
            return;
        }
        loop {
            let victim = {
                let lru = self.lru.lock().unwrap();
                let entries = lru.entries.len();
                let bytes: u64 = lru.entries.values().map(|(_, b)| *b).sum();
                let over_entries = self.limits.max_entries.is_some_and(|m| entries > m);
                let over_bytes = self.limits.max_bytes.is_some_and(|m| bytes > m);
                if !over_entries && !over_bytes {
                    return;
                }
                let pins = self.pins.lock().unwrap();
                let mut oldest: Option<(u64, u64)> = None; // (stamp, key)
                for (&k, &(stamp, _)) in lru.entries.iter() {
                    if pins.contains_key(&k) {
                        continue;
                    }
                    if oldest.is_none_or(|(s, _)| stamp < s) {
                        oldest = Some((stamp, k));
                    }
                }
                oldest.map(|(_, k)| k)
            };
            let Some(key) = victim else {
                // Everything over the limit is pinned; give up for now.
                return;
            };
            self.forget(key);
            self.mem.lock().unwrap().remove(&key);
            if let Some(path) = self.path_for(key) {
                let _ = std::fs::remove_file(path);
            }
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Look `key` up and *verify* the stored allocation before returning
    /// it. Corrupt, truncated, unreadable or unverifiable entries are
    /// dropped and counted — a zero-byte or mid-write-truncated file is
    /// treated exactly like a poisoned entry (reject and re-solve), never
    /// a panic.
    pub fn lookup(&self, key: u64) -> Option<CachedAlloc> {
        let mem_hit = self.mem.lock().unwrap().get(&key).cloned();
        let (entry, from_disk) = match mem_hit {
            Some(e) => (e, false),
            None => {
                let path = self.path_for(key)?;
                let text = match std::fs::read_to_string(&path) {
                    Ok(text) => text,
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
                    Err(_) => {
                        // The file exists but cannot be read (permissions,
                        // non-UTF-8 garbage): poisoned, not a miss.
                        self.rejected.fetch_add(1, Ordering::Relaxed);
                        let _ = std::fs::remove_file(&path);
                        self.forget(key);
                        return None;
                    }
                };
                match CacheEntry::deserialize(&text) {
                    Some(e) => (e, true),
                    None => {
                        self.rejected.fetch_add(1, Ordering::Relaxed);
                        let _ = std::fs::remove_file(&path);
                        self.forget(key);
                        return None;
                    }
                }
            }
        };
        match entry.realize() {
            Some(func) => {
                if from_disk {
                    self.mem.lock().unwrap().insert(key, entry.clone());
                }
                self.touch(key, false, || entry.serialize().len() as u64);
                Some(CachedAlloc { func, entry })
            }
            None => {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                self.mem.lock().unwrap().remove(&key);
                self.forget(key);
                None
            }
        }
    }

    /// Store an entry in memory and (when configured) on disk, then
    /// enforce the retention limits. The disk write is atomic (temp
    /// file then rename) so a concurrent reader never sees a torn entry; write
    /// failures are ignored (the cache is an accelerator, not a store of
    /// record).
    pub fn store(&self, key: u64, entry: CacheEntry) {
        let serialized = entry.serialize();
        if let Some(path) = self.path_for(key) {
            let tmp = path.with_extension(format!("tmp{}", std::process::id()));
            if std::fs::write(&tmp, &serialized).is_ok() {
                let _ = std::fs::rename(&tmp, &path);
            }
        }
        self.mem.lock().unwrap().insert(key, entry);
        self.touch(key, true, || serialized.len() as u64);
        self.enforce_limits();
    }

    /// Drop `key` after a post-lookup check (e.g. static re-validation)
    /// rejected the realized allocation, and count the rejection.
    pub fn reject(&self, key: u64) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
        self.mem.lock().unwrap().remove(&key);
        self.forget(key);
        if let Some(path) = self.path_for(key) {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Entries rejected by checksum, parse or verification failures.
    pub fn rejected(&self) -> usize {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Entries evicted by the LRU retention limits.
    pub fn evicted(&self) -> usize {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Live entries in the LRU accounting (0 when unlimited — unlimited
    /// caches do no bookkeeping).
    pub fn tracked_entries(&self) -> usize {
        self.lru.lock().unwrap().entries.len()
    }

    /// Snapshot every donor-eligible entry: IP-solved rungs carrying a
    /// symbolic solution, from memory and (when persisting) disk. The
    /// result is fingerprint-sorted and deduplicated, so the snapshot is
    /// deterministic regardless of map iteration or directory order —
    /// the driver freezes one snapshot per run to keep warm-start
    /// selection independent of worker scheduling.
    pub fn donor_snapshot(&self) -> Vec<DonorEntry> {
        let mut donors: Vec<DonorEntry> = Vec::new();
        let mut push = |e: &CacheEntry| {
            if matches!(e.rung, Rung::IpOptimal | Rung::IpIncumbent) {
                if let Some(sol) = &e.symbolic {
                    donors.push(DonorEntry {
                        fingerprint: e.fingerprint,
                        shape: e.shape,
                        solution: sol.clone(),
                    });
                }
            }
        };
        for e in self.mem.lock().unwrap().values() {
            push(e);
        }
        if let Some(dir) = &self.dir {
            if let Ok(rd) = std::fs::read_dir(dir) {
                let mut paths: Vec<PathBuf> = rd
                    .flatten()
                    .map(|d| d.path())
                    .filter(|p| p.extension().is_some_and(|x| x == "alloc"))
                    .collect();
                paths.sort();
                for p in paths {
                    if let Ok(text) = std::fs::read_to_string(&p) {
                        if let Some(e) = CacheEntry::deserialize(&text) {
                            push(&e);
                        }
                    }
                }
            }
        }
        donors.sort_by(|a, b| {
            a.fingerprint
                .cmp(&b.fingerprint)
                .then_with(|| a.solution.serialize().cmp(&b.solution.serialize()))
        });
        donors.dedup_by_key(|d| d.fingerprint);
        donors
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regalloc_core::{EventDecision, EventKey};
    use regalloc_ir::{FunctionBuilder, Loc, PhysReg, Width};

    fn allocated_sample() -> Function {
        // A tiny already-"allocated" function: only physical registers.
        let mut b = FunctionBuilder::new("t");
        b.push(regalloc_ir::Inst::LoadImm {
            dst: Loc::Real(PhysReg(0)),
            imm: 5,
            width: Width::B32,
        });
        b.push(regalloc_ir::Inst::Ret {
            val: Some(regalloc_ir::Operand::Loc(Loc::Real(PhysReg(0)))),
        });
        b.finish()
    }

    fn entry_for(f: &Function) -> CacheEntry {
        CacheEntry {
            target: TargetId::X86Pentium,
            rung: Rung::IpOptimal,
            reasons: vec![ReasonCode::SolverTimeout],
            stats: SpillStats {
                loads: 1,
                stores: -2,
                remats: 3,
                copies: 0,
                mem_operand_cycles: 4,
                code_bytes: -5,
            },
            num_constraints: 42,
            num_vars: 17,
            num_insts: 2,
            solver_nodes: 9,
            lp_iters: 31,
            ip_bytes: 11,
            effective_deadline: Duration::from_millis(250),
            fingerprint: fingerprint(f),
            shape: ShapeVector {
                counts: [1, 2, 0, 0, 2, 0, 0, 0],
            },
            warm_start: WarmStartKind::Projected,
            cert: None,
            symbolic: Some(SymbolicSolution::from_decisions(vec![(
                EventKey {
                    sym: 0,
                    block: 0,
                    inst: Some(0),
                },
                EventDecision {
                    def: Some(PhysReg(0)),
                    out_regs: vec![PhysReg(0)],
                    ..EventDecision::default()
                },
            )])),
            slots: vec![
                SlotInfo {
                    width: Width::B8,
                    home: Some(1),
                },
                SlotInfo {
                    width: Width::B32,
                    home: None,
                },
            ],
            func_text: format!("{f}\n"),
        }
    }

    #[test]
    fn entry_round_trips_through_the_file_format() {
        let f = allocated_sample();
        let e = entry_for(&f);
        let parsed = CacheEntry::deserialize(&e.serialize()).expect("parses");
        assert_eq!(parsed, e);
        let realized = parsed.realize().expect("verifies");
        assert_eq!(realized.to_string(), f.to_string());
    }

    #[test]
    fn checksum_mismatch_rejects() {
        let e = entry_for(&allocated_sample());
        let text = e.serialize().replace("imm32 5", "imm32 6");
        assert!(CacheEntry::deserialize(&text).is_none());
    }

    #[test]
    fn valid_checksum_with_unallocated_body_fails_verification() {
        // Poisoning with a *well-formed* file: the checksum passes, but
        // the function still contains a symbolic register, so replay
        // verification must refuse it.
        let mut e = entry_for(&allocated_sample());
        e.func_text = e.func_text.replace("r0", "s0");
        let reparsed = CacheEntry::deserialize(&e.serialize()).expect("checksum is consistent");
        assert!(reparsed.realize().is_none());
    }

    #[test]
    fn disk_cache_round_trip_and_rejection_counting() {
        let dir = std::env::temp_dir().join(format!("regalloc-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = SolutionCache::new(Some(dir.clone()));
        let f = allocated_sample();
        let e = entry_for(&f);
        cache.store(7, e.clone());

        // A second cache over the same directory (fresh memory) hits disk.
        let cache2 = SolutionCache::new(Some(dir.clone()));
        let hit = cache2.lookup(7).expect("disk hit");
        assert_eq!(hit.entry, e);
        assert_eq!(hit.func.slot(SlotId(0)).width, Width::B8);

        // Corrupt the file; a fresh cache must reject and count it.
        let path = cache2.path_for(7).unwrap();
        let mangled = std::fs::read_to_string(&path).unwrap().replace('5', "6");
        std::fs::write(&path, mangled).unwrap();
        let cache3 = SolutionCache::new(Some(dir.clone()));
        assert!(cache3.lookup(7).is_none());
        assert_eq!(cache3.rejected(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entry_without_symbolic_round_trips() {
        let mut e = entry_for(&allocated_sample());
        e.symbolic = None;
        e.warm_start = WarmStartKind::None;
        let parsed = CacheEntry::deserialize(&e.serialize()).expect("parses");
        assert_eq!(parsed, e);
    }

    #[test]
    fn entry_with_certificate_round_trips() {
        use regalloc_ilp::{Certificate, Claim, NodeCert, Step};
        let mut e = entry_for(&allocated_sample());
        let cert = Certificate {
            incumbent: Some((vec![true, false], -2.0)),
            leaves: vec![NodeCert {
                steps: vec![Step::Decision {
                    var: 0,
                    value: true,
                }],
                claim: Claim::Bound {
                    duals: vec![0.0, -1.0],
                },
            }],
        };
        e.cert = Some(cert.to_text());
        let parsed = CacheEntry::deserialize(&e.serialize()).expect("parses");
        assert_eq!(parsed, e);
        let back = Certificate::from_text(parsed.cert.as_deref().unwrap()).expect("cert parses");
        assert_eq!(back, cert);
    }

    #[test]
    fn garbage_certificate_text_rejects_the_entry() {
        let mut e = entry_for(&allocated_sample());
        e.cert = Some("inc zzz not a certificate\n".to_string());
        // The checksum covers the garbage, so the damage is caught by the
        // embedded certificate parse, not the checksum.
        assert!(CacheEntry::deserialize(&e.serialize()).is_none());
    }

    #[test]
    fn donor_snapshot_filters_sorts_and_dedupes() {
        let dir = std::env::temp_dir().join(format!("regalloc-donor-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = SolutionCache::new(Some(dir.clone()));
        let f = allocated_sample();
        let mut a = entry_for(&f);
        a.fingerprint = 3;
        let mut b = entry_for(&f);
        b.fingerprint = 1;
        b.rung = Rung::IpIncumbent;
        let mut degraded = entry_for(&f);
        degraded.fingerprint = 2;
        degraded.rung = Rung::Coloring;
        let mut bare = entry_for(&f);
        bare.fingerprint = 4;
        bare.symbolic = None;
        cache.store(10, a);
        cache.store(11, b);
        cache.store(12, degraded);
        cache.store(13, bare);

        // Memory and disk both hold every entry; the snapshot filters to
        // solved-with-symbolic, sorts by fingerprint and dedupes.
        let fps: Vec<u64> = cache
            .donor_snapshot()
            .iter()
            .map(|d| d.fingerprint)
            .collect();
        assert_eq!(fps, vec![1, 3]);

        // A fresh cache over the same directory reads the same donors
        // back from disk alone.
        let cache2 = SolutionCache::new(Some(dir.clone()));
        let fps2: Vec<u64> = cache2
            .donor_snapshot()
            .iter()
            .map(|d| d.fingerprint)
            .collect();
        assert_eq!(fps2, vec![1, 3]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_eviction_bounds_entries_within_and_across_runs() {
        let dir = std::env::temp_dir().join(format!("regalloc-lru-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let f = allocated_sample();
        let limits = CacheLimits {
            max_entries: Some(2),
            max_bytes: None,
        };
        let cache = SolutionCache::with_limits(Some(dir.clone()), limits);
        cache.store(1, entry_for(&f));
        cache.store(2, entry_for(&f));
        cache.store(3, entry_for(&f));
        assert_eq!(cache.evicted(), 1);
        assert_eq!(cache.tracked_entries(), 2);
        // Key 1 was least recently used: gone from memory and disk.
        assert!(cache.lookup(1).is_none());
        assert!(!cache.path_for(1).unwrap().exists());
        assert!(cache.lookup(2).is_some() && cache.lookup(3).is_some());
        // A lookup refreshes recency: touch 2, store 4, and 3 is the victim.
        assert!(cache.lookup(2).is_some());
        cache.store(4, entry_for(&f));
        assert!(cache.lookup(3).is_none());
        assert!(cache.lookup(2).is_some());

        // A fresh cache over the same over-full directory (simulating a
        // tighter limit configured on restart) prunes on startup.
        let strict = SolutionCache::with_limits(
            Some(dir.clone()),
            CacheLimits {
                max_entries: Some(1),
                max_bytes: None,
            },
        );
        assert_eq!(strict.tracked_entries(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn byte_limit_evicts_oldest_entries() {
        let f = allocated_sample();
        let one_entry = entry_for(&f).serialize().len() as u64;
        let cache = SolutionCache::with_limits(
            None,
            CacheLimits {
                max_entries: None,
                max_bytes: Some(one_entry * 2),
            },
        );
        cache.store(1, entry_for(&f));
        cache.store(2, entry_for(&f));
        assert_eq!(cache.evicted(), 0);
        cache.store(3, entry_for(&f));
        assert_eq!(cache.evicted(), 1);
        assert!(cache.lookup(1).is_none());
        assert!(cache.lookup(3).is_some());
    }

    #[test]
    fn eviction_never_evicts_a_pinned_entry() {
        let f = allocated_sample();
        let cache = SolutionCache::with_limits(
            None,
            CacheLimits {
                max_entries: Some(1),
                max_bytes: None,
            },
        );
        cache.store(1, entry_for(&f));
        // Pin key 1 as if it were mid-verification: storing key 2 must
        // evict key 2 itself (the only unpinned entry), never key 1.
        let pin = cache.pin(1);
        cache.store(2, entry_for(&f));
        assert!(cache.lookup(1).is_some(), "pinned entry survived");
        assert!(cache.lookup(2).is_none(), "unpinned newcomer was evicted");
        drop(pin);
        // Unpinned now: the next store evicts key 1 normally.
        cache.store(3, entry_for(&f));
        assert!(cache.lookup(1).is_none());
        assert!(cache.lookup(3).is_some());
    }

    #[test]
    fn truncated_and_zero_byte_entries_reject_without_panicking() {
        let dir = std::env::temp_dir().join(format!("regalloc-trunc-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let f = allocated_sample();
        let full = entry_for(&f).serialize();

        // A mid-write truncation at every eighth boundary plus the
        // zero-byte file: all must be clean rejections (miss + count).
        let mut cuts: Vec<usize> = (0..8).map(|i| full.len() * i / 8).collect();
        cuts.push(full.len() - 1);
        for (i, cut) in cuts.into_iter().enumerate() {
            let cache = SolutionCache::new(Some(dir.clone()));
            let path = cache.path_for(7).unwrap();
            std::fs::write(&path, &full[..cut]).unwrap();
            assert!(
                cache.lookup(7).is_none(),
                "truncation at {cut} bytes must miss"
            );
            assert_eq!(cache.rejected(), 1, "cut #{i} counted as a rejection");
            assert!(!path.exists(), "poisoned file removed");
            // The rejection leaves the slot clean: a store + lookup works.
            cache.store(7, entry_for(&f));
            assert!(cache.lookup(7).is_some());
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn key_separates_inputs_but_not_names() {
        let f = allocated_sample();
        let cfg = SolverConfig::default();
        let k = cache_key(&f, TargetId::X86Pentium, &cfg);
        assert_eq!(k, cache_key(&f, TargetId::X86Pentium, &cfg));
        assert_ne!(k, cache_key(&f, TargetId::Risc24, &cfg));
        assert_ne!(k, cache_key(&f, TargetId::Mcu, &cfg));
        let mut slow = cfg.clone();
        slow.time_limit = std::time::Duration::from_secs(1024);
        assert_ne!(k, cache_key(&f, TargetId::X86Pentium, &slow));
    }
}
