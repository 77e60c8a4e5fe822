//! Seeded, deterministic fault injection.
//!
//! Every failure path in the stack (watchdog aborts, corrupt-cache
//! recovery, executor panic/timeout isolation, degenerate controller
//! predictions) is guarded — but a guardrail that is never exercised is
//! a guess. This module lets chaos tests and CI *provoke* those
//! failures on demand, deterministically, at named injection sites
//! threaded through the stack.
//!
//! ## Configuration
//!
//! A fault plan is a comma-separated list of `site:rate:seed` rules,
//! armed by [`install`] alone — which is what the `--faults` flag of
//! `figures`, `report smoke`, `photon_sim` and `photon-serve` calls:
//!
//! ```console
//! $ report smoke --faults "exec.panic:0.4:1337"
//! $ figures fig13 --faults "refcache.read.corrupt:1.0:7,watchdog.fuel:0.1:7"
//! ```
//!
//! ## Determinism
//!
//! An injection decision is a **pure function** of `(site, seed, key)`
//! — never of call order, thread identity, or wall clock — where `key`
//! is a stable identifier the call site supplies (a cache key, a spec
//! hash XOR the attempt number, a kernel-name hash). Two executor runs
//! of the same grid with `--jobs 1` and `--jobs N` therefore inject the
//! *same* faults into the *same* runs, and a retried run re-rolls only
//! because its attempt number is folded into the key.
//!
//! ## Cost when off
//!
//! Unconfigured, every hook reduces to [`active`]: one atomic load.
//! Call sites additionally consult faults at coarse granularity only
//! (once per run, per kernel, or per cache operation) — never inside
//! per-instruction loops.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

/// A named injection point. The `Display`/parse names are the stable
/// public vocabulary used by `--faults` and DESIGN.md.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Reference-cache read returns bit-corrupted entry text.
    RefcacheReadCorrupt,
    /// Reference-cache write lands torn (truncated, bypassing the
    /// atomic rename) as if the process died mid-write.
    RefcacheWriteTorn,
    /// Reference-cache write fails with an I/O error.
    RefcacheWriteIoErr,
    /// Executor run thread panics before simulating.
    ExecPanic,
    /// Executor run thread stalls long enough to trip `--timeout`.
    ExecStall,
    /// Engine watchdog fuel collapses to zero (immediate
    /// `FuelExhausted`).
    WatchdogFuel,
    /// Engine watchdog stall budget collapses to zero (immediate
    /// `Deadlock`).
    WatchdogStuck,
    /// Controller kernel-time prediction degenerates to zero cycles
    /// (must trigger the skip-refused detailed fallback).
    ControllerZeroCycle,
    /// Controller abort IPC degenerates to NaN (must trigger the
    /// engine's refuse-and-stay-detailed guardrail).
    ControllerNan,
    /// Run-journal line lands torn (truncated mid-line).
    JournalTorn,
    /// One shard chunk's run phase in the sharded timing engine's epoch
    /// loop stalls for a beat, keyed by `(epoch, chunk)` — a slow worker
    /// (wall-clock only; simulated results must be unaffected, which is
    /// exactly what the chaos gate verifies).
    EngineEpochStall,
}

impl FaultSite {
    /// Every site, for enumeration in docs/tests.
    pub const ALL: [FaultSite; 11] = [
        FaultSite::RefcacheReadCorrupt,
        FaultSite::RefcacheWriteTorn,
        FaultSite::RefcacheWriteIoErr,
        FaultSite::ExecPanic,
        FaultSite::ExecStall,
        FaultSite::WatchdogFuel,
        FaultSite::WatchdogStuck,
        FaultSite::ControllerZeroCycle,
        FaultSite::ControllerNan,
        FaultSite::JournalTorn,
        FaultSite::EngineEpochStall,
    ];

    /// The stable configuration name.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::RefcacheReadCorrupt => "refcache.read.corrupt",
            FaultSite::RefcacheWriteTorn => "refcache.write.torn",
            FaultSite::RefcacheWriteIoErr => "refcache.write.ioerr",
            FaultSite::ExecPanic => "exec.panic",
            FaultSite::ExecStall => "exec.stall",
            FaultSite::WatchdogFuel => "watchdog.fuel",
            FaultSite::WatchdogStuck => "watchdog.stuck",
            FaultSite::ControllerZeroCycle => "controller.zero_cycle",
            FaultSite::ControllerNan => "controller.nan",
            FaultSite::JournalTorn => "journal.torn",
            FaultSite::EngineEpochStall => "engine.epoch.stall",
        }
    }

    /// Parses a configuration name.
    pub fn parse(name: &str) -> Option<FaultSite> {
        FaultSite::ALL.iter().copied().find(|s| s.name() == name)
    }

    /// The site's salt in [`decide`] and its slot in the injection
    /// counts: its declaration order, which [`FaultSite::ALL`] follows.
    fn index(self) -> usize {
        self as usize
    }
}

/// One `site:rate:seed` rule of a fault plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRule {
    /// Where to inject.
    pub site: FaultSite,
    /// Injection probability in `[0, 1]` per decision key.
    pub rate: f64,
    /// Seed decorrelating this rule from every other rule and run.
    pub seed: u64,
}

/// A parsed fault plan: the set of active rules. At most one rule per
/// site (later rules for the same site replace earlier ones).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// Parses a comma-separated `site:rate:seed[,site:rate:seed...]`
    /// specification.
    ///
    /// # Errors
    /// Returns a rendered message naming the malformed component and
    /// listing the valid sites.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let mut it = part.splitn(3, ':');
            let (site, rate, seed) = (it.next(), it.next(), it.next());
            let (Some(site), Some(rate), Some(seed)) = (site, rate, seed) else {
                return Err(format!(
                    "fault rule `{part}` is not of the form site:rate:seed"
                ));
            };
            let site = FaultSite::parse(site).ok_or_else(|| {
                let names: Vec<&str> = FaultSite::ALL.iter().map(|s| s.name()).collect();
                format!(
                    "unknown fault site `{site}` (valid sites: {})",
                    names.join(", ")
                )
            })?;
            let rate: f64 = rate
                .parse()
                .map_err(|_| format!("fault rate `{rate}` is not a number"))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("fault rate {rate} is outside [0, 1]"));
            }
            let seed: u64 = seed
                .parse()
                .map_err(|_| format!("fault seed `{seed}` is not an integer"))?;
            plan.add(FaultRule { site, rate, seed });
        }
        Ok(plan)
    }

    /// Adds (or replaces) the rule for a site.
    pub fn add(&mut self, rule: FaultRule) {
        match self.rules.iter_mut().find(|r| r.site == rule.site) {
            Some(r) => *r = rule,
            None => self.rules.push(rule),
        }
    }

    /// The rule for a site, if any.
    pub fn rule(&self, site: FaultSite) -> Option<FaultRule> {
        self.rules.iter().copied().find(|r| r.site == site)
    }

    /// True when the plan has no rules (installing it is a no-op).
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The pure injection decision: whether this plan injects at `site`
    /// for decision `key`. Tests use this to search for seeds with a
    /// desired injection pattern before installing the plan.
    pub fn would_inject(&self, site: FaultSite, key: u64) -> bool {
        let Some(rule) = self.rule(site) else {
            return false;
        };
        decide(rule.seed, site, key, rule.rate)
    }
}

/// `splitmix64` — a cheap, well-distributed 64-bit mixer.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The decision function shared by [`FaultPlan::would_inject`] and the
/// installed-plan path: hash `(seed, site, key)` to a uniform fraction
/// and compare against the rate. Site index is salted in so rules with
/// the same seed stay decorrelated across sites.
fn decide(seed: u64, site: FaultSite, key: u64, rate: f64) -> bool {
    if rate <= 0.0 {
        return false;
    }
    if rate >= 1.0 {
        return true;
    }
    let h = splitmix64(seed ^ splitmix64(site.index() as u64 ^ 0xc4a5_0c15) ^ key);
    // Upper 53 bits -> uniform in [0, 1) at full f64 resolution.
    let frac = (h >> 11) as f64 / (1u64 << 53) as f64;
    frac < rate
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static PLAN: RwLock<Option<Arc<FaultPlan>>> = RwLock::new(None);
/// Per-site count of injections actually performed (diagnostics and
/// test assertions; monotone for the process lifetime unless reset).
static INJECTED: [AtomicU64; FaultSite::ALL.len()] =
    [const { AtomicU64::new(0) }; FaultSite::ALL.len()];

/// Installs a fault plan globally (`None` / empty plan clears it).
pub fn install(plan: Option<FaultPlan>) {
    let plan = plan.filter(|p| !p.is_empty());
    let mut guard = PLAN.write().unwrap_or_else(|e| e.into_inner());
    ACTIVE.store(plan.is_some(), Ordering::Release);
    *guard = plan.map(Arc::new);
}

/// Fast path: whether any fault plan is installed. Call sites gate all
/// other fault queries behind this.
#[inline]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Acquire)
}

/// The installed plan, if any.
pub fn current_plan() -> Option<Arc<FaultPlan>> {
    if !active() {
        return None;
    }
    PLAN.read().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Whether to inject at `site` for decision `key` under the installed
/// plan. Counts the injection when the answer is yes.
pub fn should_inject(site: FaultSite, key: u64) -> bool {
    let Some(plan) = current_plan() else {
        return false;
    };
    let hit = plan.would_inject(site, key);
    if hit {
        INJECTED[site.index()].fetch_add(1, Ordering::Relaxed);
    }
    hit
}

/// Number of injections performed at `site` so far in this process.
pub fn injected(site: FaultSite) -> u64 {
    INJECTED[site.index()].load(Ordering::Relaxed)
}

/// Resets every per-site injection count (test isolation).
pub fn reset_injected() {
    for c in &INJECTED {
        c.store(0, Ordering::Relaxed);
    }
}

/// Panics with a recognizable message when the plan injects at `site`
/// for `key`. Used inside `catch_unwind`-guarded run threads.
///
/// # Panics
/// That is the point.
pub fn maybe_panic(site: FaultSite, key: u64) {
    if should_inject(site, key) {
        panic!("fault-injection: {} (key {key:#018x})", site.name());
    }
}

/// Sleeps for `dur` when the plan injects at `site` for `key` (an
/// artificial stall, e.g. to trip a run timeout).
pub fn maybe_stall(site: FaultSite, key: u64, dur: Duration) {
    if should_inject(site, key) {
        std::thread::sleep(dur);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_all_sites() {
        for site in FaultSite::ALL {
            assert_eq!(FaultSite::parse(site.name()), Some(site));
        }
        assert_eq!(FaultSite::parse("nope"), None);
    }

    /// A site's index salts every decision, so it is pinned: its
    /// declaration order, `ALL`'s order, and the decisions of seed 1207
    /// at rate 0.5 over keys 0..64 as they were when `index` was a match.
    #[test]
    fn site_indices_and_decisions_are_pinned() {
        let pinned: [(&str, u64); 11] = [
            ("refcache.read.corrupt", 0x2a10_4972_e2f1_abff),
            ("refcache.write.torn", 0xa06c_3cf3_5b97_f218),
            ("refcache.write.ioerr", 0x3cca_d2c4_4e46_0b21),
            ("exec.panic", 0xc3f6_a140_1abe_e502),
            ("exec.stall", 0xcf0a_d846_7a60_4c0d),
            ("watchdog.fuel", 0xa483_00f8_1970_71b6),
            ("watchdog.stuck", 0x1a7a_1338_b1bd_7af1),
            ("controller.zero_cycle", 0xedf4_4a03_5307_6670),
            ("controller.nan", 0xb47b_002d_fef4_c93c),
            ("journal.torn", 0xf181_d96f_474e_3e3b),
            ("engine.epoch.stall", 0xbf6e_662f_df09_426a),
        ];
        assert_eq!(FaultSite::ALL.len(), pinned.len());
        for (i, (site, (name, want))) in FaultSite::ALL.into_iter().zip(pinned).enumerate() {
            assert_eq!((site.index(), site.name()), (i, name));
            let plan = FaultPlan::parse(&format!("{name}:0.5:1207")).unwrap();
            let mask = (0..64u64).fold(0, |m, k| m | u64::from(plan.would_inject(site, k)) << k);
            assert_eq!(mask, want, "{name}");
        }
    }

    #[test]
    fn plan_parsing_accepts_lists_and_rejects_garbage() {
        let plan = FaultPlan::parse("exec.panic:0.5:7, watchdog.fuel:1.0:9").unwrap();
        assert_eq!(
            plan.rule(FaultSite::ExecPanic),
            Some(FaultRule {
                site: FaultSite::ExecPanic,
                rate: 0.5,
                seed: 7
            })
        );
        assert_eq!(plan.rule(FaultSite::WatchdogFuel).unwrap().rate, 1.0);
        assert!(plan.rule(FaultSite::ExecStall).is_none());

        assert!(FaultPlan::parse("exec.panic:0.5").is_err());
        assert!(FaultPlan::parse("bogus.site:0.5:1").is_err());
        assert!(FaultPlan::parse("exec.panic:1.5:1").is_err());
        assert!(FaultPlan::parse("exec.panic:x:1").is_err());
        assert!(FaultPlan::parse("exec.panic:0.5:x").is_err());
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn later_rules_replace_earlier_ones() {
        let plan = FaultPlan::parse("exec.panic:0.1:1,exec.panic:0.9:2").unwrap();
        assert_eq!(plan.rule(FaultSite::ExecPanic).unwrap().rate, 0.9);
    }

    #[test]
    fn decisions_are_pure_and_rate_shaped() {
        let plan = FaultPlan::parse("exec.panic:0.25:42").unwrap();
        // Pure: same inputs, same answer.
        for key in 0..64u64 {
            assert_eq!(
                plan.would_inject(FaultSite::ExecPanic, key),
                plan.would_inject(FaultSite::ExecPanic, key)
            );
        }
        // Other sites never fire.
        assert!(!plan.would_inject(FaultSite::WatchdogFuel, 3));
        // Rate 0 and 1 are exact.
        let never = FaultPlan::parse("exec.panic:0.0:42").unwrap();
        let always = FaultPlan::parse("exec.panic:1.0:42").unwrap();
        for key in 0..32u64 {
            assert!(!never.would_inject(FaultSite::ExecPanic, key));
            assert!(always.would_inject(FaultSite::ExecPanic, key));
        }
        // The hit fraction roughly tracks the rate over many keys.
        let hits = (0..4000u64)
            .filter(|&k| plan.would_inject(FaultSite::ExecPanic, k))
            .count();
        let frac = hits as f64 / 4000.0;
        assert!((frac - 0.25).abs() < 0.05, "hit fraction {frac}");
    }

    #[test]
    fn seeds_decorrelate_decisions() {
        let a = FaultPlan::parse("exec.panic:0.5:1").unwrap();
        let b = FaultPlan::parse("exec.panic:0.5:2").unwrap();
        let differs = (0..256u64).any(|k| {
            a.would_inject(FaultSite::ExecPanic, k) != b.would_inject(FaultSite::ExecPanic, k)
        });
        assert!(differs);
    }

    #[test]
    fn install_and_query_global_plan() {
        // Serialized against other global-state tests by running in one
        // test: install, observe, count, clear.
        install(Some(FaultPlan::parse("journal.torn:1.0:5").unwrap()));
        assert!(active());
        reset_injected();
        assert!(should_inject(FaultSite::JournalTorn, 9));
        assert!(!should_inject(FaultSite::ExecPanic, 9));
        assert_eq!(injected(FaultSite::JournalTorn), 1);
        assert_eq!(injected(FaultSite::ExecPanic), 0);
        install(None);
        assert!(!active());
        assert!(!should_inject(FaultSite::JournalTorn, 9));
        reset_injected();
    }
}
