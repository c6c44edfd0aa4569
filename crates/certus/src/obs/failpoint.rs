//! Deterministic fault injection: named failpoints that production code
//! checks at fault-prone boundaries (WAL appends, fsyncs, checkpoint
//! writes, socket I/O) and tests or the chaos harness arm to force the
//! failure modes a crash-safe system must survive.
//!
//! Design constraints, in order:
//!
//! 1. **Zero overhead when disarmed.** A check at a hot call site is a
//!    single relaxed atomic load when no failpoint is armed anywhere in the
//!    process — no lock, no map lookup, no allocation. The default path
//!    through the storage layer pays nothing for the harness's existence.
//! 2. **Deterministic.** A failpoint fires on exact hit counts (`after`
//!    skipped hits, then `times` firings), never on wall time or
//!    randomness. Chaos runs draw those counts from a seeded RNG in the
//!    *harness*, so a seed reproduces the exact crash schedule while this
//!    module stays clock- and rng-free.
//! 3. **Env-selectable.** `CERTUS_FAILPOINTS=wal.append=torn@5:after=3`
//!    arms points without touching code, so CI can run the same binary with
//!    and without faults.
//!
//! ```
//! use certus::obs::failpoint::{failpoints, FailAction};
//!
//! failpoints().arm("doc.example", FailAction::Error, 1, 1);
//! assert_eq!(failpoints().check("doc.example"), FailAction::Off); // skipped
//! assert_eq!(failpoints().check("doc.example"), FailAction::Error); // fires
//! assert_eq!(failpoints().check("doc.example"), FailAction::Off); // spent
//! failpoints().disarm_all();
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

/// What an armed failpoint makes the call site do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// Not armed (or armed but outside its firing window): proceed normally.
    Off,
    /// Fail the operation with an injected error, leaving no partial state
    /// behind (models an fsync failure or a full disk detected up front).
    Error,
    /// Write only the first `n` bytes of the payload, then fail — the torn
    /// prefix *stays behind*, modeling a crash mid-write. Recovery must
    /// truncate it, never replay it.
    Torn(usize),
    /// Sleep this many milliseconds, then proceed — models a slow disk or a
    /// stalled socket without failing the operation.
    SlowMs(u64),
}

struct Failpoint {
    action: FailAction,
    /// Hits to pass through before the point starts firing.
    after: u64,
    /// Firings before the point disarms itself (`u64::MAX` = forever).
    times: u64,
    /// Hits observed so far (fired or not).
    hits: u64,
    /// Firings so far.
    fired: u64,
}

/// The process-wide registry of named failpoints. Obtain it with
/// [`failpoints`]; production code calls [`FailpointRegistry::check`],
/// harnesses call [`FailpointRegistry::arm`] / `disarm*`.
pub struct FailpointRegistry {
    /// Fast-path gate: `false` means no point is armed and [`check`] returns
    /// without taking the lock. Maintained by every arm/disarm.
    ///
    /// [`check`]: FailpointRegistry::check
    armed: AtomicBool,
    points: Mutex<HashMap<String, Failpoint>>,
}

impl FailpointRegistry {
    fn new() -> Self {
        let reg =
            FailpointRegistry { armed: AtomicBool::new(false), points: Mutex::new(HashMap::new()) };
        if let Ok(spec) = std::env::var("CERTUS_FAILPOINTS") {
            reg.arm_from_spec(&spec);
        }
        reg
    }

    /// Arm `name`: pass `after` hits through untouched, then return `action`
    /// from [`check`](FailpointRegistry::check) for the next `times` hits,
    /// then disarm. Re-arming an existing name resets its counters.
    pub fn arm(&self, name: &str, action: FailAction, after: u64, times: u64) {
        let mut points = self.points.lock().expect("failpoint registry poisoned");
        points.insert(name.to_string(), Failpoint { action, after, times, hits: 0, fired: 0 });
        self.armed.store(true, Ordering::Release);
    }

    /// Disarm one failpoint (its hit history is forgotten).
    pub fn disarm(&self, name: &str) {
        let mut points = self.points.lock().expect("failpoint registry poisoned");
        points.remove(name);
        if points.is_empty() {
            self.armed.store(false, Ordering::Release);
        }
    }

    /// Disarm everything — the state tests should restore on exit.
    pub fn disarm_all(&self) {
        let mut points = self.points.lock().expect("failpoint registry poisoned");
        points.clear();
        self.armed.store(false, Ordering::Release);
    }

    /// The call-site hook: what should this hit of `name` do? With nothing
    /// armed anywhere this is one relaxed atomic load.
    pub fn check(&self, name: &str) -> FailAction {
        if !self.armed.load(Ordering::Relaxed) {
            return FailAction::Off;
        }
        let mut points = self.points.lock().expect("failpoint registry poisoned");
        let Some(point) = points.get_mut(name) else {
            return FailAction::Off;
        };
        point.hits += 1;
        if point.hits <= point.after || point.fired >= point.times {
            return FailAction::Off;
        }
        point.fired += 1;
        point.action
    }

    /// Total hits `name` has observed (fired or not); 0 when never armed.
    pub fn hits(&self, name: &str) -> u64 {
        self.points
            .lock()
            .expect("failpoint registry poisoned")
            .get(name)
            .map(|p| p.hits)
            .unwrap_or(0)
    }

    /// Arm failpoints from a spec string (the `CERTUS_FAILPOINTS` grammar):
    /// `;`-separated entries of `name=action[:after=N][:times=M]`, where
    /// action is `error`, `torn@BYTES`, or `slow@MS`. Unparseable entries
    /// are ignored (fault injection must never take down a production
    /// process over a typo). Returns how many entries were armed.
    fn arm_from_spec(&self, spec: &str) -> usize {
        let mut armed = 0;
        for entry in spec.split(';').map(str::trim).filter(|e| !e.is_empty()) {
            let Some((name, rest)) = entry.split_once('=') else { continue };
            let mut parts = rest.split(':');
            let Some(action) = parts.next().and_then(parse_action) else { continue };
            let (mut after, mut times) = (0u64, u64::MAX);
            for part in parts {
                if let Some(n) = part.strip_prefix("after=").and_then(|v| v.parse().ok()) {
                    after = n;
                } else if let Some(n) = part.strip_prefix("times=").and_then(|v| v.parse().ok()) {
                    times = n;
                }
            }
            self.arm(name.trim(), action, after, times);
            armed += 1;
        }
        armed
    }
}

fn parse_action(s: &str) -> Option<FailAction> {
    let s = s.trim();
    if s == "error" {
        return Some(FailAction::Error);
    }
    if let Some(n) = s.strip_prefix("torn@").and_then(|v| v.parse().ok()) {
        return Some(FailAction::Torn(n));
    }
    if let Some(ms) = s.strip_prefix("slow@").and_then(|v| v.parse().ok()) {
        return Some(FailAction::SlowMs(ms));
    }
    None
}

/// The process-wide failpoint registry, created on first use (arming any
/// points named in `CERTUS_FAILPOINTS` at that moment).
pub fn failpoints() -> &'static FailpointRegistry {
    static REGISTRY: OnceLock<FailpointRegistry> = OnceLock::new();
    REGISTRY.get_or_init(FailpointRegistry::new)
}

/// Honor a [`FailAction::SlowMs`] by sleeping; every other action is
/// returned for the call site to interpret (only it knows what "torn" or
/// "error" means for its operation).
pub fn apply_delay(action: FailAction) -> FailAction {
    if let FailAction::SlowMs(ms) = action {
        std::thread::sleep(std::time::Duration::from_millis(ms));
        return FailAction::Off;
    }
    action
}

#[cfg(test)]
mod tests {
    use super::*;

    // The global registry is process-wide shared state; each test uses its
    // own uniquely named points and disarms them on exit so parallel test
    // threads never observe each other.

    #[test]
    fn disarmed_points_are_off_and_cheap() {
        let reg =
            FailpointRegistry { armed: AtomicBool::new(false), points: Mutex::new(HashMap::new()) };
        assert!(!reg.armed.load(Ordering::Relaxed));
        assert_eq!(reg.check("fp.test.unarmed"), FailAction::Off);
        assert_eq!(reg.hits("fp.test.unarmed"), 0);
    }

    #[test]
    fn after_and_times_window_the_firings() {
        let reg =
            FailpointRegistry { armed: AtomicBool::new(false), points: Mutex::new(HashMap::new()) };
        reg.arm("fp.test.window", FailAction::Error, 2, 2);
        let got: Vec<FailAction> = (0..6).map(|_| reg.check("fp.test.window")).collect();
        assert_eq!(
            got,
            vec![
                FailAction::Off,
                FailAction::Off,
                FailAction::Error,
                FailAction::Error,
                FailAction::Off,
                FailAction::Off,
            ]
        );
        assert_eq!(reg.hits("fp.test.window"), 6);
    }

    #[test]
    fn disarm_clears_the_gate_when_empty() {
        let reg =
            FailpointRegistry { armed: AtomicBool::new(false), points: Mutex::new(HashMap::new()) };
        reg.arm("fp.test.gate", FailAction::Error, 0, 1);
        assert!(reg.armed.load(Ordering::Relaxed));
        reg.disarm("fp.test.gate");
        assert!(!reg.armed.load(Ordering::Relaxed));
    }

    #[test]
    fn spec_parsing_arms_and_ignores_garbage() {
        let reg =
            FailpointRegistry { armed: AtomicBool::new(false), points: Mutex::new(HashMap::new()) };
        let armed = reg.arm_from_spec(
            "wal.append=torn@5:after=3; wal.fsync=error:times=1; junk; also=nonsense@x",
        );
        assert_eq!(armed, 2);
        for _ in 0..3 {
            assert_eq!(reg.check("wal.append"), FailAction::Off);
        }
        assert_eq!(reg.check("wal.append"), FailAction::Torn(5));
        assert_eq!(reg.check("wal.fsync"), FailAction::Error);
        assert_eq!(reg.check("wal.fsync"), FailAction::Off, "times=1 is spent");
    }

    #[test]
    fn slow_actions_resolve_through_apply_delay() {
        assert_eq!(apply_delay(FailAction::SlowMs(0)), FailAction::Off);
        assert_eq!(apply_delay(FailAction::Error), FailAction::Error);
        assert_eq!(apply_delay(FailAction::Torn(3)), FailAction::Torn(3));
    }
}
