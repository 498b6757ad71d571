//! Dependency-free fail-point fault injection (compiled only under the
//! `hdx-fail` feature).
//!
//! Library code marks named trigger points with the
//! [`fail_point!`](crate::fail_point) macro; tests *arm* a point with a
//! [`FailAction`] and a 1-based hit index, then drive the code under test and
//! assert that the degradation paths behave. Without the feature the macro
//! expands to nothing, so production builds carry zero overhead.
//!
//! The registry is process-global (tests touching the same point must not
//! run concurrently; keep fail-point tests in a dedicated integration-test
//! binary or serialise them with a mutex).
//!
//! ```
//! use hdx_governor::failpoint::{self, FailAction};
//!
//! failpoint::arm("demo", FailAction::Error("boom".into()), 2);
//! assert_eq!(failpoint::hit("demo"), None); // 1st hit: pass through
//! assert_eq!(failpoint::hit("demo"), Some("boom".into())); // 2nd: fire
//! failpoint::reset();
//! ```

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Duration;

/// What an armed fail point does when it fires.
#[derive(Debug, Clone)]
pub enum FailAction {
    /// Panic with the fail point's name (simulates a crashing worker).
    Panic,
    /// Sleep for the given duration (simulates a stall / slow dependency).
    Stall(Duration),
    /// Surface the message as an error to the caller.
    Error(String),
    /// Inject a structured I/O fault at sites that call
    /// [`io_hit`]. Invisible to [`hit`]: the plain channel never fires for
    /// an `Io` arming (and vice versa), so a site probing both channels
    /// counts each arming exactly once.
    Io(IoFault),
}

/// A structured injectable I/O fault (see [`FailAction::Io`]). Unlike
/// [`FailAction::Error`]'s opaque message, the call site can *enact* these:
/// a short write really leaves a torn prefix on disk before erroring, which
/// is what WAL torn-tail recovery tests need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFault {
    /// The device is full: fail before writing a single byte.
    Enospc,
    /// A torn write: persist only a prefix of the payload, then fail.
    ShortWrite,
}

impl IoFault {
    /// The `std::io::Error` this fault surfaces as.
    pub fn to_error(self) -> std::io::Error {
        match self {
            IoFault::Enospc => std::io::Error::new(
                std::io::ErrorKind::StorageFull,
                "injected fault: no space left on device",
            ),
            IoFault::ShortWrite => std::io::Error::new(
                std::io::ErrorKind::WriteZero,
                "injected fault: short write (torn tail)",
            ),
        }
    }
}

#[derive(Debug)]
struct Armed {
    action: FailAction,
    /// Fire on the `nth` hit (1-based); repeating ones keep firing after it.
    nth: u64,
    /// Fire on exactly the `nth` hit, then pass through again.
    once: bool,
    hits: u64,
}

fn registry() -> &'static Mutex<HashMap<String, Armed>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, Armed>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Arms `name` to perform `action` from the `nth` hit (1-based) onward.
/// Re-arming replaces the previous action and resets the hit count.
pub fn arm(name: &str, action: FailAction, nth: u64) {
    insert(name, action, nth, false);
}

/// Arms `name` to perform `action` on exactly the `nth` hit (1-based); every
/// other hit passes through. Use to fault a single worker out of a pool.
pub fn arm_once(name: &str, action: FailAction, nth: u64) {
    insert(name, action, nth, true);
}

fn insert(name: &str, action: FailAction, nth: u64, once: bool) {
    let mut reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
    reg.insert(
        name.to_owned(),
        Armed {
            action,
            nth: nth.max(1),
            once,
            hits: 0,
        },
    );
}

/// Disarms `name` (no-op when not armed).
pub fn disarm(name: &str) {
    registry()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .remove(name);
}

/// Disarms every fail point. Call from test teardown.
pub fn reset() {
    registry()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();
}

/// Hits the fail point `name`. Returns `Some(message)` when an armed
/// [`FailAction::Error`] fires; panics when [`FailAction::Panic`] fires;
/// sleeps then returns `None` when [`FailAction::Stall`] fires; returns
/// `None` when unarmed or before the armed hit index.
pub fn hit(name: &str) -> Option<String> {
    // Decide while holding the lock, act after releasing it, so a panicking
    // fail point never poisons the registry.
    let fired: Option<FailAction> = {
        let mut reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
        reg.get_mut(name).and_then(|armed| {
            if matches!(armed.action, FailAction::Io(_)) {
                // Armed for the io channel: invisible here, not counted.
                return None;
            }
            armed.hits += 1;
            let fires = if armed.once {
                armed.hits == armed.nth
            } else {
                armed.hits >= armed.nth
            };
            fires.then(|| armed.action.clone())
        })
    };
    if fired.is_some() {
        hdx_obs::counter_add!(GovernorFailpointHits, 1);
    }
    match fired {
        None => None,
        Some(FailAction::Panic) => panic!("fail point `{name}` fired: injected panic"),
        Some(FailAction::Stall(d)) => {
            std::thread::sleep(d);
            None
        }
        Some(FailAction::Error(msg)) => Some(msg),
        // Unreachable (filtered above); kept total for exhaustiveness.
        Some(FailAction::Io(fault)) => Some(fault.to_error().to_string()),
    }
}

/// Hits the *io channel* of fail point `name`: returns the armed
/// [`IoFault`] when a [`FailAction::Io`] arming is due, `None` otherwise.
/// Armings of any other action are invisible here (and not counted), the
/// mirror image of [`hit`], so a call site probing both channels gives each
/// arming exactly one hit per passage.
pub fn io_hit(name: &str) -> Option<IoFault> {
    let fired: Option<IoFault> = {
        let mut reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
        reg.get_mut(name).and_then(|armed| {
            let FailAction::Io(fault) = armed.action else {
                return None;
            };
            armed.hits += 1;
            let fires = if armed.once {
                armed.hits == armed.nth
            } else {
                armed.hits >= armed.nth
            };
            fires.then_some(fault)
        })
    };
    if fired.is_some() {
        hdx_obs::counter_add!(GovernorFailpointHits, 1);
    }
    fired
}

/// How many times `name` has been hit since it was (re-)armed.
pub fn hit_count(name: &str) -> u64 {
    registry()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .get(name)
        .map_or(0, |a| a.hits)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global; these tests use distinct names so they
    // can run concurrently.

    #[test]
    fn unarmed_points_pass_through() {
        assert_eq!(hit("fp-tests::unarmed"), None);
        assert_eq!(hit_count("fp-tests::unarmed"), 0);
    }

    #[test]
    fn error_fires_from_nth_hit() {
        arm("fp-tests::err", FailAction::Error("boom".into()), 3);
        assert_eq!(hit("fp-tests::err"), None);
        assert_eq!(hit("fp-tests::err"), None);
        assert_eq!(hit("fp-tests::err"), Some("boom".into()));
        assert_eq!(hit("fp-tests::err"), Some("boom".into()), "keeps firing");
        assert_eq!(hit_count("fp-tests::err"), 4);
        disarm("fp-tests::err");
        assert_eq!(hit("fp-tests::err"), None);
    }

    #[test]
    fn panic_action_panics() {
        arm("fp-tests::panic", FailAction::Panic, 1);
        let err = std::panic::catch_unwind(|| hit("fp-tests::panic")).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("fp-tests::panic"));
        disarm("fp-tests::panic");
        // The registry survived the panic un-poisoned.
        assert_eq!(hit("fp-tests::panic"), None);
    }

    #[test]
    fn stall_sleeps_then_passes() {
        arm(
            "fp-tests::stall",
            FailAction::Stall(Duration::from_millis(20)),
            1,
        );
        let t0 = std::time::Instant::now();
        assert_eq!(hit("fp-tests::stall"), None);
        assert!(t0.elapsed() >= Duration::from_millis(20));
        disarm("fp-tests::stall");
    }

    #[test]
    fn arm_once_fires_exactly_once() {
        arm_once("fp-tests::once", FailAction::Error("boom".into()), 2);
        assert_eq!(hit("fp-tests::once"), None);
        assert_eq!(hit("fp-tests::once"), Some("boom".into()));
        assert_eq!(hit("fp-tests::once"), None, "one-shot points rearm-safe");
        assert_eq!(hit_count("fp-tests::once"), 3);
        disarm("fp-tests::once");
    }

    #[test]
    fn io_channel_is_invisible_to_the_plain_channel_and_vice_versa() {
        arm("fp-tests::io", FailAction::Io(IoFault::Enospc), 2);
        assert_eq!(hit("fp-tests::io"), None, "plain channel never fires Io");
        assert_eq!(hit_count("fp-tests::io"), 0, "and does not count it");
        assert_eq!(io_hit("fp-tests::io"), None, "1st io hit: pass through");
        assert_eq!(io_hit("fp-tests::io"), Some(IoFault::Enospc));
        assert_eq!(
            io_hit("fp-tests::io"),
            Some(IoFault::Enospc),
            "keeps firing"
        );
        disarm("fp-tests::io");

        arm("fp-tests::io-vv", FailAction::Error("boom".into()), 1);
        assert_eq!(io_hit("fp-tests::io-vv"), None, "io channel ignores Error");
        assert_eq!(hit_count("fp-tests::io-vv"), 0);
        assert_eq!(hit("fp-tests::io-vv"), Some("boom".into()));
        disarm("fp-tests::io-vv");
    }

    #[test]
    fn io_faults_render_as_io_errors() {
        let e = IoFault::Enospc.to_error();
        assert!(e.to_string().contains("no space left"), "{e}");
        let e = IoFault::ShortWrite.to_error();
        assert!(e.to_string().contains("short write"), "{e}");
    }

    #[test]
    fn io_arm_once_fires_exactly_once() {
        arm_once("fp-tests::io-once", FailAction::Io(IoFault::ShortWrite), 1);
        assert_eq!(io_hit("fp-tests::io-once"), Some(IoFault::ShortWrite));
        assert_eq!(io_hit("fp-tests::io-once"), None, "one-shot");
        disarm("fp-tests::io-once");
    }

    #[test]
    fn rearming_resets_count() {
        arm("fp-tests::rearm", FailAction::Error("a".into()), 1);
        assert_eq!(hit("fp-tests::rearm"), Some("a".into()));
        arm("fp-tests::rearm", FailAction::Error("b".into()), 2);
        assert_eq!(hit("fp-tests::rearm"), None, "count reset by re-arm");
        assert_eq!(hit("fp-tests::rearm"), Some("b".into()));
        disarm("fp-tests::rearm");
    }
}
