//! Deterministic fault injection for the out-of-core stack.
//!
//! A [`FaultPlan`] describes, ahead of time, every fault a run will
//! experience — so a crashed-and-resumed solve can be replayed from a
//! single seed:
//!
//! * **crash-at-Nth-write** — the Nth write operation (counting both
//!   [`crate::SimDisk`] block writes and checkpoint-store writes, in
//!   program order) raises an [`InjectedCrash`] panic, modelling the
//!   process dying mid-run. Volatile state (the arena, the simulated
//!   disk) is lost; only what the checkpoint store committed survives.
//! * **torn write** — when the crashing write is an append to stable
//!   storage, a deterministic *prefix* of the record is persisted,
//!   modelling a torn sector write. Recovery must detect and discard the
//!   tail (the WAL's checksums exist for exactly this).
//! * **transient read errors** — every Nth disk block read fails once;
//!   the arena retries with a modelled backoff (charged to
//!   [`crate::IoStats::wait_s`]) up to [`FaultPlan::max_retries`] times,
//!   publishing `io.*.retries`. Exhausted retries escalate to a crash.
//!
//! All counters live in a shared [`FaultClock`] so the write numbering
//! spans every layer that can fault. The clock is single-shot: once the
//! crash fires, later writes proceed normally — this keeps unwinding
//! safe (drop-path flushes must not re-panic) and makes "resume with the
//! same clock" a valid pattern.

use std::cell::RefCell;
use std::rc::Rc;

/// Panic payload of an injected crash. The differential harness catches
/// panics and downcasts to this type; anything else is a real bug and is
/// re-raised.
#[derive(Debug)]
pub struct InjectedCrash {
    /// Which write operation (1-based) crashed.
    pub at_write: u64,
    /// True when the crashing stable-storage append persisted a prefix.
    pub torn: bool,
}

/// The deterministic fault schedule of one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultPlan {
    /// Crash on the Nth (1-based) write operation. `None` = never.
    pub crash_at_write: Option<u64>,
    /// Whether the crashing write, if it is a stable-storage append,
    /// persists a deterministic prefix of the record (torn write).
    pub torn_write: bool,
    /// Every Nth (1-based) disk block read fails transiently. `None` =
    /// reads never fail.
    pub read_fail_every: Option<u64>,
    /// Retry budget per failing read before escalating to a crash.
    pub max_retries: u32,
}

/// Mutable fault-injection state shared by the disk and the checkpoint
/// store (single-threaded, like [`crate::SharedArena`]).
#[derive(Debug)]
pub struct FaultState {
    plan: FaultPlan,
    writes: u64,
    reads: u64,
    retries: u64,
    retry_streak: u64,
    crashed: bool,
}

/// Shared handle to one run's [`FaultState`].
pub type FaultClock = Rc<RefCell<FaultState>>;

/// Creates the shared clock for `plan`.
pub fn fault_clock(plan: FaultPlan) -> FaultClock {
    Rc::new(RefCell::new(FaultState {
        plan,
        writes: 0,
        reads: 0,
        retries: 0,
        retry_streak: 0,
        crashed: false,
    }))
}

/// What a write site must do, as decided by [`FaultState::on_write`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteFate {
    /// Perform the write normally.
    Proceed,
    /// Crash now. For stable-storage appends, `torn_prefix` bytes of the
    /// record (deterministically derived, `< len`) must be persisted
    /// first; all other writes persist nothing.
    Crash {
        /// Prefix length to persist for an append of `len` bytes.
        torn_prefix: usize,
    },
}

impl FaultState {
    /// Advances the write clock; decides the fate of a write of `len`
    /// bytes. The caller is responsible for honouring a `Crash` by
    /// persisting the prefix (appends only) and then calling
    /// [`crash`](fn@crash).
    pub fn on_write(&mut self, len: usize) -> WriteFate {
        self.writes += 1;
        if self.crashed || Some(self.writes) != self.plan.crash_at_write {
            return WriteFate::Proceed;
        }
        self.crashed = true;
        let torn_prefix = if self.plan.torn_write && len > 0 {
            // Deterministic, seed-varied cut point in [0, len).
            (self
                .writes
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(17)
                % len as u64) as usize
        } else {
            0
        };
        WriteFate::Crash { torn_prefix }
    }

    /// Advances the read clock; true iff this read fails transiently.
    /// A successful read resets the consecutive-failure streak.
    pub fn on_read(&mut self) -> bool {
        self.reads += 1;
        let fail = match self.plan.read_fail_every {
            Some(every) if !self.crashed => self.reads.is_multiple_of(every),
            _ => false,
        };
        if !fail {
            self.retry_streak = 0;
        }
        fail
    }

    /// Records one retry; true while the *consecutive* budget allows
    /// another attempt. The read clock advances per attempt, so with
    /// `read_fail_every >= 2` the retry of a failed block succeeds;
    /// `read_fail_every = 1` exhausts the budget and escalates.
    pub fn on_retry(&mut self) -> bool {
        self.retries += 1;
        self.retry_streak += 1;
        self.retry_streak <= self.plan.max_retries as u64
    }

    /// Write operations seen so far (the crash-point domain for fuzzing).
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Transient-read retries performed so far.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// True once the planned crash has fired.
    pub fn crashed(&self) -> bool {
        self.crashed
    }
}

/// Raises the injected crash (never returns).
pub fn crash(at_write: u64, torn: bool) -> ! {
    std::panic::panic_any(InjectedCrash { at_write, torn })
}

/// Installs (once per process) a panic hook that suppresses the default
/// "thread panicked" report for [`InjectedCrash`] payloads and delegates
/// everything else to the previously installed hook. Crash-fuzz harnesses
/// call this so 200 injected crashes do not print 200 stack traces; real
/// panics still report normally.
pub fn silence_injected_crash_reports() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedCrash>().is_none() {
                previous(info);
            }
        }));
    });
}

/// Runs `f`, converting an [`InjectedCrash`] panic into `Err(crash)`.
/// Other panics propagate unchanged.
pub fn run_to_crash<T>(f: impl FnOnce() -> T) -> Result<T, InjectedCrash> {
    // The closures under test only touch state that is discarded on
    // crash (that is the point), so unwind-safety is asserted.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    match result {
        Ok(v) => Ok(v),
        Err(payload) => match payload.downcast::<InjectedCrash>() {
            Ok(crash) => Err(*crash),
            Err(other) => std::panic::resume_unwind(other),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_fires_exactly_once_at_the_nth_write() {
        let clock = fault_clock(FaultPlan {
            crash_at_write: Some(3),
            ..Default::default()
        });
        let mut st = clock.borrow_mut();
        assert_eq!(st.on_write(10), WriteFate::Proceed);
        assert_eq!(st.on_write(10), WriteFate::Proceed);
        assert!(matches!(st.on_write(10), WriteFate::Crash { .. }));
        assert!(st.crashed());
        // One-shot: the drop-path flush after the crash must not re-fire.
        assert_eq!(st.on_write(10), WriteFate::Proceed);
    }

    #[test]
    fn torn_prefix_is_deterministic_and_in_range() {
        for n in [1u64, 2, 17, 500] {
            let clock = fault_clock(FaultPlan {
                crash_at_write: Some(n),
                torn_write: true,
                ..Default::default()
            });
            let mut st = clock.borrow_mut();
            let mut fate = WriteFate::Proceed;
            for _ in 0..n {
                fate = st.on_write(64);
            }
            let WriteFate::Crash { torn_prefix } = fate else {
                panic!("crash expected at write {n}");
            };
            assert!(torn_prefix < 64);
            // Same plan → same prefix.
            let clock2 = fault_clock(FaultPlan {
                crash_at_write: Some(n),
                torn_write: true,
                ..Default::default()
            });
            let mut st2 = clock2.borrow_mut();
            let mut fate2 = WriteFate::Proceed;
            for _ in 0..n {
                fate2 = st2.on_write(64);
            }
            assert_eq!(fate, fate2);
        }
    }

    #[test]
    fn untorn_crash_persists_nothing() {
        let clock = fault_clock(FaultPlan {
            crash_at_write: Some(1),
            torn_write: false,
            ..Default::default()
        });
        assert_eq!(
            clock.borrow_mut().on_write(64),
            WriteFate::Crash { torn_prefix: 0 }
        );
    }

    #[test]
    fn read_faults_hit_every_nth_and_retries_recover() {
        let clock = fault_clock(FaultPlan {
            read_fail_every: Some(3),
            max_retries: 2,
            ..Default::default()
        });
        let mut st = clock.borrow_mut();
        assert!(!st.on_read());
        assert!(!st.on_read());
        assert!(st.on_read(), "3rd read fails");
        assert!(st.on_retry(), "budget allows a retry");
        assert!(!st.on_read(), "retry advances the clock and succeeds");
        assert_eq!(st.retries(), 1);
    }

    #[test]
    fn run_to_crash_catches_injected_and_reraises_real_panics() {
        silence_injected_crash_reports();
        let err = run_to_crash(|| -> () { crash(7, true) }).unwrap_err();
        assert_eq!((err.at_write, err.torn), (7, true));
        assert_eq!(run_to_crash(|| 42).unwrap(), 42);
        let real = std::panic::catch_unwind(|| {
            let _ = run_to_crash(|| -> () { panic!("real bug") });
        });
        assert!(real.is_err(), "real panics must propagate");
    }
}
