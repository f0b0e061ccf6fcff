//! Work-group contexts and the WG state machine.

use awg_isa::{RegFile, NUM_REGS};
use awg_mem::Addr;
use awg_sim::{CodecError, Cycle, Dec, Enc, WgLedger};

use crate::policy::{SyncCond, WaitDirective};

/// A work-group identifier (flat index within the grid).
pub type WgId = u32;

/// The WG scheduling states tracked by the CP (§V.A: "stalled, context
/// switching out, waiting, ready, or context switching in").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WgState {
    /// Not yet dispatched.
    Pending,
    /// Resources reserved, dispatch latency in flight.
    Dispatching,
    /// Resident and executing (or blocked on an in-flight memory op).
    Running,
    /// Resident but idle for a software-visible duration (`s_sleep`,
    /// backoff, Timeout's non-oversubscribed stall).
    Sleeping,
    /// Resident, waiting on a synchronization condition while holding its
    /// resources.
    Stalled,
    /// Context save traffic in flight.
    SwappingOut,
    /// Context switched out, still waiting on its condition.
    SwappedWaiting,
    /// Context switched out and eligible to be swapped back in.
    ReadySwapped,
    /// Context restore traffic in flight.
    SwappingIn,
    /// Halted.
    Finished,
}

impl WgState {
    /// All states, in their stable checkpoint-encoding order.
    pub const ALL: [WgState; 10] = [
        WgState::Pending,
        WgState::Dispatching,
        WgState::Running,
        WgState::Sleeping,
        WgState::Stalled,
        WgState::SwappingOut,
        WgState::SwappedWaiting,
        WgState::ReadySwapped,
        WgState::SwappingIn,
        WgState::Finished,
    ];

    fn encode_index(self) -> u8 {
        self.census_index() as u8
    }

    /// This state's position in [`ALL`](Self::ALL) — the row index used by
    /// the machine's struct-of-arrays state census and the checkpoint
    /// encoding. A direct match, not a linear search: the census is
    /// updated on every WG transition, squarely on the wake/dispatch path.
    pub(crate) fn census_index(self) -> usize {
        match self {
            WgState::Pending => 0,
            WgState::Dispatching => 1,
            WgState::Running => 2,
            WgState::Sleeping => 3,
            WgState::Stalled => 4,
            WgState::SwappingOut => 5,
            WgState::SwappedWaiting => 6,
            WgState::ReadySwapped => 7,
            WgState::SwappingIn => 8,
            WgState::Finished => 9,
        }
    }

    /// Whether the WG currently holds CU resources.
    pub fn is_resident(self) -> bool {
        matches!(
            self,
            WgState::Dispatching
                | WgState::Running
                | WgState::Sleeping
                | WgState::Stalled
                | WgState::SwappingOut
        )
    }

    /// The telemetry-level accounting class for this state.
    ///
    /// Collapses the CP's internal distinctions into the coarser classes
    /// the telemetry hub reports time-in-state for.
    pub fn progress_class(self) -> awg_sim::telemetry::ProgressState {
        use awg_sim::telemetry::ProgressState;
        match self {
            WgState::Pending | WgState::Dispatching => ProgressState::Queued,
            WgState::Running => ProgressState::Running,
            WgState::Stalled => ProgressState::Stalled,
            WgState::Sleeping => ProgressState::Sleeping,
            WgState::SwappingOut => ProgressState::SwapOut,
            WgState::SwappedWaiting | WgState::ReadySwapped => ProgressState::SwappedOut,
            WgState::SwappingIn => ProgressState::SwapIn,
            WgState::Finished => ProgressState::Finished,
        }
    }
}

/// The response of a completed sync-sensitive operation, parked until the
/// WG is allowed to observe it (Mesa semantics: the program rechecks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParkedResponse {
    /// Destination register, if any (`wait` instructions have none).
    pub dst: Option<awg_isa::Reg>,
    /// Value to deliver.
    pub value: i64,
}

/// One work-group's full simulation context.
#[derive(Debug)]
pub struct Wg {
    /// Flat id.
    pub id: WgId,
    /// Scheduling state.
    pub state: WgState,
    /// CU the WG is resident on, when resident.
    pub cu: Option<usize>,
    /// Program counter.
    pub pc: usize,
    /// Architectural registers.
    pub regs: RegFile,
    /// Event-staleness token: bumped whenever the WG changes state so that
    /// in-flight events for the old state are ignored.
    pub token: u64,
    /// Parked response to deliver on wake.
    pub parked: Option<ParkedResponse>,
    /// Condition the WG is waiting on, when waiting.
    pub cond: Option<SyncCond>,
    /// Policy directive to apply when the in-flight sync response arrives.
    pub pending_directive: Option<WaitDirective>,
    /// Absolute deadline of the current fallback timeout, if any (kept so a
    /// forced context switch can re-arm the timeout after the transition).
    pub timeout_at: Option<Cycle>,
    /// A wake arrived while the WG was mid-swap-out; it becomes ready as
    /// soon as the save completes.
    pub woke: bool,
    /// The resource-loss event wants this WG preempted as soon as its
    /// in-flight operation completes.
    pub force_out: bool,
    /// Cycle the WG was first dispatched.
    pub dispatched_at: Option<Cycle>,
    /// Cycle the WG finished.
    pub finished_at: Option<Cycle>,
    /// The WG's time ledger: every cycle it has lived, by (state, cause).
    /// Advanced only by the machine's state transitions.
    pub ledger: WgLedger,
    /// Dynamic instruction count.
    pub insts: u64,
    /// Dynamic atomic instruction count (the Fig 9 metric).
    pub atomics: u64,
    /// Number of context switches out.
    pub switches_out: u32,
    /// A wake was delivered and the next sync check has not yet succeeded
    /// (used to count unnecessary resumes).
    pub wake_pending_check: bool,
    /// Address of the most recent atomic (spin detection for busy-wait
    /// architectures that never declare a wait condition).
    pub last_atomic: Option<Addr>,
    /// Consecutive atomics issued to `last_atomic`.
    pub atomic_streak: u64,
    /// The WG's current off-CU episode was forced by an injected fault
    /// (CU loss) rather than chosen by the scheduler. Cleared on the next
    /// return to `Running`; drives the telemetry attribution ledger's
    /// fault-stall vs. preempted split.
    pub fault_evicted: bool,
}

impl Wg {
    /// Creates a pending WG.
    pub fn new(id: WgId) -> Self {
        Wg {
            id,
            state: WgState::Pending,
            cu: None,
            pc: 0,
            regs: RegFile::new(),
            token: 0,
            parked: None,
            cond: None,
            pending_directive: None,
            timeout_at: None,
            woke: false,
            force_out: false,
            dispatched_at: None,
            finished_at: None,
            ledger: WgLedger::default(),
            insts: 0,
            atomics: 0,
            switches_out: 0,
            wake_pending_check: false,
            last_atomic: None,
            atomic_streak: 0,
            fault_evicted: false,
        }
    }

    /// Bumps the staleness token and returns the new value.
    pub fn bump_token(&mut self) -> u64 {
        self.token += 1;
        self.token
    }

    /// Total cycles between dispatch and finish (or `now` if unfinished).
    pub fn lifetime(&self, now: Cycle) -> u64 {
        match (self.dispatched_at, self.finished_at) {
            (Some(d), Some(f)) => f - d,
            (Some(d), None) => now - d,
            _ => 0,
        }
    }

    /// The Fig 11 `(running, waiting)` split at `now`: waiting is the
    /// ledger's waiting cells with the open interval closed at `now`, and
    /// running is the rest of the lifetime.
    pub fn breakdown(&self, now: Cycle) -> (u64, u64) {
        let waiting = self.ledger.waiting(now);
        (self.lifetime(now).saturating_sub(waiting), waiting)
    }

    /// Serializes the WG's entire context — scheduling state, PC, registers,
    /// parked responses, wait condition, and accounting — for whole-machine
    /// checkpoints. The id is identity (the grid rebuilds it), not state.
    pub fn save(&self, enc: &mut Enc) {
        enc.u8(self.state.encode_index());
        enc.opt_u64(self.cu.map(|c| c as u64));
        enc.usize(self.pc);
        for &w in self.regs.words() {
            enc.i64(w);
        }
        enc.u64(self.token);
        match self.parked {
            None => enc.bool(false),
            Some(p) => {
                enc.bool(true);
                match p.dst {
                    None => enc.bool(false),
                    Some(r) => {
                        enc.bool(true);
                        enc.u8(r.index() as u8);
                    }
                }
                enc.i64(p.value);
            }
        }
        match self.cond {
            None => enc.bool(false),
            Some(c) => {
                enc.bool(true);
                enc.u64(c.addr);
                enc.i64(c.expected);
            }
        }
        match self.pending_directive {
            None => enc.bool(false),
            Some(d) => {
                enc.bool(true);
                save_directive(enc, d);
            }
        }
        enc.opt_u64(self.timeout_at);
        enc.bool(self.woke);
        enc.bool(self.force_out);
        enc.opt_u64(self.dispatched_at);
        enc.opt_u64(self.finished_at);
        self.ledger.save(enc);
        enc.u64(self.insts);
        enc.u64(self.atomics);
        enc.u32(self.switches_out);
        enc.bool(self.wake_pending_check);
        enc.opt_u64(self.last_atomic);
        enc.u64(self.atomic_streak);
        enc.bool(self.fault_evicted);
    }

    /// Overlays state written by [`Wg::save`] onto this WG (id untouched).
    pub fn load(&mut self, dec: &mut Dec<'_>) -> Result<(), CodecError> {
        let idx = dec.u8()? as usize;
        self.state = *WgState::ALL
            .get(idx)
            .ok_or_else(|| CodecError::Invalid(format!("bad WG state index {idx}")))?;
        self.cu = dec.opt_u64()?.map(|c| c as usize);
        self.pc = dec.usize()?;
        let mut words = [0i64; NUM_REGS];
        for w in &mut words {
            *w = dec.i64()?;
        }
        self.regs.load_words(words);
        self.token = dec.u64()?;
        self.parked = if dec.bool()? {
            let dst = if dec.bool()? {
                let r = dec.u8()?;
                if (r as usize) >= NUM_REGS {
                    return Err(CodecError::Invalid(format!("bad register index {r}")));
                }
                Some(awg_isa::Reg::new(r))
            } else {
                None
            };
            Some(ParkedResponse {
                dst,
                value: dec.i64()?,
            })
        } else {
            None
        };
        self.cond = if dec.bool()? {
            Some(SyncCond {
                addr: dec.u64()?,
                expected: dec.i64()?,
            })
        } else {
            None
        };
        self.pending_directive = if dec.bool()? {
            Some(load_directive(dec)?)
        } else {
            None
        };
        self.timeout_at = dec.opt_u64()?;
        self.woke = dec.bool()?;
        self.force_out = dec.bool()?;
        self.dispatched_at = dec.opt_u64()?;
        self.finished_at = dec.opt_u64()?;
        self.ledger = WgLedger::load(dec)?;
        self.insts = dec.u64()?;
        self.atomics = dec.u64()?;
        self.switches_out = dec.u32()?;
        self.wake_pending_check = dec.bool()?;
        self.last_atomic = dec.opt_u64()?;
        self.atomic_streak = dec.u64()?;
        self.fault_evicted = dec.bool()?;
        Ok(())
    }
}

fn save_directive(enc: &mut Enc, d: WaitDirective) {
    match d {
        WaitDirective::Retry => enc.u8(0),
        WaitDirective::SleepFor(c) => {
            enc.u8(1);
            enc.u64(c);
        }
        WaitDirective::Wait { release, timeout } => {
            enc.u8(2);
            enc.bool(release);
            enc.opt_u64(timeout);
        }
    }
}

fn load_directive(dec: &mut Dec<'_>) -> Result<WaitDirective, CodecError> {
    match dec.u8()? {
        0 => Ok(WaitDirective::Retry),
        1 => Ok(WaitDirective::SleepFor(dec.u64()?)),
        2 => Ok(WaitDirective::Wait {
            release: dec.bool()?,
            timeout: dec.opt_u64()?,
        }),
        t => Err(CodecError::Invalid(format!("bad wait directive tag {t}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residency_classification() {
        assert!(WgState::Running.is_resident());
        assert!(WgState::Stalled.is_resident());
        assert!(WgState::SwappingOut.is_resident());
        assert!(!WgState::SwappedWaiting.is_resident());
        assert!(!WgState::Pending.is_resident());
        assert!(!WgState::Finished.is_resident());
    }

    #[test]
    fn waiting_classification() {
        let waiting = |s: WgState| s.progress_class().is_waiting();
        for state in [
            WgState::Sleeping,
            WgState::Stalled,
            WgState::SwappingOut,
            WgState::SwappedWaiting,
            WgState::ReadySwapped,
            WgState::SwappingIn,
        ] {
            assert!(waiting(state), "{state:?}");
        }
        for state in [
            WgState::Pending,
            WgState::Dispatching,
            WgState::Running,
            WgState::Finished,
        ] {
            assert!(!waiting(state), "{state:?}");
        }
    }

    /// Drives `wg`'s ledger the way the machine does on a transition.
    fn enter(wg: &mut Wg, state: WgState, at: Cycle) {
        use awg_sim::AttributionCause;
        wg.state = state;
        wg.ledger
            .enter(state.progress_class(), AttributionCause::Queued, at);
    }

    #[test]
    fn waiting_accounting_across_transitions() {
        let mut wg = Wg::new(0);
        wg.dispatched_at = Some(100);
        enter(&mut wg, WgState::Running, 100);
        enter(&mut wg, WgState::Stalled, 200);
        enter(&mut wg, WgState::Running, 500);
        enter(&mut wg, WgState::Finished, 700);
        wg.finished_at = Some(700);
        assert_eq!(wg.lifetime(700), 600);
        assert_eq!(wg.breakdown(700), (300, 300));
    }

    #[test]
    fn waiting_chain_counts_once() {
        let mut wg = Wg::new(0);
        wg.dispatched_at = Some(0);
        enter(&mut wg, WgState::Running, 0);
        enter(&mut wg, WgState::Stalled, 100);
        // Stalled -> SwappingOut -> SwappedWaiting are all waiting states;
        // the episode must be accounted exactly once.
        enter(&mut wg, WgState::SwappingOut, 150);
        enter(&mut wg, WgState::SwappedWaiting, 300);
        enter(&mut wg, WgState::ReadySwapped, 400);
        assert_eq!(wg.ledger.episode_start(), Some(100));
        enter(&mut wg, WgState::SwappingIn, 450);
        enter(&mut wg, WgState::Running, 600);
        assert_eq!(wg.ledger.episode_start(), None);
        assert_eq!(wg.breakdown(600), (100, 500));
    }

    #[test]
    fn token_invalidates_monotonically() {
        let mut wg = Wg::new(0);
        let a = wg.bump_token();
        let b = wg.bump_token();
        assert!(b > a);
    }

    #[test]
    fn unfinished_running_cycles_use_now() {
        let mut wg = Wg::new(0);
        wg.dispatched_at = Some(0);
        enter(&mut wg, WgState::Running, 0);
        enter(&mut wg, WgState::Stalled, 60);
        assert_eq!(wg.breakdown(100), (60, 40));
        assert_eq!(wg.lifetime(100), 100);
    }
}
