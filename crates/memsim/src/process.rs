//! Reactive processes: the programs the simulator runs.
//!
//! A [`Process`] is resumed with the result of its previous instruction
//! and yields its next [`Step`]. Memory instructions are issued as
//! *intents* ([`PInstr`]) — without result values, which the machine
//! fills in — while operation markers carry the
//! [`Op`](jungle_core::op::Op) they delimit (the invocation's `Op` may
//! contain placeholder values; it is backpatched when the response
//! supplies the final one).

use jungle_core::ids::Val;
use jungle_core::op::Op;
use jungle_isa::instr::Addr;

/// A hardware instruction intent (result values to be filled in by the
/// machine).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PInstr {
    /// Load from an address; the machine returns the observed value.
    Load(Addr),
    /// A load that is data/control **dependent** on an earlier load of
    /// the same process. On models whose execution semantics order
    /// dependent loads (`order_dep_loads`, e.g. RMO) it always observes
    /// the current value; on models that relax even dependent loads
    /// (Alpha, Relaxed) it behaves exactly like [`PInstr::Load`].
    LoadDep(Addr),
    /// Store a value to an address.
    Store(Addr, Val),
    /// Compare-and-swap `addr: expect → new`; the machine returns 1 if
    /// it succeeded and 0 otherwise.
    Cas(Addr, Val, Val),
}

/// The next step of a reactive process.
#[derive(Clone, Debug)]
pub enum Step {
    /// Issue a hardware instruction.
    Instr(PInstr),
    /// Begin an operation: emits the invocation marker `(., op)`.
    Inv(Op),
    /// End the current operation: emits `(/, op)` and backpatches the
    /// matching invocation with this (final) `Op`.
    Resp(Op),
    /// The process has finished.
    Done,
}

/// The result handed back to a process when it is resumed.
///
/// `None` after markers and at the first resumption; `Some(v)` carries a
/// load's observed value or a CAS's success flag (1/0). Stores complete
/// with `Some(0)` once *issued* (they may still sit in a store buffer).
pub type Resume = Option<Val>;

/// A reactive program run on one simulated CPU.
pub trait Process {
    /// Resume the process with the result of its previous step.
    fn next(&mut self, last: Resume) -> Step;
}

/// A process defined by a fixed script of steps, ignoring results.
/// Useful for litmus tests whose instruction stream is data-independent.
pub struct ScriptProcess {
    steps: std::vec::IntoIter<Step>,
}

impl ScriptProcess {
    /// Create a process that plays `steps` then finishes.
    pub fn new(steps: Vec<Step>) -> Self {
        ScriptProcess {
            steps: steps.into_iter(),
        }
    }
}

impl Process for ScriptProcess {
    fn next(&mut self, _last: Resume) -> Step {
        self.steps.next().unwrap_or(Step::Done)
    }
}

impl std::fmt::Debug for ScriptProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScriptProcess").finish_non_exhaustive()
    }
}

/// A process driven by a closure over its own state: the quick way to
/// write a data-dependent process in a test.
pub struct FnProcess<F: FnMut(Resume) -> Step> {
    f: F,
}

impl<F: FnMut(Resume) -> Step> FnProcess<F> {
    /// Wrap a closure as a process.
    pub fn new(f: F) -> Self {
        FnProcess { f }
    }
}

impl<F: FnMut(Resume) -> Step> Process for FnProcess<F> {
    fn next(&mut self, last: Resume) -> Step {
        (self.f)(last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_process_plays_and_finishes() {
        let mut p = ScriptProcess::new(vec![
            Step::Instr(PInstr::Store(0, 1)),
            Step::Instr(PInstr::Load(0)),
        ]);
        assert!(matches!(p.next(None), Step::Instr(PInstr::Store(0, 1))));
        assert!(matches!(p.next(Some(0)), Step::Instr(PInstr::Load(0))));
        assert!(matches!(p.next(Some(1)), Step::Done));
        assert!(matches!(p.next(None), Step::Done));
    }

    #[test]
    fn fn_process_sees_results() {
        let mut state = 0u32;
        let mut p = FnProcess::new(move |last| {
            state += 1;
            match state {
                1 => Step::Instr(PInstr::Load(7)),
                2 => {
                    assert_eq!(last, Some(42));
                    Step::Done
                }
                _ => Step::Done,
            }
        });
        assert!(matches!(p.next(None), Step::Instr(PInstr::Load(7))));
        assert!(matches!(p.next(Some(42)), Step::Done));
    }
}
