//! Reactive processes: the programs the simulator runs.
//!
//! A [`Process`] is resumed with the result of its previous instruction
//! and yields its next [`Step`]. Memory instructions are issued as
//! *intents* ([`PInstr`]) — without result values, which the machine
//! fills in — while operation markers carry the
//! [`Op`] they delimit (the invocation's `Op` may
//! contain placeholder values; it is backpatched when the response
//! supplies the final one).

use jungle_core::ids::Val;
use jungle_core::op::Op;
use jungle_isa::instr::Addr;
use std::any::Any;
use std::sync::Arc;

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
///
/// A process can be copied in its current state, which is what makes a
/// [`Machine`](crate::Machine) `Clone`: a sweep builds its machine once
/// and resets a working copy from it before every run.
pub trait Process: Any {
    /// Resume the process with the result of its previous step.
    fn next(&mut self, last: Resume) -> Step;

    /// A copy of this process, in its current state, in a new box.
    fn boxed_clone(&self) -> Box<dyn Process>;

    /// Make `dst` a copy of this process, in place (reusing its
    /// buffers) when it holds one of the same type: a `Clone` process
    /// calls [`clone_onto`].
    fn clone_onto(&self, dst: &mut Box<dyn Process>);
}

/// [`Process::clone_onto`] for a `Clone` process: `dst := src.clone()`,
/// through [`Clone::clone_from`] when `dst` already holds a `T`.
pub fn clone_onto<T: Process + Clone>(src: &T, dst: &mut Box<dyn Process>) {
    match (&mut **dst as &mut dyn Any).downcast_mut::<T>() {
        Some(d) => d.clone_from(src),
        None => *dst = Box::new(src.clone()),
    }
}

/// A process defined by a fixed script of steps, ignoring results.
/// Useful for litmus tests whose instruction stream is data-independent.
#[derive(Clone)]
pub struct ScriptProcess {
    steps: Arc<[Step]>,
    /// The next step to play.
    at: usize,
}

impl ScriptProcess {
    /// Create a process that plays `steps` then finishes.
    pub fn new(steps: Vec<Step>) -> Self {
        ScriptProcess {
            steps: steps.into(),
            at: 0,
        }
    }
}

impl Process for ScriptProcess {
    fn next(&mut self, _last: Resume) -> Step {
        let step = self.steps.get(self.at).cloned().unwrap_or(Step::Done);
        self.at += 1;
        step
    }

    fn boxed_clone(&self) -> Box<dyn Process> {
        Box::new(self.clone())
    }

    fn clone_onto(&self, dst: &mut Box<dyn Process>) {
        clone_onto(self, dst)
    }
}

impl std::fmt::Debug for ScriptProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScriptProcess").finish_non_exhaustive()
    }
}

/// A process driven by a closure over its own state: the quick way to
/// write a data-dependent process in a test. The closure is cloned with
/// the process, so its captured state is copied too.
#[derive(Clone)]
pub struct FnProcess<F: FnMut(Resume) -> Step + Clone + 'static> {
    f: F,
}

impl<F: FnMut(Resume) -> Step + Clone + 'static> FnProcess<F> {
    /// Wrap a closure as a process.
    pub fn new(f: F) -> Self {
        FnProcess { f }
    }
}

impl<F: FnMut(Resume) -> Step + Clone + 'static> Process for FnProcess<F> {
    fn next(&mut self, last: Resume) -> Step {
        (self.f)(last)
    }

    fn boxed_clone(&self) -> Box<dyn Process> {
        Box::new(self.clone())
    }

    fn clone_onto(&self, dst: &mut Box<dyn Process>) {
        clone_onto(self, dst)
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
    fn a_copy_resumes_where_its_original_stands() {
        let mut p = ScriptProcess::new(vec![
            Step::Instr(PInstr::Load(0)),
            Step::Instr(PInstr::Load(1)),
        ]);
        p.next(None);
        // Onto a process of the same type: copied in place.
        let mut dst: Box<dyn Process> = Box::new(ScriptProcess::new(Vec::new()));
        p.clone_onto(&mut dst);
        assert!(matches!(dst.next(None), Step::Instr(PInstr::Load(1))));
        assert!(matches!(
            p.boxed_clone().next(None),
            Step::Instr(PInstr::Load(1))
        ));
        // Onto another type: replaced.
        let mut n = 0;
        let f = FnProcess::new(move |_| {
            n += 1;
            Step::Instr(PInstr::Load(n))
        });
        f.clone_onto(&mut dst);
        assert!(matches!(dst.next(None), Step::Instr(PInstr::Load(1))));
        assert!(matches!(dst.next(None), Step::Instr(PInstr::Load(2))));
        // The closure's state is copied with it.
        let mut again = dst.boxed_clone();
        assert!(matches!(again.next(None), Step::Instr(PInstr::Load(3))));
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
