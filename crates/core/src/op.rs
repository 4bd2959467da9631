//! Operations and commands (§2 *Preliminaries*).
//!
//! The paper's set of operations is `Ô = O ∪ {start, commit, abort}`,
//! where `O ⊆ C × Obj` pairs a *command* (with its arguments and return
//! value) with the object it acts on. Besides plain reads and writes, the
//! framework supports the *control/data-dependent* read and write commands
//! (`cdrd`, `ddrd`, `cdwr`, `ddwr` in the paper) that the RMO and Alpha
//! models need in order to distinguish dependent from independent
//! accesses, and the `havoc` command produced by the Junk-SC
//! transformation function. Every object is a read/write register.

use crate::ids::{OpId, Val, Var};
use std::fmt;

/// Whether a dependent operation is control- or data-dependent on its
/// predecessors (the `cd`/`dd` prefix of the paper's dependent commands).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DepKind {
    /// Control dependency (the operation is guarded by a branch whose
    /// condition was computed from the predecessor operations).
    Control,
    /// Data dependency (the operation's address or value was computed
    /// from the predecessors' results).
    Data,
}

/// A command on a shared object, with arguments and return values
/// inlined — an element of the paper's set `C`, paired with its object.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Command {
    /// `(rd, v)` on `var`: a read returning value `val`.
    Read {
        /// Object read.
        var: Var,
        /// Value returned by the read.
        val: Val,
    },
    /// `(wr, v)` on `var`: a write storing `val`.
    Write {
        /// Object written.
        var: Var,
        /// Value stored.
        val: Val,
    },
    /// `(cdrd/ddrd, v, K)` on `var`: a read that is control- or
    /// data-dependent on the operations in `deps`.
    DepRead {
        /// Object read.
        var: Var,
        /// Value returned.
        val: Val,
        /// Control or data dependency.
        kind: DepKind,
        /// The operation identifiers this read depends on (the set `K`).
        deps: Vec<OpId>,
    },
    /// `(cdwr/ddwr, v, K)` on `var`: a write that is control- or
    /// data-dependent on the operations in `deps`.
    DepWrite {
        /// Object written.
        var: Var,
        /// Value stored.
        val: Val,
        /// Control or data dependency.
        kind: DepKind,
        /// The operation identifiers this write depends on.
        deps: Vec<OpId>,
    },
    /// The `havoc` pseudo-command introduced by transformation functions
    /// of models without out-of-thin-air guarantees (Junk-SC, §3.2):
    /// after `havoc(x)` and before the next write of `x`, a read of `x`
    /// may return *any* value.
    Havoc {
        /// Object whose value becomes unconstrained.
        var: Var,
    },
}

impl Command {
    /// The object this command acts on.
    pub fn var(&self) -> Var {
        match self {
            Command::Read { var, .. }
            | Command::Write { var, .. }
            | Command::DepRead { var, .. }
            | Command::DepWrite { var, .. }
            | Command::Havoc { var } => *var,
        }
    }

    /// True for plain and dependent reads ("read operation" in the
    /// paper's general sense, which covers `rd`, `cdrd` and `ddrd`).
    pub fn is_read(&self) -> bool {
        matches!(self, Command::Read { .. } | Command::DepRead { .. })
    }

    /// True for plain and dependent writes (covers `wr`, `cdwr`, `ddwr`).
    pub fn is_write(&self) -> bool {
        matches!(self, Command::Write { .. } | Command::DepWrite { .. })
    }

    /// The value returned, for reads.
    pub fn read_val(&self) -> Option<Val> {
        match self {
            Command::Read { val, .. } | Command::DepRead { val, .. } => Some(*val),
            _ => None,
        }
    }

    /// The value stored, for writes.
    pub(crate) fn written_val(&self) -> Option<Val> {
        match self {
            Command::Write { val, .. } | Command::DepWrite { val, .. } => Some(*val),
            _ => None,
        }
    }

    /// The dependency set `K` with its kind, for dependent commands.
    pub fn deps(&self) -> Option<(DepKind, &[OpId])> {
        match self {
            Command::DepRead { kind, deps, .. } | Command::DepWrite { kind, deps, .. } => {
                Some((*kind, deps))
            }
            _ => None,
        }
    }
}

/// An operation — an element of `Ô = O ∪ {start, commit, abort}`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Op {
    /// A command on a shared object (an element of `O`).
    Cmd(Command),
    /// Start of a transaction.
    Start,
    /// Commit of a transaction.
    Commit,
    /// Abort of a transaction.
    Abort,
}

impl Op {
    /// The command, if this is an object operation.
    pub fn command(&self) -> Option<&Command> {
        match self {
            Op::Cmd(c) => Some(c),
            _ => None,
        }
    }
}

impl fmt::Display for Command {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Command::Read { var, val } => write!(f, "(rd,{var},{val})"),
            Command::Write { var, val } => write!(f, "(wr,{var},{val})"),
            Command::DepRead {
                var,
                val,
                kind,
                deps,
            } => {
                let k = if *kind == DepKind::Control {
                    "cdrd"
                } else {
                    "ddrd"
                };
                write!(f, "({k},{var},{val},{{")?;
                for (i, d) in deps.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{d}")?;
                }
                write!(f, "}})")
            }
            Command::DepWrite {
                var,
                val,
                kind,
                deps,
            } => {
                let k = if *kind == DepKind::Control {
                    "cdwr"
                } else {
                    "ddwr"
                };
                write!(f, "({k},{var},{val},{{")?;
                for (i, d) in deps.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{d}")?;
                }
                write!(f, "}})")
            }
            Command::Havoc { var } => write!(f, "(havoc,{var})"),
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Cmd(c) => write!(f, "{c}"),
            Op::Start => write!(f, "start"),
            Op::Commit => write!(f, "commit"),
            Op::Abort => write!(f, "abort"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{X, Y};

    #[test]
    fn read_write_predicates() {
        let r = Command::Read { var: X, val: 1 };
        let w = Command::Write { var: Y, val: 2 };
        let dr = Command::DepRead {
            var: X,
            val: 0,
            kind: DepKind::Data,
            deps: vec![OpId(1)],
        };
        let dw = Command::DepWrite {
            var: Y,
            val: 3,
            kind: DepKind::Control,
            deps: vec![OpId(2)],
        };
        assert!(r.is_read() && !r.is_write());
        assert!(w.is_write() && !w.is_read());
        assert!(dr.is_read() && !dr.is_write());
        assert!(dw.is_write() && !dw.is_read());
        assert_eq!(r.read_val(), Some(1));
        assert_eq!(w.written_val(), Some(2));
        assert_eq!(dr.deps().unwrap().0, DepKind::Data);
        assert_eq!(dw.deps().unwrap().1, &[OpId(2)]);
    }

    #[test]
    fn vars_extracted() {
        assert_eq!(Command::Havoc { var: X }.var(), X);
    }

    #[test]
    fn boundary_ops() {
        assert!(Op::Cmd(Command::Read { var: X, val: 0 })
            .command()
            .is_some());
        assert!(Op::Start.command().is_none());
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(Command::Read { var: X, val: 1 }.to_string(), "(rd,x,1)");
        assert_eq!(Command::Write { var: Y, val: 2 }.to_string(), "(wr,y,2)");
        assert_eq!(Op::Start.to_string(), "start");
        let d = Command::DepRead {
            var: X,
            val: 0,
            kind: DepKind::Data,
            deps: vec![OpId(3)],
        };
        assert_eq!(d.to_string(), "(ddrd,x,0,{#3})");
    }
}
