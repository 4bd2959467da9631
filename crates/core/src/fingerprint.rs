//! Stable 64-bit structural fingerprints.
//!
//! The model-checking sweeps in `jungle-mc` deduplicate structurally
//! identical interleavings and memoize checker verdicts. Both need a
//! key that is (a) cheap, (b) identical for structurally identical
//! inputs across runs and machines, and (c) collision-resistant enough
//! that a 64-bit value can stand in for the structure in a seen-set.
//! FNV-1a over a canonical word stream satisfies all three; this module
//! provides the hasher plus the canonical encoding of an [`Op`] so that
//! [`History::cache_key`](crate::history::History::cache_key) and the
//! trace fingerprint in `jungle-isa` agree on how operations are folded.
//!
//! These fingerprints are *identification* hashes, not security hashes:
//! a 64-bit collision between distinct structures is possible in
//! principle, and callers that cannot tolerate even a vanishing error
//! probability should key on the full structure instead.

use crate::op::{Command, DepKind, Op};

/// Incremental FNV-1a (64-bit) over a stream of words.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher in the initial state.
    pub fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    /// Fold one 64-bit word in, little-endian byte by byte.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// The current hash value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// Fold one operation's full structure (kind, object, values,
/// dependency sets) into a hasher. Distinct operations always produce
/// distinct word streams: every variant starts with a unique tag and
/// variable-length parts are length-prefixed.
pub fn fold_op(f: &mut Fnv1a, op: &Op) {
    match op {
        Op::Start => f.word(1),
        Op::Commit => f.word(2),
        Op::Abort => f.word(3),
        Op::Cmd(c) => {
            f.word(4);
            fold_command(f, c);
        }
    }
}

fn fold_command(f: &mut Fnv1a, c: &Command) {
    match c {
        Command::Read { var, val } => {
            f.word(10);
            f.word(u64::from(var.0));
            f.word(*val);
        }
        Command::Write { var, val } => {
            f.word(11);
            f.word(u64::from(var.0));
            f.word(*val);
        }
        Command::Havoc { var } => {
            f.word(12);
            f.word(u64::from(var.0));
        }
        Command::DepRead {
            var,
            val,
            kind,
            deps,
        }
        | Command::DepWrite {
            var,
            val,
            kind,
            deps,
        } => {
            f.word(if matches!(c, Command::DepRead { .. }) {
                14
            } else {
                15
            });
            f.word(u64::from(var.0));
            f.word(*val);
            f.word(match kind {
                DepKind::Control => 0,
                DepKind::Data => 1,
            });
            f.word(deps.len() as u64);
            for d in deps {
                f.word(u64::from(d.0));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{OpId, X, Y};

    fn hash_op(op: &Op) -> u64 {
        let mut f = Fnv1a::new();
        fold_op(&mut f, op);
        f.finish()
    }

    #[test]
    fn known_fnv_vector() {
        // FNV-1a of the empty input is the offset basis.
        assert_eq!(Fnv1a::new().finish(), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn distinct_ops_distinct_hashes() {
        let ops = [
            Op::Start,
            Op::Commit,
            Op::Abort,
            Op::Cmd(Command::Read { var: X, val: 0 }),
            Op::Cmd(Command::Read { var: X, val: 1 }),
            Op::Cmd(Command::Read { var: Y, val: 0 }),
            Op::Cmd(Command::Write { var: X, val: 0 }),
            Op::Cmd(Command::Havoc { var: X }),
            Op::Cmd(Command::DepRead {
                var: X,
                val: 0,
                kind: DepKind::Control,
                deps: vec![OpId(1)],
            }),
            Op::Cmd(Command::DepRead {
                var: X,
                val: 0,
                kind: DepKind::Data,
                deps: vec![OpId(1)],
            }),
            Op::Cmd(Command::DepWrite {
                var: X,
                val: 0,
                kind: DepKind::Data,
                deps: vec![OpId(1)],
            }),
        ];
        let hashes: Vec<u64> = ops.iter().map(hash_op).collect();
        for i in 0..hashes.len() {
            for j in (i + 1)..hashes.len() {
                assert_ne!(
                    hashes[i], hashes[j],
                    "collision: {:?} vs {:?}",
                    ops[i], ops[j]
                );
            }
        }
    }

    #[test]
    fn hashing_is_deterministic() {
        let op = Op::Cmd(Command::Write { var: X, val: 7 });
        assert_eq!(hash_op(&op), hash_op(&op));
    }
}
