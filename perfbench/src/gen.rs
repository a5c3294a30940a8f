//! Seeded input generators and the answers they predict.
//!
//! Everything the program under test receives is produced here from the
//! `--seed` argument: the database source text, the `:apply` payloads,
//! the `:query` atoms and the view-update requests. Each generated
//! operation carries the answer the generator expects, so the benchmark
//! checks every response without asking the program for a second
//! opinion.

use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Edges per chain in the recursive-closure workloads.
pub const CHAIN_LEN: usize = 40;

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// An independent stream for one consumer (writer, query client…).
    pub fn fork(&self, stream: u64) -> Rng {
        let mut r = Rng(self.0 ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The chain database: `chains` disjoint chains of [`CHAIN_LEN`] edges
/// under recursive `tc`, the non-recursive views `src`/`quiet`, and the
/// acyclicity constraint.
pub fn chain_source(chains: usize) -> String {
    let mut src = String::from(
        "#base e/2.\n#base m/1.\n\
         tc(X, Y) :- e(X, Y).\n\
         tc(X, Y) :- e(X, Z), tc(Z, Y).\n\
         src(X) :- e(X, Y).\n\
         quiet(X) :- m(X), not src(X).\n\
         :- tc(X, X).\n",
    );
    for c in 0..chains {
        for i in 0..CHAIN_LEN {
            let _ = writeln!(src, "e(c{c}_{i}, c{c}_{}).", i + 1);
        }
        let _ = writeln!(src, "m(c{c}_0).");
    }
    src
}

/// Base facts and derived tuples of [`chain_source`].
pub fn chain_sizes(chains: usize) -> (usize, usize) {
    let base = chains * (CHAIN_LEN + 1);
    let tc = chains * CHAIN_LEN * (CHAIN_LEN + 1) / 2;
    (base, tc + chains * CHAIN_LEN)
}

/// What a generated `:apply` must answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expect {
    /// `applied {base}; induced {derived}` with exactly these events.
    Applied {
        base: BTreeSet<String>,
        induced: BTreeSet<String>,
    },
    /// `REJECTED: …` by the acyclicity constraint.
    Rejected,
}

/// One generated write: the transaction text and its predicted answer.
#[derive(Clone, Debug)]
pub struct WriteOp {
    pub txn: String,
    pub expect: Expect,
}

/// The write mix, in percent of operations.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    pub cycle: usize,
    pub extend: usize,
    pub delete: usize,
}

/// The `write_*` mix: isolated-edge inserts make up the rest.
pub const WRITE_MIX: Mix = Mix {
    cycle: 4,
    extend: 32,
    delete: 24,
};

/// Only isolated-edge inserts (the writer beside the readers).
pub const INSERT_ONLY: Mix = Mix {
    cycle: 0,
    extend: 0,
    delete: 0,
};

/// One writer's infinite, seeded operation stream. Writer `w` of `n`
/// owns the chains `k ≡ w (mod n)` and its own isolated-edge names, so
/// the writers' streams commute: each answer is predictable from the
/// writer's own prefix, whatever the interleaving.
#[derive(Clone, Debug)]
pub struct WriterStream {
    id: usize,
    rng: Rng,
    mix: Mix,
    /// Owned chains and their current edge count.
    chains: Vec<(usize, usize)>,
    issued: usize,
    isolated: usize,
}

impl WriterStream {
    pub fn new(seed: &Rng, id: usize, writers: usize, chains: usize, mix: Mix) -> WriterStream {
        WriterStream {
            id,
            rng: seed.fork(100 + id as u64),
            mix,
            chains: (id..chains)
                .step_by(writers)
                .map(|k| (k, CHAIN_LEN))
                .collect(),
            issued: 0,
            isolated: 0,
        }
    }

    /// The owned chains and their edge counts after the ops issued so far.
    pub fn chains(&self) -> &[(usize, usize)] {
        &self.chains
    }

    /// Isolated edges inserted so far.
    pub fn isolated(&self) -> usize {
        self.isolated
    }

    pub fn next_op(&mut self) -> WriteOp {
        self.issued += 1;
        let roll = self.rng.below(100);
        let Mix {
            cycle,
            extend,
            delete,
        } = self.mix;
        if roll < cycle {
            let (k, len) = self.chains[self.rng.below(self.chains.len())];
            return WriteOp {
                txn: format!("+e(c{k}_{len}, c{k}_0)."),
                expect: Expect::Rejected,
            };
        }
        if roll < cycle + extend + delete {
            let slot = self.rng.below(self.chains.len());
            let (k, len) = self.chains[slot];
            // Only edges added by earlier extensions are deleted, so every
            // chain keeps at least its initial length.
            if roll >= cycle + extend && len > CHAIN_LEN {
                self.chains[slot].1 -= 1;
                let mut induced: BTreeSet<String> = (0..len)
                    .map(|i| format!("-tc(c{k}_{i}, c{k}_{len})"))
                    .collect();
                induced.insert(format!("-src(c{k}_{})", len - 1));
                return applied(format!("-e(c{k}_{}, c{k}_{len})", len - 1), induced);
            }
            self.chains[slot].1 += 1;
            let next = len + 1;
            let mut induced: BTreeSet<String> = (0..=len)
                .map(|i| format!("+tc(c{k}_{i}, c{k}_{next})"))
                .collect();
            induced.insert(format!("+src(c{k}_{len})"));
            return applied(format!("+e(c{k}_{len}, c{k}_{next})"), induced);
        }
        self.isolated += 1;
        let (a, b) = (
            format!("w{}_s{}", self.id, self.issued),
            format!("w{}_t{}", self.id, self.issued),
        );
        let induced = [format!("+tc({a}, {b})"), format!("+src({a})")].into();
        applied(format!("+e({a}, {b})"), induced)
    }
}

fn applied(event: String, induced: BTreeSet<String>) -> WriteOp {
    WriteOp {
        txn: format!("{event}."),
        expect: Expect::Applied {
            base: [event].into(),
            induced,
        },
    }
}

/// One generated `:query` and its exact answer set.
#[derive(Clone, Debug)]
pub struct QueryOp {
    pub kind: QueryKind,
    pub atom: String,
    pub answers: BTreeSet<String>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryKind {
    /// `src(c<k>_<i>)`: non-recursive point query.
    Point,
    /// `tc(c<k>_<i>, X)`: first argument bound.
    BoundFirst,
    /// `tc(X, c<k>_<j>)`: first argument free.
    FreeFirst,
}

/// The read stream: a fixed rotation of query shapes (3 point, 3
/// bound-first, 4 free-first in every ten), seeded arguments. The chains
/// never change under the read mix (its writer inserts only isolated
/// edges), so every answer set is known up front.
#[derive(Clone, Debug)]
pub struct QueryStream {
    rng: Rng,
    chains: usize,
    issued: usize,
}

const ROTATION: [QueryKind; 10] = [
    QueryKind::Point,
    QueryKind::BoundFirst,
    QueryKind::FreeFirst,
    QueryKind::Point,
    QueryKind::BoundFirst,
    QueryKind::FreeFirst,
    QueryKind::Point,
    QueryKind::BoundFirst,
    QueryKind::FreeFirst,
    QueryKind::FreeFirst,
];

impl QueryStream {
    pub fn new(seed: &Rng, chains: usize) -> QueryStream {
        QueryStream {
            rng: seed.fork(200),
            chains,
            issued: 0,
        }
    }

    pub fn next_op(&mut self) -> QueryOp {
        let kind = ROTATION[self.issued % ROTATION.len()];
        self.issued += 1;
        let k = self.rng.below(self.chains);
        match kind {
            QueryKind::Point => {
                let i = self.rng.below(CHAIN_LEN + 1);
                let atom = format!("src(c{k}_{i})");
                let answers = if i < CHAIN_LEN {
                    [atom.clone()].into()
                } else {
                    BTreeSet::new()
                };
                QueryOp {
                    kind,
                    atom,
                    answers,
                }
            }
            QueryKind::BoundFirst => {
                let i = self.rng.below(CHAIN_LEN);
                QueryOp {
                    kind,
                    atom: format!("tc(c{k}_{i}, X)"),
                    answers: (i + 1..=CHAIN_LEN)
                        .map(|j| format!("tc(c{k}_{i}, c{k}_{j})"))
                        .collect(),
                }
            }
            QueryKind::FreeFirst => {
                let j = 1 + self.rng.below(CHAIN_LEN);
                QueryOp {
                    kind,
                    atom: format!("tc(X, c{k}_{j})"),
                    answers: (0..j).map(|i| format!("tc(c{k}_{i}, c{k}_{j})")).collect(),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_for_a_seed() {
        let seed = Rng::new(7);
        let take =
            |mut s: WriterStream| -> Vec<String> { (0..50).map(|_| s.next_op().txn).collect() };
        assert_eq!(
            take(WriterStream::new(&seed, 0, 2, 10, WRITE_MIX)),
            take(WriterStream::new(&seed, 0, 2, 10, WRITE_MIX))
        );
        assert_ne!(
            take(WriterStream::new(&seed, 0, 2, 10, WRITE_MIX)),
            take(WriterStream::new(&Rng::new(8), 0, 2, 10, WRITE_MIX))
        );
    }

    #[test]
    fn chain_sizes_match_the_source() {
        let facts = chain_source(3)
            .lines()
            .filter(|l| l.starts_with("e(") || l.starts_with("m("))
            .count();
        assert_eq!(chain_sizes(3).0, facts);
    }
}
