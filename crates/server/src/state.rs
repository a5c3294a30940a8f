//! Snapshot publication: the immutable state readers query.
//!
//! The server's concurrency model has exactly one mutable place — the
//! writer's staging processor — and everything a reader touches is an
//! immutable [`Published`] value behind an `Arc`. After each group
//! commit the writer swaps a freshly built `Arc` into the [`StateCell`];
//! a session picks up whichever snapshot is current when its request
//! arrives and keeps querying that same `Arc` for the request's
//! duration. Reads therefore never block writes (the cell is held only
//! long enough to clone or store a pointer) and never observe a
//! half-applied batch: snapshot isolation by construction.

use dduf_core::upward::maintain::MaintenanceEngine;
use dduf_datalog::eval::Interpretation;
use dduf_datalog::storage::database::Database;
use std::sync::{Arc, RwLock};

/// One published state: the extensional database plus its materialized
/// derived relations, stamped with how much journal it covers.
#[derive(Debug)]
pub struct Published {
    /// The extensional database (program + base facts).
    pub db: Database,
    /// Materialization of every derived predicate over `db`.
    pub interp: Interpretation,
    /// The maintenance state (support counts + extensions) the writer
    /// carries across group-committed batches. Always `Some` for a
    /// state the writer published.
    pub maint: Option<MaintenanceEngine>,
    /// Journal byte offset this state is durable through.
    pub journal_end: u64,
    /// Transactions committed since the server started.
    pub commits: u64,
}

/// The single mutable slot the writer publishes through. Readers
/// [`load`](StateCell::load) an `Arc` and work off it lock-free; the
/// writer [`publish`](StateCell::publish)es a replacement pointer after
/// each durable batch.
#[derive(Debug)]
pub struct StateCell {
    slot: RwLock<Arc<Published>>,
}

impl StateCell {
    /// Creates the cell holding the server's initial (recovered) state.
    pub fn new(initial: Published) -> StateCell {
        StateCell {
            slot: RwLock::new(Arc::new(initial)),
        }
    }

    /// The current snapshot. The lock is held only to clone the `Arc`;
    /// all querying happens on the returned owned value.
    pub fn load(&self) -> Arc<Published> {
        self.slot.read().expect("state cell poisoned").clone()
    }

    /// Atomically replaces the published snapshot. Readers holding the
    /// previous `Arc` keep their consistent view until they drop it.
    pub fn publish(&self, next: Published) {
        *self.slot.write().expect("state cell poisoned") = Arc::new(next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dduf_core::processor::UpdateProcessor;
    use dduf_datalog::parser::parse_database;

    #[test]
    fn readers_keep_their_snapshot_across_a_publish() {
        let db = parse_database("p(a). q(X) :- p(X).").unwrap();
        let proc = UpdateProcessor::new(db).unwrap();
        let state = proc.into_state();
        let cell = StateCell::new(Published {
            db: state.db,
            interp: state.interp,
            maint: state.maint,
            journal_end: 8,
            commits: 0,
        });
        let before = cell.load();

        let db2 = parse_database("p(a). p(b). q(X) :- p(X).").unwrap();
        let state2 = UpdateProcessor::new(db2).unwrap().into_state();
        cell.publish(Published {
            db: state2.db,
            interp: state2.interp,
            maint: state2.maint,
            journal_end: 42,
            commits: 1,
        });

        // The old Arc still describes the old state; a fresh load sees
        // the new one.
        assert_eq!(before.journal_end, 8);
        assert_eq!(before.db.fact_count(), 1);
        let after = cell.load();
        assert_eq!(after.journal_end, 42);
        assert_eq!(after.db.fact_count(), 2);
    }
}
