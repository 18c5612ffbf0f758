//! Concurrent depth-1 optimum cache keyed by every input of the solve.
//!
//! The paper's pipelines re-optimize the cheap `p = 1` instance for every
//! graph, but QAOA landscapes are invariant under graph isomorphism — all
//! graphs in one canonical class (see [`qaoa::canonical::graph_key`]) share
//! their depth-1 optimum. This cache memoizes that optimum per
//! [`Level1Key`] — the canonical class, the multistart restarts count and
//! the solver fingerprint (seed, optimizer, options) — so the cached paths
//! — corpus generation ([`crate::corpus`]), depth-1 batch jobs, and the
//! cold `PREDICT` requests of [`crate::server`] — never run the same solve
//! twice, and a lookup is never served the optimum of a different solve.
//! (The Table-I sweep in [`crate::compare`] deliberately bypasses the
//! cache: its two-level protocol re-optimizes level 1 per graph from that
//! graph's own seed, and Table I counts those calls.)
//!
//! **Single-flight misses:** concurrent misses on one class are collapsed
//! to a single solve. The first thread to miss publishes an in-flight slot
//! (while still holding the map lock, so publication is race-free) and
//! computes; latecomers block on the slot's lock and read the finished
//! value as a hit. This makes the hit/miss counts — not just the cached
//! values — a pure function of the job queue, identical at any worker
//! count and under any schedule, and never spends two solves on one class.
//! (The values were already schedule-independent: every depth-1 solve,
//! `qaoa::datagen::solve_level1`, is seeded from the canonical class hash
//! and runs on the canonical representative graph.)

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use graphs::Graph;
use optimize::Optimizer;
use qaoa::canonical::{graph_key, CanonicalGraphKey};
use qaoa::datagen::level1_solver;
use qaoa::{InstanceOutcome, QaoaError};

use crate::batch::BatchConfig;

/// The cache key: every input of the depth-1 solve
/// [`qaoa::datagen::solve_level1`] whose optimum the entry holds — the
/// canonical class, the restarts count, and the solver fingerprint
/// [`qaoa::datagen::level1_solver`] of the master seed, the optimizer's
/// name and all five `Options` fields. A lookup is thus served only an
/// entry that the same solve produced, and one cache (in memory or
/// persisted via [`crate::persist`]) holds the optima of several seeds,
/// restart counts and optimizers side by side. Optimizer tunables outside
/// `Options` (L-BFGS-B's memory, say) are not in the key: every caller
/// builds its optimizer with `Default::default()`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Level1Key {
    /// Canonical isomorphism class of the problem graph.
    pub class: CanonicalGraphKey,
    /// Random multistart count of the solve.
    pub restarts: usize,
    /// Fingerprint of the solve's seed, optimizer and options.
    pub solver: u64,
}

impl Level1Key {
    /// The key of the depth-1 solve [`Engine::level1_cached`] runs for
    /// `graph` under `config`: the one constructor the cached solve and the
    /// prediction service's tier probe share.
    ///
    /// [`Engine::level1_cached`]: crate::Engine::level1_cached
    #[must_use]
    pub fn for_solve(
        graph: &Graph,
        optimizer: &dyn Optimizer,
        restarts: usize,
        config: &BatchConfig,
    ) -> Self {
        let solver = level1_solver(optimizer, config.master_seed, &config.options);
        Self {
            class: graph_key(graph),
            restarts,
            solver,
        }
    }
}

/// A published cache slot: `None` while its solve is in flight (the solver
/// holds the lock for the duration), `Some` once finished.
type Slot = Arc<Mutex<Option<InstanceOutcome>>>;

/// The key → slot map. Ordered (`BTreeMap`, not `HashMap`), so iteration
/// is deterministic by construction, not by an extra sort.
type SlotMap = BTreeMap<Level1Key, Slot>;

/// Concurrent map from [`Level1Key`] to the depth-1 optimum, with
/// single-flight miss handling.
///
/// One lock guards the whole map. Its callers are the pool's workers, and
/// each holds it for a single map get, insert or remove: solves run
/// outside it, under their slot's lock.
#[derive(Debug)]
pub struct Level1Cache {
    map: Mutex<SlotMap>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl Level1Cache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self {
            map: Mutex::new(SlotMap::new()),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }

    /// Locks the map, recovering it on poisoning. Every critical section
    /// here is a plain map get/insert/remove — nothing is ever half-written
    /// under the lock (leaders solve *outside* it) — so a panicking peer
    /// cannot leave state a recovered reader could misread, and one panicked
    /// worker must not wedge the whole server's cache.
    fn lock_map(&self) -> MutexGuard<'_, SlotMap> {
        match self.map.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Returns the cached depth-1 outcome for `key`, computing and
    /// inserting it via `solve` on a miss. The boolean is `true` on a hit.
    ///
    /// Exactly one caller solves each key: the first to miss runs `solve`
    /// (without holding the map lock, so other keys proceed
    /// concurrently); concurrent callers for the same key wait for that
    /// solve and observe a hit.
    ///
    /// # Errors
    ///
    /// Propagates `solve` errors. Nothing is cached on error; waiting
    /// callers retry the solve themselves.
    pub fn get_or_solve(
        &self,
        key: &Level1Key,
        solve: impl FnOnce() -> Result<InstanceOutcome, QaoaError>,
    ) -> Result<(InstanceOutcome, bool), QaoaError> {
        // Option-wrapped so the retry loop can prove to the borrow checker
        // that the FnOnce runs at most once (the leader path always
        // returns).
        let mut solve = Some(solve);
        loop {
            // Fast path: an existing slot (finished or in flight) —
            // allocation-free.
            let existing = self.lock_map().get(key).cloned();
            let slot = match existing {
                Some(slot) => slot,
                None => {
                    // Slow path: publish a fresh slot locked by us,
                    // re-checking under the map lock (another thread may
                    // have published one meanwhile). The slot guard is
                    // acquired *before* the map lock is released so no
                    // latecomer can observe an unlocked empty slot.
                    let fresh: Slot = Arc::new(Mutex::new(None));
                    let (slot, leader_guard) = {
                        let mut map = self.lock_map();
                        match map.get(key) {
                            Some(raced) => (raced.clone(), None),
                            None => {
                                #[expect(
                                    clippy::expect_used,
                                    reason = "`fresh` was allocated two lines up and never shared: try_lock cannot contend"
                                )]
                                let guard = fresh.try_lock().expect("freshly created slot");
                                map.insert(key.clone(), fresh.clone());
                                // Extend the guard's borrow past the clone.
                                (fresh.clone(), Some(guard))
                            }
                        }
                    };
                    if let Some(mut guard) = leader_guard {
                        // Leader: solve while latecomers block on the slot.
                        #[expect(
                            clippy::expect_used,
                            reason = "the leader branch is entered at most once per call: `solve` is still present"
                        )]
                        let solve = solve.take().expect("solve intact on leader path");
                        match solve() {
                            Ok(outcome) => {
                                self.misses.fetch_add(1, Ordering::Relaxed);
                                *guard = Some(outcome.clone());
                                return Ok((outcome, false));
                            }
                            Err(e) => {
                                // Withdraw the slot so future attempts
                                // re-solve.
                                self.withdraw(key, &slot);
                                return Err(e);
                            }
                        }
                    }
                    slot
                }
            };

            // Follower: block until the leader finishes, then read. A
            // poisoned slot means the leader *panicked* mid-solve; treat it
            // exactly like a failed solve (the value is still `None`).
            let finished = match slot.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            if let Some(outcome) = finished.as_ref() {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok((outcome.clone(), true));
            }
            drop(finished);
            // The leader failed. On an `Err` it withdraws the slot itself;
            // after a panic the abandoned slot would wedge the key forever,
            // so withdraw it here too (idempotent) and retry from scratch.
            self.withdraw(key, &slot);
        }
    }

    /// Removes `slot`'s entry for `key`, if — and only if — the map still
    /// holds that exact slot. A replacement slot published by a newer
    /// leader must survive, else its in-flight solve would be duplicated.
    fn withdraw(&self, key: &Level1Key, slot: &Slot) {
        let mut map = self.lock_map();
        if map.get(key).is_some_and(|s| Arc::ptr_eq(s, slot)) {
            map.remove(key);
        }
    }

    /// Returns the *finished* outcome for `key`, if any, without solving
    /// and without touching the hit/miss counters — the tier probe used by
    /// the prediction service ([`crate::server`]), which must decide
    /// cheaply whether a class is already solved rather than trigger a
    /// solve. An in-flight (being-solved) entry reads as absent instead of
    /// blocking on its leader.
    #[must_use]
    pub fn peek(&self, key: &Level1Key) -> Option<InstanceOutcome> {
        let slot = self.lock_map().get(key).cloned()?;
        let finished = match slot.try_lock() {
            Ok(guard) => guard.clone(),
            Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner().clone(),
            Err(std::sync::TryLockError::WouldBlock) => None,
        };
        finished
    }

    /// Inserts a finished outcome for `key` without touching the hit/miss
    /// counters — the pre-warming path used by cache persistence
    /// ([`crate::persist`]). An existing entry (finished or in flight) is
    /// kept: by the determinism contract every solve of one key produces
    /// the same bits, so whichever value is already there is the right one.
    /// Returns `true` when the entry was actually inserted.
    pub fn insert(&self, key: Level1Key, outcome: InstanceOutcome) -> bool {
        let mut map = self.lock_map();
        if map.contains_key(&key) {
            return false;
        }
        map.insert(key, Arc::new(Mutex::new(Some(outcome))));
        true
    }

    /// Unions every finished entry of `other` into this cache (existing
    /// entries win — by the determinism contract both sides hold the same
    /// bits). Hit/miss counters are untouched. Returns the number of
    /// entries actually inserted.
    ///
    /// This is the shard-merge primitive: [`crate::shard`] forwards a
    /// coordinator cache into each per-shard engine and folds the shard
    /// caches back, so isomorphic classes spanning shard boundaries are
    /// solved once per run instead of once per shard.
    pub fn merge_from(&self, other: &Level1Cache) -> usize {
        let mut inserted = 0;
        for (key, outcome) in other.snapshot() {
            if self.insert(key, outcome) {
                inserted += 1;
            }
        }
        inserted
    }

    /// A snapshot of every *finished* entry, in key order (the map's own
    /// order, so iteration is deterministic).
    ///
    /// Slots whose lock is held at the moment of the scan are skipped
    /// rather than waited on. The holder is usually a leader mid-solve
    /// (arbitrarily long — blocking here is not an option, and waiting
    /// would also invert the map→slot lock order the leader's error path
    /// uses, risking deadlock), but a concurrent *hit* also holds the lock
    /// for the microseconds it takes to clone the value — so a snapshot
    /// taken while a batch is executing may miss a few finished entries.
    /// Take snapshots between batches (as the drivers do) for an exact
    /// view; a mid-batch snapshot is merely conservative, never wrong.
    #[must_use]
    pub fn snapshot(&self) -> Vec<(Level1Key, InstanceOutcome)> {
        let mut entries = Vec::new();
        for (key, slot) in self.lock_map().iter() {
            // A poisoned (panicked-leader) slot still holds `None`.
            let finished = match slot.try_lock() {
                Ok(guard) => guard.clone(),
                Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner().clone(),
                Err(std::sync::TryLockError::WouldBlock) => None,
            };
            if let Some(outcome) = finished {
                entries.push((key.clone(), outcome));
            }
        }
        entries
    }

    /// Cache hits so far.
    #[must_use]
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (i.e. solves) so far.
    #[must_use]
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct keys held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock_map().len()
    }

    /// `true` when nothing has been cached yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all entries and zeroes the hit/miss counters.
    pub fn clear(&self) {
        self.lock_map().clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

impl Default for Level1Cache {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::generators;
    use optimize::Termination;
    fn fake_outcome(tag: f64) -> InstanceOutcome {
        InstanceOutcome {
            params: vec![tag, tag],
            expectation: tag,
            approximation_ratio: 1.0,
            function_calls: 3,
            gradient_calls: 0,
            termination: Termination::FtolSatisfied,
        }
    }

    /// Cache key for `g` at the tests' default restarts count and solver.
    fn k(g: &graphs::Graph) -> Level1Key {
        Level1Key {
            class: graph_key(g),
            restarts: 2,
            solver: 0,
        }
    }

    #[test]
    fn miss_then_hit() {
        let cache = Level1Cache::new();
        let key = k(&generators::cycle(5));
        let (first, hit) = cache.get_or_solve(&key, || Ok(fake_outcome(1.0))).unwrap();
        assert!(!hit);
        assert_eq!(first.expectation, 1.0);
        // Second lookup must not invoke the solver.
        let (second, hit) = cache
            .get_or_solve(&key, || panic!("should not solve"))
            .unwrap();
        assert!(hit);
        assert_eq!(second.expectation, 1.0);
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 1, 1));
    }

    #[test]
    fn isomorphic_keys_share_an_entry() {
        let cache = Level1Cache::new();
        let a = generators::cycle(6);
        // Same cycle with relabeled vertices.
        let b = graphs::Graph::from_edges(6, &[(2, 4), (4, 0), (0, 5), (5, 1), (1, 3), (3, 2)])
            .unwrap();
        let ka = k(&a);
        let kb = k(&b);
        assert_eq!(ka, kb);
        cache.get_or_solve(&ka, || Ok(fake_outcome(2.0))).unwrap();
        let (found, hit) = cache
            .get_or_solve(&kb, || panic!("isomorph must hit"))
            .unwrap();
        assert!(hit);
        assert_eq!(found.expectation, 2.0);
    }

    #[test]
    fn same_class_different_restarts_are_distinct_entries() {
        let g = generators::cycle(6);
        let k2 = Level1Key {
            class: graph_key(&g),
            restarts: 2,
            solver: 0,
        };
        let k3 = Level1Key {
            class: graph_key(&g),
            restarts: 3,
            solver: 0,
        };
        assert_ne!(k2, k3);
        let cache = Level1Cache::new();
        cache.get_or_solve(&k2, || Ok(fake_outcome(2.0))).unwrap();
        // Same class, different restarts: a different key — must solve.
        let (out, hit) = cache.get_or_solve(&k3, || Ok(fake_outcome(3.0))).unwrap();
        assert!(!hit, "restart counts must not conflate");
        assert_eq!(out.expectation, 3.0);
        assert_eq!(cache.len(), 2);
        // Each restart count keeps serving its own bits.
        let (out, hit) = cache.get_or_solve(&k2, || panic!("cached")).unwrap();
        assert!(hit);
        assert_eq!(out.expectation, 2.0);
    }

    #[test]
    fn errors_do_not_poison() {
        let cache = Level1Cache::new();
        let key = k(&generators::path(4));
        let err = cache.get_or_solve(&key, || Err(QaoaError::InvalidDepth { depth: 0 }));
        assert!(err.is_err());
        assert!(cache.is_empty());
        let (_, hit) = cache.get_or_solve(&key, || Ok(fake_outcome(3.0))).unwrap();
        assert!(!hit);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn insert_prewarms_without_counting() {
        let cache = Level1Cache::new();
        let key = k(&generators::cycle(8));
        assert!(cache.insert(key.clone(), fake_outcome(5.0)));
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, 0, 1));
        // The pre-warmed entry serves lookups as a hit, no solve.
        let (out, hit) = cache
            .get_or_solve(&key, || panic!("pre-warmed key must not solve"))
            .unwrap();
        assert!(hit);
        assert_eq!(out.expectation, 5.0);
        // A second insert keeps the existing value.
        assert!(!cache.insert(key.clone(), fake_outcome(9.0)));
        let (out, _) = cache.get_or_solve(&key, || Ok(fake_outcome(9.0))).unwrap();
        assert_eq!(out.expectation, 5.0);
    }

    #[test]
    fn snapshot_sees_finished_entries_only() {
        let cache = Level1Cache::new();
        let ka = k(&generators::cycle(5));
        let kb = k(&generators::path(5));
        cache.get_or_solve(&ka, || Ok(fake_outcome(1.0))).unwrap();
        cache.insert(kb.clone(), fake_outcome(2.0));
        let snap = cache.snapshot();
        assert_eq!(snap.len(), 2);
        // Deterministic (sorted) order, values intact.
        let mut keys: Vec<_> = snap.iter().map(|(k, _)| k.clone()).collect();
        let sorted = {
            let mut s = keys.clone();
            s.sort();
            s
        };
        assert_eq!(keys, sorted);
        keys.sort();
        assert!(keys.contains(&ka) && keys.contains(&kb));
        // An in-flight slot is skipped, not waited on.
        let kc = k(&generators::star(5));
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                cache
                    .get_or_solve(&kc, || {
                        barrier.wait(); // solve in flight...
                        barrier.wait(); // ...until the snapshot is taken
                        Ok(fake_outcome(3.0))
                    })
                    .unwrap();
            });
            barrier.wait();
            assert_eq!(cache.snapshot().len(), 2);
            barrier.wait();
        });
        assert_eq!(cache.snapshot().len(), 3);
    }

    #[test]
    fn clear_resets_everything() {
        let cache = Level1Cache::new();
        let key = k(&generators::star(4));
        cache.get_or_solve(&key, || Ok(fake_outcome(1.0))).unwrap();
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
    }

    #[test]
    fn concurrent_misses_are_single_flight() {
        // Many threads racing on one cold key: exactly one solve must run;
        // everyone else waits and records a hit. Repeated rounds widen the
        // collision window.
        use std::sync::atomic::{AtomicUsize, Ordering};
        for round in 0..50 {
            let cache = Level1Cache::new();
            let key = k(&generators::cycle(5 + round % 3));
            let solves = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for _ in 0..8 {
                    s.spawn(|| {
                        let (out, _) = cache
                            .get_or_solve(&key, || {
                                solves.fetch_add(1, Ordering::Relaxed);
                                Ok(fake_outcome(7.0))
                            })
                            .unwrap();
                        assert_eq!(out.expectation, 7.0);
                    });
                }
            });
            assert_eq!(solves.load(Ordering::Relaxed), 1, "round {round}");
            assert_eq!((cache.hits(), cache.misses()), (7, 1), "round {round}");
        }
    }

    #[test]
    fn failed_leader_lets_followers_retry() {
        // A leader that errors must not poison the key: concurrent or later
        // callers re-solve and succeed.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cache = Level1Cache::new();
        let key = k(&generators::path(5));
        let attempts = AtomicUsize::new(0);
        let mut failures = 0;
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        cache.get_or_solve(&key, || {
                            if attempts.fetch_add(1, Ordering::Relaxed) == 0 {
                                Err(QaoaError::InvalidDepth { depth: 0 })
                            } else {
                                Ok(fake_outcome(4.0))
                            }
                        })
                    })
                })
                .collect();
            for h in handles {
                match h.join().expect("no panic") {
                    Ok((out, _)) => assert_eq!(out.expectation, 4.0),
                    Err(_) => failures += 1,
                }
            }
        });
        assert_eq!(failures, 1, "exactly the failing leader errors");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn panicked_leader_does_not_wedge_the_key() {
        // A leader that *panics* mid-solve poisons and abandons its slot;
        // later callers must recover (treat it as a failed solve) instead
        // of panicking on the poisoned lock.
        let cache = Level1Cache::new();
        let key = k(&generators::cycle(7));
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = cache.get_or_solve(&key, || panic!("solver blew up"));
        }));
        assert!(unwound.is_err());
        let (out, hit) = cache.get_or_solve(&key, || Ok(fake_outcome(6.0))).unwrap();
        assert!(!hit, "abandoned slot must be withdrawn, not served");
        assert_eq!(out.expectation, 6.0);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn concurrent_access_is_coherent() {
        let cache = Level1Cache::new();
        let keys: Vec<_> = (3..9).map(|n| k(&generators::cycle(n))).collect();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for (i, key) in keys.iter().enumerate() {
                        let (out, _) = cache
                            .get_or_solve(key, || Ok(fake_outcome(i as f64)))
                            .unwrap();
                        assert_eq!(out.expectation, i as f64);
                    }
                });
            }
        });
        assert_eq!(cache.len(), keys.len());
        assert_eq!(cache.hits() + cache.misses(), 4 * keys.len());
    }
}
