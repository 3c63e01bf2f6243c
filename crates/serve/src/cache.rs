//! The prepared-query cache.
//!
//! Maps a request key (query text, or `view\x1fuser-query`) to an
//! `Arc`-shared prepared artifact — a [`xust_core::CompiledTransform`]
//! or a [`xust_compose::ComposedQuery`] — so repeat requests skip
//! parsing and automaton construction entirely. Hits, misses, and
//! evictions are counted for observability and for the tests that
//! assert the skip actually happens.
//!
//! Concurrency model: *per-key single-flight*. A miss marks its key as
//! building, releases the map lock, and compiles outside it; racing
//! requests for the **same** key wait on a condvar and then hit, while
//! requests for **other** keys are never blocked by the build. When
//! eight clients race one cold key, exactly one compiles and seven
//! wait briefly — the behaviour a prepared-statement cache wants (the
//! alternative does N identical compiles and throws N−1 away). Hits
//! touch the lock only long enough for a map lookup and an `Arc`
//! clone.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering}; // lint: atomic-ok (hit/miss/eviction counters only)
use std::sync::{Arc, Condvar, Mutex};

/// A bounded, LRU-evicting map from query keys to shared prepared
/// values, with per-key single-flight builds.
pub struct PreparedCache<V> {
    capacity: usize,
    state: Mutex<Inner<V>>,
    /// Signalled whenever a build completes (or fails), waking waiters
    /// of that key.
    built: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

struct Inner<V> {
    map: HashMap<String, Slot<V>>,
    tick: u64,
}

enum Slot<V> {
    Ready { value: Arc<V>, last_use: u64 },
    Building,
}

impl<V> PreparedCache<V> {
    /// Creates a cache holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> PreparedCache<V> {
        PreparedCache {
            capacity: capacity.max(1),
            state: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
            }),
            built: Condvar::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Returns `(value, was_hit)` for `key`, building and inserting the
    /// value on miss. Concurrent callers with the same key wait for the
    /// one build instead of duplicating it; callers with other keys
    /// proceed unhindered. The build error (if any) is passed through
    /// and nothing is inserted (waiters then race to rebuild).
    pub fn get_or_try_insert<E>(
        &self,
        key: &str,
        build: impl FnOnce() -> Result<V, E>,
    ) -> Result<(Arc<V>, bool), E> {
        let mut inner = self.state.lock().expect("cache lock poisoned");
        loop {
            inner.tick += 1;
            let tick = inner.tick;
            match inner.map.get_mut(key) {
                Some(Slot::Ready { value, last_use }) => {
                    *last_use = tick;
                    self.hits.fetch_add(1, Ordering::Relaxed); // relaxed: monotone counter; no data published
                    return Ok((Arc::clone(value), true));
                }
                Some(Slot::Building) => {
                    // Same-key single-flight: wait for the builder.
                    inner = self.built.wait(inner).expect("cache lock poisoned");
                }
                None => break,
            }
        }
        // Become the builder for this key; compile outside the lock.
        self.misses.fetch_add(1, Ordering::Relaxed); // relaxed: monotone counter; no data published
        inner.map.insert(key.to_string(), Slot::Building);
        drop(inner);
        let built = build();
        let mut inner = self.state.lock().expect("cache lock poisoned"); // lock-order: re-acquire after the explicit drop(inner) above; the builder holds no lock during build()
        match built {
            Err(e) => {
                inner.map.remove(key);
                self.built.notify_all();
                Err(e)
            }
            Ok(v) => {
                let value = Arc::new(v);
                if Self::ready_len(&inner) >= self.capacity {
                    // Evict the least-recently-used ready entry (O(n),
                    // n = capacity). In-flight builds are never evicted.
                    if let Some(lru) = inner
                        .map
                        .iter()
                        .filter_map(|(k, s)| match s {
                            Slot::Ready { last_use, .. } => Some((k, *last_use)),
                            Slot::Building => None,
                        })
                        .min_by_key(|&(_, last_use)| last_use)
                        .map(|(k, _)| k.clone())
                    {
                        inner.map.remove(&lru);
                        self.evictions.fetch_add(1, Ordering::Relaxed); // relaxed: monotone counter; no data published
                    }
                }
                let tick = inner.tick;
                inner.map.insert(
                    key.to_string(),
                    Slot::Ready {
                        value: Arc::clone(&value),
                        last_use: tick,
                    },
                );
                self.built.notify_all();
                Ok((value, false))
            }
        }
    }

    fn ready_len(inner: &Inner<V>) -> usize {
        inner
            .map
            .values()
            .filter(|s| matches!(s, Slot::Ready { .. }))
            .count()
    }

    /// Maximum number of ready entries this cache retains.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of cached (ready) entries.
    pub fn len(&self) -> usize {
        Self::ready_len(&self.state.lock().expect("cache lock poisoned"))
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed) // relaxed: point-in-time read; staleness is fine
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed) // relaxed: point-in-time read; staleness is fine
    }

    /// Evictions so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed) // relaxed: point-in-time read; staleness is fine
    }

    /// `[entries, capacity, hits, misses, evictions]`, the row this
    /// cache contributes to the metric registry.
    pub fn counters(&self) -> [u64; 5] {
        [
            self.len() as u64,
            self.capacity() as u64,
            self.hits(),
            self.misses(),
            self.evictions(),
        ]
    }

    /// Drops every ready entry (counters and in-flight builds are
    /// preserved).
    pub fn clear(&self) {
        self.state
            .lock()
            .expect("cache lock poisoned")
            .map
            .retain(|_, s| matches!(s, Slot::Building));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;

    fn ok(v: u32) -> impl FnOnce() -> Result<u32, Infallible> {
        move || Ok(v)
    }

    #[test]
    fn hit_returns_same_arc_without_rebuilding() {
        let c: PreparedCache<u32> = PreparedCache::new(4);
        let (a, hit_a) = c.get_or_try_insert("k", ok(1)).unwrap();
        let (b, hit_b) = c
            .get_or_try_insert("k", || -> Result<u32, Infallible> {
                panic!("must not rebuild on hit")
            })
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!hit_a);
        assert!(hit_b);
        assert_eq!((c.hits(), c.misses()), (1, 1));
    }

    #[test]
    fn build_errors_pass_through_and_do_not_insert() {
        let c: PreparedCache<u32> = PreparedCache::new(4);
        let r = c.get_or_try_insert("bad", || Err::<u32, _>("boom"));
        assert_eq!(r.unwrap_err(), "boom");
        assert!(c.is_empty());
        // A later successful build still works.
        assert_eq!(*c.get_or_try_insert("bad", ok(7)).unwrap().0, 7);
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let c: PreparedCache<u32> = PreparedCache::new(2);
        c.get_or_try_insert("a", ok(1)).unwrap();
        c.get_or_try_insert("b", ok(2)).unwrap();
        c.get_or_try_insert("a", ok(1)).unwrap(); // refresh a
        c.get_or_try_insert("c", ok(3)).unwrap(); // evicts b
        assert_eq!(c.evictions(), 1);
        assert_eq!(c.len(), 2);
        // b is gone and rebuilds (evicting a, now the oldest); the
        // freshly-used c survives and hits.
        let mut rebuilt = false;
        c.get_or_try_insert("b", || -> Result<u32, Infallible> {
            rebuilt = true;
            Ok(2)
        })
        .unwrap();
        assert!(rebuilt);
        let before = c.hits();
        c.get_or_try_insert("c", ok(3)).unwrap();
        assert_eq!(c.hits(), before + 1);
    }

    #[test]
    fn concurrent_single_flight() {
        use std::sync::atomic::AtomicU32; // lint: atomic-ok (test-only counter)
        let c: Arc<PreparedCache<u32>> = Arc::new(PreparedCache::new(8));
        let builds = Arc::new(AtomicU32::new(0));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                let builds = Arc::clone(&builds);
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        let (v, _) = c
                            .get_or_try_insert("shared", || -> Result<u32, Infallible> {
                                builds.fetch_add(1, Ordering::Relaxed); // relaxed: monotone counter; no data published
                                                                        // Widen the race window.
                                std::thread::sleep(std::time::Duration::from_millis(5));
                                Ok(42)
                            })
                            .unwrap();
                        assert_eq!(*v, 42);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(builds.load(Ordering::Relaxed), 1, "single-flight build"); // relaxed: threads joined; writes visible
        assert_eq!(c.hits() + c.misses(), 400);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn builds_do_not_block_other_keys() {
        // A slow build on key "slow" must not delay a hit on key "fast".
        use std::time::{Duration, Instant};
        let c: Arc<PreparedCache<u32>> = Arc::new(PreparedCache::new(8));
        c.get_or_try_insert("fast", ok(1)).unwrap();
        let slow = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || {
                c.get_or_try_insert("slow", || -> Result<u32, Infallible> {
                    std::thread::sleep(Duration::from_millis(300));
                    Ok(2)
                })
                .unwrap();
            })
        };
        // Give the slow builder time to take the Building slot.
        std::thread::sleep(Duration::from_millis(50));
        let t = Instant::now();
        let (v, hit) = c.get_or_try_insert("fast", ok(1)).unwrap();
        let elapsed = t.elapsed();
        assert_eq!(*v, 1);
        assert!(hit);
        assert!(
            elapsed < Duration::from_millis(200),
            "hit stalled behind an unrelated build: {elapsed:?}"
        );
        slow.join().unwrap();
        assert_eq!(*c.get_or_try_insert("slow", ok(0)).unwrap().0, 2);
    }

    #[test]
    fn waiters_rebuild_after_a_failed_build() {
        use std::sync::atomic::AtomicU32; // lint: atomic-ok (test-only counter)
        let c: Arc<PreparedCache<u32>> = Arc::new(PreparedCache::new(8));
        let attempts = Arc::new(AtomicU32::new(0));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                let attempts = Arc::clone(&attempts);
                std::thread::spawn(move || {
                    let r = c.get_or_try_insert("flaky", || {
                        // First attempt fails; retries succeed.
                        if attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            Err("first build fails")
                        } else {
                            Ok(9)
                        }
                    });
                    r.map(|(v, _)| *v)
                })
            })
            .collect();
        let results: Vec<Result<u32, &str>> =
            threads.into_iter().map(|t| t.join().unwrap()).collect();
        // Exactly one caller saw the injected failure; everyone else got 9.
        assert_eq!(results.iter().filter(|r| r.is_err()).count(), 1);
        assert!(results.iter().flatten().all(|&v| v == 9));
        assert_eq!(*c.get_or_try_insert("flaky", ok(0)).unwrap().0, 9);
    }
}
