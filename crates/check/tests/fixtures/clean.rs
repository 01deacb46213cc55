// A representative clean library file: Relaxed counters, one lock at a
// time, a once-cell initialised after the guard is released and a
// registered env knob. tg-check must report zero findings here (the
// self-test's false-positive guard).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, RwLock};

pub struct Clean {
    inner: Mutex<HashMap<u64, u64>>,
    shards: Vec<RwLock<HashMap<u64, u64>>>,
    hits: AtomicU64,
    total: OnceLock<u64>,
}

impl Clean {
    pub fn lookup(&self, key: u64) -> Option<u64> {
        self.hits.fetch_add(1, Ordering::Relaxed);
        let known = {
            let inner = self.inner.lock().ok()?;
            inner.contains_key(&key)
        };
        let guard = self.shards[0].read().ok()?;
        guard.get(&key).copied().filter(|_| known)
    }

    pub fn total(&self) -> u64 {
        let sum = {
            let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            inner.values().sum()
        };
        *self.total.get_or_init(|| sum)
    }
}

pub fn seed() -> u64 {
    std::env::var("TG_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2024)
}
