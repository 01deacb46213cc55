// Seeded TG04 violation: taking the registry lock while holding a cache
// shard inverts the declared order `registry -> coalesce -> ... ->
// cache_shard`. The well-ordered function and the drop-then-reacquire
// pattern must stay clean.

use std::collections::HashMap;
use std::sync::{Mutex, RwLock};

pub struct Fixture {
    inner: Mutex<HashMap<u64, u64>>,
    shards: Vec<RwLock<HashMap<u64, u64>>>,
}

impl Fixture {
    pub fn inverted(&self) -> usize {
        let _shard = self.shards[0].write();
        let _inner = self.inner.lock();
        0
    }

    pub fn well_ordered(&self) -> usize {
        let _inner = self.inner.lock();
        let _shard = self.shards[0].write();
        0
    }

    pub fn drop_then_reacquire(&self) -> usize {
        let shard = self.shards[0].write();
        drop(shard);
        let _inner = self.inner.lock();
        0
    }

    pub fn scoped_release(&self) -> usize {
        {
            let _shard = self.shards[0].write();
        }
        let _inner = self.inner.lock();
        0
    }
}
