// Seeded cross-function TG04 violations: `refresh` holds a cache shard
// and calls `self.reload()`, which takes the registry lock through a
// helper chain the lexical pass cannot see; `downward` holds the registry
// lock and calls a shard-taking helper. Both nest one lock under
// another, so both are findings, each with its witness chain.

use std::collections::HashMap;
use std::sync::{Mutex, RwLock};

pub struct Fixture {
    inner: Mutex<HashMap<u64, u64>>,
    shards: Vec<RwLock<HashMap<u64, u64>>>,
}

impl Fixture {
    pub fn refresh(&self) -> usize {
        let _shard = self.shards[0].write();
        self.reload()
    }

    fn reload(&self) -> usize {
        self.route()
    }

    fn route(&self) -> usize {
        let _inner = self.inner.lock();
        0
    }

    pub fn downward(&self) -> usize {
        let _inner = self.inner.lock();
        self.touch_shard()
    }

    fn touch_shard(&self) -> usize {
        let _shard = self.shards[0].write();
        1
    }
}
