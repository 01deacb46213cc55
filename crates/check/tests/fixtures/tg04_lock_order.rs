// Seeded TG04 violations: taking a lock while the scope still holds
// another nests them, in either order: `shard_then_registry` and
// `registry_then_shard` are both findings. The drop-then-reacquire and scoped-release patterns
// take one lock at a time and must stay clean.

use std::collections::HashMap;
use std::sync::{Mutex, RwLock};

pub struct Fixture {
    inner: Mutex<HashMap<u64, u64>>,
    shards: Vec<RwLock<HashMap<u64, u64>>>,
}

impl Fixture {
    pub fn shard_then_registry(&self) -> usize {
        let _shard = self.shards[0].write();
        let _inner = self.inner.lock();
        0
    }

    pub fn registry_then_shard(&self) -> usize {
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
