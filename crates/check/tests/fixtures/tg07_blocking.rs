// Seeded TG07 violations: sleeping, thread-joining, parking on a
// once-cell (another thread's initialiser may need the registry to
// finish), receiving from a channel and accepting on a socket inside a
// registry critical section. Blocking after the guard
// releases, `path.join(seg)` (non-empty args: path concatenation, not a
// thread join) and blocking under the advisory file lock (`lockfile`, the
// exempt `file_lock` class) must all stay clean.

use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::mpsc::Receiver;
use std::sync::{Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

pub struct Fixture {
    inner: Mutex<HashMap<u64, u64>>,
    lockfile: Mutex<()>,
    slot: OnceLock<u64>,
}

impl Fixture {
    pub fn sleeps_while_locked(&self) {
        let _inner = self.inner.lock();
        std::thread::sleep(Duration::from_millis(1));
    }

    pub fn joins_while_locked(&self, handle: JoinHandle<()>) {
        let _inner = self.inner.lock();
        handle.join().ok();
    }

    pub fn parks_on_a_once_cell_while_locked(&self) -> u64 {
        let _inner = self.inner.lock();
        *self.slot.get_or_init(|| 1)
    }

    pub fn receives_while_locked(&self, rx: &Receiver<u64>) -> Option<u64> {
        let _inner = self.inner.lock();
        rx.recv().ok()
    }

    pub fn accepts_while_locked(&self, listener: &TcpListener) -> Option<TcpStream> {
        let _inner = self.inner.lock();
        listener.accept().ok().map(|(conn, _)| conn)
    }

    pub fn sleeps_after_release(&self) {
        {
            let _inner = self.inner.lock();
        }
        std::thread::sleep(Duration::from_millis(1));
    }

    pub fn path_join_is_not_a_thread_join(&self, dir: &Path) -> PathBuf {
        let _inner = self.inner.lock();
        dir.join("artifacts")
    }

    pub fn file_lock_sections_may_block(&self) {
        let _flock = self.lockfile.lock();
        std::thread::sleep(Duration::from_millis(1));
    }
}
