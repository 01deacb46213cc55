// Seeded TG00 violations: allow directives missing a reason, with an empty
// reason, or naming an unknown lint are themselves findings — and they
// suppress nothing, so their sleeps under the registry lock still fire
// TG07. The well-formed directive suppresses its finding.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Duration;

pub struct Fixture {
    inner: Mutex<HashMap<u64, u64>>,
}

impl Fixture {
    pub fn missing_reason(&self) {
        let _inner = self.inner.lock();
        // tg-check: allow(tg07)
        std::thread::sleep(Duration::from_millis(1));
    }

    pub fn empty_reason(&self) {
        let _inner = self.inner.lock();
        // tg-check: allow(tg07, reason = "")
        std::thread::sleep(Duration::from_millis(1));
    }

    pub fn unknown_lint(&self) {
        let _inner = self.inner.lock();
        // tg-check: allow(tg99, reason = "no such lint")
        std::thread::sleep(Duration::from_millis(1));
    }

    pub fn well_formed(&self) {
        let _inner = self.inner.lock();
        // tg-check: allow(tg07, reason = "fixture: startup path, no other thread can contend yet")
        std::thread::sleep(Duration::from_millis(1));
    }
}
