//! SIGTERM/SIGINT → atomic drain flag, plus the listener wake.
//!
//! This module carries the only `unsafe` in the workspace: registering
//! an `extern "C"` handler through libc's `signal(2)` and calling
//! `shutdown(2)` (both already linked by `std`, so no new dependency).
//! The accept loop blocks in `accept`; both drain triggers — the
//! handler and [`crate::server::ShutdownHandle`] — set a flag and then
//! shut the listener's read side, which makes the blocked `accept` fail
//! at once so the loop sees the flag. The handler does only
//! async-signal-safe work: atomic loads and stores and one `shutdown(2)`
//! call.
#![allow(unsafe_code)]

use std::os::unix::io::RawFd;
use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);
/// The listener a drain signal wakes, or -1 while no server is serving.
static LISTENER: AtomicI32 = AtomicI32::new(-1);

/// `SIGINT` (ctrl-C).
pub const SIGINT: i32 = 2;
/// `SIGTERM` (polite kill; what CI and process supervisors send).
pub const SIGTERM: i32 = 15;
/// `SHUT_RD` for `shutdown(2)`.
const SHUT_RD: i32 = 0;

extern "C" fn on_signal(_signum: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
    let fd = LISTENER.load(Ordering::SeqCst);
    if fd >= 0 {
        wake(fd);
    }
}

extern "C" {
    // libc signal(2) and shutdown(2); std links libc on every supported
    // unix target.
    fn signal(signum: i32, handler: usize) -> usize;
    fn shutdown(fd: i32, how: i32) -> i32;
}

/// Installs the drain handler for SIGTERM and SIGINT. Idempotent.
pub fn install() {
    unsafe {
        signal(SIGTERM, on_signal as *const () as usize);
        signal(SIGINT, on_signal as *const () as usize);
    }
}

/// True once a drain signal has arrived.
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// Shuts the read side of listener `fd`: a thread blocked in `accept`
/// on it returns an error at once, and so does every later `accept`.
/// The caller keeps `fd` open for as long as it may be woken.
pub(crate) fn wake(fd: RawFd) {
    // SAFETY: shutdown(2) takes two integers and reads or writes no
    // memory of this process; on a descriptor that is not a socket it
    // only fails. Failure (the listener was already shut) leaves
    // nothing to undo.
    let _ = unsafe { shutdown(fd, SHUT_RD) };
}

/// Names `fd` as the listener a drain signal wakes. Set before the
/// accept loop's first flag check, so a signal landing between that
/// check and `accept` still wakes it.
pub(crate) fn arm(fd: RawFd) {
    LISTENER.store(fd, Ordering::SeqCst);
}

/// Forgets `fd` (if it is still the armed listener) before its server
/// returns, so no later signal shuts a closed or reused descriptor.
pub(crate) fn disarm(fd: RawFd) {
    let _ = LISTENER.compare_exchange(fd, -1, Ordering::SeqCst, Ordering::SeqCst);
}
