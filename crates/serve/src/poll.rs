//! The reactor's readiness wait: one binding of `poll(2)`.
//!
//! Shards and the acceptor block here on the sockets that want I/O plus
//! a wake socket, so a thread sleeps until a peer or another thread has
//! something for it. This file holds the only foreign call in the
//! library crates; it ties `cc-serve` to unix.

use std::ffi::{c_int, c_short};
use std::os::fd::RawFd;
use std::time::Duration;

/// `nfds_t` as libc declares it. Other targets do not build.
#[cfg(target_os = "linux")]
type NfdsT = std::ffi::c_ulong;
/// `nfds_t` as libc declares it. Other targets do not build.
#[cfg(any(
    target_os = "android",
    target_vendor = "apple",
    target_os = "freebsd",
    target_os = "netbsd",
    target_os = "openbsd",
    target_os = "dragonfly"
))]
type NfdsT = std::ffi::c_uint;

/// Readable, or end of stream.
pub(crate) const POLLIN: c_short = 0x1;
/// Writable without blocking.
pub(crate) const POLLOUT: c_short = 0x4;

/// One `struct pollfd`.
#[repr(C)]
pub(crate) struct PollFd {
    fd: RawFd,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Watch `fd` for `events`. The kernel skips a negative `fd` and
    /// reports nothing for it, hang-ups included.
    pub(crate) fn new(fd: RawFd, events: c_short) -> PollFd {
        PollFd { fd, events, revents: 0 }
    }

    /// The last [`wait`] reported an event (or an error or hang-up).
    pub(crate) fn ready(&self) -> bool {
        self.revents != 0
    }
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
}

/// Block until an entry is ready or `timeout` passes (`None` waits
/// without limit). A timeout rounds up to whole milliseconds, so a
/// deadline a few microseconds away sleeps instead of spinning. A signal
/// (`EINTR`) returns as a wake-up with nothing ready; any other failure
/// reports every entry ready for what it asked, and callers fall back
/// to nonblocking attempts.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) {
    let ms =
        timeout.map_or(-1, |t| t.as_nanos().div_ceil(1_000_000).min(c_int::MAX as u128) as c_int);
    // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
    // pollfd records and `nfds` is its exact length, so the kernel reads
    // and writes only inside it, and nothing else touches it meanwhile.
    let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, ms) };
    if rc < 0 {
        let interrupted = std::io::Error::last_os_error().kind() == std::io::ErrorKind::Interrupted;
        for p in fds {
            p.revents = if interrupted { 0 } else { p.events };
        }
    }
}
