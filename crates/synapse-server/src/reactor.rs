//! Thin safe wrappers over the vendored epoll/eventfd bindings — the
//! readiness primitives behind the server's reactor front.
//!
//! The workspace is offline, so instead of mio this module binds
//! exactly the surface the server needs: an epoll instance with
//! u64-token registration ([`Poller`]), an eventfd wakeup channel
//! ([`Waker`]) so queue workers and handler threads can interrupt a
//! blocked `epoll_wait`, and nonblocking-mode toggles for accepted
//! sockets ([`set_nonblocking`]).

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::string_slice,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#![expect(
    unsafe_code,
    reason = "epoll, eventfd, fcntl, read, write and close are FFI calls"
)]

use std::io;
use std::os::unix::io::RawFd;

/// Readiness interest/flags, re-exported so callers never touch raw
/// libc constants.
pub(crate) const READABLE: u32 = libc::EPOLLIN | libc::EPOLLRDHUP;
pub(crate) const WRITABLE: u32 = libc::EPOLLOUT;

/// One readiness event: the registered token and the triggered mask.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    pub token: u64,
    mask: u32,
}

impl Event {
    /// Data (or a hangup — a read will observe the EOF) is waiting.
    pub fn readable(&self) -> bool {
        self.mask & (libc::EPOLLIN | libc::EPOLLRDHUP | libc::EPOLLHUP | libc::EPOLLERR) != 0
    }

    /// The socket's send buffer drained below its watermark.
    pub fn writable(&self) -> bool {
        self.mask & (libc::EPOLLOUT | libc::EPOLLHUP | libc::EPOLLERR) != 0
    }

    /// Both directions are gone (full hangup / error) — nothing can
    /// be delivered to this peer anymore.
    pub fn hangup(&self) -> bool {
        self.mask & (libc::EPOLLHUP | libc::EPOLLERR) != 0
    }
}

fn last_os_error() -> io::Error {
    io::Error::last_os_error()
}

/// A level-triggered epoll instance.
pub(crate) struct Poller {
    epfd: RawFd,
}

impl Poller {
    pub fn new() -> io::Result<Poller> {
        // SAFETY: epoll_create1 takes no pointers.
        let epfd = unsafe { libc::epoll_create1(libc::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(last_os_error());
        }
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: libc::c_int, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        let mut event = libc::epoll_event {
            events: interest,
            u64: token,
        };
        let event_ptr = if op == libc::EPOLL_CTL_DEL {
            std::ptr::null_mut()
        } else {
            &mut event
        };
        // SAFETY: epfd is the live epoll fd owned by this Poller;
        // event_ptr is null or points at `event`, alive for the call.
        if unsafe { libc::epoll_ctl(self.epfd, op, fd, event_ptr) } < 0 {
            return Err(last_os_error());
        }
        Ok(())
    }

    /// Register `fd` under `token` for `interest` readiness.
    pub fn add(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(libc::EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Change the interest set of a registered fd.
    pub fn modify(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(libc::EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Deregister an fd (safe to call right before closing it).
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(libc::EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Block up to `timeout_ms` (`-1` = forever) for readiness,
    /// appending events to `out`. EINTR reads as an empty wake.
    pub fn wait(&self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
        const MAX_EVENTS: usize = 256;
        let mut raw = [libc::epoll_event { events: 0, u64: 0 }; MAX_EVENTS];
        let cap = MAX_EVENTS as i32;
        // SAFETY: raw is a stack buffer of MAX_EVENTS epoll_event
        // slots, matching the capacity `cap` passed alongside it.
        let n = unsafe { libc::epoll_wait(self.epfd, raw.as_mut_ptr(), cap, timeout_ms) };
        if n < 0 {
            let err = last_os_error();
            if err.raw_os_error() == Some(libc::EINTR) {
                return Ok(());
            }
            return Err(err);
        }
        for event in raw.iter().take(n as usize) {
            out.push(Event {
                // Copy out of the (packed on x86_64) struct before use.
                token: { event.u64 },
                mask: { event.events },
            });
        }
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: epfd is owned by this Poller and closed exactly once.
        unsafe { libc::close(self.epfd) };
    }
}

/// An eventfd-backed wakeup channel. Any thread calls [`wake`]; the
/// reactor registers the fd for readability and [`drain`]s it on wake.
/// Writes coalesce twice over: a userspace pending flag short-circuits
/// repeat wakes to a single atomic load (a sweep pushing 100k
/// events/s must not pay 100k eventfd syscalls), and the kernel
/// counter coalesces whatever writes do happen into one readiness
/// event.
///
/// [`wake`]: Waker::wake
/// [`drain`]: Waker::drain
pub(crate) struct Waker {
    fd: RawFd,
    /// An undrained wake is already pending; further wakes are free.
    pending: std::sync::atomic::AtomicBool,
}

impl Waker {
    pub fn new() -> io::Result<Waker> {
        // SAFETY: eventfd takes no pointers.
        let fd = unsafe { libc::eventfd(0, libc::EFD_CLOEXEC | libc::EFD_NONBLOCK) };
        if fd < 0 {
            return Err(last_os_error());
        }
        Ok(Waker {
            fd,
            pending: std::sync::atomic::AtomicBool::new(false),
        })
    }

    /// The fd to register with the poller.
    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// Make the reactor's next (or current) `epoll_wait` return.
    /// Infallible by design: the counter saturating (EAGAIN) still
    /// leaves the fd readable, which is all a wake needs.
    pub fn wake(&self) {
        use std::sync::atomic::Ordering;
        // Already signalled and not yet drained: the reactor is
        // guaranteed to wake and observe everything published before
        // this call (drain clears the flag before it reads state).
        if self.pending.swap(true, Ordering::AcqRel) {
            return;
        }
        let one: u64 = 1;
        // SAFETY: writes exactly 8 bytes from `one`, which lives
        // through the call; fd is the eventfd owned by this Waker.
        unsafe { libc::write(self.fd, (&one as *const u64).cast(), 8) };
    }

    /// Reset the counter so the next `epoll_wait` blocks again.
    ///
    /// Order matters: the counter is read BEFORE the flag clears. A
    /// producer that fires between the two either saw the flag still
    /// set (its data is covered by the pump pass that follows every
    /// drain) or writes the eventfd after the read (the next
    /// `epoll_wait` fires). Clearing first would let a wake land
    /// between clear and read, get its count consumed, and leave the
    /// flag latched true with the fd unreadable — suppressing every
    /// future wake.
    pub fn drain(&self) {
        use std::sync::atomic::Ordering;
        let mut counter: u64 = 0;
        // SAFETY: reads exactly 8 bytes into `counter`, which lives
        // through the call; fd is the eventfd owned by this Waker.
        unsafe { libc::read(self.fd, (&mut counter as *mut u64).cast(), 8) };
        self.pending.store(false, Ordering::Release);
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        // SAFETY: fd is owned by this Waker and closed exactly once.
        unsafe { libc::close(self.fd) };
    }
}

/// Switch an fd into nonblocking mode (accepted sockets; the listener
/// uses the std API).
pub(crate) fn set_nonblocking(fd: RawFd) -> io::Result<()> {
    // SAFETY: F_GETFL takes no third argument; fd is the caller's
    // accepted socket, valid for the duration of the call.
    let flags = unsafe { libc::fcntl(fd, libc::F_GETFL) };
    if flags < 0 {
        return Err(last_os_error());
    }
    // SAFETY: F_SETFL with an integer flag argument; no pointers.
    if unsafe { libc::fcntl(fd, libc::F_SETFL, flags | libc::O_NONBLOCK) } < 0 {
        return Err(last_os_error());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::os::unix::io::AsRawFd;

    #[test]
    fn waker_roundtrip_through_poller() {
        let poller = Poller::new().unwrap();
        let waker = Waker::new().unwrap();
        poller.add(waker.fd(), 7, READABLE).unwrap();

        let mut events = Vec::new();
        poller.wait(&mut events, 0).unwrap();
        assert!(events.is_empty(), "nothing pending yet");

        waker.wake();
        waker.wake(); // coalesces: still one readiness event
        poller.wait(&mut events, 1000).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable());

        waker.drain();
        events.clear();
        poller.wait(&mut events, 0).unwrap();
        assert!(events.is_empty(), "drained waker no longer ready");
    }

    #[test]
    fn socket_readiness_reports_registered_token() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let poller = Poller::new().unwrap();
        poller.add(listener.as_raw_fd(), 99, READABLE).unwrap();

        let mut events = Vec::new();
        poller.wait(&mut events, 0).unwrap();
        assert!(events.is_empty(), "no pending connection");

        let mut client = std::net::TcpStream::connect(addr).unwrap();
        poller.wait(&mut events, 2000).unwrap();
        assert!(events.iter().any(|e| e.token == 99 && e.readable()));

        // Accepted socket: writable immediately, readable after data.
        let (accepted, _) = listener.accept().unwrap();
        set_nonblocking(accepted.as_raw_fd()).unwrap();
        poller
            .add(accepted.as_raw_fd(), 100, READABLE | WRITABLE)
            .unwrap();
        events.clear();
        poller.wait(&mut events, 2000).unwrap();
        assert!(events.iter().any(|e| e.token == 100 && e.writable()));

        client.write_all(b"ping").unwrap();
        events.clear();
        poller.wait(&mut events, 2000).unwrap();
        assert!(events.iter().any(|e| e.token == 100 && e.readable()));

        poller.delete(accepted.as_raw_fd()).unwrap();
        events.clear();
        poller.wait(&mut events, 0).unwrap();
        assert!(!events.iter().any(|e| e.token == 100), "deregistered");
    }
}
