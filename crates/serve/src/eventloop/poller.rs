//! Readiness polling without a crate dependency.
//!
//! On Linux this is a thin vendored shim over `epoll(7)` — the four
//! syscalls are declared `extern "C"` directly (the workspace has no
//! `libc` crate), with the kernel's packed `epoll_event` layout. On
//! other unix targets the same [`Poller`] API is backed by `poll(2)`,
//! rebuilding the (small) pollfd array per wait.
//!
//! The API is deliberately tiny — level-triggered readiness only:
//!
//! * [`Poller::register`]/[`Poller::modify`]/[`Poller::deregister`] map
//!   an fd to a `u64` token with an [`Interest`] (read and/or write).
//! * [`Poller::wait`] blocks up to a timeout and fills a caller-owned
//!   buffer of [`PollerEvent`]s.
//!
//! Level-triggered is the right trade here: the reactor re-arms
//! interest explicitly when it parks a connection for backpressure, and
//! never has to worry about missing an edge after a partial read.

/// Which readiness directions a registration cares about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    pub readable: bool,
    pub writable: bool,
}

impl Interest {
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Registered but parked: stays in the fd table, wakes for errors /
    /// hangup only (epoll reports those regardless of the mask).
    pub const NONE: Interest = Interest {
        readable: false,
        writable: false,
    };
}

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct PollerEvent {
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
    /// Error or hangup — the connection should be torn down after any
    /// final drainable bytes are consumed.
    pub closed: bool,
}

#[cfg(target_os = "linux")]
mod sys {
    use super::{Interest, PollerEvent};
    use std::io;
    use std::os::unix::io::RawFd;

    // From <sys/epoll.h>. The x86-64 kernel ABI packs epoll_event so the
    // u64 payload follows the u32 mask with no padding.
    const EPOLL_CLOEXEC: i32 = 0x80000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    fn mask(interest: Interest) -> u32 {
        let mut m = EPOLLRDHUP;
        if interest.readable {
            m |= EPOLLIN;
        }
        if interest.writable {
            m |= EPOLLOUT;
        }
        m
    }

    pub struct Poller {
        epfd: RawFd,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller { epfd })
        }

        fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: mask(interest),
                data: token,
            };
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, Interest::NONE)
        }

        /// Blocks up to `timeout_ms` (`-1` = forever), appending ready
        /// events to `out`. Returns the number appended.
        pub fn wait(&self, out: &mut Vec<PollerEvent>, timeout_ms: i32) -> io::Result<usize> {
            const CAP: usize = 64;
            let mut buf = [EpollEvent { events: 0, data: 0 }; CAP];
            let n = unsafe { epoll_wait(self.epfd, buf.as_mut_ptr(), CAP as i32, timeout_ms) };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(0);
                }
                return Err(e);
            }
            for ev in &buf[..n as usize] {
                // Copy out of the (possibly packed) struct before use.
                let events = ev.events;
                let data = ev.data;
                out.push(PollerEvent {
                    token: data,
                    readable: events & EPOLLIN != 0,
                    writable: events & EPOLLOUT != 0,
                    closed: events & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                });
            }
            Ok(n as usize)
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe {
                close(self.epfd);
            }
        }
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
mod sys {
    use super::{Interest, PollerEvent};
    use std::io;
    use std::os::unix::io::RawFd;
    use std::sync::Mutex;

    // From <poll.h> — identical on the BSDs and macOS.
    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }

    /// `poll(2)` fallback: the registration table lives in userspace and
    /// the pollfd array is rebuilt per wait. Fine at the connection
    /// counts this service handles; Linux gets the epoll path.
    pub struct Poller {
        fds: Mutex<Vec<(RawFd, u64, Interest)>>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Ok(Poller {
                fds: Mutex::new(Vec::new()),
            })
        }

        pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.fds.lock().unwrap().push((fd, token, interest));
            Ok(())
        }

        pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut fds = self.fds.lock().unwrap();
            match fds.iter_mut().find(|(f, _, _)| *f == fd) {
                Some(slot) => {
                    slot.1 = token;
                    slot.2 = interest;
                    Ok(())
                }
                None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
            }
        }

        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            self.fds.lock().unwrap().retain(|(f, _, _)| *f != fd);
            Ok(())
        }

        pub fn wait(&self, out: &mut Vec<PollerEvent>, timeout_ms: i32) -> io::Result<usize> {
            let snapshot: Vec<(RawFd, u64, Interest)> = self.fds.lock().unwrap().clone();
            let mut pollfds: Vec<PollFd> = snapshot
                .iter()
                .map(|(fd, _, interest)| {
                    let mut events = 0i16;
                    if interest.readable {
                        events |= POLLIN;
                    }
                    if interest.writable {
                        events |= POLLOUT;
                    }
                    PollFd {
                        fd: *fd,
                        events,
                        revents: 0,
                    }
                })
                .collect();
            let n = unsafe { poll(pollfds.as_mut_ptr(), pollfds.len() as u64, timeout_ms) };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(0);
                }
                return Err(e);
            }
            let mut appended = 0;
            for (pfd, (_, token, _)) in pollfds.iter().zip(snapshot.iter()) {
                if pfd.revents == 0 {
                    continue;
                }
                out.push(PollerEvent {
                    token: *token,
                    readable: pfd.revents & POLLIN != 0,
                    writable: pfd.revents & POLLOUT != 0,
                    closed: pfd.revents & (POLLERR | POLLHUP) != 0,
                });
                appended += 1;
            }
            Ok(appended)
        }
    }
}

pub use sys::Poller;
