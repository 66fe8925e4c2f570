//! Listening-socket construction and accept-path mode selection.
//!
//! One place builds every listening socket the servers use — the AMPED
//! acceptor's, the MT server's, and (the point of this module) the
//! **per-shard `SO_REUSEPORT` listeners** that let each event-loop
//! shard accept its own connections with no acceptor thread in
//! between. `SO_REUSEPORT` must be set *before* `bind(2)`, which
//! `std::net::TcpListener` cannot express, so on Linux the socket is
//! assembled through the same thin-FFI style as [`crate::poll`] and
//! [`crate::writev`]; other platforms fall back to `std` (and never
//! request reuseport — see [`resolve_accept_mode`]).
//!
//! Mode selection mirrors the readiness backend's
//! ([`crate::event::resolve`]): [`AcceptMode::Auto`] resolves to
//! per-shard reuseport listeners on Linux — where the kernel hashes
//! incoming connections across all sockets bound to the port — and to
//! the single acceptor thread elsewhere, overridable with
//! `FLASH_ACCEPT_MODE=single|reuseport`; `ReusePort`/`Single` pin a
//! mode and ignore the environment (modulo the platform floor:
//! reuseport requested where the kernel does not load-balance it
//! degrades to the acceptor thread rather than failing).

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};

/// How the server distributes `accept(2)` work (see
/// [`crate::config::NetConfig::accept_mode`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AcceptMode {
    /// Platform default — per-shard `SO_REUSEPORT` listeners on Linux,
    /// the single acceptor thread elsewhere — overridable with
    /// `FLASH_ACCEPT_MODE=single|reuseport`.
    #[default]
    Auto,
    /// Pin per-shard reuseport listeners (degrades to the acceptor
    /// thread on platforms without load-balancing `SO_REUSEPORT`).
    /// Ignores the environment.
    ReusePort,
    /// Pin the single acceptor thread dealing connections round-robin
    /// to the shards. Ignores the environment.
    Single,
}

/// Which concrete accept path an [`AcceptMode`] resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcceptModeKind {
    /// Each shard owns a `SO_REUSEPORT` listener registered in its own
    /// event backend; the kernel load-balances accepts.
    ReusePort,
    /// One acceptor thread owns the only listener and deals accepted
    /// connections to the shards over channels.
    Single,
}

impl AcceptModeKind {
    /// Lower-case name, matching the `FLASH_ACCEPT_MODE` values.
    pub fn name(self) -> &'static str {
        match self {
            AcceptModeKind::ReusePort => "reuseport",
            AcceptModeKind::Single => "single",
        }
    }
}

const ENV_ACCEPT_MODE: &str = "FLASH_ACCEPT_MODE";

/// `SO_REUSEPORT` exists on the BSDs too, but only Linux (≥3.9) hashes
/// connections across the sockets sharing the port — which is the
/// entire point here, so only Linux gets it by default.
fn platform_has_reuseport() -> bool {
    cfg!(any(target_os = "linux", target_os = "android"))
}

/// Resolves a choice to the accept path that will actually run,
/// applying the `FLASH_ACCEPT_MODE` override (only to `Auto`) and the
/// platform floor (reuseport requested where the kernel does not
/// load-balance it degrades to the acceptor thread).
pub fn resolve_accept_mode(choice: AcceptMode) -> AcceptModeKind {
    let want = match choice {
        AcceptMode::Single => AcceptModeKind::Single,
        AcceptMode::ReusePort => AcceptModeKind::ReusePort,
        AcceptMode::Auto => match std::env::var(ENV_ACCEPT_MODE).ok().as_deref() {
            Some("single") => AcceptModeKind::Single,
            Some("reuseport") => AcceptModeKind::ReusePort,
            // Unknown values fall through to the platform default
            // rather than aborting a running server over a typo.
            _ => {
                if platform_has_reuseport() {
                    AcceptModeKind::ReusePort
                } else {
                    AcceptModeKind::Single
                }
            }
        },
    };
    if want == AcceptModeKind::ReusePort && !platform_has_reuseport() {
        AcceptModeKind::Single
    } else {
        want
    }
}

/// Per-connection socket options shared by every accept path (the
/// AMPED acceptor, the per-shard reuseport drain, and the MT spawner):
/// nonblocking for the event loops, and `TCP_NODELAY` because one
/// gathered write per response makes Nagle pointless — disabling it
/// removes the delayed-ACK interaction on keep-alive connections.
pub fn apply_conn_options(stream: &TcpStream) -> io::Result<()> {
    stream.set_nonblocking(true)?;
    let _ = stream.set_nodelay(true);
    Ok(())
}

/// Binds a nonblocking listener on `addr`. With `reuseport`, the
/// socket gets `SO_REUSEPORT` before `bind(2)` so any number of
/// listeners — one per shard — can share the port and have the kernel
/// spread incoming connections across them. All listeners get
/// `SO_REUSEADDR`, so a restart does not trip over old connections in
/// `TIME_WAIT`.
pub fn bind_listener(addr: SocketAddr, reuseport: bool) -> io::Result<TcpListener> {
    #[cfg(any(target_os = "linux", target_os = "android"))]
    {
        ffi::bind_listener(addr, reuseport)
    }
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    {
        // No load-balancing reuseport off Linux; resolve_accept_mode
        // never asks for it there, so std's builder suffices.
        debug_assert!(!reuseport, "reuseport listeners are Linux-only");
        let _ = reuseport;
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(listener)
    }
}

#[cfg(any(target_os = "linux", target_os = "android"))]
mod ffi {
    use std::io;
    use std::net::{SocketAddr, TcpListener};
    use std::os::unix::io::FromRawFd;

    const AF_INET: core::ffi::c_int = 2;
    const AF_INET6: core::ffi::c_int = 10;
    const SOCK_STREAM: core::ffi::c_int = 1;
    const SOCK_NONBLOCK: core::ffi::c_int = 0o4000;
    const SOCK_CLOEXEC: core::ffi::c_int = 0o2000000;
    const SOL_SOCKET: core::ffi::c_int = 1;
    const SO_REUSEADDR: core::ffi::c_int = 2;
    const SO_REUSEPORT: core::ffi::c_int = 15;

    /// Accept backlog. Large enough that a burst arriving while a
    /// shard services existing connections queues in the kernel
    /// instead of seeing RSTs.
    const BACKLOG: core::ffi::c_int = 1024;

    #[repr(C)]
    struct SockAddrIn {
        family: u16,
        /// Network byte order.
        port: u16,
        /// Network byte order.
        addr: u32,
        zero: [u8; 8],
    }

    #[repr(C)]
    struct SockAddrIn6 {
        family: u16,
        /// Network byte order.
        port: u16,
        flowinfo: u32,
        addr: [u8; 16],
        scope_id: u32,
    }

    unsafe extern "C" {
        fn socket(
            domain: core::ffi::c_int,
            ty: core::ffi::c_int,
            protocol: core::ffi::c_int,
        ) -> core::ffi::c_int;
        fn setsockopt(
            fd: core::ffi::c_int,
            level: core::ffi::c_int,
            optname: core::ffi::c_int,
            optval: *const core::ffi::c_void,
            optlen: u32,
        ) -> core::ffi::c_int;
        fn bind(
            fd: core::ffi::c_int,
            addr: *const core::ffi::c_void,
            addrlen: u32,
        ) -> core::ffi::c_int;
        fn listen(fd: core::ffi::c_int, backlog: core::ffi::c_int) -> core::ffi::c_int;
        fn close(fd: core::ffi::c_int) -> core::ffi::c_int;
    }

    fn set_flag(fd: core::ffi::c_int, opt: core::ffi::c_int) -> io::Result<()> {
        let one: core::ffi::c_int = 1;
        // SAFETY: `one` outlives the call; the kernel reads exactly
        // `optlen` bytes from it.
        let rc = unsafe {
            setsockopt(
                fd,
                SOL_SOCKET,
                opt,
                &one as *const _ as *const core::ffi::c_void,
                std::mem::size_of::<core::ffi::c_int>() as u32,
            )
        };
        if rc == 0 {
            Ok(())
        } else {
            Err(io::Error::last_os_error())
        }
    }

    pub fn bind_listener(addr: SocketAddr, reuseport: bool) -> io::Result<TcpListener> {
        let family = match addr {
            SocketAddr::V4(_) => AF_INET,
            SocketAddr::V6(_) => AF_INET6,
        };
        // SAFETY: plain syscall, no pointers.
        let fd = unsafe { socket(family, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        let result = (|| {
            set_flag(fd, SO_REUSEADDR)?;
            if reuseport {
                set_flag(fd, SO_REUSEPORT)?;
            }
            let rc = match addr {
                SocketAddr::V4(v4) => {
                    let sa = SockAddrIn {
                        family: AF_INET as u16,
                        port: v4.port().to_be(),
                        addr: u32::from_ne_bytes(v4.ip().octets()),
                        zero: [0; 8],
                    };
                    // SAFETY: `sa` is a valid, correctly sized
                    // sockaddr_in the kernel only reads.
                    unsafe {
                        bind(
                            fd,
                            &sa as *const _ as *const core::ffi::c_void,
                            std::mem::size_of::<SockAddrIn>() as u32,
                        )
                    }
                }
                SocketAddr::V6(v6) => {
                    let sa = SockAddrIn6 {
                        family: AF_INET6 as u16,
                        port: v6.port().to_be(),
                        flowinfo: v6.flowinfo(),
                        addr: v6.ip().octets(),
                        scope_id: v6.scope_id(),
                    };
                    // SAFETY: as above, for sockaddr_in6.
                    unsafe {
                        bind(
                            fd,
                            &sa as *const _ as *const core::ffi::c_void,
                            std::mem::size_of::<SockAddrIn6>() as u32,
                        )
                    }
                }
            };
            if rc != 0 {
                return Err(io::Error::last_os_error());
            }
            // SAFETY: plain syscall on the fd we own.
            if unsafe { listen(fd, BACKLOG) } != 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        })();
        match result {
            // SAFETY: fd is a fresh listening socket we exclusively
            // own; TcpListener takes over closing it.
            Ok(()) => Ok(unsafe { TcpListener::from_raw_fd(fd) }),
            Err(e) => {
                // SAFETY: fd came from socket() above and has not been
                // handed to any owner.
                unsafe { close(fd) };
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    #[test]
    fn pinned_modes_ignore_environment() {
        assert_eq!(
            resolve_accept_mode(AcceptMode::Single),
            AcceptModeKind::Single
        );
        if platform_has_reuseport() {
            assert_eq!(
                resolve_accept_mode(AcceptMode::ReusePort),
                AcceptModeKind::ReusePort
            );
        } else {
            assert_eq!(
                resolve_accept_mode(AcceptMode::ReusePort),
                AcceptModeKind::Single
            );
        }
    }

    #[test]
    fn bound_listener_accepts_and_frees_its_port() {
        let l = bind_listener("127.0.0.1:0".parse().unwrap(), false).unwrap();
        let addr = l.local_addr().unwrap();
        let mut c = TcpStream::connect(addr).unwrap();
        // Nonblocking listener: the connection may need a beat to land.
        let (mut s, _) = loop {
            match l.accept() {
                Ok(pair) => break pair,
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                Err(e) => panic!("accept: {e}"),
            }
        };
        apply_conn_options(&s).unwrap();
        s.write_all(b"ok").unwrap();
        drop(s);
        let mut buf = Vec::new();
        c.read_to_end(&mut buf).unwrap();
        assert_eq!(buf, b"ok");
        // Dropping the listener frees the port for an immediate rebind.
        drop(l);
        let l2 = bind_listener(addr, false).unwrap();
        assert_eq!(l2.local_addr().unwrap(), addr);
    }

    #[cfg(any(target_os = "linux", target_os = "android"))]
    #[test]
    fn reuseport_listeners_share_a_port() {
        let a = bind_listener("127.0.0.1:0".parse().unwrap(), true).unwrap();
        let addr = a.local_addr().unwrap();
        // A second (and third) listener on the same port must bind.
        let b = bind_listener(addr, true).unwrap();
        let c = bind_listener(addr, true).unwrap();
        assert_eq!(b.local_addr().unwrap(), addr);
        assert_eq!(c.local_addr().unwrap(), addr);
        // Without reuseport the same bind must fail while a holds it.
        assert!(bind_listener(addr, false).is_err());
    }
}
