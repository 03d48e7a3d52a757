//! The shard's side of the socket: a [`ShardServer`] hosting one
//! [`RepairService`] behind a unix listener.
//!
//! One thread accepts connections (non-blocking, polling a shutdown flag);
//! each connection gets a dedicated thread running the frame loop.  A corrupt
//! or hostile client degrades to an `Err` frame plus a counted protocol error
//! and a closed connection — never a panic, never an unbounded allocation
//! (the codec caps frame length before allocating).  Shutdown closes every
//! live connection stream, so connection threads unblock from `read` and the
//! whole server joins deterministically.

use super::frame::{
    read_frame, write_frame, Frame, FrameError, WireOutcome, MIN_WIRE_FORMAT_VERSION,
    WIRE_FORMAT_VERSION,
};
use crate::queue::SubmitError;
use crate::service::RepairService;
use crate::sync::lock_recover;
use crate::trace::{stage, TraceSpan};
use std::io::{BufReader, BufWriter};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use svmodel::RepairModel;

/// How long the accept loop sleeps between polls of the listener and the
/// shutdown flag.
const ACCEPT_POLL: Duration = Duration::from_millis(20);

/// A unix-socket server exposing one repair service as a shard.
pub struct ShardServer {
    path: PathBuf,
    closed: Arc<AtomicBool>,
    connections: Arc<Mutex<Vec<UnixStream>>>,
    protocol_errors: Arc<AtomicU64>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ShardServer {
    /// Binds `path` and starts serving `service`; `fingerprint` is the
    /// serving model's identity, echoed in every `Hello` handshake.
    ///
    /// A stale socket file from a previous run is removed first (unix sockets
    /// do not unbind themselves on crash).
    pub fn bind<M: RepairModel + Send + Sync + 'static>(
        path: impl Into<PathBuf>,
        service: Arc<RepairService<M>>,
        fingerprint: impl Into<String>,
    ) -> std::io::Result<Self> {
        let path = path.into();
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path)?;
        listener.set_nonblocking(true)?;
        let closed = Arc::new(AtomicBool::new(false));
        let connections: Arc<Mutex<Vec<UnixStream>>> = Arc::new(Mutex::new(Vec::new()));
        let protocol_errors = Arc::new(AtomicU64::new(0));
        let fingerprint = fingerprint.into();
        let accept_thread = {
            let closed = Arc::clone(&closed);
            let connections = Arc::clone(&connections);
            let protocol_errors = Arc::clone(&protocol_errors);
            std::thread::spawn(move || {
                let mut workers: Vec<JoinHandle<()>> = Vec::new();
                while !closed.load(Ordering::Acquire) {
                    match listener.accept() {
                        Ok((stream, _addr)) => {
                            if let Ok(clone) = stream.try_clone() {
                                lock_recover(&connections).push(clone);
                            }
                            let service = Arc::clone(&service);
                            let fingerprint = fingerprint.clone();
                            let protocol_errors = Arc::clone(&protocol_errors);
                            workers.push(std::thread::spawn(move || {
                                serve_connection(stream, &service, &fingerprint, &protocol_errors);
                            }));
                        }
                        Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(ACCEPT_POLL);
                        }
                        Err(_) => break,
                    }
                }
                for worker in workers {
                    let _ = worker.join();
                }
            })
        };
        Ok(Self {
            path,
            closed,
            connections,
            protocol_errors,
            accept_thread: Some(accept_thread),
        })
    }

    /// The socket path this server is bound to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Undecodable or out-of-protocol frames received so far; each one also
    /// produced an `Err` frame back to its sender.
    pub fn protocol_errors(&self) -> u64 {
        self.protocol_errors.load(Ordering::Relaxed)
    }

    /// Stops accepting, closes every live connection, joins all threads and
    /// removes the socket file.  The wrapped service is untouched — shut it
    /// down separately (it may outlive the listener).
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.closed.store(true, Ordering::Release);
        for stream in lock_recover(&self.connections).drain(..) {
            // Unblocks the connection thread's read with a clean EOF.
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
        let _ = std::fs::remove_file(&self.path);
    }
}

impl Drop for ShardServer {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.stop();
        }
    }
}

/// One connection's frame loop: handshake, then `Submit` → answer until EOF.
fn serve_connection<M: RepairModel + Send + Sync + 'static>(
    stream: UnixStream,
    service: &RepairService<M>,
    fingerprint: &str,
    protocol_errors: &AtomicU64,
) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    // Handshake: the first frame must be a compatible Hello.  A client
    // announcing a *newer* version is answered with ours (it decides whether
    // it still speaks that); only one below the floor is refused.
    match read_frame(&mut reader) {
        Ok(Frame::Hello { format_version, .. }) if format_version >= MIN_WIRE_FORMAT_VERSION => {
            let hello = Frame::Hello {
                format_version: WIRE_FORMAT_VERSION,
                fingerprint: fingerprint.to_string(),
            };
            if write_frame(&mut writer, &hello).is_err() {
                return;
            }
        }
        Ok(Frame::Hello { format_version, .. }) => {
            protocol_errors.fetch_add(1, Ordering::Relaxed);
            let _ = write_frame(
                &mut writer,
                &Frame::Err(format!(
                    "wire version mismatch: client speaks v{format_version}, \
                     shard speaks v{WIRE_FORMAT_VERSION} \
                     (minimum v{MIN_WIRE_FORMAT_VERSION})"
                )),
            );
            return;
        }
        Ok(other) => {
            protocol_errors.fetch_add(1, Ordering::Relaxed);
            let _ = write_frame(
                &mut writer,
                &Frame::Err(format!("expected Hello, got {other:?}")),
            );
            return;
        }
        Err(_) => {
            protocol_errors.fetch_add(1, Ordering::Relaxed);
            let _ = write_frame(&mut writer, &Frame::Err("undecodable hello".into()));
            return;
        }
    }
    loop {
        let reply = match read_frame(&mut reader) {
            Ok(Frame::Submit(request)) => match service.submit(request) {
                Ok(ticket) => {
                    let outcome = ticket.wait();
                    Frame::Response(WireOutcome {
                        responses: (*outcome.responses).clone(),
                        from_cache: outcome.from_cache,
                    })
                }
                Err(SubmitError::Busy) => Frame::Busy,
                Err(SubmitError::Closed) => Frame::Closed,
            },
            Ok(Frame::SubmitTraced { request, context }) => {
                let started = Instant::now();
                match service.submit(request) {
                    Ok(ticket) => {
                        let outcome = ticket.wait();
                        // Adopt the remote parent: the sample span's
                        // deterministic fields are pure functions of the
                        // driver-sent context, so the driver's own copy of
                        // this span merges with it byte-for-byte — only the
                        // shard-measured wall time is new information.
                        let sample = TraceSpan::new(
                            &context.child("sample"),
                            "sample",
                            stage::SAMPLE,
                            outcome.responses.len() as u64,
                            started.elapsed().as_nanos() as u64,
                        );
                        Frame::TraceReply {
                            outcome: WireOutcome {
                                responses: (*outcome.responses).clone(),
                                from_cache: outcome.from_cache,
                            },
                            spans: vec![sample],
                        }
                    }
                    Err(SubmitError::Busy) => Frame::Busy,
                    Err(SubmitError::Closed) => Frame::Closed,
                }
            }
            Ok(Frame::Stats) => Frame::StatsReply(service.stats_snapshot()),
            Ok(Frame::StatsWindow) => Frame::StatsWindowReply(service.stats_window()),
            Ok(other) => {
                protocol_errors.fetch_add(1, Ordering::Relaxed);
                Frame::Err(format!("unexpected frame {other:?}"))
            }
            Err(FrameError::Eof) => return,
            Err(err) => {
                // Oversized, checksum, codec, or I/O failure: the stream may
                // be desynchronized, so answer once and hang up.
                protocol_errors.fetch_add(1, Ordering::Relaxed);
                let _ = write_frame(&mut writer, &Frame::Err(err.to_string()));
                return;
            }
        };
        if write_frame(&mut writer, &reply).is_err() {
            return;
        }
    }
}
