//! The shard's side of the socket: a [`ShardServer`] hosting one
//! [`RepairService`] behind a unix listener, and the one dispatcher that
//! answers a client frame — shared with [`super::LoopbackTransport`].
//!
//! One thread accepts connections (non-blocking, polling a shutdown flag);
//! each connection gets a dedicated thread running the frame loop, and drops
//! its bookkeeping when it ends.  A corrupt or hostile client degrades to an
//! `Err` frame plus a counted protocol error — never a panic, never an
//! unbounded allocation (the codec caps frame length before allocating).
//! Shutdown closes every live connection stream, so connection threads
//! unblock from `read` and the whole server joins deterministically.

use super::frame::{read_frame, write_frame, Frame, FrameError, WireOutcome, WIRE_FORMAT_VERSION};
use crate::pool::SubmitError;
use crate::service::RepairService;
use crate::sync::lock_recover;
use crate::trace::{stage, TraceSpan};
use std::collections::HashMap;
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

/// Live connections by accept order: a stream clone (so shutdown can close
/// it) and the thread serving it.  A connection thread removes its own entry
/// when it ends, so a long-lived server holds only what is still open.
type Connections = Arc<Mutex<HashMap<u64, (UnixStream, JoinHandle<()>)>>>;

/// A unix-socket server exposing one repair service as a shard.
pub struct ShardServer {
    path: PathBuf,
    closed: Arc<AtomicBool>,
    connections: Connections,
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
        let connections = Connections::default();
        let protocol_errors = Arc::new(AtomicU64::new(0));
        let fingerprint = fingerprint.into();
        let accept_thread = {
            let closed = Arc::clone(&closed);
            let connections = Arc::clone(&connections);
            let protocol_errors = Arc::clone(&protocol_errors);
            std::thread::spawn(move || {
                let mut next_id = 0u64;
                while !closed.load(Ordering::Acquire) {
                    match listener.accept() {
                        Ok((stream, _addr)) => {
                            let Ok(clone) = stream.try_clone() else {
                                continue;
                            };
                            let id = next_id;
                            next_id += 1;
                            let service = Arc::clone(&service);
                            let fingerprint = fingerprint.clone();
                            let protocol_errors = Arc::clone(&protocol_errors);
                            let registry = Arc::clone(&connections);
                            // Held across the spawn, so the thread's own
                            // removal cannot run before its entry exists.
                            let mut live = lock_recover(&connections);
                            let worker = std::thread::spawn(move || {
                                serve_connection(&stream, &service, &fingerprint, &protocol_errors);
                                // Release the service before the entry: once
                                // the entry is gone, shutdown no longer joins
                                // this thread.
                                drop(service);
                                lock_recover(&registry).remove(&id);
                            });
                            live.insert(id, (clone, worker));
                        }
                        Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(ACCEPT_POLL);
                        }
                        Err(_) => break,
                    }
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
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for ShardServer {
    fn drop(&mut self) {
        self.closed.store(true, Ordering::Release);
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
        // No connection is accepted past this point.
        let live: Vec<_> = lock_recover(&self.connections).drain().collect();
        for (_, (stream, _)) in &live {
            // Unblocks the connection thread's read with a clean EOF.
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        for (_, (_, worker)) in live {
            let _ = worker.join();
        }
        let _ = std::fs::remove_file(&self.path);
    }
}

/// The shard's answer to one client frame — the only copy, run by every
/// socket connection and by [`super::LoopbackTransport`].  Any other frame (a
/// reply, a second `Hello`) gets an `Err` reply, which the socket loop counts
/// as a protocol error.
pub(crate) fn dispatch<M: RepairModel + Send + Sync + 'static>(
    service: &RepairService<M>,
    frame: Frame,
) -> Frame {
    let (request, context) = match frame {
        Frame::Submit(request) => (request, None),
        Frame::SubmitTraced { request, context } => (request, Some(context)),
        Frame::Stats => return Frame::StatsReply(service.stats_snapshot()),
        Frame::StatsWindow => return Frame::StatsWindowReply(service.stats_window()),
        other => return Frame::Err(format!("unexpected frame {other:?}")),
    };
    let started = Instant::now();
    let served = match service.submit(request) {
        Ok(ticket) => ticket.wait(),
        Err(SubmitError::Busy) => return Frame::Busy,
        Err(SubmitError::Closed) => return Frame::Closed,
    };
    let elapsed_ns = started.elapsed().as_nanos() as u64;
    let outcome = WireOutcome {
        responses: (*served.responses).clone(),
        from_cache: served.from_cache,
    };
    let Some(context) = context else {
        return Frame::Response(outcome);
    };
    // Adopt the remote parent: the sample span's deterministic fields are
    // pure functions of the driver-sent context, so the driver's own copy of
    // this span merges with it byte-for-byte — only the shard-measured wall
    // time is new information.
    let sample = TraceSpan::new(
        &context.child("sample"),
        "sample",
        stage::SAMPLE,
        outcome.responses.len() as u64,
        elapsed_ns,
    );
    Frame::TraceReply {
        outcome,
        spans: vec![sample],
    }
}

/// One connection's frame loop: handshake, then [`dispatch`] each frame
/// until EOF.
fn serve_connection<M: RepairModel + Send + Sync + 'static>(
    stream: &UnixStream,
    service: &RepairService<M>,
    fingerprint: &str,
    protocol_errors: &AtomicU64,
) {
    let mut reader = BufReader::new(stream);
    let mut writer = BufWriter::new(stream);
    // Handshake: the first frame must be a Hello at this build's version.
    let hello = match read_frame(&mut reader) {
        Ok(Frame::Hello {
            format_version: WIRE_FORMAT_VERSION,
            ..
        }) => Frame::Hello {
            format_version: WIRE_FORMAT_VERSION,
            fingerprint: fingerprint.to_string(),
        },
        Ok(Frame::Hello { format_version, .. }) => Frame::Err(format!(
            "wire version mismatch: client speaks v{format_version}, \
             shard speaks v{WIRE_FORMAT_VERSION}"
        )),
        Ok(other) => Frame::Err(format!("expected Hello, got {other:?}")),
        Err(_) => Frame::Err("undecodable hello".into()),
    };
    let refused = matches!(hello, Frame::Err(_));
    if refused {
        protocol_errors.fetch_add(1, Ordering::Relaxed);
    }
    if write_frame(&mut writer, &hello).is_err() || refused {
        return;
    }
    loop {
        let reply = match read_frame(&mut reader) {
            Ok(frame) => dispatch(service, frame),
            Err(FrameError::Eof) => return,
            Err(err) => {
                // Oversized, checksum, codec, or I/O failure: the stream may
                // be desynchronized, so answer once and hang up.
                protocol_errors.fetch_add(1, Ordering::Relaxed);
                let _ = write_frame(&mut writer, &Frame::Err(err.to_string()));
                return;
            }
        };
        if matches!(reply, Frame::Err(_)) {
            protocol_errors.fetch_add(1, Ordering::Relaxed);
        }
        if write_frame(&mut writer, &reply).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{RepairRequest, ServiceConfig};
    use crate::trace::TraceContext;
    use crate::wire::{Transport, UnixTransport};
    use svmodel::{CaseInput, Response};

    struct EchoModel;

    impl RepairModel for EchoModel {
        fn name(&self) -> &str {
            "echo"
        }

        fn solve(&self, case: &CaseInput, samples: usize, _: f64, seed: u64) -> Vec<Response> {
            (0..samples)
                .map(|i| Response {
                    bug_line_number: i as u32,
                    buggy_line: case.buggy_source.clone(),
                    fixed_line: format!("seed-{seed}-sample-{i}"),
                    cot: None,
                })
                .collect()
        }
    }

    fn echo_service() -> Arc<RepairService<EchoModel>> {
        Arc::new(RepairService::start(
            Arc::new(EchoModel),
            ServiceConfig::default().with_workers(1).with_seed(5),
        ))
    }

    fn request() -> RepairRequest {
        RepairRequest::new(
            CaseInput {
                spec: "spec".into(),
                buggy_source: "module m(); endmodule".into(),
                logs: "assertion a failed".into(),
            },
            3,
            0.2,
        )
    }

    fn stop(service: Arc<RepairService<EchoModel>>) {
        Arc::try_unwrap(service)
            .ok()
            .expect("sole owner")
            .shutdown();
    }

    #[test]
    fn dispatch_answers_every_client_frame_with_its_reply() {
        let service = echo_service();
        let Frame::Response(cold) = dispatch(&service, Frame::Submit(request())) else {
            panic!("a submission is answered with a Response");
        };
        assert_eq!(cold.responses.len(), 3);
        assert!(!cold.from_cache);

        // The traced arm serves the same outcome and adds one `sample` span
        // under the driver's context.
        let context = TraceContext::root(request().key(), 1);
        let reply = dispatch(
            &service,
            Frame::SubmitTraced {
                request: request(),
                context,
            },
        );
        let Frame::TraceReply { outcome, spans } = reply else {
            panic!("a traced submission is answered with a TraceReply");
        };
        assert_eq!(outcome.responses, cold.responses);
        assert!(outcome.from_cache, "the second sighting is a cache hit");
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "sample");
        assert_eq!(spans[0].parent, Some(context.span_id));
        assert_eq!(spans[0].units, 3);

        assert!(matches!(
            dispatch(&service, Frame::Stats),
            Frame::StatsReply(_)
        ));
        assert!(matches!(
            dispatch(&service, Frame::StatsWindow),
            Frame::StatsWindowReply(_)
        ));
        stop(service);
    }

    #[test]
    fn dispatch_refuses_every_frame_but_the_four_requests() {
        let service = echo_service();
        let replies = [
            Frame::Hello {
                format_version: WIRE_FORMAT_VERSION,
                fingerprint: "echo".into(),
            },
            Frame::Busy,
            Frame::Closed,
            Frame::StatsReply(Default::default()),
            Frame::Err("boom".into()),
        ];
        for frame in replies {
            let reply = dispatch(&service, frame.clone());
            assert!(
                matches!(&reply, Frame::Err(msg) if msg.starts_with("unexpected frame")),
                "{frame:?} must be refused, got {reply:?}"
            );
        }
        assert_eq!(service.metrics().submitted, 0, "nothing reached the pool");
        stop(service);
    }

    #[test]
    fn finished_connections_release_their_stream_and_thread() {
        let service = echo_service();
        let socket = std::env::temp_dir().join(format!("svserve-leak-{}.sock", std::process::id()));
        let server = ShardServer::bind(&socket, Arc::clone(&service), "echo").expect("bind");
        let held = || lock_recover(&server.connections).len();
        let wait_for = |count: usize| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while held() != count && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            held()
        };
        for _ in 0..64 {
            // A completed handshake proves the server accepted the connection.
            let transport = UnixTransport::connect(&socket, Some("echo"), Duration::from_secs(10))
                .expect("connect");
            drop(transport);
        }
        assert_eq!(
            wait_for(0),
            0,
            "64 closed connections leave no stream clone and no thread handle behind"
        );

        // A connection still open is held until shutdown closes it.
        let mut open = UnixTransport::connect(&socket, Some("echo"), Duration::from_secs(10))
            .expect("connect");
        assert_eq!(wait_for(1), 1);
        server.shutdown();
        assert!(open.exchange(&Frame::Stats).is_err(), "shutdown closed it");
        stop(service);
    }
}
