//! The compile server: a bounded thread-per-connection accept loop over
//! `std::net::TcpListener`, JSON endpoints over the batch-compilation
//! service, and graceful shutdown that drains in-flight requests and
//! persists the file cache tier.
//!
//! Every request path — single compiles, JSONL batches, design-space
//! sweeps — shares one process-wide [`SharedCache`], so concurrent clients
//! warm each other and a repeated request mix is answered without
//! recompiling.
//!
//! ```no_run
//! use ftqc_server::{Server, ServerConfig};
//!
//! let server = Server::bind(ServerConfig::default())?;
//! println!("listening on {}", server.local_addr()?);
//! let handle = server.handle()?; // clone into another thread to stop it
//! server.install_sigint_handler(); // Ctrl-C also shuts down cleanly
//! let report = server.run()?;
//! println!("served {} requests", report.requests);
//! # Ok::<(), ftqc_server::ServerError>(())
//! ```

use crate::api::{
    check_wire_version, negotiate_version, versioned, versioned_as, MultiSweepResponse,
    SweepRequest, SweepResponse, TargetInfo, TargetsResponse, WIRE_VERSION,
};
use crate::http::{self, HttpError, Request};
use crate::metrics::{Endpoint, ServerMetrics};
use ftqc_arch::TargetRegistry;
use ftqc_compiler::{
    apply_job_target, explore_session, explore_targets, pareto_front, resolve_target_ref,
    stage_outcome, CompileSession, CompilerOptions, Metrics, Stage, StageCache, StageCacheStats,
    StageEvent, TraceHook,
};
use ftqc_reactor::{ReactorConfig, ReactorService, Refusal};
use ftqc_service::json::{JsonError, ToJson, Value};
use ftqc_service::resolve::resolve_source_remote;
use ftqc_service::{
    job_from_value, render_results, BatchService, CacheStats, CompileCache, CompileJob, JobResult,
    SharedCache, StageOutcome, TargetRef, WorkerPool,
};
use ftqc_telemetry::{
    duration_micros_saturating, ActiveTrace, FlightRecorder, HistogramSnapshot, StageSpanHook,
    TraceId, DEFAULT_TRACE_CAPACITY,
};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which connection engine a [`Server`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Transport {
    /// One blocking thread per connection, bounded by
    /// [`ServerConfig::max_connections`]. Simple and the default.
    #[default]
    Threaded,
    /// The `ftqc-reactor` event-driven core: sharded epoll loops
    /// multiplexing thousands of connections, a bounded per-client-fair
    /// admission queue feeding the worker pool, and 429 + `Retry-After`
    /// backpressure. Linux only (`ftqc serve --reactor`).
    Reactor,
}

/// Sizing, persistence, and safety knobs for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads per batch/sweep (0 ⇒ the machine's available
    /// parallelism).
    pub workers: usize,
    /// Memory-tier capacity of the shared compile cache.
    pub cache_capacity: usize,
    /// Optional file-backed cache tier, persisted on graceful shutdown.
    pub cache_file: Option<PathBuf>,
    /// Concurrent connections before new ones are turned away with 503.
    pub max_connections: usize,
    /// Per-request socket read timeout.
    pub read_timeout: Duration,
    /// How long shutdown waits for in-flight connections to drain.
    pub drain_timeout: Duration,
    /// How many finished request traces the flight recorder retains for
    /// `GET /v1/traces` / `GET /v1/trace/<id>`.
    pub trace_capacity: usize,
    /// The connection engine ([`Transport::Threaded`] by default).
    pub transport: Transport,
    /// Reactor event-loop shards (0 ⇒ auto). Ignored by the threaded
    /// transport.
    pub shards: usize,
    /// Reactor admission-queue bound: requests beyond it are answered
    /// with 429 + `Retry-After` before their bodies are read. Ignored by
    /// the threaded transport.
    pub queue_cap: usize,
    /// Longest a request may wait in the reactor's admission queue before
    /// it is answered with a retryable 503 instead of being served stale.
    pub queue_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7070".into(),
            workers: 0,
            cache_capacity: ftqc_service::DEFAULT_CACHE_CAPACITY,
            cache_file: None,
            max_connections: 64,
            read_timeout: Duration::from_secs(10),
            drain_timeout: Duration::from_secs(30),
            trace_capacity: DEFAULT_TRACE_CAPACITY,
            transport: Transport::default(),
            shards: 0,
            queue_cap: 256,
            queue_timeout: Duration::from_secs(30),
        }
    }
}

/// A server-level failure (bind, cache file, I/O).
#[derive(Debug)]
pub enum ServerError {
    /// Socket-level failure.
    Io(io::Error),
    /// The configured cache file exists but is malformed.
    CacheFile(JsonError),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "{e}"),
            ServerError::CacheFile(e) => write!(f, "cache file: {e}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<io::Error> for ServerError {
    fn from(e: io::Error) -> Self {
        ServerError::Io(e)
    }
}

/// What a finished server run did, returned by [`Server::run`].
#[derive(Debug, Clone)]
pub struct ServerReport {
    /// Requests handled.
    pub requests: u64,
    /// Connections accepted.
    pub connections: u64,
    /// The shared cache's final counters.
    pub cache: CacheStats,
    /// The stage cache's final per-stage counters.
    pub stages: StageCacheStats,
    /// Where the cache was persisted, when a file tier was configured.
    pub persisted: Option<PathBuf>,
}

/// Everything the request handlers share, behind one `Arc`.
struct AppState {
    /// Role-specific behaviour grafted onto the core server (the fleet
    /// crate's worker/coordinator roles); `None` for a plain server.
    extension: Option<Arc<dyn ServerExtension>>,
    service: BatchService<Metrics>,
    cache: SharedCache<Metrics>,
    /// Process-wide stage-artifact cache: every compile on this server —
    /// single jobs, batch lines, sweep grid points — resumes from whatever
    /// stages any earlier request already computed.
    stages: StageCache,
    /// Named hardware targets: the built-in presets, served by
    /// `GET /v1/targets` and resolved for job/sweep `"target"` fields.
    targets: TargetRegistry,
    /// Behind an `Arc` so per-job trace hooks on worker threads can feed
    /// the stage histograms directly.
    metrics: Arc<ServerMetrics>,
    /// The last N finished request traces, served by `GET /v1/traces`.
    recorder: FlightRecorder,
    workers: usize,
    started: Instant,
    read_timeout: Duration,
}

/// A cloneable handle that stops a running [`Server`].
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl ShutdownHandle {
    /// Asks the server to stop: the accept loop exits, in-flight requests
    /// drain, and the cache persists. Safe to call more than once.
    pub fn shutdown(&self) {
        self.flag.store(true, Ordering::SeqCst);
        // Poke the listener: the connection makes it readable, which wakes
        // the threaded accept loop's readiness wait at once instead of at
        // its next bounded timeout.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250));
    }
}

// A SIGINT handler can only set a flag; both transports check it each time
// their wait wakes (a connection, EINTR, or the wait's bounded timeout).
// Installed lazily by `install_sigint_handler` so embedded servers (tests,
// examples) never touch process-global signal state.
static SIGINT_FLAG: AtomicBool = AtomicBool::new(false);

/// Longest the threaded accept loop waits for the listener to become
/// readable before it re-checks the stop flags. Connections, the shutdown
/// poke and a SIGINT delivered to the accepting thread all wake it sooner;
/// the bound covers a SIGINT delivered to some other thread.
const ACCEPT_WAIT: Duration = Duration::from_millis(100);

/// Blocks until `listener` has a connection to accept, at most
/// [`ACCEPT_WAIT`]: `poll(2)` on the listener fd.
#[cfg(unix)]
mod accept_wait {
    use super::ACCEPT_WAIT;
    use std::io;
    use std::net::TcpListener;
    use std::os::raw::c_short;
    use std::os::unix::io::AsRawFd;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: c_short,
        revents: c_short,
    }

    #[cfg(any(target_os = "linux", target_os = "android"))]
    type NfdsT = std::os::raw::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    type NfdsT = std::os::raw::c_uint;

    extern "C" {
        // Declared directly, like `signal` in `mod sigint`, to stay
        // dependency-free.
        fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: i32) -> i32;
    }

    const POLLIN: c_short = 0x001;

    pub fn wait(listener: &TcpListener) {
        let mut entry = PollFd {
            fd: listener.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        };
        // SAFETY: `entry` is one initialised pollfd that lives across the
        // call, nfds is 1 to match, and the fd stays open because the
        // borrowed listener owns it.
        let ready = unsafe { poll(&mut entry, 1, ACCEPT_WAIT.as_millis() as i32) };
        // EINTR (SIGINT) is a wake-up like any other: poll is never
        // restarted, and the caller re-checks its stop flags. Any other
        // failure falls back to a short sleep so the loop cannot spin.
        if ready < 0 && io::Error::last_os_error().kind() != io::ErrorKind::Interrupted {
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
    }
}

/// The fallback where no `poll(2)` is declared: a short fixed sleep.
#[cfg(not(unix))]
mod accept_wait {
    pub fn wait(_listener: &std::net::TcpListener) {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
}

#[cfg(unix)]
mod sigint {
    use super::SIGINT_FLAG;
    use std::sync::atomic::Ordering;

    extern "C" fn on_sigint(_signum: i32) {
        // Async-signal-safe: a single atomic store.
        SIGINT_FLAG.store(true, Ordering::SeqCst);
    }

    extern "C" {
        // std already links libc on unix; declaring `signal` directly keeps
        // the crate dependency-free.
        fn signal(signum: i32, handler: usize) -> usize;
    }

    const SIGINT: i32 = 2;

    pub fn install() {
        unsafe {
            #[allow(clippy::fn_to_numeric_cast, clippy::fn_to_numeric_cast_any)]
            signal(SIGINT, on_sigint as extern "C" fn(i32) as usize);
        }
    }
}

/// The compile server. Build with [`Server::bind`], stop with a
/// [`ShutdownHandle`] or SIGINT.
pub struct Server {
    listener: TcpListener,
    state: Arc<AppState>,
    shutdown: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    max_connections: usize,
    drain_timeout: Duration,
    cache_file: Option<PathBuf>,
    transport: Transport,
    shards: usize,
    queue_cap: usize,
    queue_timeout: Duration,
}

impl Server {
    /// Binds the listener and loads the file cache tier when configured.
    ///
    /// # Errors
    ///
    /// [`ServerError::Io`] when the address cannot be bound,
    /// [`ServerError::CacheFile`] when the cache file exists but is
    /// malformed.
    pub fn bind(config: ServerConfig) -> Result<Server, ServerError> {
        Server::bind_with(config, None)
    }

    /// [`Server::bind`] with a role extension: the extension sees every
    /// request before the core router, owns job execution, and contributes
    /// to `/metrics` and `/v1/cache/stats`. This is how the fleet crate
    /// turns the plain server into a worker or a coordinator without the
    /// server crate depending on it.
    ///
    /// # Errors
    ///
    /// Same as [`Server::bind`].
    pub fn bind_with(
        config: ServerConfig,
        extension: Option<Arc<dyn ServerExtension>>,
    ) -> Result<Server, ServerError> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let mut cache = CompileCache::new(config.cache_capacity);
        if let Some(path) = &config.cache_file {
            cache = cache.with_file_tier(path).map_err(ServerError::CacheFile)?;
        }
        let cache = SharedCache::new(cache);
        let workers = if config.workers == 0 {
            WorkerPool::auto().workers()
        } else {
            config.workers
        };
        let state = AppState {
            extension,
            service: BatchService::with_cache(workers, cache.clone()),
            cache,
            stages: StageCache::new(ftqc_compiler::DEFAULT_STAGE_CACHE_CAPACITY),
            targets: TargetRegistry::builtin(),
            metrics: Arc::new(ServerMetrics::new()),
            recorder: FlightRecorder::new(config.trace_capacity),
            workers,
            started: Instant::now(),
            read_timeout: config.read_timeout,
        };
        Ok(Server {
            listener,
            state: Arc::new(state),
            shutdown: Arc::new(AtomicBool::new(false)),
            active: Arc::new(AtomicUsize::new(0)),
            max_connections: config.max_connections.max(1),
            drain_timeout: config.drain_timeout,
            cache_file: config.cache_file,
            transport: config.transport,
            shards: config.shards,
            queue_cap: config.queue_cap,
            queue_timeout: config.queue_timeout,
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that stops this server from another thread.
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn handle(&self) -> io::Result<ShutdownHandle> {
        Ok(ShutdownHandle {
            flag: Arc::clone(&self.shutdown),
            addr: self.local_addr()?,
        })
    }

    /// Routes SIGINT (Ctrl-C) to a graceful shutdown of every server in
    /// this process. No-op on non-unix platforms.
    pub fn install_sigint_handler(&self) {
        #[cfg(unix)]
        sigint::install();
    }

    /// The resolved worker-thread count (after 0-means-all-cores).
    pub fn workers(&self) -> usize {
        self.state.workers
    }

    /// Runs the configured transport until a [`ShutdownHandle`] fires or
    /// SIGINT arrives (after [`Self::install_sigint_handler`]), then
    /// drains in-flight connections, persists the cache file tier, and
    /// reports.
    ///
    /// # Errors
    ///
    /// [`ServerError::Io`] from persisting the cache (or, for the reactor
    /// transport, from event-loop setup — including `Unsupported` on
    /// non-Linux platforms); accept errors on individual connections are
    /// absorbed, not fatal.
    pub fn run(self) -> Result<ServerReport, ServerError> {
        match self.transport {
            Transport::Threaded => self.run_threaded(),
            Transport::Reactor => self.run_reactor(),
        }
    }

    /// The event-driven transport: hands the listener to `ftqc-reactor`
    /// with [`ReactorApp`] as the service. The reactor owns accepting,
    /// framing, admission, and draining; the application path
    /// ([`serve_parsed`]) is byte-for-byte the one the threaded transport
    /// runs.
    fn run_reactor(self) -> Result<ServerReport, ServerError> {
        let config = ReactorConfig {
            shards: self.shards,
            // Compile work still fans out across the worker pool;
            // dispatchers only shuttle requests into it.
            dispatchers: self.state.workers,
            queue_cap: self.queue_cap.max(1),
            // The admission queue, not the connection count, is the
            // reactor's real backpressure: keep thousands of sockets open
            // while refusing the requests the queue cannot absorb.
            max_connections: self.max_connections.max(4096),
            read_timeout: self.state.read_timeout,
            queue_timeout: self.queue_timeout,
            drain_timeout: self.drain_timeout,
            head_limit: http::MAX_HEAD_BYTES,
            body_limit: http::MAX_BODY_BYTES,
        };
        let app = Arc::new(ReactorApp {
            state: Arc::clone(&self.state),
        });
        let shutdown = Arc::clone(&self.shutdown);
        ftqc_reactor::run(self.listener, app, &config, move || {
            shutdown.load(Ordering::SeqCst) || SIGINT_FLAG.load(Ordering::SeqCst)
        })?;
        if let Some(ext) = &self.state.extension {
            ext.on_shutdown();
        }
        let persisted = match &self.cache_file {
            Some(path) => {
                self.state.cache.persist().map_err(ServerError::Io)?;
                Some(path.clone())
            }
            None => None,
        };
        Ok(ServerReport {
            requests: self.state.metrics.total_requests(),
            connections: self.state.metrics.connections(),
            cache: self.state.cache.stats(),
            stages: self.state.stages.stats(),
            persisted,
        })
    }

    /// The classic transport: a bounded thread-per-connection accept loop
    /// that sleeps in a readiness wait on the listener between connections.
    fn run_threaded(self) -> Result<ServerReport, ServerError> {
        while !self.should_stop() {
            match self.listener.accept() {
                Ok((stream, _peer)) => self.dispatch(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    accept_wait::wait(&self.listener);
                }
                Err(_) => {
                    // Transient accept failure (e.g. EMFILE); back off
                    // rather than spinning or dying.
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        }

        if let Some(ext) = &self.state.extension {
            ext.on_shutdown();
        }

        // Drain: connection threads are detached, so wait on the counter.
        let deadline = Instant::now() + self.drain_timeout;
        while self.active.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }

        let persisted = match &self.cache_file {
            Some(path) => {
                self.state.cache.persist().map_err(ServerError::Io)?;
                Some(path.clone())
            }
            None => None,
        };
        Ok(ServerReport {
            requests: self.state.metrics.total_requests(),
            connections: self.state.metrics.connections(),
            cache: self.state.cache.stats(),
            stages: self.state.stages.stats(),
            persisted,
        })
    }

    fn should_stop(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || SIGINT_FLAG.load(Ordering::SeqCst)
    }

    /// Hands an accepted stream to a connection thread, or turns it away
    /// with 503 at the connection limit.
    fn dispatch(&self, mut stream: TcpStream) {
        // The listener is non-blocking so the accept loop can re-check its
        // stop flags after each readiness wait; on BSD-family platforms
        // accepted sockets inherit that flag (Linux clears it), which would
        // turn every slow read into a spurious WouldBlock and defeat
        // set_read_timeout. Make the stream explicitly blocking.
        let _ = stream.set_nonblocking(false);
        if self.active.load(Ordering::SeqCst) >= self.max_connections {
            self.state.metrics.connection_rejected();
            // Refuse off the accept thread: writing synchronously here
            // used to let one peer with a full receive window stall every
            // subsequent accept. Best-effort, bounded by a short write
            // timeout — the peer is over limit, it is not owed patience.
            std::thread::spawn(move || {
                let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
                let body = error_body("server at connection limit, retry later");
                let _ = http::write_all(
                    &mut stream,
                    &http::render_response(503, "application/json", body.as_bytes()),
                );
                // Drain whatever request the peer managed to send before
                // closing: dropping a socket with unread input turns the
                // close into an RST that can discard the 503 mid-flight.
                let _ = stream.shutdown(std::net::Shutdown::Write);
                let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
                let mut scratch = [0u8; 4096];
                while let Ok(n) = io::Read::read(&mut stream, &mut scratch) {
                    if n == 0 {
                        break;
                    }
                }
            });
            return;
        }
        self.state.metrics.connection_opened();
        self.active.fetch_add(1, Ordering::SeqCst);
        let state = Arc::clone(&self.state);
        let active = Arc::clone(&self.active);
        std::thread::spawn(move || {
            // Decrement on every exit path, panics included, so shutdown's
            // drain loop cannot hang on a crashed connection.
            struct Release(Arc<AtomicUsize>);
            impl Drop for Release {
                fn drop(&mut self) {
                    self.0.fetch_sub(1, Ordering::SeqCst);
                }
            }
            let _release = Release(active);
            serve_connection(&state, stream);
        });
    }
}

/// Enforces a whole-request read deadline over a blocking stream: every
/// read's socket timeout is the time *remaining*, so a peer dribbling one
/// byte per interval (slow loris) is reaped when the total budget runs
/// out — a per-read timeout alone never fires against steady dribble.
struct DeadlineStream<'a> {
    stream: &'a mut TcpStream,
    deadline: Instant,
}

impl io::Read for DeadlineStream<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let remaining = self.deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(remaining))?;
        self.stream.read(buf)
    }
}

/// Serves one request on `stream` and closes it (`Connection: close`).
fn serve_connection(state: &AppState, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    // The trace clock starts before the request is read, so header/body
    // read time shows up as root self-time and the parse span sits at the
    // right offset.
    let started = Instant::now();
    let mut reader = DeadlineStream {
        stream: &mut stream,
        deadline: started + state.read_timeout,
    };
    let request = match http::read_request(&mut reader) {
        Ok(Some(request)) => request,
        Ok(None) => return, // peer closed without sending anything
        Err(e) => {
            let status = match e {
                HttpError::Malformed(_) => 400,
                HttpError::TooLarge(_) => 413,
                HttpError::Unsupported(_) => 501,
                HttpError::Timeout => 408,
                HttpError::Io(_) => return, // connection already gone
            };
            let body = error_body(&e.to_string());
            let _ = http::write_all(
                &mut stream,
                &http::render_response(status, "application/json", body.as_bytes()),
            );
            return;
        }
    };
    let mut respond = |bytes: &[u8]| {
        let _ = http::write_all(&mut stream, bytes);
    };
    serve_parsed(state, &request, started, &mut respond);
}

/// How a routed request was answered.
enum Served {
    /// A complete `(status, content type, body)` still to be rendered.
    Full(HandlerResult),
    /// The handler already wrote its head and body through the sink
    /// (streaming endpoints); only the status remains to account.
    Streamed {
        /// The status the streamed head carried.
        status: u16,
    },
}

/// The transport-neutral half of the connection path: traces, routes, and
/// answers one parsed request, pushing raw response bytes (head first,
/// then body chunks) through `respond`. Both transports run exactly this,
/// which is what keeps their responses byte-identical. Returns the
/// response status.
fn serve_parsed(
    state: &AppState,
    request: &Request,
    started: Instant,
    respond: &mut dyn FnMut(&[u8]),
) -> u16 {
    let endpoint = Endpoint::of_path(&request.path);
    // Honour a caller-chosen id (distributed callers propagate theirs);
    // mint otherwise.
    let trace_id = request
        .header("x-ftqc-trace")
        .and_then(TraceId::parse)
        .unwrap_or_else(TraceId::mint);
    let trace = ActiveTrace::begin_at(trace_id, "request", started);
    trace.add_span(
        "parse",
        None,
        0,
        trace.now_micros(),
        vec![("bytes".into(), request.body.len().to_string())],
    );
    let trace_hex = trace_id.to_hex();
    let in_flight = state.metrics.begin_request();
    // A handler panic (a compiler bug on some exotic input) must cost one
    // request, not the whole server.
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        route_request(state, request, &trace, &trace_hex, respond)
    }));
    drop(in_flight);
    let (status, response) = match outcome.unwrap_or_else(|_| {
        Served::Full((
            500,
            "application/json",
            error_body("internal error: handler panicked"),
        ))
    }) {
        Served::Streamed { status } => (status, None),
        Served::Full((status, content_type, body)) => (
            status,
            Some(http::render_response_with(
                status,
                content_type,
                &[("x-ftqc-trace", &trace_hex)],
                body.as_bytes(),
            )),
        ),
    };
    // Account and record before the response completes, so a client that
    // holds a whole response always finds its request in /metrics and
    // /v1/trace/<id>. A full response completes with the write below; a
    // streamed one at connection close, after this function returns.
    state.metrics.record(endpoint, status, started.elapsed());
    state
        .recorder
        .record(trace.finish(status, endpoint.label()));
    if let Some(bytes) = response {
        respond(&bytes);
    }
    status
}

/// [`handle_request`] plus the streaming special case: `POST /v1/batch`
/// writes its head and each JSONL line through the sink as jobs finish.
fn route_request(
    state: &AppState,
    request: &Request,
    trace: &Arc<ActiveTrace>,
    trace_hex: &str,
    respond: &mut dyn FnMut(&[u8]),
) -> Served {
    if request.method == "POST" && request.path == "/v1/batch" {
        // The extension still gets its first crack before the stream
        // starts (a coordinator may own this endpoint outright).
        if let Some(ext) = &state.extension {
            let ctx = ServerContext { state, trace };
            if let Some(result) = ext.handle(&ctx, request) {
                return Served::Full(result);
            }
        }
        return handle_batch_streamed(state, request, trace, trace_hex, respond);
    }
    Served::Full(handle_request(state, request, trace))
}

/// The reactor-transport service: frames arrive complete from the event
/// loops, get parsed by the same strict parser the threaded transport
/// uses, and flow through [`serve_parsed`]. Refusals render the same
/// bodies the threaded transport writes for the equivalent condition.
struct ReactorApp {
    state: Arc<AppState>,
}

impl ReactorService for ReactorApp {
    fn handle(&self, _peer: SocketAddr, request: Vec<u8>, respond: &mut dyn FnMut(&[u8])) {
        let started = Instant::now();
        let request = match http::read_request(&mut &request[..]) {
            Ok(Some(request)) => request,
            Ok(None) => return, // empty frame: nothing owed
            Err(e) => {
                let status = match e {
                    HttpError::Malformed(_) => 400,
                    HttpError::TooLarge(_) => 413,
                    HttpError::Unsupported(_) => 501,
                    HttpError::Timeout => 408,
                    HttpError::Io(_) => return,
                };
                let body = error_body(&e.to_string());
                respond(&http::render_response(
                    status,
                    "application/json",
                    body.as_bytes(),
                ));
                return;
            }
        };
        serve_parsed(&self.state, &request, started, respond);
    }

    fn refuse(&self, refusal: &Refusal) -> Vec<u8> {
        match refusal {
            Refusal::OverCapacity {
                retry_after_secs, ..
            } => http::render_response_with(
                429,
                "application/json",
                &[("retry-after", &retry_after_secs.to_string())],
                error_body("server over capacity, retry later").as_bytes(),
            ),
            Refusal::ConnectionLimit { .. } => http::render_response(
                503,
                "application/json",
                error_body("server at connection limit, retry later").as_bytes(),
            ),
            // Exactly the bodies the threaded transport's read path
            // produces for the same limits (HttpError::TooLarge's
            // display over http.rs's messages).
            Refusal::HeadTooLarge { limit } => http::render_response(
                413,
                "application/json",
                error_body(&format!("message too large: head exceeds {limit} bytes")).as_bytes(),
            ),
            Refusal::BodyTooLarge { length, limit } => http::render_response(
                413,
                "application/json",
                error_body(&format!(
                    "message too large: body of {length} bytes exceeds {limit}"
                ))
                .as_bytes(),
            ),
            // The body the threaded transport's read path produces for
            // the same condition (HttpError::Timeout's display).
            Refusal::Timeout => http::render_response(
                408,
                "application/json",
                error_body("timed out reading from peer").as_bytes(),
            ),
            Refusal::Expired { retry_after_secs } => http::render_response_with(
                503,
                "application/json",
                &[("retry-after", &retry_after_secs.to_string())],
                error_body("request expired in the admission queue, retry later").as_bytes(),
            ),
        }
    }

    fn on_connection(&self) {
        self.state.metrics.connection_opened();
    }

    fn on_admitted(&self, wait: Duration, depth: usize) {
        self.state
            .metrics
            .record_admission(duration_micros_saturating(wait));
        self.state.metrics.set_queue_depth(depth as u64);
    }

    fn on_rejected(&self, refusal: &Refusal) {
        match refusal {
            Refusal::OverCapacity { .. } => self.state.metrics.request_throttled(),
            Refusal::ConnectionLimit { .. } => self.state.metrics.connection_rejected(),
            Refusal::Expired { .. } => self.state.metrics.request_expired(),
            Refusal::HeadTooLarge { .. } | Refusal::BodyTooLarge { .. } | Refusal::Timeout => {}
        }
    }

    fn on_queue_depth(&self, depth: usize) {
        self.state.metrics.set_queue_depth(depth as u64);
    }
}

/// Renders the server's standard versioned `{"error": …}` body — public so
/// extension endpoints answer failures in the same shape.
pub fn error_body(message: &str) -> String {
    versioned(Value::Obj(vec![(
        "error".into(),
        Value::Str(message.into()),
    )]))
    .render()
}

/// What a handler returns: `(status, content type, body)`.
pub type HandlerResult = (u16, &'static str, String);

/// The slice of server internals an extension may use: local job
/// execution (same staged sessions, stage cache, and per-job tracing the
/// core endpoints use) plus the shared caches and registry. Handed to
/// every [`ServerExtension`] hook by reference; never outlives the call.
pub struct ServerContext<'a> {
    state: &'a AppState,
    trace: &'a Arc<ActiveTrace>,
}

impl ServerContext<'_> {
    /// Runs `jobs` on this process — the exact compile path a plain
    /// server's endpoints use (shared stage cache, per-stage spans and
    /// histograms, whole-job cache) — returning results in submission
    /// order. Job-outcome accounting is the caller's: the core endpoints
    /// count results after any extension post-processing.
    pub fn run_jobs_local(
        &self,
        jobs: Vec<CompileJob<CompilerOptions>>,
    ) -> Vec<JobResult<Metrics>> {
        self.state
            .service
            .run(jobs, resolve_source_remote, |c, job| {
                compile_staged(self.state, self.trace, c, job)
            })
    }

    /// The process-wide stage-artifact cache (cloneable shared handle).
    pub fn stages(&self) -> &StageCache {
        &self.state.stages
    }

    /// The whole-job compile cache.
    pub fn cache(&self) -> &SharedCache<Metrics> {
        &self.state.cache
    }

    /// The named hardware-target registry.
    pub fn targets(&self) -> &TargetRegistry {
        &self.state.targets
    }

    /// The request's active trace, for extension-added spans.
    pub fn trace(&self) -> &Arc<ActiveTrace> {
        self.trace
    }

    /// The resolved worker-thread count.
    pub fn workers(&self) -> usize {
        self.state.workers
    }
}

/// Role-specific behaviour grafted onto the core server via
/// [`Server::bind_with`]: the fleet crate implements this once for the
/// worker role (adds `/v1/work` and the peer-cache endpoints) and once for
/// the coordinator role (reroutes job execution to remote workers). Every
/// hook has a no-op default, so an extension overrides only what its role
/// changes.
pub trait ServerExtension: Send + Sync {
    /// First crack at every request. Return `Some` to answer it; `None`
    /// falls through to the core router.
    fn handle(&self, _ctx: &ServerContext<'_>, _request: &Request) -> Option<HandlerResult> {
        None
    }

    /// Executes the jobs behind `POST /v1/compile` and `POST /v1/batch`,
    /// in submission order. The default compiles locally; a coordinator
    /// overrides this to dispatch across its fleet.
    fn run_jobs(
        &self,
        ctx: &ServerContext<'_>,
        jobs: Vec<CompileJob<CompilerOptions>>,
    ) -> Vec<JobResult<Metrics>> {
        ctx.run_jobs_local(jobs)
    }

    /// Extra Prometheus exposition text appended to `GET /metrics`.
    fn metrics_text(&self) -> String {
        String::new()
    }

    /// Extra fields appended to the `GET /v1/cache/stats` document
    /// (additive wire evolution: new keys, no version bump).
    fn stats_fields(&self) -> Vec<(String, Value)> {
        Vec::new()
    }

    /// Called once when the server begins draining (shutdown), before
    /// in-flight connections finish.
    fn on_shutdown(&self) {}
}

/// Routes one parsed request to its endpoint: extension first crack, then
/// the core router. The buffered sibling of [`route_request`], kept for
/// callers that want a plain [`HandlerResult`] (tests, embedding).
fn handle_request(state: &AppState, request: &Request, trace: &Arc<ActiveTrace>) -> HandlerResult {
    if let Some(ext) = &state.extension {
        let ctx = ServerContext { state, trace };
        if let Some(result) = ext.handle(&ctx, request) {
            return result;
        }
    }
    handle_request_core(state, request, trace)
}

/// The core router (no extension dispatch).
fn handle_request_core(
    state: &AppState,
    request: &Request,
    trace: &Arc<ActiveTrace>,
) -> HandlerResult {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/v1/compile") => handle_compile(state, request, trace),
        ("POST", "/v1/batch") => handle_batch(state, request, trace),
        ("POST", "/v1/sweep") => handle_sweep(state, request),
        ("GET", "/v1/targets") => handle_targets(state),
        ("GET", "/v1/cache/stats") => handle_cache_stats(state),
        ("GET", "/v1/traces") => handle_traces(state, request),
        ("GET", path) if path.strip_prefix("/v1/trace/").is_some() => {
            handle_trace(state, path.strip_prefix("/v1/trace/").expect("guarded"))
        }
        ("GET", "/healthz") => handle_healthz(state),
        ("GET", "/metrics") => {
            let mut text = state.metrics.render_prometheus(
                &state.cache.stats(),
                &state.stages.stats(),
                &state.stages.route_stats(),
                state.started.elapsed(),
            );
            if let Some(ext) = &state.extension {
                text.push_str(&ext.metrics_text());
            }
            (200, "text/plain; version=0.0.4", text)
        }
        (
            _,
            "/v1/compile" | "/v1/batch" | "/v1/sweep" | "/v1/targets" | "/v1/cache/stats"
            | "/v1/traces" | "/healthz" | "/metrics",
        ) => (
            405,
            "application/json",
            error_body(&format!("method {} not allowed here", request.method)),
        ),
        (_, path) if path.starts_with("/v1/trace/") => (
            405,
            "application/json",
            error_body(&format!("method {} not allowed here", request.method)),
        ),
        (_, path) => (
            404,
            "application/json",
            error_body(&format!("no such endpoint {path:?}")),
        ),
    }
}

/// Feeds each finished stage into both consumers at once: the request
/// trace (a child span per stage, tagged with the job id) and the
/// process-wide per-stage latency histograms.
struct ServerStageHook {
    spans: StageSpanHook,
    metrics: Arc<ServerMetrics>,
}

impl TraceHook for ServerStageHook {
    fn on_stage(&self, event: &StageEvent) {
        self.metrics.record_stage(event.stage, event.micros);
        self.spans.on_stage(event);
    }
}

/// The compile closure every job endpoint shares: a staged session over
/// the process-wide stage cache, honouring each job's `stop_after` /
/// `resume_from` stage fields. Failures carry the failing stage in their
/// message, so batch JSONL error lines say where a job died.
fn compile_staged(
    state: &AppState,
    trace: &Arc<ActiveTrace>,
    circuit: &ftqc_circuit::Circuit,
    job: &CompileJob<CompilerOptions>,
) -> Result<StageOutcome<Metrics>, String> {
    let hook = Arc::new(ServerStageHook {
        spans: StageSpanHook::new(Arc::clone(trace)).with_attr("job", &job.id),
        metrics: Arc::clone(&state.metrics),
    });
    let session = CompileSession::new(job.options.clone())
        .with_cache(state.stages.clone())
        .with_hook(hook);
    stage_outcome(
        &session,
        circuit,
        job.stop_after.as_deref(),
        job.resume_from.as_deref(),
    )
}

/// Counts finished jobs into the `ftqc_jobs_*` metrics — the single
/// accounting recipe for every job-producing endpoint.
fn record_job_outcomes(state: &AppState, results: &[JobResult<Metrics>]) {
    let ok = results.iter().filter(|r| r.is_ok()).count() as u64;
    state.metrics.record_jobs(ok, results.len() as u64 - ok);
}

/// Post-run trace enrichment shared by the compile and batch endpoints:
/// a `queue-wait` span per job (the pool's measured submission→claim gap,
/// anchored at `submitted`), the queue-wait histogram samples, and a
/// `route` span per successful job carrying the router's per-compile
/// counters, parented under that job's `map` stage span.
fn trace_job_results(
    state: &AppState,
    trace: &Arc<ActiveTrace>,
    submitted: u64,
    results: &[JobResult<Metrics>],
) {
    for r in results {
        state.metrics.record_queue_wait(r.queue_micros);
        trace.add_span(
            "queue-wait",
            None,
            submitted,
            r.queue_micros,
            vec![("job".into(), r.id.clone())],
        );
        if let Some(m) = &r.metrics {
            let parent = trace.find_span_with_attr("map", "job", &r.id);
            trace.add_span(
                "route",
                parent,
                submitted.saturating_add(r.queue_micros),
                0,
                vec![
                    ("job".into(), r.id.clone()),
                    ("arena_reuses".into(), m.route.arena_reuses.to_string()),
                    ("table_hits".into(), m.route.table_hits.to_string()),
                    ("table_misses".into(), m.route.table_misses.to_string()),
                ],
            );
        }
    }
}

/// Runs `jobs` through the extension when one is installed (the
/// coordinator's remote dispatch), the local pool otherwise.
fn execute_jobs(
    state: &AppState,
    trace: &Arc<ActiveTrace>,
    jobs: Vec<CompileJob<CompilerOptions>>,
) -> Vec<JobResult<Metrics>> {
    let ctx = ServerContext { state, trace };
    match &state.extension {
        Some(ext) => ext.run_jobs(&ctx, jobs),
        None => ctx.run_jobs_local(jobs),
    }
}

/// [`execute_jobs`] with a per-job streaming sink. The local pool calls
/// `sink` as each job's ordered prefix completes; an extension runs the
/// whole batch first (its results still reach the sink through the
/// caller's trailing flush), so coordinators keep working unchanged.
fn execute_jobs_streamed(
    state: &AppState,
    trace: &Arc<ActiveTrace>,
    jobs: Vec<CompileJob<CompilerOptions>>,
    sink: &mut dyn FnMut(usize, &JobResult<Metrics>),
) -> Vec<JobResult<Metrics>> {
    let ctx = ServerContext { state, trace };
    match &state.extension {
        Some(ext) => ext.run_jobs(&ctx, jobs),
        None => state.service.run_streamed(
            jobs,
            resolve_source_remote,
            |c, job| compile_staged(state, trace, c, job),
            |index, result| sink(index, result),
        ),
    }
}

fn run_jobs(
    state: &AppState,
    trace: &Arc<ActiveTrace>,
    jobs: Vec<CompileJob<CompilerOptions>>,
) -> Vec<JobResult<Metrics>> {
    let submitted = trace.now_micros();
    let results = execute_jobs(state, trace, jobs);
    trace_job_results(state, trace, submitted, &results);
    record_job_outcomes(state, &results);
    results
}

/// `POST /v1/compile[?stage=prepare|lower|map|schedule]`: one JSON job
/// object in, one JSON result out. The `stage` query parameter (or the
/// body's `stop_after` field, which it overrides) stops the pipeline at
/// the named stage: the result then carries the stage name and its
/// artifact fingerprint instead of metrics. A `"target"` field (wire v2)
/// — preset name or inline spec — is resolved against the registry and
/// replaces the options' machine half before the job is fingerprinted. A
/// job that fails to *compile* is still HTTP 200 — the failure is in the
/// result's `status`; only an unparseable request (or an unsupported
/// wire version, or an unknown target) is a 400.
fn handle_compile(state: &AppState, request: &Request, trace: &Arc<ActiveTrace>) -> HandlerResult {
    let parsed = request
        .body_str()
        .map_err(|e| e.to_string())
        .and_then(|text| Value::parse(text).map_err(|e| e.to_string()))
        .and_then(|doc| {
            check_wire_version(&doc)?;
            let wire = negotiate_version(&doc)?;
            let job =
                job_from_value::<CompilerOptions>(&doc, "job-1").map_err(|e| e.to_string())?;
            Ok((wire, job))
        })
        .and_then(|(wire, mut job)| {
            if let Some(stage) = request.query_param("stage") {
                job.stop_after = Some(Stage::parse_or_err(stage)?.name().to_string());
            }
            let job = apply_job_target(job, &state.targets)?;
            Ok((wire, job))
        });
    match parsed {
        Err(e) => (400, "application/json", error_body(&e)),
        Ok((wire, job)) => {
            let results = run_jobs(state, trace, vec![job]);
            let result = results.into_iter().next().expect("one job, one result");
            (
                200,
                "application/json",
                versioned_as(wire, result.to_json()).render(),
            )
        }
    }
}

/// `POST /v1/batch`: a JSONL body fanned through the worker pool, JSONL
/// results in submission order. Malformed lines — including lines naming
/// unknown targets — cost only themselves: each yields an error result
/// naming its line number.
fn handle_batch(state: &AppState, request: &Request, trace: &Arc<ActiveTrace>) -> HandlerResult {
    let body = match request.body_str() {
        Ok(b) => b,
        Err(e) => return (400, "application/json", error_body(&e.to_string())),
    };
    let submitted = trace.now_micros();
    let results = ftqc_service::run_jsonl_via::<CompilerOptions, Metrics, _, _>(
        body,
        |job| apply_job_target(job, &state.targets),
        |jobs| execute_jobs(state, trace, jobs),
    );
    if results.is_empty() {
        return (
            400,
            "application/json",
            error_body("batch contains no jobs"),
        );
    }
    trace_job_results(state, trace, submitted, &results);
    record_job_outcomes(state, &results);
    (200, "application/jsonl", render_results(&results))
}

/// [`handle_batch`], streaming: the 200 head goes out when the first
/// result line is ready, and every subsequent JSONL line is written the
/// moment its job (and all earlier lines) finish — a long batch trickles
/// results instead of buffering them. An empty batch never streams; it
/// stays the full 400 the buffered path produces.
fn handle_batch_streamed(
    state: &AppState,
    request: &Request,
    trace: &Arc<ActiveTrace>,
    trace_hex: &str,
    respond: &mut dyn FnMut(&[u8]),
) -> Served {
    let body = match request.body_str() {
        Ok(b) => b,
        Err(e) => return Served::Full((400, "application/json", error_body(&e.to_string()))),
    };
    let submitted = trace.now_micros();
    let mut streamed_head = false;
    let results = {
        let streamed_head = &mut streamed_head;
        let mut emit_line = move |result: &JobResult<Metrics>| {
            if !*streamed_head {
                *streamed_head = true;
                respond(&http::render_streaming_head(
                    200,
                    "application/jsonl",
                    &[("x-ftqc-trace", trace_hex)],
                ));
            }
            let mut line = result.to_json().render();
            line.push('\n');
            respond(line.as_bytes());
        };
        ftqc_service::run_jsonl_streamed_via::<CompilerOptions, Metrics, _, _, _>(
            body,
            |job| apply_job_target(job, &state.targets),
            |jobs, sink| execute_jobs_streamed(state, trace, jobs, sink),
            &mut emit_line,
        )
    };
    if results.is_empty() {
        return Served::Full((
            400,
            "application/json",
            error_body("batch contains no jobs"),
        ));
    }
    trace_job_results(state, trace, submitted, &results);
    record_job_outcomes(state, &results);
    Served::Streamed { status: 200 }
}

/// Resolves a sweep request's target references to labelled specs (the
/// preset name, or `inline-<k>` for the `k`-th inline spec).
fn resolve_sweep_targets(
    state: &AppState,
    targets: &[TargetRef],
) -> Result<Vec<(String, ftqc_arch::TargetSpec)>, String> {
    targets
        .iter()
        .enumerate()
        .map(|(index, target)| {
            let spec = resolve_target_ref(target, &state.targets)?;
            let label = match target {
                TargetRef::Named(name) => name.clone(),
                TargetRef::Inline(_) => format!("inline-{}", index + 1),
            };
            Ok((label, spec))
        })
        .collect()
}

/// `POST /v1/sweep`: an options grid in, design points (optionally reduced
/// to the Pareto front) out, memoised in the shared cache. With a
/// `"targets"` list (wire v2) the sweep runs once per target — per-target
/// grids and Pareto fronts in one process, sharing the server's metrics
/// and stage caches — and answers with the [`MultiSweepResponse`] shape
/// (each slice always carries both its grid points and its front; the
/// `pareto` flag only reduces the classic single-machine response).
fn handle_sweep(state: &AppState, request: &Request) -> HandlerResult {
    let parsed = request
        .body_str()
        .map_err(|e| e.to_string())
        .and_then(|text| Value::parse(text).map_err(|e| e.to_string()))
        .and_then(|doc| {
            use ftqc_service::json::FromJson as _;
            check_wire_version(&doc)?;
            let wire = negotiate_version(&doc)?;
            let req = SweepRequest::from_json(&doc).map_err(|e| e.to_string())?;
            Ok((wire, req))
        });
    let (wire, req) = match parsed {
        Ok(parsed) => parsed,
        Err(e) => return (400, "application/json", error_body(&e)),
    };
    let circuit = match resolve_source_remote(&req.source) {
        Ok(c) => c,
        Err(e) => return (400, "application/json", error_body(&e)),
    };

    if !req.targets.is_empty() {
        let targets = match resolve_sweep_targets(state, &req.targets) {
            Ok(t) => t,
            Err(e) => return (400, "application/json", error_body(&e)),
        };
        return match explore_targets(
            &circuit,
            &targets,
            &req.routing_paths,
            &req.factories,
            &req.options,
            state.workers,
            &state.cache,
            &state.stages,
        ) {
            Err(e) => (500, "application/json", error_body(&e.to_string())),
            Ok(sweeps) => {
                let response = MultiSweepResponse {
                    targets: sweeps,
                    cache: state.cache.stats(),
                    workers: state.workers as u64,
                };
                (
                    200,
                    "application/json",
                    versioned_as(wire, response.to_json()).render(),
                )
            }
        };
    }

    match explore_session(
        &circuit,
        &req.routing_paths,
        &req.factories,
        &req.options,
        state.workers,
        &state.cache,
        &state.stages,
    ) {
        Err(e) => (500, "application/json", error_body(&e.to_string())),
        Ok(points) => {
            let points = if req.pareto {
                pareto_front(&points)
            } else {
                points
            };
            let response = SweepResponse {
                points,
                cache: state.cache.stats(),
                workers: state.workers as u64,
            };
            (
                200,
                "application/json",
                versioned_as(wire, response.to_json()).render(),
            )
        }
    }
}

/// `GET /v1/targets`: the registered hardware targets — names,
/// descriptions, canonical spec documents, and digests.
fn handle_targets(state: &AppState) -> HandlerResult {
    let response = TargetsResponse {
        targets: state
            .targets
            .entries()
            .iter()
            .map(TargetInfo::of_entry)
            .collect(),
    };
    (
        200,
        "application/json",
        versioned_as(WIRE_VERSION, response.to_json()).render(),
    )
}

/// `GET /v1/traces?min_micros=N&limit=N`: newest-first flight-recorder
/// summaries, optionally filtered to traces at least `min_micros` long.
fn handle_traces(state: &AppState, request: &Request) -> HandlerResult {
    let min_micros = match request.query_param("min_micros") {
        None => 0,
        Some(raw) => match raw.parse::<u64>() {
            Ok(v) => v,
            Err(_) => {
                return (
                    400,
                    "application/json",
                    error_body("min_micros must be a non-negative integer"),
                )
            }
        },
    };
    let limit = match request.query_param("limit") {
        None => 50,
        Some(raw) => match raw.parse::<usize>() {
            Ok(v) if v > 0 => v,
            _ => {
                return (
                    400,
                    "application/json",
                    error_body("limit must be a positive integer"),
                )
            }
        },
    };
    let summaries = state.recorder.recent(min_micros, limit);
    let doc = Value::Obj(vec![
        (
            "traces".into(),
            Value::Arr(summaries.iter().map(ToJson::to_json).collect()),
        ),
        ("retained".into(), Value::Num(state.recorder.len() as f64)),
    ]);
    (200, "application/json", versioned(doc).render())
}

/// `GET /v1/trace/<id>`: one retained trace's full span tree. Bad hex is
/// a 400; an id the recorder no longer (or never) held is a 404.
fn handle_trace(state: &AppState, raw_id: &str) -> HandlerResult {
    let Some(id) = TraceId::parse(raw_id) else {
        return (
            400,
            "application/json",
            error_body(&format!(
                "malformed trace id {raw_id:?} (want 1-16 hex digits)"
            )),
        );
    };
    match state.recorder.get(id) {
        None => (
            404,
            "application/json",
            error_body(&format!("no retained trace {}", id.to_hex())),
        ),
        Some(trace) => (200, "application/json", versioned(trace.to_json()).render()),
    }
}

/// A latency distribution as a JSON object: count plus p50/p95/p99
/// (microseconds).
fn percentiles_json(snap: &HistogramSnapshot) -> Value {
    Value::Obj(vec![
        ("count".into(), Value::Num(snap.count as f64)),
        ("p50_micros".into(), Value::Num(snap.p50() as f64)),
        ("p95_micros".into(), Value::Num(snap.p95() as f64)),
        ("p99_micros".into(), Value::Num(snap.p99() as f64)),
    ])
}

/// `GET /v1/cache/stats`: the shared cache's counters, the memory tier's
/// current entry count, the stage cache's per-stage counters, the
/// incremental router's cumulative counters, and the
/// request/stage/queue-wait latency percentiles.
fn handle_cache_stats(state: &AppState) -> HandlerResult {
    let mut doc = match state.cache.stats().to_json() {
        Value::Obj(fields) => fields,
        _ => unreachable!("CacheStats renders as an object"),
    };
    doc.push(("entries".into(), Value::Num(state.cache.len() as f64)));
    doc.push(("stages".into(), state.stages.stats().to_json()));
    doc.push((
        "router".into(),
        ftqc_compiler::route_counters_to_json(&state.stages.route_stats()),
    ));
    // Additive wire fields (no version bump): per-endpoint request-latency
    // percentiles for endpoints that have seen traffic, per-stage compile
    // times, and worker-pool queue waits.
    let latency: Vec<(String, Value)> = Endpoint::ALL
        .iter()
        .filter_map(|e| {
            let snap = state.metrics.latency_snapshot(*e);
            (snap.count > 0).then(|| (e.label().to_string(), percentiles_json(&snap)))
        })
        .collect();
    doc.push(("latency".into(), Value::Obj(latency)));
    let stage_latency: Vec<(String, Value)> = Stage::ALL
        .iter()
        .filter_map(|s| {
            let snap = state.metrics.stage_snapshot(*s);
            (snap.count > 0).then(|| (s.name().to_string(), percentiles_json(&snap)))
        })
        .collect();
    doc.push(("stage_latency".into(), Value::Obj(stage_latency)));
    doc.push((
        "queue_wait".into(),
        percentiles_json(&state.metrics.queue_wait_snapshot()),
    ));
    // Reactor admission-control counters (additive, zero under the
    // threaded transport): admitted/throttled requests and the queue-wait
    // percentiles between framing and dispatch.
    doc.push((
        "admission".into(),
        Value::Obj(vec![
            (
                "admitted".into(),
                Value::Num(state.metrics.admitted() as f64),
            ),
            (
                "throttled".into(),
                Value::Num(state.metrics.throttled() as f64),
            ),
            (
                "wait".into(),
                percentiles_json(&state.metrics.admission_wait_snapshot()),
            ),
        ]),
    ));
    if let Some(ext) = &state.extension {
        doc.extend(ext.stats_fields());
    }
    (200, "application/json", versioned(Value::Obj(doc)).render())
}

/// `GET /healthz`: liveness plus a little context.
fn handle_healthz(state: &AppState) -> HandlerResult {
    let doc = Value::Obj(vec![
        ("status".into(), Value::Str("ok".into())),
        (
            "uptime_seconds".into(),
            Value::Num(state.started.elapsed().as_secs() as f64),
        ),
        (
            "in_flight".into(),
            Value::Num(state.metrics.in_flight() as f64),
        ),
        ("workers".into(), Value::Num(state.workers as f64)),
    ]);
    (200, "application/json", versioned(doc).render())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_state(workers: usize) -> AppState {
        let cache = SharedCache::in_memory(64);
        AppState {
            extension: None,
            service: BatchService::with_cache(workers, cache.clone()),
            cache,
            stages: StageCache::new(64),
            targets: TargetRegistry::builtin(),
            metrics: Arc::new(ServerMetrics::new()),
            recorder: FlightRecorder::new(16),
            workers,
            started: Instant::now(),
            read_timeout: Duration::from_secs(5),
        }
    }

    /// Most tests don't care about tracing: mint a throwaway trace, call
    /// the real router, and record the result like `serve_connection`
    /// does. (Shadows the outer `handle_request` for the module.)
    fn handle_request(state: &AppState, request: &Request) -> HandlerResult {
        let trace = ActiveTrace::begin(TraceId::mint(), "request");
        trace.add_span(
            "parse",
            None,
            0,
            trace.now_micros(),
            vec![("bytes".into(), request.body.len().to_string())],
        );
        let result = super::handle_request(state, request, &trace);
        state
            .recorder
            .record(trace.finish(result.0, Endpoint::of_path(&request.path).label()));
        result
    }

    fn post_q(path: &str, query: &str, body: &str) -> Request {
        Request {
            method: "POST".into(),
            path: path.into(),
            query: query.into(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    fn post(path: &str, body: &str) -> Request {
        post_q(path, "", body)
    }

    fn get_q(path: &str, query: &str) -> Request {
        Request {
            method: "GET".into(),
            path: path.into(),
            query: query.into(),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    fn get(path: &str) -> Request {
        get_q(path, "")
    }

    #[test]
    fn compile_endpoint_roundtrips_a_job() {
        let state = test_state(2);
        let (status, _ct, body) = handle_request(
            &state,
            &post(
                "/v1/compile",
                r#"{"id":"a","source":{"benchmark":"ising","size":2},"options":{"routing_paths":4}}"#,
            ),
        );
        assert_eq!(status, 200, "got {body}");
        let doc = Value::parse(&body).unwrap();
        assert_eq!(doc.get("id").and_then(Value::as_str), Some("a"));
        assert_eq!(doc.get("status").and_then(Value::as_str), Some("ok"));
        assert_eq!(doc.get("cache").and_then(Value::as_str), Some("computed"));

        // Same job again: served from the shared cache. Responses carry
        // the wire version.
        let (_s, _ct, body) = handle_request(
            &state,
            &post(
                "/v1/compile",
                r#"{"id":"a","source":{"benchmark":"ising","size":2},"options":{"routing_paths":4}}"#,
            ),
        );
        let doc = Value::parse(&body).unwrap();
        assert_eq!(doc.get("cache").and_then(Value::as_str), Some("memory"));
        assert_eq!(doc.get("v").and_then(Value::as_u64), Some(1));
    }

    #[test]
    fn compile_endpoint_staged_requests() {
        let state = test_state(2);
        let job = r#"{"id":"warm","source":{"benchmark":"ising","size":2}}"#;
        // ?stage=map stops the pipeline: no metrics, stage named, stage
        // cache warmed.
        let (status, _, body) = handle_request(&state, &post_q("/v1/compile", "stage=map", job));
        assert_eq!(status, 200, "got {body}");
        let doc = Value::parse(&body).unwrap();
        assert_eq!(doc.get("stage").and_then(Value::as_str), Some("map"));
        assert_eq!(doc.get("status").and_then(Value::as_str), Some("ok"));
        assert!(doc.get("metrics").is_none(), "partial runs carry none");
        let stats = state.stages.stats();
        assert_eq!(stats.map.misses, 1);

        // A full compile of the same job resumes from the warmed stages.
        let (status, _, body) = handle_request(&state, &post("/v1/compile", job));
        assert_eq!(status, 200);
        let doc = Value::parse(&body).unwrap();
        assert!(doc.get("metrics").is_some(), "got {body}");
        let stats = state.stages.stats();
        assert_eq!(stats.map.hits, 1, "routing reused: {stats:?}");
        assert_eq!(stats.map.misses, 1);

        // resume_from in the body asserts the warm path; a bad stage 400s.
        let resumed = r#"{"source":{"benchmark":"ising","size":2},"resume_from":"map"}"#;
        let (status, _, body) = handle_request(&state, &post("/v1/compile", resumed));
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"ok\""), "got {body}");
        let (status, _, body) = handle_request(&state, &post_q("/v1/compile", "stage=banana", job));
        assert_eq!(status, 400);
        assert!(body.contains("unknown stage"), "got {body}");
    }

    #[test]
    fn wire_version_is_enforced_and_tolerant() {
        let state = test_state(1);
        // v:1 and unknown extra fields are accepted.
        let (status, _, _) = handle_request(
            &state,
            &post(
                "/v1/compile",
                r#"{"v":1,"source":{"benchmark":"ising","size":2},"future_field":[1,2]}"#,
            ),
        );
        assert_eq!(status, 200);
        // v:2 is this server's native version.
        let (status, _, body) = handle_request(
            &state,
            &post(
                "/v1/compile",
                r#"{"v":2,"source":{"benchmark":"ising","size":2}}"#,
            ),
        );
        assert_eq!(status, 200);
        assert!(
            body.contains("\"v\":2"),
            "echoes the declared version: {body}"
        );
        // The classic (target-less) sweep echoes a declared v:2 too.
        let (status, _, body) = handle_request(
            &state,
            &post(
                "/v1/sweep",
                r#"{"v":2,"source":{"benchmark":"ising","size":2},"routing_paths":[2],"factories":[1]}"#,
            ),
        );
        assert_eq!(status, 200);
        assert!(body.starts_with("{\"v\":2"), "got {body}");
        // A version from the future is refused, not misread.
        let (status, _, body) = handle_request(
            &state,
            &post("/v1/compile", r#"{"v":99,"source":{"benchmark":"ising"}}"#),
        );
        assert_eq!(status, 400);
        assert!(body.contains("unsupported wire version"), "got {body}");
        let (status, _, _) = handle_request(
            &state,
            &post("/v1/sweep", r#"{"v":99,"source":{"benchmark":"ising"}}"#),
        );
        assert_eq!(status, 400);
        // Error bodies are versioned too.
        let (_, _, body) = handle_request(&state, &post("/v1/compile", "{oops"));
        assert!(body.contains("\"v\":1"), "got {body}");
    }

    #[test]
    fn v1_requests_stay_byte_identical() {
        // The acceptance pin: a target-less request must produce the same
        // bytes the pre-target server produced (v:1 stamp included).
        let state = test_state(1);
        let job =
            r#"{"id":"a","source":{"benchmark":"ising","size":2},"options":{"routing_paths":4}}"#;
        let (status, _, body) = handle_request(&state, &post("/v1/compile", job));
        assert_eq!(status, 200);
        assert!(body.starts_with("{\"v\":1,\"id\":\"a\""), "got {body}");
        // The same job compiled through the paper target returns the same
        // result document (modulo the wire stamp and timing): same
        // fingerprint, same metrics.
        let targeted = r#"{"id":"a","source":{"benchmark":"ising","size":2},"target":"paper","options":{"routing_paths":4}}"#;
        let (status, _, tbody) = handle_request(&state, &post("/v1/compile", targeted));
        assert_eq!(status, 200);
        assert!(tbody.starts_with("{\"v\":2"), "got {tbody}");
        let fp = |b: &str| {
            Value::parse(b)
                .unwrap()
                .get("fingerprint")
                .and_then(Value::as_str)
                .unwrap()
                .to_string()
        };
        assert_eq!(fp(&body), fp(&tbody), "same machine, same fingerprint");
    }

    #[test]
    fn targets_endpoint_lists_presets() {
        let state = test_state(1);
        let (status, _, body) = handle_request(&state, &get("/v1/targets"));
        assert_eq!(status, 200, "got {body}");
        assert!(body.starts_with("{\"v\":2"), "got {body}");
        use ftqc_service::json::FromJson as _;
        let resp = TargetsResponse::from_json(&Value::parse(&body).unwrap()).unwrap();
        let names: Vec<&str> = resp.targets.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, vec!["paper", "sparse", "fast-d"]);
        let (status, _, _) = handle_request(&state, &post("/v1/targets", ""));
        assert_eq!(status, 405);
    }

    #[test]
    fn compile_with_targets() {
        let state = test_state(2);
        // A named preset resolves; its result matches compiling the spec's
        // options directly.
        let (status, _, body) = handle_request(
            &state,
            &post(
                "/v1/compile",
                r#"{"id":"s","source":{"benchmark":"ising","size":2},"target":"sparse"}"#,
            ),
        );
        assert_eq!(status, 200, "got {body}");
        let doc = Value::parse(&body).unwrap();
        assert_eq!(doc.get("status").and_then(Value::as_str), Some("ok"));
        let m = doc.get("metrics").expect("metrics");
        assert_eq!(m.get("routing_paths").and_then(Value::as_u64), Some(2));

        // An inline spec object works too.
        let (status, _, body) = handle_request(
            &state,
            &post(
                "/v1/compile",
                r#"{"id":"i","source":{"benchmark":"ising","size":2},"target":{"routing_paths":3,"factories":2}}"#,
            ),
        );
        assert_eq!(status, 200, "got {body}");
        let doc = Value::parse(&body).unwrap();
        let m = doc.get("metrics").expect("metrics");
        assert_eq!(m.get("factories").and_then(Value::as_u64), Some(2));

        // Unknown targets are client errors; declared-v1 + target too.
        let (status, _, body) = handle_request(
            &state,
            &post(
                "/v1/compile",
                r#"{"source":{"benchmark":"ising"},"target":"warp"}"#,
            ),
        );
        assert_eq!(status, 400);
        assert!(body.contains("unknown target"), "got {body}");
        let (status, _, body) = handle_request(
            &state,
            &post(
                "/v1/compile",
                r#"{"v":1,"source":{"benchmark":"ising"},"target":"paper"}"#,
            ),
        );
        assert_eq!(status, 400);
        assert!(body.contains("wire version 2"), "got {body}");

        // In a batch, a bad target fails its line alone.
        let jsonl = concat!(
            "{\"id\":\"good\",\"source\":{\"benchmark\":\"ising\",\"size\":2},\"target\":\"paper\"}\n",
            "{\"id\":\"bad\",\"source\":{\"benchmark\":\"ising\",\"size\":2},\"target\":\"warp\"}\n",
        );
        let (status, _, body) = handle_request(&state, &post("/v1/batch", jsonl));
        assert_eq!(status, 200);
        let lines: Vec<&str> = body.lines().collect();
        assert!(lines[0].contains("\"status\":\"ok\""), "got {body}");
        assert!(lines[1].contains("unknown target"), "got {body}");
    }

    #[test]
    fn sweep_with_targets_matches_local_explore_targets() {
        let state = test_state(2);
        let (status, _, body) = handle_request(
            &state,
            &post(
                "/v1/sweep",
                r#"{"source":{"benchmark":"ising","size":2},"routing_paths":[2,3],"factories":[1],"targets":["sparse","paper"]}"#,
            ),
        );
        assert_eq!(status, 200, "got {body}");
        use ftqc_service::json::FromJson as _;
        let resp = MultiSweepResponse::from_json(&Value::parse(&body).unwrap()).unwrap();
        assert_eq!(resp.targets.len(), 2);
        assert_eq!(resp.targets[0].name, "sparse");
        assert_eq!(resp.targets[1].name, "paper");
        // Sparse pins its bus: factories axis only; paper sweeps the grid.
        assert_eq!(resp.targets[0].points.len(), 1);
        assert_eq!(resp.targets[1].points.len(), 2);
        assert!(!resp.targets[0].front.is_empty());

        // Byte-identical to the local cross-target sweep.
        let circuit = resolve_source_remote(&ftqc_service::CircuitSource::Benchmark {
            name: "ising".into(),
            size: Some(2),
        })
        .unwrap();
        let local = explore_targets(
            &circuit,
            &[
                ("sparse".to_string(), ftqc_arch::TargetSpec::sparse()),
                ("paper".to_string(), ftqc_arch::TargetSpec::paper()),
            ],
            &[2, 3],
            &[1],
            &CompilerOptions::default(),
            2,
            &SharedCache::in_memory(64),
            &StageCache::new(64),
        )
        .unwrap();
        assert_eq!(resp.targets, local);

        let (status, _, body) = handle_request(
            &state,
            &post(
                "/v1/sweep",
                r#"{"source":{"benchmark":"ising","size":2},"targets":["warp"]}"#,
            ),
        );
        assert_eq!(status, 400);
        assert!(body.contains("unknown target"), "got {body}");
    }

    #[test]
    fn compile_endpoint_rejects_garbage() {
        let state = test_state(1);
        let (status, _, _) = handle_request(&state, &post("/v1/compile", "{oops"));
        assert_eq!(status, 400);
        let (status, _, _) = handle_request(&state, &post("/v1/compile", r#"{"source":{}}"#));
        assert_eq!(status, 400);
        // An unresolvable benchmark is a job-level failure, not an HTTP one.
        let (status, _, body) = handle_request(
            &state,
            &post("/v1/compile", r#"{"source":{"benchmark":"nope"}}"#),
        );
        assert_eq!(status, 200);
        assert!(body.contains("failed"), "got {body}");
    }

    #[test]
    fn batch_endpoint_is_line_resilient() {
        let state = test_state(2);
        let jsonl = concat!(
            "{\"id\":\"good\",\"source\":{\"benchmark\":\"ising\",\"size\":2}}\n",
            "{oops}\n",
            "{\"id\":\"also-good\",\"source\":{\"benchmark\":\"ising\",\"size\":2},\"options\":{\"routing_paths\":3}}\n",
        );
        let (status, ct, body) = handle_request(&state, &post("/v1/batch", jsonl));
        assert_eq!(status, 200);
        assert_eq!(ct, "application/jsonl");
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 3, "got {body}");
        assert!(lines[0].contains("\"id\":\"good\""));
        assert!(lines[0].contains("\"status\":\"ok\""));
        assert!(lines[1].contains("\"id\":\"line-2\""));
        assert!(lines[1].contains("line 2"));
        assert!(lines[2].contains("\"id\":\"also-good\""));

        let (status, _, _) = handle_request(&state, &post("/v1/batch", "# nothing\n"));
        assert_eq!(status, 400, "an empty batch is a client error");
    }

    #[test]
    fn sweep_endpoint_matches_local_explore() {
        let state = test_state(2);
        let (status, _, body) = handle_request(
            &state,
            &post(
                "/v1/sweep",
                r#"{"source":{"benchmark":"ising","size":2},"routing_paths":[2,3],"factories":[1]}"#,
            ),
        );
        assert_eq!(status, 200, "got {body}");
        use ftqc_service::json::FromJson as _;
        let resp = SweepResponse::from_json(&Value::parse(&body).unwrap()).unwrap();
        assert_eq!(resp.points.len(), 2);
        let circuit = resolve_source_remote(&ftqc_service::CircuitSource::Benchmark {
            name: "ising".into(),
            size: Some(2),
        })
        .unwrap();
        let local =
            ftqc_compiler::explore(&circuit, &[2, 3], &[1], &CompilerOptions::default()).unwrap();
        assert_eq!(resp.points, local, "served sweep must equal local explore");

        let (status, _, _) = handle_request(
            &state,
            &post("/v1/sweep", r#"{"source":{"benchmark":"nope"}}"#),
        );
        assert_eq!(status, 400, "unresolvable source is a client error");
    }

    #[test]
    fn observability_endpoints() {
        let state = test_state(1);
        let (status, _, body) = handle_request(&state, &get("/healthz"));
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"ok\""));

        let (status, _, body) = handle_request(&state, &get("/v1/cache/stats"));
        assert_eq!(status, 200);
        assert!(body.contains("\"hits\":0"));
        assert!(body.contains("\"entries\":0"));
        assert!(body.contains("\"stages\""), "got {body}");
        assert!(body.contains("\"prepare\""), "got {body}");
        assert!(body.contains("\"router\""), "got {body}");
        assert!(body.contains("\"arena_reuses\":0"), "got {body}");

        state
            .metrics
            .record(Endpoint::Healthz, 200, Duration::from_micros(5));
        let (status, ct, body) = handle_request(&state, &get("/metrics"));
        assert_eq!(status, 200);
        assert!(ct.starts_with("text/plain"));
        assert!(body.contains("ftqc_http_requests_total{endpoint=\"healthz\"} 1"));
    }

    #[test]
    fn unknown_paths_and_methods() {
        let state = test_state(1);
        let (status, _, _) = handle_request(&state, &get("/nope"));
        assert_eq!(status, 404);
        let (status, _, _) = handle_request(&state, &get("/v1/compile"));
        assert_eq!(status, 405);
        let (status, _, _) = handle_request(&state, &post("/metrics", ""));
        assert_eq!(status, 405);
        let (status, _, _) = handle_request(&state, &post("/v1/traces", ""));
        assert_eq!(status, 405);
        let (status, _, _) = handle_request(&state, &post("/v1/trace/ff", ""));
        assert_eq!(status, 405);
    }

    #[test]
    fn trace_endpoints_serve_the_flight_recorder() {
        let state = test_state(1);
        let (status, _, _) = handle_request(
            &state,
            &post(
                "/v1/compile",
                r#"{"id":"t","source":{"benchmark":"ising","size":2}}"#,
            ),
        );
        assert_eq!(status, 200);

        let (status, _, body) = handle_request(&state, &get("/v1/traces"));
        assert_eq!(status, 200, "got {body}");
        let doc = Value::parse(&body).unwrap();
        let traces = match doc.get("traces") {
            Some(Value::Arr(items)) => items.clone(),
            other => panic!("traces must be an array, got {other:?}"),
        };
        assert_eq!(traces.len(), 1, "only the compile ran before this call");
        assert_eq!(
            traces[0].get("endpoint").and_then(Value::as_str),
            Some("compile")
        );
        let id = traces[0]
            .get("id")
            .and_then(Value::as_str)
            .expect("summary id")
            .to_string();

        // The full span tree covers parse → queue-wait → stages → route.
        let (status, _, body) = handle_request(&state, &get(&format!("/v1/trace/{id}")));
        assert_eq!(status, 200, "got {body}");
        use ftqc_service::json::FromJson as _;
        let trace =
            ftqc_telemetry::FinishedTrace::from_json(&Value::parse(&body).unwrap()).unwrap();
        let names: Vec<&str> = trace.spans.iter().map(|s| s.name.as_str()).collect();
        for expected in [
            "request",
            "parse",
            "queue-wait",
            "prepare",
            "lower",
            "map",
            "schedule",
            "route",
        ] {
            assert!(names.contains(&expected), "missing {expected}: {names:?}");
        }
        let map = trace.spans.iter().find(|s| s.name == "map").unwrap();
        let route = trace.spans.iter().find(|s| s.name == "route").unwrap();
        assert_eq!(route.parent, Some(map.id), "route hangs off its map span");
        assert_eq!(route.attr("job"), Some("t"));
        assert_eq!(map.attr("cached"), Some("false"));

        // min_micros filters; absurd thresholds leave nothing.
        let (status, _, body) =
            handle_request(&state, &get_q("/v1/traces", "min_micros=999999999999"));
        assert_eq!(status, 200);
        assert!(body.contains("\"traces\":[]"), "got {body}");
        let (status, _, _) = handle_request(&state, &get_q("/v1/traces", "min_micros=-3"));
        assert_eq!(status, 400);
        let (status, _, _) = handle_request(&state, &get_q("/v1/traces", "limit=0"));
        assert_eq!(status, 400);

        // Bad hex is a 400; a well-formed unknown id is a 404.
        let (status, _, _) = handle_request(&state, &get("/v1/trace/nothex"));
        assert_eq!(status, 400);
        let (status, _, _) = handle_request(&state, &get("/v1/trace/1234"));
        assert_eq!(status, 404);
    }

    #[test]
    fn cache_stats_carries_latency_percentiles() {
        let state = test_state(1);
        state
            .metrics
            .record(Endpoint::Compile, 200, Duration::from_micros(100));
        let (status, _, body) = handle_request(
            &state,
            &post(
                "/v1/compile",
                r#"{"id":"p","source":{"benchmark":"ising","size":2}}"#,
            ),
        );
        assert_eq!(status, 200, "got {body}");
        let (status, _, body) = handle_request(&state, &get("/v1/cache/stats"));
        assert_eq!(status, 200);
        let doc = Value::parse(&body).unwrap();
        let latency = doc.get("latency").expect("latency object");
        let compile = latency.get("compile").expect("compile had traffic");
        assert_eq!(compile.get("count").and_then(Value::as_u64), Some(1));
        // One 100µs sample: the estimate clamps to the observed max.
        assert_eq!(compile.get("p50_micros").and_then(Value::as_u64), Some(100));
        assert!(
            latency.get("other").is_none(),
            "idle endpoints are omitted: {body}"
        );
        let stages = doc.get("stage_latency").expect("stage_latency object");
        for stage in ["prepare", "lower", "map", "schedule"] {
            let s = stages.get(stage).expect("every stage ran once");
            assert_eq!(s.get("count").and_then(Value::as_u64), Some(1), "{stage}");
        }
        let queue = doc.get("queue_wait").expect("queue_wait object");
        assert_eq!(queue.get("count").and_then(Value::as_u64), Some(1));
    }
}
