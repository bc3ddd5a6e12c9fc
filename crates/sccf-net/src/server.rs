//! The shard-server process role: `sccf serve-shard`.
//!
//! One process hosts a [`ShardedEngine`] **slice** — global shards
//! `[base, base + count)` of a `total`-shard ring
//! ([`RouterKind::Slice`]) — behind the wire protocol of
//! [`crate::proto`]. Startup is recovery-aware: pointed at a durability
//! directory that already holds a checkpoint chain, the server rebuilds
//! its slice via [`ShardedEngine::recover`] (checkpoints + WAL gap
//! replay) instead of starting empty, which is what lets the
//! supervisor restart a crashed shard with the *same* command line and
//! get the acknowledged state back.
//!
//! The server prints `LISTENING {port}` on stdout once the socket is
//! bound — with `--port 0` (the supervisor's choice, since a
//! just-killed port lingers in TIME_WAIT) that line is how the parent
//! learns the ephemeral port. Connections are served one thread each;
//! requests on a connection are handled strictly in order (the FIFO
//! that carries read-your-writes); the engine itself is the
//! concurrency limit (one mutex — the `ShardedEngine` router fans out
//! to worker threads internally).
//!
//! **Read-ahead.** Each connection splits into a *reader* thread and a
//! *processing* loop joined by a bounded channel (`--read-ahead` frames
//! deep, default 4, at least 1). While the engine works on request
//! *k*, the reader is already pulling and CRC-checking request *k+1*
//! off the socket — so a pipelining router
//! overlaps its socket time with engine work instead of parking behind
//! it, and the socket buffer stops being the only pipeline. FIFO order
//! is untouched: the channel is ordered and responses are written by
//! the single processing loop in arrival order. The overlap actually
//! achieved is observable as `ServingStats::transport`
//! (`read_ahead_hits / requests`).

use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use sccf_core::{Admission, GlobalNeighborSnapshot};
use sccf_models::Fism;
use sccf_serving::api::{ServingApi, ServingError, TransportStats};
use sccf_serving::sharded::{DurabilityConfig, RouterKind, ShardedConfig, ShardedEngine};
use sccf_util::Flags;

use crate::proto::{read_message, write_message, Request, Response, PROTOCOL_VERSION};
use crate::world::WorldSpec;

/// The immutable facts a server reports in its Hello.
#[derive(Debug, Clone, Copy)]
struct ShardMeta {
    admission: Admission,
    base: usize,
    count: usize,
    total: usize,
    durable: bool,
    read_ahead: usize,
}

/// Process-wide transport counters, shared by every connection and
/// reported in [`Request::Stats`] responses as
/// [`TransportStats`].
#[derive(Default)]
struct TransportCounters {
    requests: AtomicU64,
    read_ahead_hits: AtomicU64,
    peak_read_ahead: AtomicU64,
}

impl TransportCounters {
    fn snapshot(&self, read_ahead_capacity: usize) -> TransportStats {
        TransportStats {
            requests: self.requests.load(Ordering::Relaxed),
            read_ahead_hits: self.read_ahead_hits.load(Ordering::Relaxed),
            peak_read_ahead: self.peak_read_ahead.load(Ordering::Relaxed),
            read_ahead_capacity: read_ahead_capacity as u64,
        }
    }

    fn observe_depth(&self, depth: u64) {
        self.peak_read_ahead.fetch_max(depth, Ordering::Relaxed);
    }
}

/// Everything `sccf serve-shard` takes on its command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeShardArgs {
    /// TCP port to bind on loopback; 0 = ephemeral (the port is
    /// announced via the `LISTENING {port}` stdout line).
    pub port: u16,
    /// First global shard of this server's window.
    pub base: usize,
    /// Local shard count.
    pub count: usize,
    /// Global ring size.
    pub total: usize,
    /// Global ring vnodes (0 = modulo ring).
    pub vnodes: usize,
    /// Durability directory; `None` serves in-memory only.
    pub dir: Option<PathBuf>,
    /// WAL records per fsync (with `dir`).
    pub fsync_every: u32,
    /// Auto-checkpoint cadence in events (0 = manual; with `dir`).
    pub checkpoint_every: u64,
    /// The shared world every fleet process rebuilds.
    pub world: WorldSpec,
    /// The launcher's `SCCFMDL2` model file. Required — a member never
    /// trains; `None` only so that `parse(&[])` is the default.
    pub model_file: Option<PathBuf>,
    /// Frames each connection's reader thread may buffer ahead of the
    /// engine. Must be ≥ 1.
    pub read_ahead: usize,
}

impl Default for ServeShardArgs {
    fn default() -> Self {
        Self {
            port: 0,
            base: 0,
            count: 1,
            total: 1,
            vnodes: 0,
            dir: None,
            fsync_every: 8,
            checkpoint_every: 0,
            world: WorldSpec::default(),
            model_file: None,
            read_ahead: 4,
        }
    }
}

impl ServeShardArgs {
    /// Parse `--flag value` pairs (every flag takes a value; an unknown
    /// flag is an error).
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let f = Flags::parse(args)?;
        let d = ServeShardArgs::default();
        let out = Self {
            port: f.parsed("port", d.port)?,
            base: f.parsed("base", d.base)?,
            count: f.parsed("count", d.count)?,
            total: f.parsed("total", d.total)?,
            vnodes: f.parsed("vnodes", d.vnodes)?,
            dir: f.get("dir").map(PathBuf::from),
            fsync_every: f.parsed("fsync-every", d.fsync_every)?,
            checkpoint_every: f.parsed("checkpoint-every", d.checkpoint_every)?,
            world: WorldSpec::from_flag(|key| f.get(key).map(str::to_string))?,
            model_file: f.get("model-file").map(PathBuf::from),
            read_ahead: f.parsed("read-ahead", d.read_ahead)?,
        };
        f.finish()?;
        if out.read_ahead == 0 {
            return Err("--read-ahead must be ≥ 1 (frames buffered ahead of the engine)".into());
        }
        Ok(out)
    }

    /// The inverse of [`ServeShardArgs::parse`] — what a launcher
    /// passes to the child process (the `serve-shard` subcommand word
    /// itself is the launcher's business).
    pub fn to_args(&self) -> Vec<String> {
        let mut out = vec![
            "--port".into(),
            self.port.to_string(),
            "--base".into(),
            self.base.to_string(),
            "--count".into(),
            self.count.to_string(),
            "--total".into(),
            self.total.to_string(),
            "--vnodes".into(),
            self.vnodes.to_string(),
            "--fsync-every".into(),
            self.fsync_every.to_string(),
            "--checkpoint-every".into(),
            self.checkpoint_every.to_string(),
            "--read-ahead".into(),
            self.read_ahead.to_string(),
        ];
        if let Some(dir) = &self.dir {
            out.push("--dir".into());
            out.push(dir.display().to_string());
        }
        if let Some(f) = &self.model_file {
            out.push("--model-file".into());
            out.push(f.display().to_string());
        }
        out.extend(self.world.to_args());
        out
    }
}

/// Does `dir` already hold durability state to recover from?
fn has_checkpoints(dir: &std::path::Path) -> bool {
    std::fs::read_dir(dir).is_ok_and(|entries| {
        entries.flatten().any(|e| {
            e.file_name()
                .to_str()
                .is_some_and(|n| n.starts_with("ckpt-") && n.ends_with(".ckpt"))
        })
    })
}

/// CLI entry point: parse, build, serve. Blocks forever (the process
/// exits through [`Request::Shutdown`] or a signal).
pub fn serve_shard_main(args: &[String]) -> Result<(), String> {
    run_shard_server(ServeShardArgs::parse(args)?)
}

/// Build the slice engine from the launcher's model file (recovering if
/// the durability directory has history) and serve the wire protocol on
/// loopback.
pub fn run_shard_server(args: ServeShardArgs) -> Result<(), String> {
    let path = args.model_file.as_ref().ok_or(
        "serve-shard needs --model-file: a member loads the launcher's base model and never trains it",
    )?;
    let model = std::fs::read(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let world = args.world.build(Some(&model))?;
    let cfg = ShardedConfig {
        n_shards: args.count,
        queue_capacity: 256,
        router: RouterKind::Slice {
            total: args.total,
            base: args.base,
            vnodes: args.vnodes,
        },
    };
    let engine = match &args.dir {
        None => ShardedEngine::try_new(world.sccf, world.histories, cfg)
            .map_err(|e| format!("building slice engine: {e}"))?,
        Some(dir) => {
            let dcfg = DurabilityConfig {
                dir: dir.clone(),
                fsync_every: args.fsync_every,
                checkpoint_every_events: args.checkpoint_every,
            };
            if has_checkpoints(dir) {
                let (engine, report) = ShardedEngine::recover(world.sccf, cfg, dcfg)
                    .map_err(|e| format!("recovering from {}: {e}", dir.display()))?;
                eprintln!(
                    "recovered shards [{}, {}): {} checkpoints, watermark {}, {} replayed",
                    args.base,
                    args.base + args.count,
                    report.checkpoints_loaded,
                    report.watermark,
                    report.replayed.len()
                );
                engine
            } else {
                let mut engine = ShardedEngine::try_new(world.sccf, world.histories, cfg)
                    .map_err(|e| format!("building slice engine: {e}"))?;
                engine
                    .enable_durability(dcfg)
                    .map_err(|e| format!("arming durability in {}: {e}", dir.display()))?;
                engine
            }
        }
    };

    let meta = ShardMeta {
        admission: engine.admission(),
        base: args.base,
        count: args.count,
        total: args.total,
        durable: args.dir.is_some(),
        read_ahead: args.read_ahead,
    };

    let listener = TcpListener::bind(("127.0.0.1", args.port))
        .map_err(|e| format!("binding 127.0.0.1:{}: {e}", args.port))?;
    let port = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?
        .port();
    // The launch contract: parents parse this exact line to learn an
    // ephemeral port.
    println!("LISTENING {port}");
    std::io::stdout().flush().ok();

    let engine = Arc::new(Mutex::new(engine));
    let counters = Arc::new(TransportCounters::default());
    for stream in listener.incoming() {
        let Ok(stream) = stream else { continue };
        // Responses are single framed writes; with pipelined clients the
        // next response must not queue behind Nagle waiting for an ACK.
        stream.set_nodelay(true).ok();
        let engine = Arc::clone(&engine);
        let counters = Arc::clone(&counters);
        std::thread::spawn(move || serve_connection(stream, engine, meta, counters));
    }
    Ok(())
}

/// Frame and flush one response. A reply too large for one frame
/// (a snapshot or blob export above `MAX_FRAME_LEN`) is answered with
/// a typed [`Response::Err`] in its place — the request/response
/// pairing survives and the router sees why — instead of taking the
/// connection thread down.
fn write_response(writer: &mut impl Write, response: &Response) -> std::io::Result<()> {
    match write_message(writer, &response.encode()) {
        Err(e) if e.kind() == std::io::ErrorKind::InvalidInput => {
            let refusal = Response::Err(ServingError::Wire(format!("framing response: {e}")));
            write_message(writer, &refusal.encode())
        }
        framed => framed,
    }?;
    writer.flush()
}

/// Process one decoded-frame payload: dispatch to the engine, write
/// the framed response. Returns `false` when the connection is done
/// (write failure). `Request::Shutdown` exits the process after
/// acknowledging, exactly as before — any read-ahead frames behind it
/// die with the process, which is the same outcome as a kill arriving
/// between two requests.
fn process_payload(
    payload: &[u8],
    engine: &Mutex<ShardedEngine<Fism>>,
    meta: ShardMeta,
    counters: &TransportCounters,
    writer: &mut BufWriter<TcpStream>,
) -> bool {
    counters.requests.fetch_add(1, Ordering::Relaxed);
    let response = match Request::decode(payload) {
        Err(e) => Response::Err(ServingError::from(e)),
        Ok(Request::Shutdown) => {
            // Quiesce, acknowledge, exit: flush so every queued
            // event reached its worker, sync so the WAL covers it.
            let mut engine = engine.lock().expect("engine lock");
            let result = engine.flush().and_then(|()| {
                if meta.durable {
                    engine.wal_sync().map(|_| ())
                } else {
                    Ok(())
                }
            });
            let response = match result {
                Ok(()) => Response::Done,
                Err(e) => Response::Err(e),
            };
            let _ = write_response(writer, &response);
            std::process::exit(0);
        }
        Ok(req) => {
            let mut engine = engine.lock().expect("engine lock");
            handle_request(&mut engine, req, meta, counters)
        }
    };
    write_response(writer, &response).is_ok()
}

fn serve_connection(
    stream: TcpStream,
    engine: Arc<Mutex<ShardedEngine<Fism>>>,
    meta: ShardMeta,
    counters: Arc<TransportCounters>,
) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut writer = BufWriter::new(write_half);

    // A reader thread pulls and CRC-checks up to `read_ahead` frames
    // ahead of the engine. The bounded channel is the depth limit;
    // beyond it, backpressure falls back to the socket buffer.
    let (tx, rx) = crossbeam::channel::bounded::<Vec<u8>>(meta.read_ahead);
    let reader_counters = Arc::clone(&counters);
    let reader_thread = std::thread::spawn(move || {
        let mut buf = Vec::new();
        loop {
            match read_message(&mut reader, &mut buf) {
                Ok(Some(())) => {
                    if tx.send(std::mem::take(&mut buf)).is_err() {
                        return; // processing side is gone
                    }
                    reader_counters.observe_depth(tx.len() as u64);
                }
                // Clean close, torn stream or corrupt frame: stop
                // reading; queued requests still get processed (the
                // engine is untouched by the bad frame — a corrupt
                // request was never decoded, let alone applied).
                Ok(None) | Err(_) => return,
            }
        }
    });
    loop {
        // A frame already buffered means its socket read overlapped the
        // previous request's engine work — count the pipeline hit.
        let payload = match rx.try_recv() {
            Ok(p) => {
                counters.read_ahead_hits.fetch_add(1, Ordering::Relaxed);
                p
            }
            Err(crossbeam::channel::TryRecvError::Empty) => match rx.recv() {
                Ok(p) => p,
                Err(_) => break, // reader finished and the queue is drained
            },
            Err(crossbeam::channel::TryRecvError::Disconnected) => break,
        };
        if !process_payload(&payload, &engine, meta, &counters, &mut writer) {
            break;
        }
    }
    let _ = reader_thread.join();
}

/// One request against the engine. Pure dispatch: every engine error
/// becomes a [`Response::Err`] and the connection lives on.
fn handle_request(
    engine: &mut ShardedEngine<Fism>,
    req: Request,
    meta: ShardMeta,
    counters: &TransportCounters,
) -> Response {
    fn ok_or_err<T>(r: Result<T, ServingError>, f: impl FnOnce(T) -> Response) -> Response {
        match r {
            Ok(v) => f(v),
            Err(e) => Response::Err(e),
        }
    }
    match req {
        Request::Hello { protocol } => {
            if protocol != PROTOCOL_VERSION {
                return Response::Err(ServingError::Wire(format!(
                    "client speaks protocol {protocol}, this server speaks {PROTOCOL_VERSION}"
                )));
            }
            Response::HelloOk {
                protocol: PROTOCOL_VERSION,
                admission: meta.admission,
                base: meta.base as u64,
                count: meta.count as u64,
                total: meta.total as u64,
            }
        }
        Request::Ping => Response::Pong,
        Request::IngestBatch(events) => ok_or_err(engine.ingest_batch(&events), Response::Ingested),
        Request::Recommend { user, query } => {
            ok_or_err(engine.try_recommend(user, &query), Response::Slate)
        }
        Request::RecommendMany { users, query } => {
            ok_or_err(engine.recommend_many(&users, &query), Response::Slates)
        }
        Request::Flush => ok_or_err(engine.flush(), |()| Response::Done),
        Request::Stats => ok_or_err(engine.serving_stats(), |mut s| {
            s.transport = counters.snapshot(meta.read_ahead);
            Response::Stats(Box::new(s))
        }),
        Request::Snapshot => ok_or_err(engine.snapshot_state(), Response::Bytes),
        Request::Checkpoint => ok_or_err(engine.checkpoint(), Response::Watermark),
        Request::WalSync => ok_or_err(engine.wal_sync(), |_| Response::Done),
        Request::ExportUsers(users) => {
            ok_or_err(engine.export_user_states(&users), Response::Blobs)
        }
        Request::InstallTier(bytes) => match GlobalNeighborSnapshot::decode(&bytes) {
            Err(e) => Response::Err(ServingError::InvalidConfig(format!(
                "tier snapshot failed to decode: {e:?}"
            ))),
            Ok(snapshot) => ok_or_err(engine.install_global_tier(snapshot), |()| Response::Done),
        },
        Request::ClearTier => ok_or_err(engine.clear_global_tier(), |()| Response::Done),
        // Handled (with process exit) by the connection loop.
        Request::Shutdown => Response::Done,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression: a reply above the frame limit used to panic the
    /// connection thread inside the frame encoder.
    #[test]
    fn unframeable_reply_is_answered_with_a_typed_error() {
        let mut wire = Vec::new();
        let big = Response::Bytes(vec![0; sccf_util::framing::MAX_FRAME_LEN + 1]);
        write_response(&mut wire, &big).expect("the refusal itself is written");
        let mut payload = Vec::new();
        let mut cursor = &wire[..];
        assert!(read_message(&mut cursor, &mut payload).unwrap().is_some());
        match Response::decode(&payload).expect("decodes") {
            Response::Err(ServingError::Wire(msg)) => {
                assert!(msg.contains("frame limit"), "names the limit: {msg}")
            }
            other => panic!("expected a typed Wire error, got {other:?}"),
        }
        assert!(cursor.is_empty(), "exactly one frame answers one request");
    }

    #[test]
    fn args_roundtrip_through_the_command_line() {
        let args = ServeShardArgs {
            port: 0,
            base: 2,
            count: 2,
            total: 4,
            vnodes: 32,
            dir: Some(PathBuf::from("/tmp/shard-a")),
            fsync_every: 4,
            checkpoint_every: 100,
            world: WorldSpec {
                n_users: 99,
                ..WorldSpec::default()
            },
            model_file: Some(PathBuf::from("/tmp/model.bin")),
            read_ahead: 8,
        };
        let parsed = ServeShardArgs::parse(&args.to_args()).unwrap();
        assert_eq!(parsed, args);
        assert_eq!(
            ServeShardArgs::parse(&[]).unwrap(),
            ServeShardArgs::default()
        );
        assert!(ServeShardArgs::parse(&["--port".into()]).is_err());
        assert!(ServeShardArgs::parse(&["oops".into(), "1".into()]).is_err());
        let typo = ServeShardArgs::parse(&["--world-usres".into(), "9".into()]);
        assert!(typo.is_err_and(|msg| msg.contains("--world-usres")));
        let zero = ServeShardArgs::parse(&["--read-ahead".into(), "0".into()]);
        assert!(zero.is_err_and(|msg| msg.contains("--read-ahead")));
    }

    /// Regression: a member without the launcher's model file used to
    /// train the model in place. It is refused before building anything.
    #[test]
    fn a_member_without_a_model_file_is_refused() {
        let err = run_shard_server(ServeShardArgs::default()).unwrap_err();
        assert!(err.contains("--model-file"), "{err}");
    }
}
