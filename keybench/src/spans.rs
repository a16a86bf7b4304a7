//! Wall-clock spans around the calls into the service, kept in memory and
//! written out once in Chrome `trace_event` form, plus a `Store` decorator
//! that times every WAL append and snapshot install.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use egka_service::{Store, StoreError};

struct Span {
    name: &'static str,
    epoch: u64,
    start_ns: u64,
    dur_ns: u64,
}

/// In-memory span recorder. Spans carry the epoch the client is in when
/// they start (0 = set-up).
pub struct Spans {
    origin: Instant,
    epoch: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            epoch: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn set_epoch(&self, epoch: u64) {
        self.epoch.store(epoch, Ordering::Relaxed);
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let span = Span {
            name,
            epoch: self.epoch.load(Ordering::Relaxed),
            start_ns: (start - self.origin).as_nanos() as u64,
            dur_ns: start.elapsed().as_nanos() as u64,
        };
        self.spans
            .lock()
            .expect("span recorder poisoned")
            .push(span);
        out
    }

    /// Durations (ns) of every span named `name` whose epoch is at least
    /// `from_epoch`.
    pub fn durations_ns(&self, name: &str, from_epoch: u64) -> Vec<u64> {
        self.spans
            .lock()
            .expect("span recorder poisoned")
            .iter()
            .filter(|s| s.name == name && s.epoch >= from_epoch)
            .map(|s| s.dur_ns)
            .collect()
    }

    pub fn total_ms(&self, name: &str, from_epoch: u64) -> f64 {
        self.durations_ns(name, from_epoch).iter().sum::<u64>() as f64 / 1e6
    }

    /// Writes every span as a Chrome `trace_event` complete event
    /// (timestamps in microseconds).
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span recorder poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"displayTimeUnit\": \"ms\", \"traceEvents\": [")?;
        for (i, s) in spans.iter().enumerate() {
            let (cat, tid) = match s.name.split_once('.') {
                Some(("store", _)) => ("store", 2),
                _ => ("service", 1),
            };
            writeln!(
                out,
                "{{\"name\": \"{}\", \"cat\": \"{cat}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {tid}, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"epoch\": {}}}}}{}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.epoch,
                if i + 1 < spans.len() { "," } else { "" }
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// Times every durable write of the wrapped store and counts the payload
/// bytes handed to it.
pub struct TimedStore {
    inner: Arc<dyn Store>,
    spans: Arc<Spans>,
    bytes: AtomicU64,
}

impl TimedStore {
    pub fn new(inner: Arc<dyn Store>, spans: Arc<Spans>) -> Self {
        TimedStore {
            inner,
            spans,
            bytes: AtomicU64::new(0),
        }
    }

    /// Payload bytes appended or installed so far.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    fn count(&self, payload: &[u8]) {
        self.bytes
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
    }
}

impl Store for TimedStore {
    fn append(&self, payload: &[u8]) -> Result<(), StoreError> {
        self.count(payload);
        self.spans
            .time("store.append", || self.inner.append(payload))
    }

    fn wal_bytes(&self) -> Result<Vec<u8>, StoreError> {
        self.inner.wal_bytes()
    }

    fn append_stream(&self, stream: u32, payload: &[u8]) -> Result<(), StoreError> {
        self.count(payload);
        self.spans
            .time("store.append", || self.inner.append_stream(stream, payload))
    }

    fn wal_stream_bytes(&self, stream: u32) -> Result<Vec<u8>, StoreError> {
        self.inner.wal_stream_bytes(stream)
    }

    fn wal_streams(&self) -> Result<Vec<u32>, StoreError> {
        self.inner.wal_streams()
    }

    fn install_snapshot(&self, snapshot: &[u8]) -> Result<(), StoreError> {
        self.count(snapshot);
        self.spans
            .time("store.snapshot", || self.inner.install_snapshot(snapshot))
    }

    fn snapshot_bytes(&self) -> Result<Option<Vec<u8>>, StoreError> {
        self.inner.snapshot_bytes()
    }

    fn sync_count(&self) -> u64 {
        self.inner.sync_count()
    }
}
