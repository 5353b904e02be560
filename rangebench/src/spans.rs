//! Benchmark-side spans around every layer call.
//!
//! The spans live in an in-memory [`Tracer`] (disabled in untraced runs, so
//! recording costs one branch) and are written at the end of a traced run
//! in the Chrome trace-event format the program's own tracer exports, so
//! the file opens in Perfetto. Timestamps are host nanoseconds since the
//! benchmark started.

use sg_cyber_range::obs::{OpenSpan, Plane, TraceCtx, Tracer};
use std::path::Path;
use std::time::Instant;

pub struct Spans {
    tracer: Tracer,
    origin: Instant,
}

/// An open benchmark span: children take its [`Span::ctx`] as parent.
pub struct Span {
    inner: OpenSpan,
}

impl Span {
    pub fn ctx(&self) -> Option<TraceCtx> {
        self.inner.ctx()
    }
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            tracer: if enabled {
                Tracer::with_capacity(1 << 18)
            } else {
                Tracer::disabled()
            },
            origin: Instant::now(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&self, name: &'static str, plane: Plane, parent: Option<TraceCtx>) -> Span {
        Span {
            inner: self.tracer.open(name, plane, parent, self.now_ns()),
        }
    }

    pub fn close(&self, span: Span) {
        span.inner.end(self.now_ns());
    }

    /// Runs `f` inside a span and returns its result with the host seconds
    /// it took.
    pub fn timed<T>(
        &self,
        name: &'static str,
        plane: Plane,
        parent: Option<TraceCtx>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let span = self.open(name, plane, parent);
        let start = Instant::now();
        let out = f();
        let seconds = start.elapsed().as_secs_f64();
        self.close(span);
        (out, seconds)
    }

    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.tracer.chrome_trace_json())
    }
}
