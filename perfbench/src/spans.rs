//! Host-time spans recorded from the benchmark's own code around the calls
//! it makes into each layer.
//!
//! A span is one poll of a wrapped future (or one wrapped synchronous
//! call): its layer, host start and end, the span it ran inside, and the
//! request it served. Self time is the span's duration minus the part its
//! child spans cover. Every span is folded into per-layer aggregates as it
//! closes; raw spans are kept only for a deterministic subset of request
//! ids, so the span file stays bounded at a million invocations.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::future::Future;
use std::time::Instant;

/// The layers the benchmark can see from outside, one per wrapped call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `Sim::run`: the root of every span in a replay. Its self time is
    /// what no wrapped call accounts for (executor, timer wheel,
    /// platform-internal tasks, driver glue).
    Run,
    /// `TraceGenerator::next`.
    Gen,
    /// `QuantileSketch::insert`.
    Sketch,
    /// The request future: gateway, resilience and faas invoke nest in
    /// this one public call.
    Client,
    /// The function handler the benchmark registers.
    Handler,
    /// `Host::nic_transfer`, awaited by the handler.
    Nic,
    /// `FnCtx::cpu`, awaited by the handler.
    Cpu,
    /// `FaasPlatform::reap_idle`.
    Reap,
    /// `FaasPlatform::register`.
    Register,
}

/// Number of [`Layer`]s.
pub const LAYERS: usize = 9;

impl Layer {
    /// Name used in the raw span file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Run => "simcore.run",
            Layer::Gen => "trace.gen",
            Layer::Sketch => "trace.sketch",
            Layer::Client => "client",
            Layer::Handler => "faas.handler",
            Layer::Nic => "net.nic_transfer",
            Layer::Cpu => "faas.cpu",
            Layer::Reap => "faas.reap_idle",
            Layer::Register => "faas.register",
        }
    }
}

/// Request id of spans that serve no single request.
pub const NO_REQ: u64 = u64::MAX;

/// Raw spans are kept for request ids divisible by this.
pub const SAMPLE_EVERY: u64 = 1000;

/// Per-layer totals.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Agg {
    /// Spans closed (polls of a wrapped future, or wrapped calls).
    pub spans: u64,
    /// Host nanoseconds from span start to end, children included.
    pub total_ns: u64,
    /// Host nanoseconds not covered by child spans.
    pub self_ns: u64,
}

impl Agg {
    fn add(&mut self, other: &Agg) {
        self.spans += other.spans;
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
    }
}

/// Per-layer totals of one traced run, indexed by `Layer as usize`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerAggs(pub [Agg; LAYERS]);

impl LayerAggs {
    /// Totals of `layer`.
    pub fn get(&self, layer: Layer) -> Agg {
        self.0[layer as usize]
    }

    /// Fold another run's totals into these.
    pub fn add(&mut self, other: &LayerAggs) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            a.add(b);
        }
    }
}

struct Open {
    layer: Layer,
    req: u64,
    id: u64,
    start: u64,
    child_ns: u64,
}

struct RawSpan {
    id: u64,
    parent: u64,
    layer: Layer,
    req: u64,
    start: u64,
    end: u64,
}

struct Tracer {
    on: bool,
    epoch: Instant,
    stack: Vec<Open>,
    aggs: LayerAggs,
    next_id: u64,
    raw: Vec<RawSpan>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        on: false,
        epoch: Instant::now(),
        stack: Vec::new(),
        aggs: LayerAggs::default(),
        next_id: 0,
        raw: Vec::new(),
    });
}

/// Start recording spans on this thread, discarding earlier ones.
pub fn start() {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        assert!(t.stack.is_empty(), "tracing restarted inside a span");
        t.on = true;
        t.aggs = LayerAggs::default();
        t.raw.clear();
    });
}

/// Stop recording and return the per-layer totals since [`start`].
pub fn stop() -> LayerAggs {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        assert!(t.stack.is_empty(), "tracing stopped inside a span");
        t.on = false;
        t.aggs
    })
}

/// The request id of the innermost open span ([`NO_REQ`] outside one).
pub fn current_req() -> u64 {
    TRACER.with(|t| t.borrow().stack.last().map_or(NO_REQ, |o| o.req))
}

fn enter(layer: Layer, req: u64) -> bool {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.on {
            return false;
        }
        let id = t.next_id;
        t.next_id += 1;
        let start = t.epoch.elapsed().as_nanos() as u64;
        t.stack.push(Open {
            layer,
            req,
            id,
            start,
            child_ns: 0,
        });
        true
    })
}

fn exit() {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let end = t.epoch.elapsed().as_nanos() as u64;
        let open = t.stack.pop().expect("span exit without enter");
        let dur = end.saturating_sub(open.start);
        let agg = &mut t.aggs.0[open.layer as usize];
        agg.spans += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(open.child_ns);
        let parent = match t.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.id
            }
            None => NO_REQ,
        };
        if open.layer == Layer::Run || (open.req != NO_REQ && open.req % SAMPLE_EVERY == 0) {
            t.raw.push(RawSpan {
                id: open.id,
                parent,
                layer: open.layer,
                req: open.req,
                start: open.start,
                end,
            });
        }
    })
}

/// Run `f` inside a span of `layer`.
pub fn call<T>(layer: Layer, req: u64, f: impl FnOnce() -> T) -> T {
    let on = enter(layer, req);
    let out = f();
    if on {
        exit();
    }
    out
}

/// Await `fut`, recording one span of `layer` per poll.
pub async fn traced<F: Future>(layer: Layer, req: u64, fut: F) -> F::Output {
    let mut fut = std::pin::pin!(fut);
    std::future::poll_fn(move |cx| call(layer, req, || fut.as_mut().poll(cx))).await
}

/// The raw spans kept since [`start`] as tab-separated lines
/// (`id parent layer req start_ns end_ns`; `-` for no parent or request).
pub fn raw_spans_tsv() -> String {
    TRACER.with(|t| {
        let t = t.borrow();
        let mut out = String::from("id\tparent\tlayer\treq\tstart_ns\tend_ns\n");
        let opt = |v: u64| {
            if v == NO_REQ {
                "-".to_owned()
            } else {
                v.to_string()
            }
        };
        for s in &t.raw {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id,
                opt(s.parent),
                s.layer.name(),
                opt(s.req),
                s.start,
                s.end
            )
            .expect("write to String");
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        start();
        call(Layer::Run, NO_REQ, || {
            call(Layer::Client, 0, || {
                call(Layer::Handler, 0, || {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            });
        });
        let aggs = stop();
        let (run, client, handler) = (
            aggs.get(Layer::Run),
            aggs.get(Layer::Client),
            aggs.get(Layer::Handler),
        );
        assert_eq!((run.spans, client.spans, handler.spans), (1, 1, 1));
        assert!(handler.self_ns >= 2_000_000);
        assert!(client.self_ns < handler.self_ns);
        assert_eq!(client.total_ns, client.self_ns + handler.total_ns);
        assert_eq!(run.total_ns, run.self_ns + client.total_ns);
        // Request 0 is sampled: three raw spans plus the header.
        assert_eq!(raw_spans_tsv().lines().count(), 4);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let _ = stop();
        call(Layer::Gen, 7, || ());
        assert_eq!(current_req(), NO_REQ);
        start();
        let aggs = stop();
        assert_eq!(aggs.get(Layer::Gen).spans, 0);
    }
}
