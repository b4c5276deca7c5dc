//! The benchmark's own replay driver.
//!
//! It issues the same public calls, in the same order and with the same
//! `trace.exec` RNG stream, as `faasim_trace::replay_with`, so it must
//! reproduce that function's recorder digest, bill and report exactly;
//! [`crate::audit::same_run`] checks this after every use. On top of
//! `replay_with` it records:
//!
//! - simulated time from each arrival's *due* time: to its spawn (the
//!   generator's lag) and to its final outcome. `ReplayReport` latency
//!   starts at spawn, so under overload it leaves the lag out;
//! - per attempt, simulated time from the due time to handler start, the
//!   handler's execution time and its NIC transfer time;
//! - host-time spans around every call into a layer (see [`crate::spans`])
//!   when tracing is on.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use faasim::faas::{FaasPlatform, FunctionSpec};
use faasim::payload::Payload;
use faasim::simcore::{Semaphore, SimDuration, SimTime};
use faasim::Cloud;
use faasim_gateway::{Gateway, GatewayError, GatewayStats, RetryingGateway};
use faasim_resilience::{Deadline, RetryError, RetryingInvoker};
use faasim_trace::{
    function_name, function_profile, QuantileSketch, ReplayConfig, ReplayOutcome, ReplayReport,
    TraceGenerator,
};

use crate::audit::Snapshot;
use crate::spans::{self, Layer, NO_REQ};

/// Simulated stamps of one replay, in seconds.
#[derive(Debug, Default)]
pub struct SimStamps {
    /// Per request: due time to final outcome.
    pub due_latency: Vec<f64>,
    /// Per request: due time to spawn (the generator's lag).
    pub lag: Vec<f64>,
    /// Per attempt: due time to handler start (recorded when tracing).
    pub pre_exec: Vec<f64>,
    /// Per attempt: handler start to handler end.
    pub exec: Vec<f64>,
    /// Per transfer: the handler's NIC transfer.
    pub nic: Vec<f64>,
}

/// Everything one driver run produced.
pub struct Driven {
    /// Must equal `replay_with`'s outcome for the same config and seed.
    pub outcome: ReplayOutcome,
    /// Counters read from the quiesced cloud.
    pub snapshot: Snapshot,
    /// Simulated stamps.
    pub stamps: SimStamps,
    /// Gateway counters, when the config routes through one.
    pub gateway: Option<GatewayStats>,
    /// Host seconds of the whole call.
    pub total_s: f64,
    /// Host milliseconds of `Recorder::digest`.
    pub digest_ms: f64,
    /// Host milliseconds of `Ledger::report`.
    pub report_ms: f64,
    /// Functions registered.
    pub registered: u64,
    /// `reap_idle` calls.
    pub reap_calls: u64,
}

struct AppAgg {
    completed: u64,
    lat_sum: f64,
}

struct TenantAgg {
    sketch: QuantileSketch,
    completed: u64,
    lat_sum: f64,
}

struct Stats {
    sketch: QuantileSketch,
    per_app: Vec<AppAgg>,
    per_tenant: Vec<TenantAgg>,
    seen_funcs: Vec<bool>,
    succeeded: u64,
    failed: u64,
    gw_shed: u64,
    completed: u64,
    last_done: SimTime,
    latencies: Vec<f64>,
}

enum Client {
    Direct(FaasPlatform),
    Retry(RetryingInvoker),
    Gw(Gateway),
    GwRetry(RetryingGateway),
}

struct ReqCtx {
    sim: faasim::simcore::Sim,
    client: Client,
    stats: RefCell<Stats>,
    stamps: Rc<RefCell<SimStamps>>,
    due: Rc<RefCell<Vec<SimTime>>>,
    names: Vec<String>,
    funcs_per_app: u32,
    latency_cap: usize,
    total: Cell<Option<u64>>,
    done: Cell<bool>,
    generated: Cell<u64>,
}

fn final_err_was_shed(err: &RetryError<GatewayError>) -> bool {
    match err {
        RetryError::Exhausted { last, .. } | RetryError::Fatal(last) => last.is_shed(),
        _ => false,
    }
}

/// Replay `cfg` at `seed` like `replay_with(cfg, seed, chaos, ..)`.
pub fn drive(cfg: &ReplayConfig, seed: u64, chaos: &dyn Fn(&Cloud)) -> Driven {
    let started = Instant::now();
    let cloud = Cloud::new(cfg.profile.clone(), seed);
    chaos(&cloud);
    let sim = cloud.sim.clone();
    let faas = cloud.faas.clone();
    let stamps = Rc::new(RefCell::new(SimStamps::default()));
    let due: Rc<RefCell<Vec<SimTime>>> = Rc::new(RefCell::new(Vec::new()));

    let exec_rng = Rc::new(RefCell::new(sim.rng("trace.exec")));
    let mut registered = 0u64;
    for app in 0..cfg.trace.apps {
        for func in 0..cfg.trace.funcs_per_app {
            let prof = function_profile(&cfg.trace, seed, app, func);
            let rng = exec_rng.clone();
            let mean = prof.mean_exec.as_secs_f64();
            let cv = prof.exec_cv;
            let (stamps, due) = (stamps.clone(), due.clone());
            let spec = FunctionSpec::new(
                prof.name,
                prof.memory_mb,
                prof.timeout,
                move |ctx, payload| {
                    let rng = rng.clone();
                    let (stamps, due) = (stamps.clone(), due.clone());
                    // The platform calls the handler from inside the request
                    // future, so the innermost open span names the request.
                    let req = spans::current_req();
                    spans::traced(Layer::Handler, req, async move {
                        let start = ctx.sim().now();
                        if req != NO_REQ {
                            let due_at = due.borrow()[req as usize];
                            stamps
                                .borrow_mut()
                                .pre_exec
                                .push(start.duration_since(due_at).as_secs_f64());
                        }
                        spans::traced(
                            Layer::Nic,
                            req,
                            ctx.host().nic_transfer(payload.len() as u64),
                        )
                        .await;
                        let shipped = ctx.sim().now();
                        let work = SimDuration::from_secs_f64(
                            rng.borrow_mut().lognormal_mean_cv(mean, cv),
                        );
                        spans::traced(Layer::Cpu, req, ctx.cpu(work)).await;
                        let mut st = stamps.borrow_mut();
                        st.nic.push(shipped.duration_since(start).as_secs_f64());
                        st.exec
                            .push(ctx.sim().now().duration_since(start).as_secs_f64());
                        Ok(Payload::new())
                    })
                },
            );
            spans::call(Layer::Register, NO_REQ, || faas.register(spec));
            registered += 1;
        }
    }

    let funcs_per_app = cfg.trace.funcs_per_app.max(1);
    let stats = Stats {
        sketch: QuantileSketch::new(cfg.sketch_alpha),
        per_app: (0..cfg.trace.apps)
            .map(|_| AppAgg {
                completed: 0,
                lat_sum: 0.0,
            })
            .collect(),
        per_tenant: (0..cfg.trace.tenants.max(1))
            .map(|_| TenantAgg {
                sketch: QuantileSketch::new(cfg.sketch_alpha),
                completed: 0,
                lat_sum: 0.0,
            })
            .collect(),
        seen_funcs: vec![false; (cfg.trace.apps * funcs_per_app) as usize],
        succeeded: 0,
        failed: 0,
        gw_shed: 0,
        completed: 0,
        last_done: SimTime::ZERO,
        latencies: Vec::new(),
    };
    let gateway = cfg.gateway.as_ref().map(|spec| {
        Gateway::new(
            &sim,
            &faas,
            cloud.ledger.clone(),
            cloud.recorder.clone(),
            &cloud.prices,
            spec.resolve(&cfg.trace, cfg.max_in_flight.max(1), seed),
        )
    });
    let client = match (&gateway, cfg.retry.clone()) {
        (Some(gw), Some(policy)) => Client::GwRetry(RetryingGateway::new(
            &sim,
            gw,
            cloud.recorder.clone(),
            policy,
            "trace.invoker",
        )),
        (Some(gw), None) => Client::Gw(gw.clone()),
        (None, Some(policy)) => Client::Retry(RetryingInvoker::new(
            &sim,
            &faas,
            cloud.recorder.clone(),
            policy,
            "trace.invoker",
        )),
        (None, None) => Client::Direct(faas.clone()),
    };
    let inflight = Semaphore::new(cfg.max_in_flight.max(1));
    let ctx = Rc::new(ReqCtx {
        sim: sim.clone(),
        client,
        stats: RefCell::new(stats),
        stamps: stamps.clone(),
        due: due.clone(),
        names: (0..cfg.trace.apps)
            .flat_map(|app| (0..funcs_per_app).map(move |func| function_name(app, func)))
            .collect(),
        funcs_per_app,
        latency_cap: cfg.latency_sample_cap,
        total: Cell::new(None),
        done: Cell::new(false),
        generated: Cell::new(0),
    });

    let reap_calls = Rc::new(Cell::new(0u64));
    {
        let (sim2, faas2, ctx2, calls) =
            (sim.clone(), faas.clone(), ctx.clone(), reap_calls.clone());
        let every = cfg.reap_every;
        sim.spawn_detached(async move {
            while !ctx2.done.get() {
                sim2.sleep(every).await;
                spans::call(Layer::Reap, NO_REQ, || faas2.reap_idle());
                calls.set(calls.get() + 1);
            }
        });
    }

    {
        let mut gen = TraceGenerator::new(cfg.trace.clone(), seed);
        let ctx2 = ctx.clone();
        let inflight2 = inflight.clone();
        let zero_block = Payload::zeros(256).bytes();
        sim.spawn_detached(async move {
            let mut spawned = 0u64;
            while let Some(ev) = spans::call(Layer::Gen, NO_REQ, || gen.next()) {
                ctx2.sim.sleep_until(ev.at).await;
                let permit = inflight2.acquire(1).await;
                let req = spawned;
                ctx2.due.borrow_mut().push(ev.at);
                spawned += 1;
                let ctx3 = ctx2.clone();
                let payload = Payload::synthetic(
                    zero_block.clone(),
                    ev.payload_bytes.div_ceil(zero_block.len() as u64).max(1),
                );
                ctx2.sim.spawn_detached(async move {
                    let t0 = ctx3.sim.now();
                    let name = &ctx3.names[(ev.app * ctx3.funcs_per_app + ev.func) as usize];
                    let call = async {
                        match &ctx3.client {
                            Client::Retry(inv) => (
                                inv.invoke(name, &payload, Deadline::unbounded())
                                    .await
                                    .is_ok(),
                                false,
                            ),
                            Client::Direct(faas) => {
                                (faas.invoke(name, payload).await.result.is_ok(), false)
                            }
                            Client::GwRetry(gw) => {
                                match gw
                                    .invoke(ev.tenant, name, &payload, Deadline::unbounded())
                                    .await
                                {
                                    Ok(_) => (true, false),
                                    Err(err) => (false, final_err_was_shed(&err)),
                                }
                            }
                            Client::Gw(gw) => match gw.invoke(ev.tenant, name, payload).await {
                                Ok(out) => (out.result.is_ok(), false),
                                Err(err) => (false, err.is_shed()),
                            },
                        }
                    };
                    let (ok, shed) = spans::traced(Layer::Client, req, call).await;
                    let now = ctx3.sim.now();
                    let latency = now.duration_since(t0).as_secs_f64();
                    {
                        let mut stamps = ctx3.stamps.borrow_mut();
                        stamps.lag.push(t0.duration_since(ev.at).as_secs_f64());
                        stamps
                            .due_latency
                            .push(now.duration_since(ev.at).as_secs_f64());
                    }
                    {
                        let mut st = ctx3.stats.borrow_mut();
                        spans::call(Layer::Sketch, req, || st.sketch.insert(latency));
                        if st.latencies.len() < ctx3.latency_cap {
                            st.latencies.push(latency);
                        }
                        let tagg = &mut st.per_tenant[ev.tenant as usize];
                        spans::call(Layer::Sketch, req, || tagg.sketch.insert(latency));
                        tagg.completed += 1;
                        tagg.lat_sum += latency;
                        let agg = &mut st.per_app[ev.app as usize];
                        agg.completed += 1;
                        agg.lat_sum += latency;
                        st.seen_funcs[(ev.app * ctx3.funcs_per_app + ev.func) as usize] = true;
                        if ok {
                            st.succeeded += 1;
                        } else {
                            st.failed += 1;
                            if shed {
                                st.gw_shed += 1;
                            }
                        }
                        st.completed += 1;
                        st.last_done = now;
                        if ctx3.total.get() == Some(st.completed) {
                            ctx3.done.set(true);
                        }
                    }
                    drop(permit);
                });
            }
            ctx2.generated.set(spawned);
            ctx2.total.set(Some(spawned));
            if ctx2.stats.borrow().completed == spawned {
                ctx2.done.set(true);
            }
        });
    }

    spans::call(Layer::Run, NO_REQ, || sim.run());
    let snapshot = Snapshot::take(&cloud);

    let packing = faas.packing_stats();
    let nic = faas.nic_stats();
    let recorder = &cloud.recorder;
    let st = ctx.stats.borrow();
    let cold = recorder.counter("faas.invoke.cold");
    let warm = recorder.counter("faas.invoke.warm");
    let attempts = cold + warm;
    let sim_secs = st.last_done.as_secs_f64();
    let dollars = cloud.ledger.total();

    let mut app_means: Vec<f64> = st
        .per_app
        .iter()
        .filter(|a| a.completed > 0)
        .map(|a| a.lat_sum / a.completed as f64)
        .collect();
    app_means.sort_by(f64::total_cmp);
    let rank = |q: f64| -> f64 {
        if app_means.is_empty() {
            0.0
        } else {
            app_means[((app_means.len() - 1) as f64 * q).round() as usize]
        }
    };
    let (p50_app, p95_app) = (rank(0.50), rank(0.95));

    let mut tenant_means: Vec<f64> = Vec::new();
    let mut tenant_p99s: Vec<f64> = Vec::new();
    for agg in st.per_tenant.iter().filter(|a| a.completed > 0) {
        tenant_means.push(agg.lat_sum / agg.completed as f64);
        tenant_p99s.push(agg.sketch.p99());
    }
    tenant_means.sort_by(f64::total_cmp);
    tenant_p99s.sort_by(f64::total_cmp);
    let trank = |v: &[f64], q: f64| -> f64 {
        if v.is_empty() {
            0.0
        } else {
            v[((v.len() - 1) as f64 * q).round() as usize]
        }
    };
    let gw_stats = gateway.as_ref().map(|gw| gw.stats());
    let gw_used = gw_stats.is_some();

    let report = ReplayReport {
        seed,
        generated: ctx.generated.get(),
        invocations: st.completed,
        succeeded: st.succeeded,
        failed: st.failed,
        attempts,
        cold_starts: cold,
        cold_start_rate: if attempts == 0 {
            0.0
        } else {
            cold as f64 / attempts as f64
        },
        latency_p50: st.sketch.p50(),
        latency_p95: st.sketch.p95(),
        latency_p99: st.sketch.p99(),
        latency_p999: st.sketch.p999(),
        latency_mean: st.sketch.mean(),
        fairness_spread: if p50_app > 0.0 {
            p95_app / p50_app
        } else {
            0.0
        },
        apps_seen: app_means.len() as u32,
        distinct_functions: st.seen_funcs.iter().filter(|&&s| s).count() as u64,
        busy_gb_seconds: packing.busy_gb_seconds,
        resident_gb_seconds: packing.resident_gb_seconds,
        packing_density: packing.density(),
        nic_transfers: nic.transfers,
        nic_peak_fan_in: nic.peak_flows,
        nic_mean_fan_in: nic.mean_fan_in(),
        nic_min_share_mbps: if nic.transfers == 0 {
            0.0
        } else {
            nic.min_fair_share / 1e6
        },
        dollars,
        dollars_per_hour: if sim_secs > 0.0 {
            dollars / (sim_secs / 3600.0)
        } else {
            0.0
        },
        sim_secs,
        throttled_waits: recorder.counter("faas.throttled_waits"),
        chaos_kills: recorder.counter("faas.chaos_kills"),
        chaos_evicted: recorder.counter("faas.chaos_evicted"),
        tenants_seen: if gw_used {
            tenant_means.len() as u32
        } else {
            0
        },
        tenant_fairness_spread: if gw_used && trank(&tenant_means, 0.50) > 0.0 {
            trank(&tenant_means, 0.95) / trank(&tenant_means, 0.50)
        } else {
            0.0
        },
        tenant_p99_max: if gw_used {
            trank(&tenant_p99s, 1.0)
        } else {
            0.0
        },
        tenant_p99_median: if gw_used {
            trank(&tenant_p99s, 0.50)
        } else {
            0.0
        },
        gw_offered: gw_stats.as_ref().map_or(0, |s| s.totals.offered),
        gw_admitted: gw_stats.as_ref().map_or(0, |s| s.totals.admitted),
        gw_rate_shed: gw_stats.as_ref().map_or(0, |s| s.totals.rate_shed()),
        gw_load_shed: gw_stats.as_ref().map_or(0, |s| s.totals.load_shed),
        gw_breaker_rejected: gw_stats.as_ref().map_or(0, |s| s.totals.breaker_rejected),
        gw_shed_requests: st.gw_shed,
        gw_peak_in_flight: gw_stats.as_ref().map_or(0, |s| s.peak_in_flight),
        engine: sim.profile(),
    };
    let t = Instant::now();
    let digest = recorder.digest();
    let digest_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let bill = cloud.ledger.report();
    let report_ms = t.elapsed().as_secs_f64() * 1e3;
    let outcome = ReplayOutcome {
        report,
        digest,
        bill,
        latencies: st.latencies.clone(),
    };
    drop(st);
    let stamps = std::mem::take(&mut *stamps.borrow_mut());
    Driven {
        outcome,
        snapshot,
        stamps,
        gateway: gw_stats,
        total_s: started.elapsed().as_secs_f64(),
        digest_ms,
        report_ms,
        registered,
        reap_calls: reap_calls.get(),
    }
}
