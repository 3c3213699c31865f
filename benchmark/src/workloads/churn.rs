//! `churn_stream`: `exdra-scenario`'s `site_churn` and `one_straggler`
//! topologies back to back at a fixed scale. Stream windows feed BSP /
//! ASP retraining rounds; in `site_churn` one worker is killed between
//! checkpoint and train and the round is retried after recovery, and
//! the final model hash must equal the fault-free oracle's. `fault`
//! detection, `core::supervision` restore, `stream` and `paramserv`
//! rounds do the work.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use exdra::core::protocol::Request;
use exdra::core::supervision::{HealthState, SupervisionPolicy, Supervisor};
use exdra::core::worker::{Worker, WorkerConfig};
use exdra::core::{DataValue, FedContext, PrivacyLevel};
use exdra::matrix::rng::rand_matrix;
use exdra::net::transport::Channel;
use exdra::scenario::{run_scenario, Scenario, SitePipeline};

use super::{
    err, Federation, LayerMetrics, Link, PassOutput, PassStats, Recipe, Workload, WORKERS,
};
use crate::gen::{sub_seed, Checksum};
use crate::harness::out_dir;
use crate::probes::{self, time_median};
use crate::stats::median;
use crate::trace::Tracer;

/// Workload scale of both scenarios (1.0 = the scenario matrix's full
/// size); pinned so a pass stays well under a second.
const SCALE: f64 = 0.3;

pub struct ChurnRecipe {
    churn: Scenario,
    straggler: Scenario,
}

impl ChurnRecipe {
    pub fn new(seed: u64, smoke: bool) -> Self {
        let scale = if smoke { 0.1 } else { SCALE };
        Self {
            // The scenario is the generated input: every sensor stream,
            // fault schedule and training seed inside derives from it.
            churn: Scenario::site_churn(sub_seed(seed, 13), scale),
            straggler: Scenario::one_straggler(sub_seed(seed, 14), scale),
        }
    }
}

impl Recipe for ChurnRecipe {
    fn build(&self, tr: &Tracer) -> Result<Box<dyn Workload>, String> {
        let mut w = ChurnWorkload {
            churn: self.churn.clone(),
            straggler: self.straggler.clone(),
            expected: 0,
            retried_rounds: 0,
        };
        // Warm-up pass. `run_scenario` itself replays `site_churn`
        // stripped of its faults and compares the final model hashes, so
        // a pass that reports no failed operation has matched the oracle.
        let out = w.pass(tr)?;
        if out.failed_ops > 0 {
            return Err(format!(
                "churn_stream: {} of {} rounds or invariants failed in the warm-up pass",
                out.failed_ops, out.ops
            ));
        }
        w.expected = out.checksum;
        Ok(Box::new(w))
    }
}

struct ChurnWorkload {
    churn: Scenario,
    straggler: Scenario,
    expected: u64,
    retried_rounds: u64,
}

impl Workload for ChurnWorkload {
    fn pass(&mut self, tr: &Tracer) -> Result<PassOutput, String> {
        let mut out = PassOutput::default();
        let mut sum = Checksum::default();
        self.retried_rounds = 0;
        for (phase, sc) in [
            ("scenario.site_churn", &self.churn),
            ("scenario.one_straggler", &self.straggler),
        ] {
            let r = tr
                .span(phase, || run_scenario(sc))
                .map_err(|e| format!("{}: {e}", sc.name))?;
            // Rounds are the operations; a broken invariant is one more.
            out.ops += r.rounds.len() as u64 + 1;
            out.failed_ops += r.failed_computations as u64 + u64::from(!r.passed);
            out.recovery_ms
                .extend(r.rounds.iter().filter(|s| s.retried).map(|s| s.millis));
            self.retried_rounds += r.retried_rounds as u64;
            // BSP runs reproduce their model bitwise (and equal their
            // oracle); an ASP model depends on arrival order, so only
            // its verdict is part of the checksum.
            if let Some(oracle) = r.oracle_hash {
                sum.push_u64(r.model_hash);
                sum.push_u64(oracle);
            }
            sum.push_u64(u64::from(r.passed));
        }
        out.checksum = sum.value();
        Ok(out)
    }

    fn expected(&self) -> u64 {
        self.expected
    }

    fn probe_layers(&mut self, tr: &Tracer, _stats: &PassStats, out: &mut LayerMetrics) {
        out.insert("retried_rounds", self.retried_rounds as f64);
        let wl = &self.churn.workload;
        tr.span("probe.stream", || {
            let dir = out_dir()
                .join(format!("tmp.{}", std::process::id()))
                .join("probe-sink");
            let records = wl.site_records[0];
            match SitePipeline::new(0, wl.fields, wl.window, self.churn.sensor_seed(0), dir) {
                Ok(mut p) => {
                    let s = time_median(5, || {
                        std::hint::black_box(p.pump(records).expect("pump"));
                    });
                    out.insert("window_rows_per_s", records as f64 / s);
                }
                Err(e) => eprintln!("warning: stream probe: {e}"),
            }
        });
        tr.span("probe.paramserv", || {
            // One BSP round of the scenario's model over one round's windows.
            let fed = Federation::spawn(Link::Mem);
            let rows = wl.site_records.iter().sum::<usize>() / wl.window;
            probes::ps_metrics(
                &fed,
                (rows.max(WORKERS), wl.fields),
                wl.hidden,
                wl.batch_size,
                out,
            );
            fed.shutdown();
        });
        tr.span("probe.fault", || {
            if let Err(e) = recovery_metrics(wl.site_records[0] / wl.window, wl.fields, out) {
                eprintln!("warning: recovery probe: {e}");
            }
        });
    }

    fn teardown(self: Box<Self>) {}
}

/// `fault` + `core::supervision`: the kill -> detect -> restore arc of
/// `site_churn` on a two-worker mem federation holding one round's block
/// per site. `detect_ms` is the failing call that reveals the death,
/// `restore_ms` the recovery onto a replacement worker (new channel plus
/// checkpoint restore), `checkpoint_bytes` what the checkpoint held.
fn recovery_metrics(rows: usize, cols: usize, out: &mut LayerMetrics) -> Result<(), String> {
    const REPS: usize = 5;
    let (mut detect, mut restore, mut bytes) = (Vec::new(), Vec::new(), 0usize);
    for rep in 0..REPS {
        let slots: Arc<Mutex<Vec<Arc<Worker>>>> = Arc::new(Mutex::new(
            (0..WORKERS)
                .map(|_| Worker::new(WorkerConfig::default()))
                .collect(),
        ));
        let channels: Vec<Box<dyn Channel>> = slots
            .lock()
            .expect("slots")
            .iter()
            .map(|w| Box::new(w.serve_mem()) as Box<dyn Channel>)
            .collect();
        let ctx = FedContext::from_channels(channels).map_err(err)?;
        let sup = Supervisor::new(Arc::clone(&ctx), SupervisionPolicy::default());
        {
            let slots = Arc::clone(&slots);
            sup.set_reconnector(Box::new(move |w| {
                let fresh = Worker::new(WorkerConfig::default());
                let ch = fresh.serve_mem();
                slots.lock().expect("slots")[w] = fresh;
                Some(Box::new(ch) as Box<dyn Channel>)
            }));
        }
        let ids: Vec<u64> = (0..WORKERS).map(|_| ctx.fresh_id()).collect();
        for (w, id) in ids.iter().enumerate() {
            let put = Request::Put {
                id: *id,
                data: DataValue::from(rand_matrix(rows.max(1), cols, -1.0, 1.0, rep as u64)),
                privacy: PrivacyLevel::Public,
            };
            ctx.call(w, &[put]).map_err(err)?;
        }
        sup.heartbeat_once();
        sup.checkpoint_once();
        bytes = sup.checkpoint_store().bytes(1);

        slots.lock().expect("slots")[1].shutdown();
        let t0 = Instant::now();
        let dead = ctx.call(1, &[Request::Get { id: ids[1] }]).is_err();
        detect.push(t0.elapsed().as_secs_f64() * 1e3);
        if !dead {
            return Err("the killed worker still answered".into());
        }
        let t0 = Instant::now();
        sup.notify_worker_dead(1);
        sup.wait_recoveries();
        let mut attempts = 0;
        while sup.detector().state(1) != HealthState::Healthy && attempts < 10 {
            sup.spawn_recovery(1);
            sup.wait_recoveries();
            attempts += 1;
        }
        restore.push(t0.elapsed().as_secs_f64() * 1e3);
        // The restored worker must serve the checkpointed block again.
        ctx.call(1, &[Request::Get { id: ids[1] }])
            .map_err(|e| format!("restored worker lost its block: {e}"))?;
        for w in slots.lock().expect("slots").iter() {
            w.shutdown();
        }
    }
    out.insert("detect_ms", median(&detect));
    out.insert("restore_ms", median(&restore));
    out.insert("checkpoint_bytes", bytes as f64);
    Ok(())
}
