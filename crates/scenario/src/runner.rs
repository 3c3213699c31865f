//! Scenario execution, invariants, and reporting.
//!
//! [`run_scenario`] materializes a declared [`Scenario`] into a live
//! federation — per-site workers behind their declared link shaping and
//! fault plans, a coordinator-side supervisor with checkpointing and an
//! in-memory reconnector — and drives the continuous-learning loop
//! through every round, executing the churn schedule and the full
//! kill → detect → recover → reinstall → retry arc where declared. For
//! scenarios promising [`Invariant::BitwiseModelMatch`] it then replays
//! the *stripped* scenario (plain links, no churn, same seeds) and
//! compares final model hashes, before mechanically evaluating every
//! declared invariant into a [`ScenarioReport`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use exdra_core::supervision::{HealthState, SupervisionPolicy, Supervisor};
use exdra_core::worker::{Worker, WorkerConfig};
use exdra_core::{FedContext, Result};
use exdra_fault::FaultyChannel;
use exdra_matrix::DenseMatrix;
use exdra_net::transport::{Channel, ShapedChannel};
use exdra_paramserv::fed::install_ps_udf;

use crate::continuous::{ContinuousTrainer, SitePipeline, TrainerConfig};
use crate::topology::{Invariant, Scenario};

/// Per-round measurements of one scenario execution.
#[derive(Debug, Clone, Copy)]
pub struct RoundStat {
    /// Round index.
    pub round: usize,
    /// Wall time of scatter + checkpoint + training (including any
    /// recovery + retry), in milliseconds.
    pub millis: f64,
    /// Messages the coordinator sent over that time, all sites together.
    pub messages: u64,
    /// Final epoch loss (0 when the round ultimately failed).
    pub loss: f64,
    /// Post-round accuracy on the round's windows (0 on failure).
    pub accuracy: f64,
    /// Maximum staleness observed this round.
    pub staleness: usize,
    /// Whether the round needed a post-recovery retry.
    pub retried: bool,
    /// Whether the round ultimately failed (after any retry).
    pub failed: bool,
}

/// The artifact of one scenario run: measurements plus the mechanical
/// verdict on every declared invariant.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: String,
    /// The master seed the whole run derives from (sufficient, together
    /// with the name and scale, to replay it).
    pub master_seed: u64,
    /// Per-round stats.
    pub rounds: Vec<RoundStat>,
    /// Median round time (ms).
    pub p50_ms: f64,
    /// Tail round time (ms).
    pub p99_ms: f64,
    /// Total round time (ms).
    pub total_ms: f64,
    /// Rounds that ultimately failed.
    pub failed_computations: usize,
    /// Rounds that succeeded only after recovery + retry.
    pub retried_rounds: usize,
    /// Maximum ASP staleness observed across all rounds.
    pub max_observed_staleness: usize,
    /// Drift-triggered metadata re-encodes.
    pub reencodes: usize,
    /// Worst drift score observed.
    pub max_drift_seen: f64,
    /// Model versions tracked in the experiment store.
    pub expdb_runs: usize,
    /// Registered pipeline versions (bumped per re-encode).
    pub pipeline_versions: usize,
    /// Accuracy of the final model on the last round's windows.
    pub final_accuracy: f64,
    /// Bitwise hash of the final model parameters.
    pub model_hash: u64,
    /// Hash of the fault-free oracle's final model, when an oracle run
    /// was required by the invariants.
    pub oracle_hash: Option<u64>,
    /// `(invariant name, held)` for every declared invariant.
    pub invariants: Vec<(String, bool)>,
    /// True when every declared invariant held.
    pub passed: bool,
}

/// Nearest-rank percentile over an ascending-sorted slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Everything `execute` measures, before invariant evaluation.
struct ExecOutcome {
    rounds: Vec<RoundStat>,
    model_hash: u64,
    max_staleness: usize,
    reencodes: usize,
    max_drift_seen: f64,
    expdb_runs: usize,
    pipeline_versions: usize,
    final_accuracy: f64,
}

/// Runs a scenario end to end and evaluates its invariants. For
/// [`Invariant::BitwiseModelMatch`] scenarios the stripped (fault-free,
/// plain-link) oracle is executed afterwards with identical seeds and
/// the two final models compared bitwise.
pub fn run_scenario(sc: &Scenario) -> Result<ScenarioReport> {
    let live = execute(sc, "live")?;
    let oracle_hash = if sc.invariants.contains(&Invariant::BitwiseModelMatch) {
        Some(execute(&sc.stripped(), "oracle")?.model_hash)
    } else {
        None
    };

    let failed_computations = live.rounds.iter().filter(|r| r.failed).count();
    let retried_rounds = live.rounds.iter().filter(|r| r.retried).count();
    let invariants: Vec<(String, bool)> = sc
        .invariants
        .iter()
        .map(|inv| {
            let held = match inv {
                Invariant::BitwiseModelMatch => oracle_hash == Some(live.model_hash),
                Invariant::BoundedStaleness => sc
                    .workload
                    .max_staleness
                    .is_none_or(|bound| live.max_staleness <= bound),
                Invariant::ZeroFailedComputations => failed_computations == 0,
                Invariant::ReencodeOnDrift => live.reencodes >= 1,
            };
            (inv.name().to_string(), held)
        })
        .collect();
    let passed = invariants.iter().all(|(_, ok)| *ok);

    let mut times: Vec<f64> = live.rounds.iter().map(|r| r.millis).collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite round times"));
    Ok(ScenarioReport {
        name: sc.name.clone(),
        master_seed: sc.master_seed,
        p50_ms: percentile(&times, 0.50),
        p99_ms: percentile(&times, 0.99),
        total_ms: times.iter().sum(),
        rounds: live.rounds,
        failed_computations,
        retried_rounds,
        max_observed_staleness: live.max_staleness,
        reencodes: live.reencodes,
        max_drift_seen: live.max_drift_seen,
        expdb_runs: live.expdb_runs,
        pipeline_versions: live.pipeline_versions,
        final_accuracy: live.final_accuracy,
        model_hash: live.model_hash,
        oracle_hash,
        invariants,
        passed,
    })
}

/// Adds a constant offset to every cell (the declared sensor
/// recalibration regime change).
fn offset_all(mut m: DenseMatrix, shift: f64) -> DenseMatrix {
    for v in m.values_mut() {
        *v += shift;
    }
    m
}

fn execute(sc: &Scenario, tag: &str) -> Result<ExecOutcome> {
    let wl = &sc.workload;

    // --- Federation: one worker per site behind its declared link. ---
    let slots: Arc<parking_lot::Mutex<Vec<Arc<Worker>>>> = Arc::new(parking_lot::Mutex::new(
        (0..wl.sites)
            .map(|_| Worker::new(WorkerConfig::default()))
            .collect(),
    ));
    let channels: Vec<Box<dyn Channel>> = {
        let guard = slots.lock();
        sc.links
            .iter()
            .enumerate()
            .map(|(i, link)| {
                let base: Box<dyn Channel> = match link.profile {
                    Some(p) => Box::new(ShapedChannel::new(guard[i].serve_mem(), p)),
                    None => Box::new(guard[i].serve_mem()),
                };
                match link.fault {
                    Some(plan) => Box::new(FaultyChannel::new(base, plan)) as Box<dyn Channel>,
                    None => base,
                }
            })
            .collect()
    };
    let ctx = FedContext::from_channels(channels)?;

    // --- Supervision: manual sweeps, checkpoints, in-memory reconnector. ---
    let sup = Supervisor::new(Arc::clone(&ctx), SupervisionPolicy::default());
    {
        let slots = Arc::clone(&slots);
        sup.set_reconnector(Box::new(move |w| {
            // Stand-in for a restarted site process: a fresh, empty
            // worker; the supervisor restores its state from checkpoint.
            let fresh = Worker::new(WorkerConfig::default());
            let ch = fresh.serve_mem();
            slots.lock()[w] = fresh;
            Some(Box::new(ch) as Box<dyn Channel>)
        }));
    }

    // --- Continuous pipelines and trainer, all seeded from the master. ---
    // The run counter keeps concurrent runs of the same (scenario, seed,
    // tag) in one process — sibling tests do exactly that — off each
    // other's sink files.
    static RUN: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join("exdra_scenarios").join(format!(
        "{}-{}-{}-{tag}-{}",
        sc.name,
        std::process::id(),
        sc.master_seed,
        RUN.fetch_add(1, Ordering::Relaxed)
    ));
    let mut pipelines = Vec::with_capacity(wl.sites);
    for site in 0..wl.sites {
        pipelines.push(SitePipeline::new(
            site,
            wl.fields,
            wl.window,
            sc.sensor_seed(site),
            dir.join(format!("site{site}")),
        )?);
    }
    let mut trainer = ContinuousTrainer::new(TrainerConfig {
        fields: wl.fields,
        classes: wl.classes,
        hidden: wl.hidden,
        epochs_per_round: wl.epochs_per_round,
        batch_size: wl.batch_size,
        update_type: wl.update_type,
        max_staleness: wl.max_staleness,
        seed: sc.train_seed(),
        drift_threshold: wl.drift_threshold,
    });
    {
        let guard = slots.lock();
        for w in guard.iter() {
            install_ps_udf(w, trainer.network().clone());
        }
    }

    let churn: HashMap<usize, usize> = sc.churn.iter().map(|c| (c.round, c.site)).collect();
    let mut rounds = Vec::with_capacity(wl.rounds);
    let mut max_staleness = 0usize;
    let mut final_accuracy = 0.0;

    for round in 0..wl.rounds {
        // 1. Continuous ingest: one fresh windowed mini-batch per site.
        let mut blocks = Vec::with_capacity(wl.sites);
        for (site, p) in pipelines.iter_mut().enumerate() {
            let mut b = p.pump(wl.site_records[site])?;
            if let Some((from, shift)) = wl.drift_shift {
                if round >= from {
                    b = offset_all(b, shift);
                }
            }
            blocks.push(b);
        }

        // 2. Drift check against the consolidated transform metadata.
        trainer.observe(&blocks)?;

        // 3. Scatter with the checkpoint behind the installs in the same
        //    envelope (its reply is the round's proof of life), then
        //    (maybe) kill and train.
        let (t0, sent0) = (Instant::now(), ctx.stats().messages_sent());
        let prep = trainer.prepare(&ctx, |b| sup.call_all_checkpointed(b), &blocks)?;
        let killed = churn.get(&round).copied();
        if let Some(site) = killed {
            slots.lock()[site].shutdown();
        }

        let mut retried = false;
        let mut outcome = trainer.train_round(&ctx, &prep, round);
        if outcome.is_err() {
            if let Some(site) = killed {
                // The scheduled death: report it to the supervisor, wait
                // out the recovery arc (replacement channel + checkpoint
                // restore), re-ship the setup-time UDF (function
                // registrations are not part of the variable-environment
                // checkpoint), and retry the identical round.
                sup.notify_worker_dead(site);
                sup.wait_recoveries();
                let mut attempts = 0;
                while sup.detector().state(site) != HealthState::Healthy && attempts < 10 {
                    sup.spawn_recovery(site);
                    sup.wait_recoveries();
                    attempts += 1;
                }
                install_ps_udf(&slots.lock()[site], trainer.network().clone());
                retried = true;
                outcome = trainer.train_round(&ctx, &prep, round);
            }
        }
        let m = outcome.as_ref().ok();
        if let Some(m) = m {
            max_staleness = max_staleness.max(m.staleness);
            final_accuracy = m.accuracy;
        }
        rounds.push(RoundStat {
            round,
            millis: t0.elapsed().as_secs_f64() * 1e3,
            messages: ctx.stats().messages_sent() - sent0,
            loss: m.map_or(0.0, |m| m.loss),
            accuracy: m.map_or(0.0, |m| m.accuracy),
            staleness: m.map_or(0, |m| m.staleness),
            retried,
            failed: m.is_none(),
        });
    }

    let outcome = ExecOutcome {
        rounds,
        model_hash: trainer.model_hash(),
        max_staleness,
        reencodes: trainer.reencodes,
        max_drift_seen: trainer.max_drift_seen,
        expdb_runs: trainer.expdb().all_runs().len(),
        pipeline_versions: trainer.pipeline_versions(),
        final_accuracy,
    };

    // Orderly teardown: stop workers, then drop the context.
    for w in slots.lock().iter() {
        w.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(outcome)
}
