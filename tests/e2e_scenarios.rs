//! End-to-end adversarial-topology scenarios: the four named, seeded
//! topologies from `exdra-scenario` run deterministically with every
//! declared invariant checked mechanically — bitwise model identity
//! against a fault-free oracle under BSP (including through mid-training
//! site churn with checkpoint-restore recovery), bounded staleness under
//! ASP, zero failed computations, and drift-triggered transform
//! re-encode. Plus a coordinator-driven variant: multi-tenant sessions
//! admitted by one `CoordService` drive continuous retraining through
//! their namespaced contexts and converge to the same model bitwise.

use std::sync::Arc;

use exdra::coord::{ChannelFactory, CoordConfig, CoordService, FleetSource};
use exdra::core::worker::{Worker, WorkerConfig};
use exdra::paramserv::fed::install_ps_udf;
use exdra::paramserv::UpdateType;
use exdra::scenario::{run_scenario, ContinuousTrainer, Scenario, SitePipeline, TrainerConfig};

/// One master seed reproduces every scenario run in this file.
const SEED: u64 = 0xEDDA;

/// Reduced-but-representative scale: every scenario still runs all of
/// its rounds, sites, and fault schedule.
const SCALE: f64 = 0.25;

#[test]
fn hub_and_spoke_wan_is_bitwise_and_reencodes_on_drift() {
    let sc = Scenario::hub_and_spoke_wan(SEED, SCALE);
    let r = run_scenario(&sc).expect("scenario runs");
    assert!(r.passed, "invariants failed: {:?}", r.invariants);
    // Shaped, jittered WAN links only affect timing: the BSP model is
    // bitwise identical to the plain-link oracle.
    assert_eq!(r.oracle_hash, Some(r.model_hash));
    // The scheduled mid-run distribution shift escaped the binned
    // encoding domain, so the trainer re-encoded its transform metadata
    // and republished the pipeline version.
    assert!(r.reencodes >= 1, "drift never triggered a re-encode");
    assert!(r.pipeline_versions >= 2, "re-encode must bump the version");
    assert!(r.max_drift_seen > sc.workload.drift_threshold);
    // Every round's model version landed in the experiment store.
    assert_eq!(r.expdb_runs, sc.workload.rounds);
    assert_eq!(r.failed_computations, 0);
}

#[test]
fn one_straggler_respects_the_asp_staleness_bound() {
    let sc = Scenario::one_straggler(SEED, SCALE);
    let bound = sc.workload.max_staleness.expect("ASP scenario has a bound");
    let r = run_scenario(&sc).expect("scenario runs");
    assert!(r.passed, "invariants failed: {:?}", r.invariants);
    assert!(
        r.max_observed_staleness <= bound,
        "staleness {} exceeds bound {bound}",
        r.max_observed_staleness
    );
    // The delayed site must actually have exercised the bound, or this
    // test would pass vacuously with a synchronous schedule.
    assert!(
        r.max_observed_staleness >= 1,
        "straggler never induced staleness; the scenario is not adversarial"
    );
    assert_eq!(r.failed_computations, 0);
    assert_eq!(r.expdb_runs, sc.workload.rounds);
}

#[test]
fn site_churn_recovers_bitwise_with_zero_failed_computations() {
    let sc = Scenario::site_churn(SEED, SCALE);
    let r = run_scenario(&sc).expect("scenario runs");
    assert!(r.passed, "invariants failed: {:?}", r.invariants);
    // The kill landed: the scheduled round went through the
    // checkpoint-restore + UDF-reinstall + retry arc.
    assert!(r.retried_rounds >= 1, "churn round was never retried");
    // ... and still: no failed computations, and the final model is
    // bitwise identical to the churn-free oracle run.
    assert_eq!(r.failed_computations, 0);
    assert_eq!(r.oracle_hash, Some(r.model_hash));
    assert_eq!(r.expdb_runs, sc.workload.rounds);
}

/// A count that repeats exactly: a continuous round costs every site
/// `1 + epochs` messages under BSP and under ASP: one install (`PUT x`
/// and `PUT y`, with the checkpoint pair behind them, whose reply is also
/// the round's proof of life), one per epoch. An install, a probe or a
/// checkpoint that becomes a message of its own again fails this.
#[test]
fn a_continuous_round_is_one_message_plus_its_epochs_per_site() {
    for sc in [
        Scenario::one_straggler(SEED, 0.1),
        Scenario::site_churn(SEED, 0.1),
    ] {
        let wl = &sc.workload;
        let (sites, epochs) = (wl.sites as u64, wl.epochs_per_round as u64);
        let r = run_scenario(&sc).expect("scenario runs");
        assert!(r.passed, "{}: {:?}", sc.name, r.invariants);
        let killed = sc.churn.first().map(|c| c.round);
        for round in &r.rounds {
            let mut want = sites * (1 + epochs);
            if killed == Some(round.round) {
                assert!(round.retried);
                // The epoch the kill interrupted was sent to every site,
                // and the replacement channel carries one probe and one
                // restore before the round runs again.
                want += sites + 2;
            }
            assert_eq!(
                round.messages, want,
                "{} round {}: messages sent",
                sc.name, round.round
            );
        }
    }
}

#[test]
fn skewed_partitions_stay_deterministic() {
    let sc = Scenario::skewed_partitions(SEED, SCALE);
    let sizes = &sc.workload.site_records;
    assert!(
        sizes.iter().max() > sizes.iter().min(),
        "partition sizes are not skewed: {sizes:?}"
    );
    let r = run_scenario(&sc).expect("scenario runs");
    assert!(r.passed, "invariants failed: {:?}", r.invariants);
    assert_eq!(r.oracle_hash, Some(r.model_hash));
    assert_eq!(r.failed_computations, 0);
}

#[test]
fn scenario_runs_reproduce_from_their_master_seed() {
    // The JSON artifact records only the name and master seed; that must
    // be enough to replay a failing run exactly.
    let a = run_scenario(&Scenario::site_churn(SEED, SCALE)).expect("first run");
    let b = run_scenario(&Scenario::site_churn(SEED, SCALE)).expect("second run");
    assert_eq!(a.model_hash, b.model_hash, "same seed must replay bitwise");
    assert_eq!(a.final_accuracy, b.final_accuracy);
    assert_eq!(a.retried_rounds, b.retried_rounds);
    assert_eq!(a.invariants, b.invariants);

    let c = run_scenario(&Scenario::site_churn(SEED ^ 0x9e37, SCALE)).expect("reseeded run");
    assert!(c.passed);
    assert_ne!(
        a.model_hash, c.model_hash,
        "a different master seed must produce different data and model"
    );
}

/// Drives `rounds` of continuous retraining through `ctx`, pumping the
/// per-site stream pipelines under `dir`, and returns the final model
/// hash. Sensor seeds are fixed, so two calls see identical streams.
fn tenant_retrain(
    ctx: &Arc<exdra::FedContext>,
    sites: usize,
    rounds: usize,
    dir: &std::path::Path,
    workers: &[Arc<Worker>],
) -> u64 {
    let fields = 4usize;
    let mut pipelines: Vec<SitePipeline> = (0..sites)
        .map(|s| {
            SitePipeline::new(
                s,
                fields,
                5,
                0xBEEF + s as u64,
                dir.join(format!("site{s}")),
            )
            .expect("pipeline")
        })
        .collect();
    let mut trainer = ContinuousTrainer::new(TrainerConfig {
        fields,
        classes: 2,
        hidden: 8,
        epochs_per_round: 2,
        batch_size: 16,
        update_type: UpdateType::Bsp,
        max_staleness: None,
        seed: 0x5EED,
        drift_threshold: 0.4,
    });
    for w in workers {
        install_ps_udf(w, trainer.network().clone());
    }
    for round in 0..rounds {
        let blocks: Vec<_> = pipelines
            .iter_mut()
            .map(|p| p.pump(60).expect("pump"))
            .collect();
        trainer.observe(&blocks).expect("observe");
        let prep = trainer
            .prepare(ctx, |b| ctx.call_all(b), &blocks)
            .expect("prepare");
        trainer.train_round(ctx, &prep, round).expect("train round");
    }
    assert_eq!(trainer.expdb().all_runs().len(), rounds);
    trainer.model_hash()
}

#[test]
fn coord_sessions_drive_continuous_retraining_bitwise() {
    const N_WORKERS: usize = 2;
    let slots: Arc<std::sync::Mutex<Vec<Arc<Worker>>>> = Arc::new(std::sync::Mutex::new(
        (0..N_WORKERS)
            .map(|_| Worker::new(WorkerConfig::default()))
            .collect(),
    ));
    let factory: ChannelFactory = {
        let slots = Arc::clone(&slots);
        Arc::new(move |w: usize| {
            let worker = Arc::clone(&slots.lock().expect("fleet slots")[w]);
            Ok(Box::new(worker.serve_mem()) as _)
        })
    };
    let service = CoordService::start(
        FleetSource::Factory {
            n_workers: N_WORKERS,
            factory,
        },
        CoordConfig::default(),
    )
    .expect("start coordinator service");

    let root = std::env::temp_dir().join(format!("exdra-e2e-scn-coord-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let fleet: Vec<Arc<Worker>> = slots.lock().expect("fleet slots").clone();

    // Two tenants, admitted one after the other, retrain over identical
    // sensor streams through their own namespaced session contexts: the
    // coordinator path must not perturb the math — both models are
    // bitwise identical.
    let mut hashes = Vec::new();
    for tenant_idx in 0..2 {
        let tenant = service.open_session().expect("admitted");
        let h = tenant_retrain(
            tenant.context(),
            N_WORKERS,
            2,
            &root.join(format!("tenant{tenant_idx}")),
            &fleet,
        );
        hashes.push(h);
        tenant.close();
    }
    assert_eq!(
        hashes[0], hashes[1],
        "sessions over the same streams must converge to the same model bitwise"
    );

    service.stop();
    for w in fleet {
        w.shutdown();
    }
    let _ = std::fs::remove_dir_all(&root);
}
