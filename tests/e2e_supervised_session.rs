//! A supervised session over a caller's context is the one tenant of a
//! one-slot coordinator service built over that context: the service's
//! supervisor is the session's, the session leaves the context's
//! namespace and symbols alone, and an unsupervised session has no
//! service behind it at all.

use std::sync::Arc;

use exdra::core::testutil::mem_federation;
use exdra::matrix::rng::rand_matrix;
use exdra::Session;

#[test]
fn a_supervised_context_session_is_the_one_tenant_of_its_own_service() {
    let (ctx, _workers) = mem_federation(2);
    let sds = Session::builder()
        .context(Arc::clone(&ctx))
        .build()
        .unwrap();
    let tenant = sds.tenant().expect("a supervised session is a tenant");
    let service = Arc::clone(tenant.service());
    assert!(Arc::ptr_eq(
        sds.supervisor().expect("supervised"),
        service.supervisor()
    ));
    assert!(Arc::ptr_eq(service.context(), &ctx), "the caller's context");
    let sessions = service.sessions();
    assert_eq!(sessions.len(), 1, "the service lists the one session");
    assert_eq!(sessions[0].kind, "tenant");
    assert_eq!(ctx.namespace(), 0, "the caller's namespace is untouched");

    let m = rand_matrix(40, 4, -1.0, 1.0, 3);
    let want = Session::local()
        .matrix(m.clone())
        .tsmm()
        .unwrap()
        .compute()
        .unwrap();
    let fed = sds.federated(&m).unwrap();
    drop(sds);
    // Closing the session reaps nothing: the caller owns those symbols.
    assert!(service.sessions().is_empty());
    let got = fed.tsmm().unwrap().compute().unwrap();
    assert!(got.max_abs_diff(&want) < 1e-10);
}

#[test]
fn supervised_sessions_over_one_context_share_its_id_counter() {
    let (ctx, _workers) = mem_federation(2);
    let s1 = Session::builder()
        .context(Arc::clone(&ctx))
        .build()
        .unwrap();
    let m1 = rand_matrix(30, 3, -1.0, 1.0, 5);
    let f1 = s1.federated(&m1).unwrap();
    // A second service over the same context must not re-issue the ids
    // the first session's data already holds.
    let s2 = Session::builder()
        .context(Arc::clone(&ctx))
        .build()
        .unwrap();
    let m2 = rand_matrix(30, 3, -1.0, 1.0, 6);
    let f2 = s2.federated(&m2).unwrap();
    for (fed, m) in [(&f1, m1), (&f2, m2)] {
        let want = Session::local().matrix(m).col_sums().unwrap();
        let got = fed.col_sums().unwrap().compute().unwrap();
        assert!(got.max_abs_diff(&want.compute().unwrap()) < 1e-10);
    }
}

#[test]
fn an_unsupervised_session_has_no_service() {
    let (ctx, _workers) = mem_federation(2);
    let sds = Session::builder()
        .context(ctx)
        .no_supervision()
        .build()
        .unwrap();
    assert!(sds.tenant().is_none());
    assert!(sds.supervisor().is_none());
}
