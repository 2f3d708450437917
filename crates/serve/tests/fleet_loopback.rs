//! Fleet acceptance over a real socket: a loopback coordinator leases
//! mass-balanced partition ranges to workers, workers run the fused
//! pipeline and upload shard results over HTTP, and the merged suites
//! are byte-identical (fingerprint, records, counters) to a
//! single-machine fused run — including under duplicate uploads,
//! conflicting uploads, and dead-lease reclamation.

use std::time::Duration;
use transform_serve::{ServeOptions, Server};
use transform_store::fleet::StageOutcome;
use transform_store::{
    execute_lease, read_suite, suite_fingerprint, HttpTier, JobSpec, KeyOptions, Store,
};
use transform_synth::SynthOptions;
use transform_x86::x86t_elt;

fn opts() -> SynthOptions {
    let mut o = SynthOptions::new(4);
    o.enumeration.allow_fences = false;
    o.enumeration.allow_rmw = false;
    o
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tffleet-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

#[test]
fn leased_workers_reproduce_the_single_machine_run() {
    let mtm = x86t_elt();
    let axioms: Vec<&str> = mtm.axioms().iter().map(|a| a.name.as_str()).collect();
    let o = opts();

    let origin = temp_dir("coord");
    let server = Server::bind(&origin, "127.0.0.1:0", ServeOptions::default()).expect("binds");
    let url = format!("http://{}", server.local_addr());
    let handle = server.spawn();
    let client = HttpTier::new(&url).expect("valid URL");

    // The client-side plan: 2 fleet workers over a 2-job partition
    // shape, generous TTL (no expiry in this test).
    let spec = JobSpec::for_run(&mtm, &axioms, &o, 2, 2, 60_000);
    let ranges = spec.ranges.clone();
    assert!(ranges.len() >= 2, "the plan split into multiple ranges");
    let job = client.create_job(&spec.encode()).expect("job accepted");
    assert_eq!(job, spec.id(), "the coordinator derived the content id");
    // Re-posting the identical spec re-joins the same job.
    assert_eq!(client.create_job(&spec.encode()).expect("idempotent"), job);

    // Drive the fleet: lease until the coordinator runs dry, computing
    // each range like a worker would and uploading the shard result.
    let mut first_upload: Option<(u64, u32, u32, Vec<u8>)> = None;
    let mut leased = 0;
    while let Some(grant) = client.lease("test-worker").expect("lease call") {
        leased += 1;
        assert!(client.heartbeat(grant.lease).expect("heartbeat call"));
        let result = execute_lease(&grant, 2).expect("range runs");
        let bytes = result.encode();
        assert_eq!(
            client
                .put_shard(grant.job, grant.lo, grant.hi, &bytes)
                .expect("upload"),
            StageOutcome::New
        );
        if first_upload.is_none() {
            first_upload = Some((grant.job, grant.lo, grant.hi, bytes));
        }
    }
    assert_eq!(leased, ranges.len(), "every range was leased exactly once");

    // The last upload sealed the job inside its PUT.
    let status = client.job_status(job).expect("status call").expect("known");
    assert!(status.complete, "all ranges staged seals the job");
    assert_eq!(status.staged, ranges.len());

    // Fingerprint-level byte-identity: the fleet-sealed suites decode
    // to exactly the records and lossless counters of a local fused
    // run (headers differ only in elapsed/shard breakdown).
    let store = Store::open(&origin).expect("opens");
    for axiom in &axioms {
        let fp = suite_fingerprint(&mtm, axiom, &o);
        let sealed =
            read_suite(store.open_suite(fp).expect("sealed entry")).expect("suite reads back");
        let reference = transform_par::synthesize(&mtm, &[axiom], &o, 2, None).remove(0);
        assert_eq!(sealed.elts.len(), reference.elts.len(), "{axiom}");
        for (a, b) in sealed.elts.iter().zip(&reference.elts) {
            assert_eq!(a.program, b.program, "{axiom}");
            assert_eq!(a.witness, b.witness, "{axiom}");
            assert_eq!(a.violated, b.violated, "{axiom}");
        }
        assert_eq!(sealed.stats.programs, reference.stats.programs, "{axiom}");
        assert_eq!(sealed.stats.executions, reference.stats.executions);
        assert_eq!(sealed.stats.forbidden, reference.stats.forbidden);
        assert_eq!(sealed.stats.minimal, reference.stats.minimal);
    }
    // The merge seals suites and writes nothing beside them.
    assert!(store.legacy_files().expect("lists").is_empty());

    // Idempotent re-upload: the identical bytes are a duplicate, not a
    // conflict, even after the job sealed.
    let (ujob, ulo, uhi, ubytes) = first_upload.expect("at least one upload");
    assert_eq!(
        client.put_shard(ujob, ulo, uhi, &ubytes).expect("retry"),
        StageOutcome::Duplicate
    );
    // Conflicting bytes for a staged range are refused.
    assert_eq!(
        client
            .put_shard(ujob, ranges[1].0, ranges[1].1, &ubytes)
            .expect("conflict path"),
        StageOutcome::Mismatch
    );
    // Garbage is rejected outright (400), never staged.
    assert!(client.put_shard(ujob, ulo, uhi, b"garbage").is_err());
    // So is an intact upload from a worker on an older format version.
    let mut old = ubytes[..ubytes.len() - 8].to_vec();
    old[8..12].copy_from_slice(&1u32.to_le_bytes());
    let checksum = transform_store::codec::fnv1a64(&old);
    old.extend_from_slice(&checksum.to_le_bytes());
    let err = client
        .put_shard(ujob, ulo, uhi, &old)
        .expect_err("version skew is refused");
    assert!(err.to_string().contains("status 400"), "{err}");
    // A drained fleet leases nothing, and stale leases are not honored.
    assert!(client.lease("test-worker").expect("drained").is_none());
    assert!(!client.heartbeat(u64::MAX).expect("bogus lease"));

    handle.shutdown();
    std::fs::remove_dir_all(&origin).ok();
}

#[test]
fn expired_leases_are_reassigned_and_the_merge_still_seals() {
    let mtm = x86t_elt();
    let axioms = vec![mtm.axioms()[0].name.as_str()];
    let o = opts();

    let origin = temp_dir("expiry");
    let server = Server::bind(&origin, "127.0.0.1:0", ServeOptions::default()).expect("binds");
    let url = format!("http://{}", server.local_addr());
    let handle = server.spawn();
    let client = HttpTier::new(&url).expect("valid URL");

    // TTL 0: every lease is expired by the next lease call — the
    // "worker died mid-lease" path, forced deterministically.
    let spec = JobSpec::for_run(&mtm, &axioms, &o, 2, 2, 0);
    let job = client.create_job(&spec.encode()).expect("job accepted");

    // The first grant dies unheartbeaten; the same range comes back
    // under a fresh lease.
    let dead = client.lease("w1").expect("lease").expect("work pending");
    let retry = client.lease("w2").expect("lease").expect("reassigned");
    assert_eq!((dead.lo, dead.hi), (retry.lo, retry.hi));
    assert_ne!(dead.lease, retry.lease);
    assert!(!client.heartbeat(dead.lease).expect("dead lease refused"));

    // Complete the job from scratch: leases keep cycling (TTL 0), so
    // track which ranges are staged and upload each exactly once; the
    // coordinator accepts uploads regardless of lease state.
    let mut staged: std::collections::HashSet<(u32, u32)> = std::collections::HashSet::new();
    while staged.len() < spec.ranges.len() {
        let grant = client.lease("w3").expect("lease").expect("work cycles");
        if !staged.insert((grant.lo, grant.hi)) {
            continue;
        }
        let bytes = execute_lease(&grant, 1).expect("range runs").encode();
        let outcome = client
            .put_shard(grant.job, grant.lo, grant.hi, &bytes)
            .expect("upload");
        assert_eq!(outcome, StageOutcome::New);
    }
    let status = client.job_status(job).expect("status").expect("known");
    assert!(
        status.complete,
        "expiry and reassignment never block the seal"
    );

    // The sealed suite still matches the local engine exactly.
    let store = Store::open(&origin).expect("opens");
    let fp = suite_fingerprint(&mtm, axioms[0], &o);
    let sealed = read_suite(store.open_suite(fp).expect("sealed")).expect("reads");
    let reference = transform_synth::synthesize_suite(&mtm, axioms[0], &o);
    assert_eq!(sealed.elts.len(), reference.elts.len());
    for (a, b) in sealed.elts.iter().zip(&reference.elts) {
        assert_eq!(a.program, b.program);
        assert_eq!(a.witness, b.witness);
        assert_eq!(a.violated, b.violated);
    }
    assert_eq!(sealed.stats.executions, reference.stats.executions);

    handle.shutdown();
    std::fs::remove_dir_all(&origin).ok();
}

#[test]
fn bad_job_specs_are_refused_at_submission() {
    let mtm = x86t_elt();
    let o = opts();
    let origin = temp_dir("badspec");
    let server = Server::bind(&origin, "127.0.0.1:0", ServeOptions::default()).expect("binds");
    let url = format!("http://{}", server.local_addr());
    let handle = server.spawn();
    let client = HttpTier::new(&url).expect("valid URL");

    // Garbage bytes are not a job.
    assert!(client.create_job(b"not a job spec").is_err());

    // A wrong fingerprint is caught server-side — the coordinator
    // recomputes each axiom's suite key from the model text.
    let mut spec = JobSpec::for_run(&mtm, &["sc_per_loc"], &o, 2, 2, 60_000);
    spec.axioms[0].1 = transform_store::Fingerprint(42);
    assert!(client.create_job(&spec.encode()).is_err());

    // Ranges that do not tile the plan's partition count are refused.
    let mut spec = JobSpec::for_run(&mtm, &["sc_per_loc"], &o, 2, 2, 60_000);
    let last = spec.ranges.last_mut().expect("non-empty");
    last.1 += 1;
    assert!(client.create_job(&spec.encode()).is_err());

    // Unknown jobs answer 404 everywhere.
    assert!(client.job_status(0xdead).expect("status call").is_none());

    handle.shutdown();
    std::fs::remove_dir_all(&origin).ok();
}

#[test]
fn job_specs_above_a_relation_row_answer_400() {
    // A spec whose bound no relation row holds, with fingerprints that
    // match it, is refused before the coordinator builds its space: that
    // build would not finish, so the client would hit its timeout.
    let mtm = x86t_elt();
    let mut o = opts();
    o.enumeration.bound = transform_core::rel::MAX_EVENTS + 1;
    let spec = JobSpec {
        mtm_name: mtm.name().to_string(),
        model: mtm.to_string(),
        axioms: vec![(
            "sc_per_loc".to_string(),
            suite_fingerprint(&mtm, "sc_per_loc", &o),
        )],
        key: KeyOptions::of(&o),
        plan_jobs: 1,
        lease_ttl_ms: 60_000,
        ranges: vec![(0, 1)],
    };
    let origin = temp_dir("widebound");
    let server = Server::bind(&origin, "127.0.0.1:0", ServeOptions::default()).expect("binds");
    let url = format!("http://{}", server.local_addr());
    let handle = server.spawn();
    let client = HttpTier::new(&url)
        .expect("valid URL")
        .with_timeout(Duration::from_secs(10));
    let err = client.create_job(&spec.encode()).expect_err("refused");
    let msg = err.to_string();
    assert!(msg.contains("status 400"), "{msg}");
    assert!(msg.contains("relation row"), "{msg}");
    handle.shutdown();
    std::fs::remove_dir_all(&origin).ok();
}
