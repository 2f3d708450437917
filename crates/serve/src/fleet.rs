//! The coordinator half of a synthesis fleet: jobs, leases, and the
//! seal-on-last-shard trigger.
//!
//! A fleet job arrives as an encoded [`JobSpec`] (`POST /v1/jobs`,
//! idempotent — the id is the hash of the spec). Workers pull work with
//! `POST /v1/lease`: the coordinator hands out one `(lo, hi)` partition
//! range per lease, expiring leases that missed their heartbeat so a
//! dead worker's range goes back into the pool. Shard uploads land in
//! the store's staging area; the upload that completes the last range
//! triggers the deterministic merge ([`merge_fleet_job`]) inside that
//! request, so a job's suites are sealed by the time the final `PUT`
//! returns.
//!
//! All state lives behind one mutex — the fleet control plane is a few
//! dozen operations per second at most; the data plane (shard bodies,
//! suite bytes) never touches it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use transform_store::fleet::{merge_fleet_job, JobSpec, LeaseGrant};
use transform_store::Store;

/// One range's place in the lease lifecycle.
#[derive(Clone, Debug)]
enum RangeState {
    /// Not yet leased (or reclaimed from an expired lease).
    Pending,
    /// Out with a worker until `expires` (heartbeats push it forward).
    Leased {
        /// The lease id heartbeats echo.
        lease: u64,
        /// When the lease lapses without a heartbeat.
        expires: Instant,
    },
    /// A validated shard result is staged for this range.
    Done,
}

/// One fleet job's full coordinator-side state.
struct JobState {
    spec: JobSpec,
    /// When the job was created — the sealed suites' wall-clock.
    created: Instant,
    /// Parallel to `spec.ranges`.
    ranges: Vec<RangeState>,
    /// A cut job stops leasing and will never seal.
    cut: bool,
    /// Every range staged and the suites sealed.
    sealed: bool,
    /// A failed merge, surfaced through the status document.
    seal_error: Option<String>,
}

/// A job's progress counters, as served by `GET /v1/jobs/<id>`.
#[derive(Clone, Debug)]
pub struct FleetJobStatus {
    /// Ranges in the job's plan.
    pub ranges: usize,
    /// Ranges with a staged shard result.
    pub staged: usize,
    /// Ranges currently out on a live (unexpired) lease.
    pub leased: usize,
    /// Every range staged and the suites sealed.
    pub complete: bool,
    /// The job was cut and will never seal.
    pub cut: bool,
    /// The merge failed (a staged shard failed validation, or disk
    /// trouble while sealing).
    pub error: Option<String>,
}

impl FleetJobStatus {
    /// The JSON document `GET /v1/jobs/<id>` serves. Flat `"name":value`
    /// pairs — the client scans for them without a JSON parser.
    pub fn to_json(&self, job: u64) -> String {
        let mut out = format!(
            "{{\"job\":\"{job:016x}\",\"ranges\":{},\"staged\":{},\"leased\":{},\"complete\":{},\"cut\":{}",
            self.ranges, self.staged, self.leased, self.complete, self.cut
        );
        if let Some(error) = &self.error {
            out.push_str(&format!(
                ",\"error\":\"{}\"",
                error.replace('\\', "\\\\").replace('"', "\\\"")
            ));
        }
        out.push_str("}\n");
        out
    }
}

/// What [`FleetState::shard_staged`] did with a completed range.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StagedOutcome {
    /// The range is recorded; other ranges are still outstanding.
    Recorded,
    /// This was the last range: the job's suites merged and sealed.
    Sealed,
    /// This was the last range but the merge failed (the error is in
    /// the job's status document).
    SealFailed,
    /// The job is unknown to this coordinator.
    UnknownJob,
    /// The range is not part of the job's plan.
    UnknownRange,
}

/// The coordinator's lease and job table.
#[derive(Default)]
pub struct FleetState {
    jobs: Mutex<HashMap<u64, JobState>>,
    next_lease: AtomicU64,
}

impl FleetState {
    /// An empty fleet.
    pub fn new() -> FleetState {
        FleetState {
            jobs: Mutex::new(HashMap::new()),
            // Lease ids start at 1 so 0 never names a live lease.
            next_lease: AtomicU64::new(1),
        }
    }

    /// Registers a job (idempotent: re-posting a spec re-joins the
    /// existing job). Returns `(job id, newly created)`.
    pub fn create_job(&self, spec: JobSpec) -> (u64, bool) {
        let job = spec.id();
        let mut jobs = self.jobs.lock().expect("fleet lock is never poisoned");
        let new = !jobs.contains_key(&job);
        if new {
            let ranges = vec![RangeState::Pending; spec.ranges.len()];
            jobs.insert(
                job,
                JobState {
                    spec,
                    created: Instant::now(),
                    ranges,
                    cut: false,
                    sealed: false,
                    seal_error: None,
                },
            );
        }
        (job, new)
    }

    /// Hands out one partition range, reclaiming expired leases first.
    /// Returns the grant (or `None` when no work is pending) and how
    /// many expired leases were reclaimed on the way — the
    /// `leases_expired` metric's increment.
    pub fn lease(&self) -> (Option<LeaseGrant>, u64) {
        let now = Instant::now();
        let mut jobs = self.jobs.lock().expect("fleet lock is never poisoned");
        let mut expired = 0u64;
        // Deterministic handout order: jobs by id, ranges by ordinal.
        let mut ids: Vec<u64> = jobs.keys().copied().collect();
        ids.sort_unstable();
        let mut grant = None;
        for id in ids {
            let job = jobs.get_mut(&id).expect("id came from the map");
            for state in &mut job.ranges {
                if let RangeState::Leased { expires, .. } = state {
                    if *expires <= now {
                        *state = RangeState::Pending;
                        expired += 1;
                    }
                }
            }
            if grant.is_some() || job.cut || job.sealed || job.seal_error.is_some() {
                continue;
            }
            for (ordinal, state) in job.ranges.iter_mut().enumerate() {
                if matches!(state, RangeState::Pending) {
                    let lease = self.next_lease.fetch_add(1, Ordering::Relaxed);
                    let (lo, hi) = job.spec.ranges[ordinal];
                    *state = RangeState::Leased {
                        lease,
                        expires: now + Duration::from_millis(job.spec.lease_ttl_ms),
                    };
                    grant = Some(LeaseGrant {
                        lease,
                        job: id,
                        lo,
                        hi,
                        ttl_ms: job.spec.lease_ttl_ms,
                        spec: job.spec.clone(),
                    });
                    break;
                }
            }
        }
        (grant, expired)
    }

    /// Renews a lease. `false` means the coordinator no longer honors
    /// it: unknown id, already reclaimed and reassigned, the range
    /// completed, or the job was cut — the worker should drop the work.
    pub fn heartbeat(&self, lease: u64) -> bool {
        let now = Instant::now();
        let mut jobs = self.jobs.lock().expect("fleet lock is never poisoned");
        for job in jobs.values_mut() {
            if job.cut {
                continue;
            }
            for state in &mut job.ranges {
                if let RangeState::Leased {
                    lease: held,
                    expires,
                } = state
                {
                    if *held == lease {
                        // An expired-but-unreclaimed lease is safely
                        // renewable — nobody else was granted the range.
                        *expires = now + Duration::from_millis(job.spec.lease_ttl_ms);
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Cuts a job: stops leasing its ranges; it will never seal.
    /// Returns whether the job was known.
    pub fn cut(&self, job: u64) -> bool {
        let mut jobs = self.jobs.lock().expect("fleet lock is never poisoned");
        match jobs.get_mut(&job) {
            Some(state) => {
                state.cut = true;
                true
            }
            None => false,
        }
    }

    /// The job's progress counters, or `None` for an unknown job.
    pub fn status(&self, job: u64) -> Option<FleetJobStatus> {
        let now = Instant::now();
        let jobs = self.jobs.lock().expect("fleet lock is never poisoned");
        let state = jobs.get(&job)?;
        let staged = state
            .ranges
            .iter()
            .filter(|r| matches!(r, RangeState::Done))
            .count();
        let leased = state
            .ranges
            .iter()
            .filter(|r| matches!(r, RangeState::Leased { expires, .. } if *expires > now))
            .count();
        Some(FleetJobStatus {
            ranges: state.ranges.len(),
            staged,
            leased,
            complete: state.sealed,
            cut: state.cut,
            error: state.seal_error.clone(),
        })
    }

    /// Records that a shard result for `(lo, hi)` is staged in `store`,
    /// and — when it was the job's last outstanding range — runs the
    /// deterministic merge and seals the suites before returning.
    ///
    /// Idempotent: re-recording a staged range (duplicate uploads,
    /// uploads racing a lease expiry) changes nothing. A cut job
    /// records ranges but never seals.
    pub fn shard_staged(&self, store: &Store, job: u64, lo: u32, hi: u32) -> StagedOutcome {
        let mut jobs = self.jobs.lock().expect("fleet lock is never poisoned");
        let Some(state) = jobs.get_mut(&job) else {
            return StagedOutcome::UnknownJob;
        };
        let Some(ordinal) = state.spec.ranges.iter().position(|&r| r == (lo, hi)) else {
            return StagedOutcome::UnknownRange;
        };
        state.ranges[ordinal] = RangeState::Done;
        if state.sealed
            || state.cut
            || state.seal_error.is_some()
            || !state.ranges.iter().all(|r| matches!(r, RangeState::Done))
        {
            return StagedOutcome::Recorded;
        }
        // Last range in: merge-to-seal inside this request, holding the
        // fleet lock — sealing is the one moment the job's state must
        // not move under us, and the control plane can afford the wait.
        match merge_fleet_job(store, &state.spec, state.created.elapsed()) {
            Ok(_) => {
                state.sealed = true;
                StagedOutcome::Sealed
            }
            Err(e) => {
                state.seal_error = Some(e.to_string());
                StagedOutcome::SealFailed
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transform_store::{Fingerprint, KeyOptions};

    fn spec(ttl_ms: u64) -> JobSpec {
        JobSpec {
            mtm_name: "demo".to_string(),
            model: "mtm demo { axiom a: acyclic(po) }".to_string(),
            axioms: vec![("a".to_string(), Fingerprint(7))],
            key: KeyOptions {
                bound: 4,
                max_threads: None,
                allow_fences: false,
                allow_rmw: false,
                allow_identity_remap: false,
                symmetry_reduction: true,
                backend: "explicit".to_string(),
            },
            plan_jobs: 2,
            lease_ttl_ms: ttl_ms,
            ranges: vec![(0, 2), (2, 5)],
        }
    }

    #[test]
    fn jobs_create_idempotently_and_lease_in_order() {
        let fleet = FleetState::new();
        let (job, new) = fleet.create_job(spec(10_000));
        assert!(new);
        let (again, new) = fleet.create_job(spec(10_000));
        assert_eq!(job, again);
        assert!(!new);

        let (first, expired) = fleet.lease();
        assert_eq!(expired, 0);
        let first = first.expect("work is pending");
        assert_eq!((first.lo, first.hi), (0, 2));
        assert_eq!(first.job, job);
        let (second, _) = fleet.lease();
        assert_eq!(second.map(|g| (g.lo, g.hi)), Some((2, 5)));
        let (none, _) = fleet.lease();
        assert!(none.is_none(), "both ranges are out");
    }

    #[test]
    fn expired_leases_are_reclaimed_and_reassigned() {
        let fleet = FleetState::new();
        fleet.create_job(spec(0)); // instantly expiring leases
        let (first, _) = fleet.lease();
        let first = first.expect("work is pending");
        // The zero-TTL lease is already expired: the next call reclaims
        // it (and its sibling grant below) and hands the range out anew.
        let (second, expired) = fleet.lease();
        let second = second.expect("reclaimed work is pending");
        assert!(expired >= 1, "the dead lease was reclaimed");
        assert_eq!((second.lo, second.hi), (first.lo, first.hi));
        assert_ne!(second.lease, first.lease, "a fresh lease id");
        assert!(
            !fleet.heartbeat(first.lease),
            "the dead lease is no longer honored"
        );
    }

    #[test]
    fn heartbeats_keep_a_lease_alive() {
        let fleet = FleetState::new();
        fleet.create_job(spec(60_000));
        let (grant, _) = fleet.lease();
        let grant = grant.expect("work is pending");
        assert!(fleet.heartbeat(grant.lease));
        assert!(!fleet.heartbeat(grant.lease + 999), "unknown lease");
    }

    #[test]
    fn cut_jobs_stop_leasing_and_report_cut() {
        let fleet = FleetState::new();
        let (job, _) = fleet.create_job(spec(10_000));
        assert!(fleet.cut(job));
        let (grant, _) = fleet.lease();
        assert!(grant.is_none(), "cut jobs lease nothing");
        let status = fleet.status(job).expect("job is known");
        assert!(status.cut);
        assert!(!fleet.cut(job ^ 1), "unknown job");
    }

    #[test]
    fn status_documents_render_scannable_json() {
        let status = FleetJobStatus {
            ranges: 4,
            staged: 2,
            leased: 1,
            complete: false,
            cut: false,
            error: Some("disk \"full\"".to_string()),
        };
        let json = status.to_json(0xabcd);
        assert!(json.contains("\"job\":\"000000000000abcd\""));
        assert!(json.contains("\"ranges\":4"));
        assert!(json.contains("\"staged\":2"));
        assert!(json.contains("\"leased\":1"));
        assert!(json.contains("\"complete\":false"));
        assert!(json.contains("\"error\":\"disk \\\"full\\\"\""));
    }
}
