//! The `nice-dist` worker process: speaks `nice-dist-v3` over
//! stdin/stdout and expands one shard of the fingerprint space per job.
//! Spawned by the coordinator's worker pool — not meant to be run by hand.

fn main() -> std::io::Result<()> {
    nice_dist::worker_main()
}
