//! The `nice-dist` worker process: speaks `nice-dist-v8` over
//! stdin/stdout and runs one check job at a time, whole.
//! Spawned by a coordinator — not meant to be run by hand.

fn main() -> std::io::Result<()> {
    nice_dist::worker_main()
}
