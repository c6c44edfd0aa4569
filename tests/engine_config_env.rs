//! The `CERTUS_THREADS` environment override of [`EngineConfig::from_env`]
//! and of the worker pool's width ([`threads_from_env`]).
//!
//! This lives in its own test binary with a single test: mutating the
//! process environment races `getenv` calls from concurrently running
//! threads (which is why `set_var` became unsafe in edition 2024), so no
//! other test may share this process.

use certus::engine::EngineConfig;
use certus::exec::threads_from_env;

#[test]
fn certus_threads_env_overrides_the_default_config() {
    // (value, expected thread count when it is not a fallback)
    let cases: [(Option<&str>, Option<usize>); 4] =
        [(Some("3"), Some(3)), (Some("0"), None), (Some("not-a-number"), None), (None, None)];
    let fallback = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    for (value, expected) in cases {
        match value {
            Some(v) => std::env::set_var("CERTUS_THREADS", v),
            None => std::env::remove_var("CERTUS_THREADS"),
        }
        let threads = EngineConfig::from_env().threads;
        assert_eq!(threads, expected.unwrap_or(fallback), "CERTUS_THREADS={value:?}");
        // The pool is sized by the same reader, so it never disagrees with
        // the width the engine plans for.
        assert_eq!(threads_from_env(), threads, "CERTUS_THREADS={value:?}");
    }
}
