//! The benchmark's own checks: tracing is transparent, and the
//! correctness check trips on a wrong digest. Run with
//! `cargo test --release --manifest-path lsqbench/Cargo.toml` (debug
//! builds simulate ~20x slower).

use crate::check::{input_seed, pages_digest, stats_digest, Expected, Tally};
use crate::grid::{points, run_point, run_traced};

/// Wrapped LSQ, wrapped trace and sampling probe leave `SimStats`
/// bit-identical on every point of every workload.
#[test]
fn tracing_is_transparent_on_every_point() {
    for workload in ["paper-grid", "lsq-stress", "book"] {
        let (points, len) = points(workload).expect("known workload");
        let seed = input_seed(0);
        for p in &points {
            let plain = run_point(p, seed, len);
            let traced = run_traced(p, seed, len);
            assert_eq!(plain.stats, traced.stats, "{workload} {}", p.id());
            assert!(
                traced.stepped > 0,
                "{workload} {}: probe saw no cycles",
                p.id()
            );
        }
    }
}

/// The committed digests accept the real statistics and reject a
/// perturbed expectation.
#[test]
fn a_perturbed_digest_fails_the_check() {
    let (points, len) = points("paper-grid").expect("known workload");
    let seed = input_seed(0);
    let p = &points[0];
    let digest = stats_digest(&run_point(p, seed, len).stats);

    let mut expected = Expected::committed("paper-grid");
    let mut tally = Tally::default();
    tally.record(expected.matches(seed, &p.id(), digest));
    assert_eq!(tally.failed, 0, "committed digest matches");

    expected.perturb(seed, &p.id());
    tally.record(expected.matches(seed, &p.id(), digest));
    assert_eq!(
        (tally.attempted, tally.failed),
        (2, 1),
        "perturbed digest trips"
    );

    // A point with no kept digest cannot be verified either.
    assert!(!expected.matches(seed, "conv:128@no-such-workload", digest));
}

/// Every committed expectation file covers every point and input seed.
#[test]
fn expected_digests_cover_every_input() {
    for workload in ["paper-grid", "lsq-stress", "book"] {
        let expected = Expected::committed(workload);
        let (points, _) = points(workload).expect("known workload");
        let rendered = expected.render();
        assert_eq!(
            Expected::parse(&rendered),
            Ok(expected.clone()),
            "round trip"
        );
        for seed in 1..=crate::check::SEED_FAMILY {
            for p in &points {
                let id = p.id();
                assert!(
                    rendered.contains(&format!("\n{seed}\t{id}\t")),
                    "{workload}: no digest for {id} at input seed {seed}"
                );
            }
        }
    }
}

/// The pages digest sees a one-byte change and a renamed page.
#[test]
fn pages_digest_sees_content_and_names() {
    let dir = std::env::temp_dir().join(format!("lsqbench-pages-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    std::fs::write(dir.join("a.md"), "alpha").expect("write");
    std::fs::write(dir.join("b.md"), "beta").expect("write");
    let d0 = pages_digest(&dir).expect("digest");
    std::fs::write(dir.join("b.md"), "betb").expect("write");
    let d1 = pages_digest(&dir).expect("digest");
    std::fs::rename(dir.join("b.md"), dir.join("c.md")).expect("rename");
    let d2 = pages_digest(&dir).expect("digest");
    std::fs::remove_dir_all(&dir).expect("cleanup");
    assert_ne!(d0, d1);
    assert_ne!(d1, d2);
}
