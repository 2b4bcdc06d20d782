//! Property tests for the [`ExperimentSpec`] string form — the grammar
//! of `sweep --exp` and `bench --exp`. The canonical string form must
//! round-trip through parse for every generated spec, and malformed
//! specs must fail with messages that name the field and quote the
//! offending token.

use proptest::prelude::*;

use exp_harness::experiment::{BenchSel, ConfigOverrides, ExperimentSpec};
use samie_lsq::{DesignSpec, SamieConfig};
use spec_traces::all_benchmarks;

/// A few valid designs across every family (the full per-family
/// geometry fuzz lives in `crates/core/tests/design_spec.rs` — here the
/// designs are payload, the spec grammar is the subject).
fn design_strategy() -> impl Strategy<Value = DesignSpec> {
    (0u32..6, 1usize..512, 0u32..4).prop_map(|(kind, entries, p)| match kind {
        0 => DesignSpec::Conventional { entries },
        1 => DesignSpec::filtered_paper(),
        2 => DesignSpec::samie_paper(),
        3 => DesignSpec::Samie(SamieConfig {
            banks: 1 << (p + 2),
            ..SamieConfig::paper()
        }),
        4 => DesignSpec::Unbounded,
        _ => DesignSpec::Oracle,
    })
}

/// Catalog names (always canonical) plus syntactic replay paths.
fn bench_strategy() -> impl Strategy<Value = BenchSel> {
    (0u32..5, 0usize..1000, 0u64..1000).prop_map(|(kind, i, n)| {
        if kind < 4 {
            BenchSel::Name(
                all_benchmarks()[i % all_benchmarks().len()]
                    .name
                    .to_string(),
            )
        } else {
            BenchSel::Replay(format!("traces/t{n}.strc"))
        }
    })
}

/// Sparse cfg overrides over the full key set. Values start at 1 —
/// grammar round-trips don't require a *runnable* configuration, only
/// parseable one, so any positive value is fair game.
fn cfg_strategy() -> impl Strategy<Value = ConfigOverrides> {
    const KEYS: [&str; 12] = [
        "fw", "dw", "iwi", "iwf", "cw", "fq", "rob", "iqi", "iqf", "mr", "ports", "wd",
    ];
    prop::collection::vec((0usize..KEYS.len(), 1u64..100_000), 0..4).prop_map(move |pairs| {
        let mut cfg = ConfigOverrides::none();
        for (key, value) in pairs {
            cfg.set(KEYS[key], value).expect("known key in range");
        }
        cfg
    })
}

fn spec_strategy() -> impl Strategy<Value = ExperimentSpec> {
    (
        prop::collection::vec(design_strategy(), 1..4),
        prop::collection::vec(bench_strategy(), 1..4),
        prop::collection::vec(any::<u64>(), 1..4),
        1u64..1_000_000_000,
        0u64..1_000_000_000,
        cfg_strategy(),
    )
        .prop_map(
            |(designs, benches, seeds, instrs, warmup, cfg)| ExperimentSpec {
                designs,
                benches,
                seeds,
                instrs,
                warmup,
                cfg,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn display_parse_roundtrip(spec in spec_strategy()) {
        let text = spec.to_string();
        let parsed: ExperimentSpec = text.parse().unwrap_or_else(|e| {
            panic!("canonical form `{text}` must parse: {e}")
        });
        prop_assert_eq!(&parsed, &spec, "parse(display(spec)) == spec");
        // And the string form itself is a fixed point.
        prop_assert_eq!(parsed.to_string(), text);
    }

    #[test]
    fn field_order_is_immaterial(spec in spec_strategy()) {
        // Re-parse the canonical fields in reverse order: same value.
        let text = spec.to_string();
        let mut fields: Vec<&str> = Vec::new();
        for tok in text.split_whitespace() {
            fields.insert(0, tok);
        }
        let shuffled = fields.join(" ");
        let parsed: ExperimentSpec = shuffled.parse().unwrap_or_else(|e| {
            panic!("`{shuffled}` must parse: {e}")
        });
        prop_assert_eq!(parsed, spec);
    }
}

#[test]
fn malformed_specs_name_the_field() {
    for (bad, needle) in [
        ("bench=gzip", "missing required field `design="),
        ("design=conv:64", "missing required field `bench="),
        ("design=conv:64 bench=gziip", "did you mean `gzip`"),
        ("design=warp bench=gzip", "unknown design kind"),
        (
            "design= bench=gzip",
            "design= needs at least one design spec",
        ),
        (
            "design=conv:64 bench=",
            "bench= needs at least one workload",
        ),
        ("design=conv:64 bench=@", "needs a trace path"),
        (
            "design=conv:64 bench=gzip seed=",
            "seed= needs at least one seed",
        ),
        (
            "design=conv:64 bench=gzip seed=abc",
            "seed: expected a number",
        ),
        (
            "design=conv:64 bench=gzip instrs=0",
            "instrs must be positive",
        ),
        (
            "design=conv:64 bench=gzip warmup=x",
            "warmup: expected a number",
        ),
        (
            "design=conv:64 design=samie bench=gzip",
            "duplicate field `design`",
        ),
        ("design=conv:64 bench=gzip frobs=3", "unknown field `frobs`"),
        (
            "design=conv:64 bench=gzip quick",
            "expected key=value fields",
        ),
        ("design=conv:64 bench=gzip cfg=rob", "expected key:value"),
        ("design=conv:64 bench=gzip cfg=zz:4", "unknown key `zz`"),
        (
            "design=conv:64 bench=gzip cfg=rob:1,rob:2",
            "duplicate key `rob`",
        ),
        ("design=conv:64 bench=gzip cfg=rob:zz", "needs a number"),
        (
            "design=conv:64 bench=gzip cfg=ports:5000000000",
            "exceeds the field's range",
        ),
        (
            "prio=high design=conv:64 bench=gzip",
            "unknown field `prio`",
        ),
    ] {
        let err = bad.parse::<ExperimentSpec>().expect_err(bad).to_string();
        assert!(
            err.contains(needle),
            "`{bad}` should fail mentioning `{needle}`, got `{err}`"
        );
        assert!(
            !err.contains('\n'),
            "`{bad}`: errors must fit one diagnostic line"
        );
    }
}

#[test]
fn canonical_forms_are_stable() {
    // The string form is a compatibility surface (`--exp` command lines
    // in scripts and CI): pin the canonical renderings.
    for (input, canonical) in [
        (
            "design=conv:128 bench=gzip",
            "design=conv:128 bench=gzip seed=42 instrs=1000000 warmup=200000",
        ),
        (
            "warmup=5 instrs=9 seed=3,1 bench=SWIM,gzip design=samie,conv:64",
            "design=samie:64x2x8:sh8:ab64,conv:64 bench=swim,gzip seed=3,1 instrs=9 warmup=5",
        ),
        (
            "design=oracle bench=gzip cfg=ports:2,rob:128",
            "design=oracle bench=gzip seed=42 instrs=1000000 warmup=200000 cfg=rob:128,ports:2",
        ),
        (
            "design=unbounded bench=@traces/x.strc seed=7",
            "design=unbounded bench=@traces/x.strc seed=7 instrs=1000000 warmup=200000",
        ),
    ] {
        let spec: ExperimentSpec = input.parse().unwrap();
        assert_eq!(spec.to_string(), canonical, "for input `{input}`");
    }
}
