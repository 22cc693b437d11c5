//! Workload inputs. Everything here is a pure function of its arguments:
//! the same seed always yields the same functions in the same order.

use regalloc_ir::interp::mix64;
use regalloc_ir::Function;
use regalloc_machine::TargetId;
use regalloc_workloads::{fuzz_function, Benchmark, GenConfig, Suite};

use crate::Size;

/// Seed and scale of the six seeded paper suites. Fixed, so the quality
/// metrics compare across runs: `--seed` only reorders the batch and
/// draws the outside check's argument vectors. Two percent of each suite
/// is 48 functions; under this seed their models run up to 5,022 rows
/// (six above 2,000), so a pass takes ~3 s on two cores and a run holds
/// several passes. (Seed 1998 draws an 8,479-row model that alone takes
/// 3.5 s, which left three noisy passes per run.)
pub const SUITE_SEED: u64 = 6;
pub const SUITE_SCALE: f64 = 0.02;
/// Seed of the first `portable16` function.
pub const PORTABLE_SEED: u64 = 1998;
/// `portable16` functions per target in the full workloads.
pub const PORTABLE_COUNT: usize = 4;

/// The checked-in C corpus, embedded so the inputs cannot drift with the
/// working directory.
pub const CORPUS: [(&str, &str); 17] = [
    (
        "addr_loop",
        include_str!("../../tests/corpus/c/addr_loop.c"),
    ),
    ("bitcount", include_str!("../../tests/corpus/c/bitcount.c")),
    ("clamp", include_str!("../../tests/corpus/c/clamp.c")),
    ("collatz", include_str!("../../tests/corpus/c/collatz.c")),
    ("counter", include_str!("../../tests/corpus/c/counter.c")),
    ("dot", include_str!("../../tests/corpus/c/dot.c")),
    ("fib", include_str!("../../tests/corpus/c/fib.c")),
    ("fill", include_str!("../../tests/corpus/c/fill.c")),
    ("gcd", include_str!("../../tests/corpus/c/gcd.c")),
    ("hash", include_str!("../../tests/corpus/c/hash.c")),
    ("minmax", include_str!("../../tests/corpus/c/minmax.c")),
    (
        "nested_for",
        include_str!("../../tests/corpus/c/nested_for.c"),
    ),
    ("poly", include_str!("../../tests/corpus/c/poly.c")),
    ("search", include_str!("../../tests/corpus/c/search.c")),
    ("sort2", include_str!("../../tests/corpus/c/sort2.c")),
    ("sum_for", include_str!("../../tests/corpus/c/sum_for.c")),
    ("swap", include_str!("../../tests/corpus/c/swap.c")),
];

/// The corpus programs a workload compiles.
pub fn corpus(size: Size) -> Vec<(&'static str, &'static str)> {
    match size {
        Size::Full => CORPUS.to_vec(),
        Size::Tiny => CORPUS
            .iter()
            .copied()
            .filter(|(name, _)| matches!(*name, "minmax" | "counter"))
            .collect(),
    }
}

/// The seeded `portable16` suite: functions every target accepts.
pub fn portable16(size: Size) -> Vec<Function> {
    // The tiny instance takes one function whose model is small on every
    // target, so its search finishes.
    let indices = match size {
        Size::Full => 0..PORTABLE_COUNT,
        Size::Tiny => 10..11,
    };
    indices
        .map(|i| {
            fuzz_function(
                &format!("p16_{i:02}"),
                PORTABLE_SEED + i as u64,
                &GenConfig::portable16(),
            )
        })
        .collect()
}

/// The six seeded paper suites, concatenated in Table 2 order.
pub fn seeded_suites(size: Size) -> Vec<Function> {
    let mut funcs = Vec::new();
    for b in Benchmark::all() {
        funcs.extend(Suite::generate_scaled(b, SUITE_SEED, SUITE_SCALE).functions);
    }
    if size == Size::Tiny {
        funcs.retain(|f| regalloc_core::build::estimate_constraints(f) <= 120);
        funcs.truncate(6);
    }
    funcs
}

/// Compile every program for `target`, in corpus order.
///
/// # Panics
///
/// Panics if the checked-in corpus no longer compiles — a broken input,
/// not a measurement.
pub fn compile_corpus(programs: &[(&str, &str)], target: TargetId) -> Vec<Function> {
    programs
        .iter()
        .flat_map(|(name, src)| {
            regalloc_cc::compile_for(src, target)
                .unwrap_or_else(|e| panic!("corpus program {name} does not compile: {e}"))
        })
        .collect()
}

/// A seeded permutation of `items` (Fisher–Yates over `mix64`).
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = mix64(seed ^ 0x05ee_d0fb_a7c4);
    for i in (1..items.len()).rev() {
        state = mix64(state);
        items.swap(i, (state % (i as u64 + 1)) as usize);
    }
}
