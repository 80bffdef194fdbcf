//! Golden analysis fingerprints: FNV-1a hashes of the permutation and of
//! the block symbolic structure (`cblks`, `blocks`, `col_to_cblk`) that
//! `Analysis::new` produces on a fixed corpus.
//!
//! The ordering, partition and amalgamation code is tuned for speed; this
//! file pins its output bit for bit, so a rewrite that changes any tie-break
//! shows up here as a hash mismatch. The corpus covers the cold-analysis
//! benchmark families at fixed seeds, the random patterns of the workspace
//! property tests, a KKT saddle point, an unsymmetric LU grid, the
//! non-default orderings and amalgamation settings, and (release builds
//! only, via `make check-analysis`) the nine Table-I proxies.
//!
//! A mismatch prints the new hashes; update the table only for a change
//! that is meant to alter the analysis output.

use dagfact_bench::matrices::proxies;
use dagfact_core::{Analysis, SolverOptions};
use dagfact_order::OrderingKind;
use dagfact_sparse::gen::{
    convection_diffusion_3d, grid_laplacian_2d, grid_laplacian_3d, grid_operator_3d, random_spd,
    Stencil,
};
use dagfact_sparse::SparsityPattern;
use dagfact_symbolic::structure::SplitOptions;
use dagfact_symbolic::supernode::AmalgamationOptions;
use dagfact_symbolic::FactoKind;

/// SplitMix64: seeds, relabellings and random patterns.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }

    /// Fisher–Yates permutation of `0..n`.
    fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.range(0, i + 1));
        }
        p
    }
}

fn fnv(mut h: u64, words: impl IntoIterator<Item = usize>) -> u64 {
    for w in words {
        for byte in (w as u64).to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// `(hash of perm, hash of the SymbolMatrix)`.
fn fingerprint(an: &Analysis) -> (u64, u64) {
    let perm = fnv(FNV_OFFSET, an.perm.perm().iter().copied());
    let s = &an.symbol;
    let mut h = fnv(FNV_OFFSET, [s.n, s.cblks.len(), s.blocks.len()]);
    h = fnv(
        h,
        s.cblks
            .iter()
            .flat_map(|c| [c.fcol, c.lcol, c.block_begin, c.block_end, c.stride]),
    );
    h = fnv(
        h,
        s.blocks
            .iter()
            .flat_map(|b| [b.frow, b.lrow, b.facing, b.local_offset]),
    );
    (perm, fnv(h, s.col_to_cblk.iter().copied()))
}

fn relabelled(p: &SparsityPattern, seed: u64) -> SparsityPattern {
    p.permute_symmetric(&Rng(seed).permutation(p.ncols()))
}

/// The workspace property tests' random symmetric pattern with a full
/// diagonal (`tests/proptest_end_to_end.rs`, `sym_pattern`).
fn proptest_pattern(case: u64, max_n: usize) -> SparsityPattern {
    let mut p = Rng(0xE2E_0000 ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let n = p.range(2, max_n);
    let per_col = p.range(1, 5);
    let mut s = p.next_u64() | 1;
    let mut entries = Vec::new();
    for j in 0..n {
        entries.push((j, j));
        for _ in 0..per_col {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let i = (s as usize) % n;
            entries.push((i, j));
            entries.push((j, i));
        }
    }
    SparsityPattern::from_entries(n, n, entries)
}

/// Saddle point `[[K, Bᵀ], [B, 0]]`: `K` a 2D Laplacian on an `nx²` grid,
/// each constraint row coupling a seeded disjoint pair of grid nodes.
fn kkt_pattern(nx: usize, constraints: usize, seed: u64) -> SparsityPattern {
    let k = grid_laplacian_2d(nx, nx);
    let m = k.nrows();
    let n = m + constraints;
    let mut entries: Vec<(usize, usize)> = (0..m)
        .flat_map(|j| k.pattern().col(j).iter().map(move |&i| (i, j)))
        .collect();
    let nodes = Rng(seed).permutation(m);
    for r in 0..constraints {
        let c = m + r;
        for u in [nodes[2 * r], nodes[2 * r + 1]] {
            entries.push((c, u));
            entries.push((u, c));
        }
    }
    SparsityPattern::from_entries(n, n, entries)
}

/// One corpus entry: a name, the input and how it is analysed.
struct Case {
    name: String,
    pattern: SparsityPattern,
    facto: FactoKind,
    options: SolverOptions,
}

fn case(name: impl Into<String>, pattern: SparsityPattern, facto: FactoKind) -> Case {
    Case {
        name: name.into(),
        pattern,
        facto,
        options: SolverOptions::default(),
    }
}

/// The debug-sized corpus.
fn corpus() -> Vec<Case> {
    let mut cases = Vec::new();
    // Cold-analysis benchmark families, each under four seeded relabellings
    // (random graphs are drawn afresh instead).
    for seed in [7u64, 11, 13, 17] {
        cases.push(case(
            format!("grid2d-110/{seed}"),
            relabelled(grid_laplacian_2d(110, 110).pattern(), seed),
            FactoKind::Cholesky,
        ));
        cases.push(case(
            format!("shell-51x51x3/{seed}"),
            relabelled(convection_diffusion_3d(51, 51, 3, 0.3).pattern(), seed),
            FactoKind::Lu,
        ));
        cases.push(case(
            format!("grid3d-18/{seed}"),
            relabelled(grid_laplacian_3d(18, 18, 18).pattern(), seed),
            FactoKind::Cholesky,
        ));
        cases.push(case(
            format!("random_spd-2500/{seed}"),
            random_spd(2500, 2, Rng(seed).next_u64()).pattern().clone(),
            FactoKind::Cholesky,
        ));
    }
    // The property tests' random patterns (analysis_invariants cases).
    for c in 0..24u64 {
        cases.push(case(
            format!("proptest/{}", 1000 + c),
            proptest_pattern(1000 + c, 120),
            FactoKind::Cholesky,
        ));
    }
    cases.push(case(
        "kkt-30x30+200",
        kkt_pattern(30, 200, 5),
        FactoKind::Ldlt,
    ));
    let mhd = grid_operator_3d(
        10,
        10,
        10,
        Stencil::Box,
        |i, j| if j > i { -0.65 } else { -0.35 },
        |_, deg| 0.65 * deg as f64 + 1.0,
    );
    cases.push(case("lu-box-10", mhd.pattern().clone(), FactoKind::Lu));
    // Non-default orderings and analysis settings.
    let grid = relabelled(grid_laplacian_2d(40, 40).pattern(), 3);
    for (label, ordering) in [
        ("md", OrderingKind::MinimumDegree),
        ("rcm", OrderingKind::ReverseCuthillMcKee),
        ("natural", OrderingKind::Natural),
    ] {
        let mut c = case(
            format!("grid2d-40/{label}"),
            grid.clone(),
            FactoKind::Cholesky,
        );
        c.options.ordering = ordering;
        cases.push(c);
    }
    let mut c = case("grid2d-40/zero-fill", grid.clone(), FactoKind::Cholesky);
    c.options.amalgamation = AmalgamationOptions {
        fill_ratio: 0.0,
        min_width: 1,
    };
    cases.push(c);
    let mut c = case(
        "grid3d-12/wide",
        grid_laplacian_3d(12, 12, 12).pattern().clone(),
        FactoKind::Cholesky,
    );
    c.options.amalgamation = AmalgamationOptions {
        fill_ratio: 0.5,
        min_width: 32,
    };
    c.options.split = SplitOptions { max_width: 24 };
    cases.push(c);
    cases
}

/// `(name, perm hash, symbol hash)`.
const GOLDEN: &[(&str, u64, u64)] = &[
    ("grid2d-110/7", 0xadad07d07588ae3d, 0x43a183002ab72795),
    ("shell-51x51x3/7", 0xfa5505c5d8d18524, 0x9bfa65ae183dee6e),
    ("grid3d-18/7", 0x29d3035c34286dbd, 0x77e1e01ca08b4865),
    ("random_spd-2500/7", 0xe0eb6debf7fdcac5, 0x1e03b847453e2450),
    ("grid2d-110/11", 0x8bf6ffd949a6e459, 0xda2d3b07012ab004),
    ("shell-51x51x3/11", 0xa2a837de1e12a1a0, 0x297cff9c6abdf3d0),
    ("grid3d-18/11", 0xafdb869bfdf64151, 0x0de79d033c120535),
    ("random_spd-2500/11", 0x47a61ad163ef8a01, 0x3384a8dbe00b3ec0),
    ("grid2d-110/13", 0x3a57582e70a231e1, 0x1958a0d987d2e296),
    ("shell-51x51x3/13", 0xf0ea3c9038ffb6bc, 0xefde65bf4a0767de),
    ("grid3d-18/13", 0x73715cc88ab09fc9, 0xb2b636620404807e),
    ("random_spd-2500/13", 0x5c8261e617c3ce0d, 0x9bd419b3db439342),
    ("grid2d-110/17", 0xd7807857e3cdfaf9, 0x01d487862d9ecdc0),
    ("shell-51x51x3/17", 0x410c28ed68243628, 0x7cd7a856ecc5c0b1),
    ("grid3d-18/17", 0x4246f7537e9a3009, 0x332d0f4e6c63269c),
    ("random_spd-2500/17", 0x670fd2373c4ffc6d, 0x4fe48cd7af111650),
    ("proptest/1000", 0x8ac24969184a6796, 0x8876a76709bf4bd6),
    ("proptest/1001", 0x6f72091541f54f31, 0x1bd56e4d0a486658),
    ("proptest/1002", 0xdc7a79c8f4d35cad, 0x407ac15a5bd60f40),
    ("proptest/1003", 0xf523cd232278428d, 0xcb19f31f63eaffa7),
    ("proptest/1004", 0x41e28019051b5026, 0xa22d9612460d9656),
    ("proptest/1005", 0x5e04212a23d71ed2, 0xe2b75de4a6fd525e),
    ("proptest/1006", 0x20322cbc9de7bec9, 0xcb4b8fb1527be864),
    ("proptest/1007", 0x7ed25a7c323fbfe4, 0x553bcd67d2eb7770),
    ("proptest/1008", 0xd011770a29df2795, 0x5cc4bad2fbbb26ab),
    ("proptest/1009", 0x5f6a9340582a3ee5, 0xefc88a3bceb8acbd),
    ("proptest/1010", 0x2ca5613e16041552, 0xd54878c5a58673e4),
    ("proptest/1011", 0x533cfca54b04aac5, 0xc5dec2e9efa2646a),
    ("proptest/1012", 0xa1fc5f3ef13b88a4, 0x11fcab08bf553ed1),
    ("proptest/1013", 0xd41fab506df51c24, 0x155d809a036cde63),
    ("proptest/1014", 0xa9b59850f9166ef6, 0x54e1453ae001e628),
    ("proptest/1015", 0x896d925913f18eb2, 0x4206e6bcc114c3b3),
    ("proptest/1016", 0xea3b34a37848780d, 0xb7ea57c205e9a9ed),
    ("proptest/1017", 0x5cfe787036e7b41d, 0x049ba664945c98a9),
    ("proptest/1018", 0xa009dce497e07c44, 0xe56e02f748ba2bcd),
    ("proptest/1019", 0x313c812e29a16a85, 0xd0c01d17ac13c2a5),
    ("proptest/1020", 0xeceaa7b0cd5eab71, 0xe1175cc9a36dc65a),
    ("proptest/1021", 0xbf080e334f7a5ed5, 0x9f3f23c937164f26),
    ("proptest/1022", 0xb21f7d502baf18f1, 0xf5d79f1503a282e4),
    ("proptest/1023", 0xf182217541bf9125, 0x6075f4df1694477f),
    ("kkt-30x30+200", 0xcc93a4ce507b0869, 0x6ec1697907735b94),
    ("lu-box-10", 0xc19820eebfc6a221, 0x8aefa57a8386458f),
    ("grid2d-40/md", 0x4980123497f7b919, 0x78005d30841de290),
    ("grid2d-40/rcm", 0xb2e9e59512a43e61, 0x1d7bbf7dc2ad60ff),
    ("grid2d-40/natural", 0x77fa31632a9bded5, 0x84ab08813786b891),
    (
        "grid2d-40/zero-fill",
        0x320160bce4c85879,
        0xb76bec3a7a674699,
    ),
    ("grid3d-12/wide", 0xf5cf130db4fd8a85, 0x6c414b72ddb6b6a1),
];

/// The nine Table-I proxies (release builds only).
const GOLDEN_PROXIES: &[(&str, u64, u64)] = &[
    ("afshell10", 0x0e50e8db91f4ebe1, 0x697aa52a62e88874),
    ("FilterV2", 0x5573941dce8d97d5, 0xd9dd33fc9ca7e3f2),
    ("Flan", 0xe08853669eb4b5f5, 0x9f759bb820848ee9),
    ("audi", 0x641d29b5bc16d8e5, 0x31535d3c85511100),
    ("MHD", 0x3ff08f09c7e35288, 0xb8f485f9523b177e),
    ("Geo1438", 0x2af38dc9998c08e9, 0x2747f2ab8437c1fa),
    ("pmlDF", 0xe08853669eb4b5f5, 0x9f759bb820848ee9),
    ("HOOK", 0x4e9021fa88e12725, 0xe3c871b5122b4e8a),
    ("Serena", 0x58b68ab5b7273928, 0xd0c9b13ae1c7d50e),
];

fn check(cases: impl IntoIterator<Item = Case>, golden: &[(&str, u64, u64)]) {
    let mut got = Vec::new();
    for c in cases {
        let an = Analysis::new(&c.pattern, c.facto, &c.options);
        let (p, s) = fingerprint(&an);
        got.push((c.name, p, s));
    }
    let table: String = got
        .iter()
        .map(|(name, p, s)| format!("    (\"{name}\", {p:#018x}, {s:#018x}),\n"))
        .collect();
    assert_eq!(
        got.len(),
        golden.len(),
        "corpus changed; new table:\n{table}"
    );
    let mut bad = Vec::new();
    for ((name, p, s), &(gname, gp, gs)) in got.iter().zip(golden) {
        assert_eq!(name, gname, "corpus order changed; new table:\n{table}");
        if (*p, *s) != (gp, gs) {
            bad.push(name.as_str());
        }
    }
    assert!(
        bad.is_empty(),
        "analysis output changed on {bad:?}; new table:\n{table}"
    );
}

#[test]
fn analysis_output_matches_golden_fingerprints() {
    check(corpus(), GOLDEN);
}

#[test]
#[ignore = "release-sized: run by `make check-analysis`"]
fn proxy_analysis_matches_golden_fingerprints() {
    check(
        proxies().into_iter().map(|p| Case {
            name: p.name.to_string(),
            pattern: p.pattern(),
            facto: p.facto,
            options: SolverOptions::default(),
        }),
        GOLDEN_PROXIES,
    );
}
