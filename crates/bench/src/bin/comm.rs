//! Fan-in communication study over the Table-I proxies: for each matrix,
//! predict the message/byte traffic of fan-out vs fan-in distribution at
//! cluster widths 1/2/4/8 and record it as JSON.
//!
//! ```text
//! cargo run -p dagfact-bench --bin comm --release
//! ```
//!
//! Output: a human-readable table on stdout plus `results/comm.json`.

use dagfact_bench::{proxies, write_results, Json};
use dagfact_core::{fan_in_study, CommStats, FanInStudy};

const WIDTHS: &[usize] = &[1, 2, 4, 8];

fn stats_json(s: &CommStats) -> Json {
    Json::obj()
        .field("messages", s.messages)
        .field("bytes", s.bytes)
        .field(
            "sent_per_node",
            Json::Arr(s.sent_per_node.iter().map(|&b| Json::Num(b)).collect()),
        )
        .field(
            "buffer_bytes_per_node",
            Json::Arr(
                s.buffer_bytes_per_node
                    .iter()
                    .map(|&b| Json::Num(b))
                    .collect(),
            ),
        )
}

/// One width's record: the mapping's work split plus fan-out vs fan-in
/// traffic.
fn width_json(nnodes: usize, study: &FanInStudy) -> Json {
    Json::obj()
        .field("nnodes", nnodes)
        .field(
            "work_per_node",
            Json::Arr(study.mapping.work.iter().map(|&w| Json::Num(w)).collect()),
        )
        .field("fan_out", stats_json(&study.fan_out))
        .field("fan_in", stats_json(&study.fan_in))
}

fn main() {
    println!("communication study: {} proxies x widths {WIDTHS:?}", proxies().len());
    println!(
        "{:<12} {:>6} {:>7} | {:>9} {:>11} | {:>9} {:>11} | {:>6}",
        "Matrix", "Method", "panels", "out msgs", "out MB", "in msgs", "in MB", "ratio"
    );
    let mut records = Vec::new();
    for m in proxies() {
        let analysis = m.analyze();
        let mut widths = Vec::new();
        for &nnodes in WIDTHS {
            let study = fan_in_study(&analysis, m.is_complex(), nnodes);
            let ratio = study.fan_in.bytes / study.fan_out.bytes.max(f64::MIN_POSITIVE);
            println!(
                "{:<12} {:>6} {:>7} | {:>9} {:>11.1} | {:>9} {:>11.1} | {:>6.3}",
                format!("{}x{}", m.name, nnodes),
                analysis.facto.label(),
                analysis.symbol.ncblk(),
                study.fan_out.messages,
                study.fan_out.bytes / 1e6,
                study.fan_in.messages,
                study.fan_in.bytes / 1e6,
                ratio,
            );
            widths.push(width_json(nnodes, &study));
        }
        records.push(
            Json::obj()
                .field("matrix", m.name)
                .field("facto", analysis.facto.label())
                .field("panels", analysis.symbol.ncblk())
                .field("widths", Json::Arr(widths)),
        );
    }
    let doc = Json::obj().field("records", records);
    match write_results("comm", &doc) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("comm: cannot write results: {e}");
            std::process::exit(1);
        }
    }
}
