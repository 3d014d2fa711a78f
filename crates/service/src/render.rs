//! Human-readable rendering of protocol responses.
//!
//! The CLI prints exactly one of two things for every subcommand: the
//! response's single-line JSON ([`crate::protocol::Response::encode`],
//! behind `--json`) or the text produced here. Both derive from the same
//! [`Response`] value, so the human and machine views can never disagree
//! about the numbers — and anything the text shows is, by construction,
//! available to protocol clients.

use crate::protocol::{BackendChoice, EnergyInfo, Response, SweepAxis};

/// Formats an energy breakdown the way the simulator's own display does:
/// total µJ plus the Figure 14 category percentages.
fn energy_text(e: &EnergyInfo) -> String {
    let total = e.total_pj();
    let pct = |part: f64| if total == 0.0 { 0.0 } else { part / total * 100.0 };
    format!(
        "{:.2} uJ (compute {:.0}%, buffers {:.0}%, RF {:.0}%, DRAM {:.0}%)",
        total / 1e6,
        pct(e.compute_pj),
        pct(e.buffer_pj),
        pct(e.rf_pj),
        pct(e.dram_pj)
    )
}

/// Renders a response as the CLI's human-readable output (no trailing
/// newline; the caller `println!`s it).
pub fn render(response: &Response) -> String {
    match response {
        Response::Benchmarks {
            benchmarks,
            architectures,
        } => {
            let mut out = String::from("benchmarks (Table II):\n");
            for b in benchmarks {
                out.push_str(&format!(
                    "  {:<10} {:>7.0} MOps  {:>6.2} MB  {} layers\n",
                    b.name,
                    b.macs as f64 / 1e6,
                    b.weight_bytes as f64 / 1e6,
                    b.layers
                ));
            }
            out.push_str("\narchitectures:\n");
            for a in architectures {
                out.push_str(&format!("  {a}\n"));
            }
            out.trim_end().to_string()
        }
        Response::Report(r) => {
            let quant = r
                .quant
                .as_ref()
                .map(|q| format!(", quant {q}"))
                .unwrap_or_default();
            let mut out = format!(
                "{} (batch {}{}): {:.3} ms/input, {} cycles, {:.1} MACs/cycle, {}\n",
                r.benchmark,
                r.batch,
                quant,
                r.latency_ms_per_input,
                r.cycles,
                r.macs_per_cycle,
                energy_text(&r.energy_per_input)
            );
            for l in &r.layers {
                let mpc = if l.cycles == 0 {
                    0.0
                } else {
                    l.macs as f64 / l.cycles as f64
                };
                out.push_str(&format!(
                    "  {:<12} {:>12} cyc ({}) {:>8.1} MACs/cyc\n",
                    l.name,
                    l.cycles,
                    if l.bandwidth_bound { "mem " } else { "comp" },
                    mpc
                ));
            }
            out.push_str(&format!(
                "dram traffic: {:.2} Mb/input; energy/input: {}",
                r.dram_bits as f64 / r.batch as f64 / 1e6,
                energy_text(&r.energy_per_input)
            ));
            if r.backend == BackendChoice::Event {
                out.push_str(&format!(
                    "\nstalls: {} cycles bandwidth-starved, {} compute-starved, {} fill/drain",
                    r.stalls.bandwidth_starved, r.stalls.compute_starved, r.stalls.fill_drain
                ));
            }
            out
        }
        Response::Compare(r) => {
            let quant = r
                .quant
                .as_ref()
                .map(|q| format!(", quant {q}"))
                .unwrap_or_default();
            let mut out = format!(
                "{} (batch {}{}): BitFusion-45nm {:.3} ms/input, {}",
                r.benchmark,
                r.batch,
                quant,
                r.latency_ms_per_input,
                energy_text(&r.energy_per_input)
            );
            for b in &r.baselines {
                let label = match b.name.as_str() {
                    "eyeriss" => "vs Eyeriss".to_string(),
                    "stripes" => "vs Stripes".to_string(),
                    "tegra-x2" => "vs Tegra X2 (16 nm config)".to_string(),
                    other => format!("vs {other}"),
                };
                match b.energy_ratio {
                    Some(ratio) => out.push_str(&format!(
                        "\n  {label}: {:.2}x faster, {:.2}x less energy",
                        b.speedup, ratio
                    )),
                    None => out.push_str(&format!("\n  {label}: {:.1}x faster", b.speedup)),
                }
            }
            out
        }
        Response::Asm(r) => {
            let blocks: Vec<&str> = r.blocks.iter().map(|b| b.text.as_str()).collect();
            blocks.join("\n")
        }
        Response::Sweep(r) => {
            let mut out = match &r.quant {
                Some(q) => format!("quant {q}\n"),
                None => String::new(),
            };
            out += &match r.axis {
                SweepAxis::Bandwidth => format!(
                    "{} bandwidth sweep (batch 16, {} backend, vs {} b/cyc):",
                    r.benchmark,
                    r.backend.as_str(),
                    r.baseline
                ),
                SweepAxis::Batch => format!(
                    "{} batch sweep (per-input speedup vs batch {}, {} backend):",
                    r.benchmark,
                    r.baseline,
                    r.backend.as_str()
                ),
            };
            for p in &r.points {
                match r.axis {
                    SweepAxis::Bandwidth => out.push_str(&format!(
                        "\n  {:>4} bits/cycle: {:5.2}x",
                        p.value, p.speedup
                    )),
                    SweepAxis::Batch => {
                        out.push_str(&format!("\n  batch {:>3}: {:5.2}x", p.value, p.speedup))
                    }
                }
            }
            out
        }
        Response::Dse(r) => {
            let mut out = format!(
                "design space: {} architectures, {} evaluated points ({} infeasible), {} backend\n",
                r.grid_points,
                r.points,
                r.infeasible,
                r.backend.as_str()
            );
            out.push_str(&format!(
                "compile sharing: {} unique compilations, {} points served from cache\n",
                r.compile_misses, r.compile_hits
            ));
            out.push_str(&format!(
                "layer sharing: {} unique layer evaluations, {} served from the layer cache\n",
                r.layer_misses, r.layer_hits
            ));
            if r.quants.len() > 1 {
                out.push_str(&format!("quantizations: {}\n", r.quants.join(", ")));
            }
            out.push_str(&format!(
                "\nPareto frontier over (cycles, energy, area), {} of {} candidates:\n",
                r.frontier.len(),
                r.grid_points as usize * r.quants.len().max(1)
            ));
            out.push_str(&format!(
                "  {:>4} {:>4} {:>5} {:>5} {:>5} {:>5} {:>10} | {:>14} {:>11} {:>9} {:>8}\n",
                "rows", "cols", "ibuf", "wbuf", "obuf", "bw", "quant", "cycles", "energy(mJ)", "area(mm2)", "bw-stall"
            ));
            for s in &r.frontier {
                let total_stall = s.bandwidth_starved + s.compute_starved;
                let bw_frac = if total_stall == 0 {
                    0.0
                } else {
                    s.bandwidth_starved as f64 / total_stall as f64
                };
                out.push_str(&format!(
                    "  {:>4} {:>4} {:>4}K {:>4}K {:>4}K {:>5} {:>10} | {:>14} {:>11.2} {:>9.2} {:>7.0}%\n",
                    s.arch.rows,
                    s.arch.cols,
                    s.arch.ibuf_kb,
                    s.arch.wbuf_kb,
                    s.arch.obuf_kb,
                    s.arch.bandwidth_bits_per_cycle,
                    s.quant,
                    s.cycles,
                    s.energy_pj / 1e9,
                    s.area_mm2,
                    bw_frac * 100.0
                ));
            }
            if let Some(baseline) = &r.speedup_baseline {
                out.push_str(&format!(
                    "\nquantization speedups vs {baseline} (whole grid):\n"
                ));
                for s in &r.quant_speedups {
                    out.push_str(&format!(
                        "  {:<10} {:<24} {:5.2}x faster, {:5.2}x less energy\n",
                        s.model, s.quant, s.speedup, s.energy_ratio
                    ));
                }
            }
            if !r.infeasible_sample.is_empty() {
                out.push_str(&format!(
                    "\ninfeasible corners (first {} of {}):\n",
                    r.infeasible_sample.len(),
                    r.infeasible
                ));
                for p in &r.infeasible_sample {
                    out.push_str(&format!("  {} @ {}: {}\n", p.model, p.arch, p.error));
                }
            }
            out.trim_end().to_string()
        }
        Response::Quantize(r) => {
            let mut out = format!(
                "{} under {}: {:.0}M MACs, {:.2} MB weights, {:.1}% of MACs at <=4 bits\n",
                r.benchmark,
                r.quant,
                r.total_macs as f64 / 1e6,
                r.weight_bytes as f64 / 1e6,
                r.share_le_4bit * 100.0
            );
            out.push_str(&format!(
                "  {:<12} {:<6} {:>6} {:>7} {:>10}\n",
                "layer", "kind", "input", "weight", "MACs(M)"
            ));
            for l in &r.layers {
                out.push_str(&format!(
                    "  {:<12} {:<6} {:>5}b {:>6}b {:>10.1}\n",
                    l.name,
                    l.kind,
                    l.input_bits,
                    l.weight_bits,
                    l.macs as f64 / 1e6
                ));
            }
            out.trim_end().to_string()
        }
        Response::Stats(r) => {
            let mut out = format!(
                "connections: {} active, {} total\n",
                r.connections_active, r.connections_total
            );
            out.push_str(&format!(
                "requests: {} received, {} ok, {} errors ({} shed)\n",
                r.received, r.ok, r.errors, r.shed
            ));
            out.push_str(&format!(
                "queue: {}/{} waiting, {}/{} in flight\n",
                r.queue_depth, r.queue_capacity, r.in_flight, r.workers
            ));
            for (name, tier) in [
                ("artifact cache", &r.artifact_cache),
                ("layer cache", &r.layer_cache),
            ] {
                let rate = match tier.hits.saturating_add(tier.misses) {
                    0 => "n/a".to_string(),
                    total => format!("{:.1}%", tier.hits as f64 / total as f64 * 100.0),
                };
                out.push_str(&format!(
                    "{name}: {} hits, {} misses ({rate}), {} evictions, {}/{} entries\n",
                    tier.hits, tier.misses, tier.evictions, tier.len, tier.capacity
                ));
            }
            out.push_str(&format!(
                "latency: {} timed, p50 {}us, p90 {}us, p99 {}us, max {}us",
                r.latency.count,
                r.latency.p50_us,
                r.latency.p90_us,
                r.latency.p99_us,
                r.latency.max_us
            ));
            out
        }
        Response::Shutdown => "shutdown: server draining".to_string(),
        Response::Error { message } => format!("error: {message}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Request;
    use crate::session::Session;

    #[test]
    fn every_response_kind_renders_nonempty() {
        let session = Session::new();
        let requests = [
            r#"{"cmd":"list"}"#,
            r#"{"cmd":"report","benchmark":"rnn","batch":4,"backend":"event"}"#,
            r#"{"cmd":"compare","benchmark":"rnn","batch":4}"#,
            r#"{"cmd":"asm","benchmark":"rnn","batch":1}"#,
            r#"{"cmd":"sweep","benchmark":"rnn","axis":"batch"}"#,
            r#"{"cmd":"dse","rows":[16],"cols":[16],"bandwidth":[128],"networks":["rnn"],"workers":1}"#,
        ];
        for text in requests {
            let resp = session.handle(&Request::parse(text).unwrap());
            assert!(
                !matches!(resp, Response::Error { .. }),
                "{text}: {resp:?}"
            );
            assert!(!render(&resp).is_empty(), "{text}");
        }
    }

    #[test]
    fn report_text_shows_stalls_only_for_event_backend() {
        let session = Session::new();
        let analytic = session.handle(
            &Request::parse(r#"{"cmd":"report","benchmark":"rnn","batch":1}"#).unwrap(),
        );
        let event = session.handle(
            &Request::parse(r#"{"cmd":"report","benchmark":"rnn","batch":1,"backend":"event"}"#)
                .unwrap(),
        );
        assert!(!render(&analytic).contains("stalls:"));
        assert!(render(&event).contains("stalls:"));
    }

    #[test]
    fn error_renders_with_prefix() {
        assert_eq!(
            render(&Response::Error {
                message: "boom".into()
            }),
            "error: boom"
        );
    }
}
