//! Regenerates **Table III**: detailed comparison of RNN designs on FPGAs
//! (ESE, C-LSTM, E-RNN FFT8/FFT16, LSTM and GRU, both platforms).
//!
//! Hardware numbers come from the resource/cycle/power models in
//! `ernn-fpga`. This bin trains nothing: the PER-degradation column
//! carries the paper's published values for the baselines we cannot
//! train (ESE, C-LSTM, on TIMIT) and `--` for E-RNN, whose measured
//! degradations are the 64-64 8-8 and 16-16 rows of `table1` (LSTM) and
//! `table2` (GRU). `--json PATH` writes one row per design point and the
//! headline ratios.

use ernn_bench::json::{array, JsonObject};
use ernn_bench::sweep::SweepArgs;
use ernn_fpga::baseline::{clstm_report, EseModel};
use ernn_fpga::power::{board_power, energy_efficiency};
use ernn_fpga::{AccelReport, Accelerator, RnnSpec, ADM_PCIE_7V3, XCKU060};
use ernn_model::CellType;

struct Row {
    report: AccelReport,
    power_w: f64,
    /// The paper's published PER degradation (pp); `None` for E-RNN.
    paper_per_degradation: Option<f64>,
}

fn main() {
    let args = SweepArgs::from_env();
    let mut rows: Vec<Row> = Vec::new();

    // ESE (KU060) — published utilization/power, modelled latency/FPS.
    let ese = EseModel::table_iii();
    let (dsp, bram, lut, ff) = EseModel::published_utilization();
    rows.push(Row {
        report: AccelReport {
            name: "ESE (sparse LSTM)".into(),
            platform: XCKU060.name,
            params_millions: ese.nnz() as f64 / 1e6,
            compression_ratio: ese.effective_compression(),
            quant_bits: 12,
            num_pes: ese.mac_channels,
            stages: ernn_fpga::StageCycles {
                stage1: ese.cycles_per_frame(),
                stage2: 1,
                stage3: 1,
            },
            latency_us: ese.latency_us(),
            fps: ese.fps(),
            dsp_used: 0,
            dsp_pct: dsp,
            bram_used: 0,
            bram_pct: bram,
            lut_used: 0,
            lut_pct: lut,
            ff_used: 0,
            ff_pct: ff,
        },
        power_w: EseModel::published_power_w(),
        paper_per_degradation: Some(0.30),
    });

    // C-LSTM FFT8 and FFT16 (7V3).
    for block in [8usize, 16] {
        let r = clstm_report(block, ADM_PCIE_7V3);
        rows.push(Row {
            power_w: board_power(&r, &ADM_PCIE_7V3, false),
            report: r,
            paper_per_degradation: Some(if block == 8 { 0.32 } else { 0.41 }),
        });
    }

    // E-RNN LSTM and GRU, FFT8/FFT16, both platforms.
    for (cell, label) in [(CellType::Lstm, "LSTM"), (CellType::Gru, "GRU")] {
        for block in [8usize, 16] {
            for dev in [XCKU060, ADM_PCIE_7V3] {
                let spec = match cell {
                    CellType::Lstm => RnnSpec::lstm_1024(block, 12),
                    CellType::Gru => RnnSpec::gru_1024(block, 12),
                };
                let r = Accelerator::new(spec, dev).report(format!("E-RNN FFT{block} {label}"));
                rows.push(Row {
                    power_w: board_power(&r, &dev, false),
                    paper_per_degradation: None,
                    report: r,
                });
            }
        }
    }

    // Render.
    println!("Table III — detailed comparison of RNN designs on FPGAs (modelled)");
    println!(
        "{:<22} {:<14} {:>7} {:>6} {:>5} {:>7} {:>9} {:>11} {:>7} {:>9}  {:>5} {:>5} {:>5} {:>5}",
        "design",
        "platform",
        "MParam",
        "comp",
        "bits",
        "PERdeg",
        "lat(us)",
        "FPS",
        "P(W)",
        "FPS/W",
        "DSP%",
        "BRAM%",
        "LUT%",
        "FF%"
    );
    let fps_per_w = |row: &Row| energy_efficiency(row.report.fps, row.power_w);
    let mut designs = Vec::new();
    for row in &rows {
        let r = &row.report;
        let deg = row
            .paper_per_degradation
            .map(|d| format!("{d:+.2}"))
            .unwrap_or_else(|| "--".into());
        println!(
            "{:<22} {:<14} {:>7.2} {:>5.1}: {:>4}b {:>7} {:>9.1} {:>11.0} {:>7.1} {:>9.0}  {:>5.1} {:>5.1} {:>5.1} {:>5.1}",
            r.name,
            r.platform,
            r.params_millions,
            r.compression_ratio,
            r.quant_bits,
            deg,
            r.latency_us,
            r.fps,
            row.power_w,
            fps_per_w(row),
            r.dsp_pct,
            r.bram_pct,
            r.lut_pct,
            r.ff_pct,
        );
        designs.push(
            JsonObject::new()
                .str("design", &r.name)
                .str("platform", r.platform)
                .int("bits", r.quant_bits.into())
                .num("latency_us", r.latency_us)
                .num("fps", r.fps)
                .num("power_w", row.power_w)
                .num("fps_per_w", fps_per_w(row))
                .num("dsp_pct", r.dsp_pct)
                .num("bram_pct", r.bram_pct)
                .num("lut_pct", r.lut_pct)
                .num("ff_pct", r.ff_pct)
                .num(
                    "paper_per_degradation",
                    row.paper_per_degradation.unwrap_or(f64::NAN),
                )
                .render(),
        );
    }
    println!(
        "PERdeg: published (pp); E-RNN's -- are measured by the 64-64 8-8 / 16-16 rows of table1 (LSTM) and table2 (GRU)"
    );

    // Headline ratios (paper: 37.4x vs ESE, >2x vs C-LSTM, GRU best)
    // over rows 0 (ESE) and 1 (C-LSTM FFT8).
    let (ese_eff, clstm_eff) = (fps_per_w(&rows[0]), fps_per_w(&rows[1]));
    let gru16 = rows
        .iter()
        .filter(|r| r.report.name.contains("GRU") && r.report.name.contains("16"))
        .map(fps_per_w)
        .fold(0.0f64, f64::max);
    println!("\nheadline ratios:");
    println!(
        "  E-RNN GRU FFT16 vs ESE     : {:.1}x (paper: 37.4x)",
        gru16 / ese_eff
    );
    println!(
        "  E-RNN GRU FFT16 vs C-LSTM  : {:.1}x (paper: ~2x)",
        gru16 / clstm_eff
    );
    args.write_bench(
        JsonObject::new()
            .bench_header("table3")
            .raw("designs", array(designs))
            .num("gru16_over_ese_fps_per_w", gru16 / ese_eff)
            .num("gru16_over_clstm8_fps_per_w", gru16 / clstm_eff),
    );
}
