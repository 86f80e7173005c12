//! Regenerates **Table IV**: comparison of the two FPGA platforms;
//! `--json PATH` writes one row per platform (flags:
//! [`ernn_bench::sweep::SweepArgs`]).

use ernn_bench::json::{array, JsonObject};
use ernn_bench::sweep::SweepArgs;
use ernn_fpga::{ADM_PCIE_7V3, XCKU060};

fn main() {
    let args = SweepArgs::from_env();
    println!("Table IV — comparison of two selected FPGA platforms");
    println!(
        "{:<16} {:>6} {:>6} {:>9} {:>9} {:>8} {:>9}",
        "FPGA Platform", "DSP", "BRAM", "LUT", "FF", "Process", "BRAM(MB)"
    );
    let mut rows = Vec::new();
    for dev in [ADM_PCIE_7V3, XCKU060] {
        let bram_mb = dev.bram_bytes() as f64 / (1024.0 * 1024.0);
        println!(
            "{:<16} {:>6} {:>6} {:>9} {:>9} {:>7}nm {:>9.2}",
            dev.name, dev.dsp, dev.bram_blocks, dev.lut, dev.ff, dev.process_nm, bram_mb,
        );
        rows.push(
            JsonObject::new()
                .str("platform", dev.name)
                .int("dsp", dev.dsp.into())
                .int("bram_blocks", dev.bram_blocks.into())
                .int("lut", dev.lut.into())
                .int("ff", dev.ff.into())
                .int("process_nm", dev.process_nm.into())
                .num("bram_mb", bram_mb)
                .render(),
        );
    }
    args.write_bench(
        JsonObject::new()
            .bench_header("table4")
            .raw("rows", array(rows)),
    );
}
