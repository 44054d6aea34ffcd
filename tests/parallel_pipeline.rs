//! Parallel-vs-serial equivalence: the measurement pipeline must produce
//! byte-identical results for any worker count, so the regenerated
//! figures never depend on the machine running them.

use cce_bench::{figure_rows_with_workers, render_table};
use cce_core::codec::compress_parallel;
use cce_core::isa::Isa;
use cce_core::workload::spec95_suite;
use cce_core::{Algorithm, CodecHandle};

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// Every benchmark's ratios, on both ISAs, match the serial run row for
/// row.
#[test]
fn suite_measurements_are_identical_across_worker_counts() {
    let algorithms = [Algorithm::ByteHuffman];
    for isa in [Isa::Mips, Isa::X86] {
        let serial = figure_rows_with_workers(isa, &algorithms, 0.02, 32, 1).unwrap();
        assert_eq!(serial.len(), 18, "{isa}: every suite benchmark");
        for workers in WORKER_COUNTS {
            let rows = figure_rows_with_workers(isa, &algorithms, 0.02, 32, workers).unwrap();
            assert_eq!(rows, serial, "{isa} with {workers} workers");
        }
    }
}

/// The rendered figure table, over every block codec, is byte-identical
/// for any worker count on both ISAs.
#[test]
fn figure_tables_are_byte_identical_across_worker_counts() {
    let algorithms = [Algorithm::ByteHuffman, Algorithm::Samc, Algorithm::Sadc];
    for isa in [Isa::Mips, Isa::X86] {
        let rows = figure_rows_with_workers(isa, &algorithms, 0.02, 32, 1).unwrap();
        let table = render_table("figure", &algorithms, &rows);
        for workers in WORKER_COUNTS {
            let rows = figure_rows_with_workers(isa, &algorithms, 0.02, 32, workers).unwrap();
            assert_eq!(
                render_table("figure", &algorithms, &rows),
                table,
                "{isa}, {workers} workers"
            );
        }
    }
}

#[test]
fn block_fanout_images_are_byte_identical() {
    let text =
        spec95_suite(Isa::Mips, 0.05).into_iter().find(|p| p.name == "go").expect("in suite").text;
    for algorithm in [Algorithm::ByteHuffman, Algorithm::Samc, Algorithm::Sadc] {
        let handle = algorithm.build(Isa::Mips, 32).train(&text).expect("trainable");
        let CodecHandle::Block(codec) = handle else {
            panic!("{algorithm} should be a block codec")
        };
        let serial = compress_parallel(codec.as_ref(), &text, 1).unwrap();
        for workers in WORKER_COUNTS {
            let parallel = compress_parallel(codec.as_ref(), &text, workers).unwrap();
            assert_eq!(parallel, serial, "{algorithm} with {workers} workers");
        }
    }
}
