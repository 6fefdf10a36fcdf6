//! Parallel sweep execution must be purely a wall-clock optimisation: the
//! emitted CSV rows have to be byte-identical to a forced single-thread run,
//! at any worker count, on every code path the `figures` binary exercises
//! through `par_map`. Each sweep takes its width as an argument.

use bench::csv::rows;
use bench::scenarios;

#[test]
fn distribution_rows_identical_serial_vs_parallel() {
    let ranks = [24usize, 48];
    let serial = rows(&scenarios::wacomm_distribution(1, &ranks));
    let parallel = rows(&scenarios::wacomm_distribution(4, &ranks));
    assert_eq!(
        serial.join("\n"),
        parallel.join("\n"),
        "wacomm distribution CSV must not depend on worker count"
    );
}

#[test]
fn overhead_rows_identical_serial_vs_parallel() {
    let ranks = [1usize, 4, 16];
    let serial = rows(&scenarios::hacc_overheads(1, &ranks, 20_000));
    let parallel = rows(&scenarios::hacc_overheads(3, &ranks, 20_000));
    assert_eq!(
        serial.join("\n"),
        parallel.join("\n"),
        "hacc overhead CSV must not depend on worker count"
    );
}

#[test]
fn hacc_distribution_rows_identical_serial_vs_parallel() {
    let ranks = [1usize, 4];
    let serial = rows(&scenarios::hacc_distribution(1, &ranks, 20_000));
    let parallel = rows(&scenarios::hacc_distribution(8, &ranks, 20_000));
    assert_eq!(
        serial.join("\n"),
        parallel.join("\n"),
        "hacc distribution CSV must not depend on worker count"
    );
}
