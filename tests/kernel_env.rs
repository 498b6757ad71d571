//! The masked-sum kernel path is picked by the CPU and the build alone: no
//! environment variable can move a run off the best available path (and so
//! change the last bits of a real-valued statistic).
//!
//! This binary holds one test, so nothing in the process has dispatched a
//! kernel before the variable is set.

use h_divexplorer::stats::{active_kernel, available_kernels};

#[test]
fn environment_cannot_force_a_kernel_path() {
    // `HDX_FORCE_SCALAR` once selected a single-accumulator scalar path.
    std::env::set_var("HDX_FORCE_SCALAR", "1");
    assert_eq!(active_kernel(), available_kernels()[0]);
}
