//! `benchmark-calibrate` — the fixed process the harness launches beside
//! every launch of `bench-tables` (see `Calibration` in `lib.rs`). It
//! starts and exits: its launch-to-exit time is what the host charges at
//! that moment for a fresh process, its address space and its first
//! instructions. It uses nothing from the repository's crates, so no
//! change to the program under test changes it.

fn main() {}
