//! The disk backend removes its shard directory even when the op panics.
//!
//! The check scans the temp dir for this process's
//! `xp-disk-backend-<pid>-*` directories, so it has a test binary of its
//! own: no other test here can have such a directory open meanwhile.

use mis_experiments::{run_with_backend, Backend, BackendOp};
use mis_graph::GraphView;

#[test]
fn panicking_disk_op_leaves_no_shard_directory() {
    /// Panics while the disk backend's shard directory exists.
    struct Panics;

    impl BackendOp for Panics {
        type Out = ();
        fn run<G: GraphView + ?Sized>(self, _g: &G) {
            panic!("deliberate panic inside the disk backend");
        }
    }

    let g = mis_graph::generators::cycle(32);
    let caught = std::panic::catch_unwind(|| run_with_backend(&g, Backend::Disk, Panics));
    assert!(caught.is_err());

    let prefix = format!("xp-disk-backend-{}-", std::process::id());
    let leftovers: Vec<String> = std::fs::read_dir(std::env::temp_dir())
        .expect("read the temp dir")
        .filter_map(Result::ok)
        .map(|entry| entry.file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with(&prefix))
        .collect();
    assert!(leftovers.is_empty(), "leaked {leftovers:?}");
}
