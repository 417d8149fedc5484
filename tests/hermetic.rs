//! The build is hermetic: every package in the committed `Cargo.lock` is a
//! workspace member or a path dependency, so nothing is fetched from a
//! registry or a git remote. Cargo writes a `source = "…"` line for every
//! package that comes from elsewhere, and for no other. CI builds with
//! `--locked`, so this is the lock file that was built.

#[test]
fn the_lock_file_names_no_registry_or_git_source() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.lock");
    let lock = std::fs::read_to_string(path).expect("Cargo.lock is committed at the root");
    let packages = lock.lines().filter(|l| l.starts_with("name = ")).count();
    assert!(packages > 10, "only {packages} packages: is this the workspace lock?");
    let fetched: Vec<&str> = lock.lines().filter(|l| l.starts_with("source = ")).collect();
    assert!(fetched.is_empty(), "packages from outside the repository: {fetched:?}");
}
