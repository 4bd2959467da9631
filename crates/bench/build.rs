//! Stamps the revision `report` records as `ledger_entry.git_rev`: the
//! short hash of the commit the package is built from, or `unknown`
//! outside a git checkout. Cargo reruns it when HEAD moves.

use std::path::Path;
use std::process::Command;

/// `git <args>` in the package directory: its trimmed output, or
/// `None` when git fails or prints nothing.
fn git(args: &[&str]) -> Option<String> {
    let out = Command::new("git").args(args).output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (out.status.success() && !text.is_empty()).then_some(text)
}

fn main() {
    let rev = git(&["rev-parse", "--short", "HEAD"]).unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=JUNGLE_GIT_REV={rev}");
    println!("cargo:rerun-if-changed=build.rs");
    // HEAD moves when HEAD itself is rewritten (a checkout, a detached
    // commit), when the branch it names moves (its loose ref, or
    // `packed-refs` for a packed one), and either way its reflog grows.
    // `--git-path` resolves each for the worktree being built, whose
    // HEAD is its own while the refs are shared. A file that does not
    // exist is not watched: cargo would rerun the script every build.
    let branch = git(&["symbolic-ref", "-q", "HEAD"]);
    let files = ["HEAD", "logs/HEAD", "packed-refs"].map(String::from);
    for file in files.into_iter().chain(branch) {
        if let Some(path) = git(&["rev-parse", "--git-path", &file]) {
            if Path::new(&path).exists() {
                println!("cargo:rerun-if-changed={path}");
            }
        }
    }
}
