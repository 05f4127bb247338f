//! `krad … | head`: a reader that closes its end of the pipe before
//! `krad` writes is not a failure, and above all not a panic.

use std::process::Command;

#[test]
fn a_closed_stdout_pipe_exits_cleanly() {
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_krad"))
        .arg("help")
        .stdout(writer)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        out.stderr.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
