//! The `krad` binary: thin wrapper over [`kcli::main`].

fn main() -> std::process::ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    kcli::main(&argv)
}
