//! Root-level `krad-suite` binary: the same front end as the `krad`
//! CLI, reachable via plain `cargo run -- <subcommand>` from a fresh
//! checkout (e.g. `cargo run -- profile --kind t12`).

fn main() -> std::process::ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    kcli::main(&argv)
}
