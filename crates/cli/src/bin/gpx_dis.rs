//! The disassembler: a symbol-annotated listing of an executable's text.

use graphprof_cli::{disassemble, exit_with, Args};

const USAGE: &str = "gpx-dis <prog.gpx>";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = Args::parse(&argv, &[], &[]).and_then(|args| disassemble(&args));
    exit_with("gpx-dis", USAGE, result.map(|listing| (listing, 0)))
}
