//! Minimal `--key value` / flag / positional argument parsing.

use std::collections::HashMap;

/// Parsed arguments: positionals in order, `--key value` options, and
/// bare `--flag`s.
#[derive(Clone, Debug, Default)]
pub struct ArgMap {
    /// Positional arguments in order of appearance.
    pub positional: Vec<String>,
    options: HashMap<String, String>,
    flags: Vec<String>,
}

/// What one subcommand accepts: `--key value` options and bare
/// `--flag`s. Any other `--name` is an error.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// The subcommand, named in errors.
    pub name: &'static str,
    /// Options that take a value.
    pub options: &'static [&'static str],
    /// Value-less flags.
    pub flags: &'static [&'static str],
}

impl Spec {
    /// The spec of subcommand `name`.
    pub const fn new(
        name: &'static str,
        options: &'static [&'static str],
        flags: &'static [&'static str],
    ) -> Spec {
        Spec {
            name,
            options,
            flags,
        }
    }
}

impl ArgMap {
    /// Parse an argv slice (without the subcommand itself) against the
    /// subcommand's spec.
    pub fn parse(argv: &[String], spec: &Spec) -> Result<ArgMap, String> {
        let mut out = ArgMap::default();
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            if let Some(name) = arg.strip_prefix("--") {
                if spec.flags.contains(&name) {
                    out.flags.push(name.to_string());
                } else if spec.options.contains(&name) {
                    let value = it
                        .next()
                        .ok_or_else(|| format!("--{name} requires a value"))?;
                    out.options.insert(name.to_string(), value.clone());
                } else {
                    return Err(format!("unknown option '--{name}' for '{}'", spec.name));
                }
            } else {
                out.positional.push(arg.clone());
            }
        }
        Ok(out)
    }

    /// A string option.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(|s| s.as_str())
    }

    /// A string option with a default.
    pub fn get_or<'a>(&'a self, name: &str, default: &'a str) -> &'a str {
        self.get(name).unwrap_or(default)
    }

    /// A required string option.
    pub fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name).ok_or_else(|| format!("missing --{name}"))
    }

    /// A parsed numeric option with a default.
    pub fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad --{name}: {v}")),
        }
    }

    /// `true` if the bare flag was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// The single required positional argument.
    pub fn one_positional(&self) -> Result<&str, String> {
        match self.positional.as_slice() {
            [p] => Ok(p),
            [] => Err("missing a file argument".into()),
            _ => Err("too many positional arguments".into()),
        }
    }

    /// Parse a `--machine 4,2,8` option into per-category counts.
    pub fn machine(&self) -> Result<Vec<u32>, String> {
        let spec = self.require("machine")?;
        let p: Result<Vec<u32>, _> = spec.split(',').map(|s| s.trim().parse()).collect();
        let p = p.map_err(|_| format!("bad --machine: {spec}"))?;
        if p.is_empty() || p.contains(&0) {
            return Err("machine needs positive per-category counts".into());
        }
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: Spec = Spec::new(
        "test",
        &["k", "machine", "kind", "out", "seed"],
        &["gantt", "run"],
    );

    fn parse(parts: &[&str]) -> ArgMap {
        let v: Vec<String> = parts.iter().map(|s| s.to_string()).collect();
        ArgMap::parse(&v, &SPEC).unwrap()
    }

    #[test]
    fn mixed_args() {
        let a = parse(&["file.json", "--k", "3", "--gantt", "--machine", "4,2"]);
        assert_eq!(a.one_positional().unwrap(), "file.json");
        assert_eq!(a.num::<usize>("k", 1).unwrap(), 3);
        assert!(a.flag("gantt"));
        assert!(!a.flag("run"));
        assert_eq!(a.machine().unwrap(), vec![4, 2]);
    }

    #[test]
    fn missing_value_is_an_error() {
        let v = vec!["--k".to_string()];
        assert!(ArgMap::parse(&v, &SPEC).is_err());
    }

    #[test]
    fn unknown_names_are_errors() {
        for name in ["--gannt", "--quick"] {
            let err = ArgMap::parse(&[name.to_string()], &SPEC).unwrap_err();
            assert_eq!(err, format!("unknown option '{name}' for 'test'"));
        }
    }

    #[test]
    fn bad_machine_rejected() {
        assert!(parse(&["--machine", "4,x"]).machine().is_err());
        assert!(parse(&["--machine", "4,0"]).machine().is_err());
        assert!(parse(&[]).machine().is_err());
    }

    #[test]
    fn defaults_and_requirements() {
        let a = parse(&[]);
        assert_eq!(a.get_or("kind", "mix"), "mix");
        assert!(a.require("out").is_err());
        assert_eq!(a.num::<u64>("seed", 42).unwrap(), 42);
    }
}
