//! Strict command-line flag parsing, shared by every `predsim`
//! subcommand, and machine-name resolution, including `@FILE:NAME`
//! references to [`preset_file`]s.
//!
//! The workspace carries no CLI dependency, so parsing is hand-rolled —
//! and deliberately strict: unknown flags, duplicate flags, valued flags
//! without a value, and values handed to switches are all hard errors.
//! A typo can never be silently ignored.
//!
//! ```
//! use predsim::cli::{switch, valued, Args};
//!
//! let spec = [valued("machine"), switch("worst-case")];
//! let raw: Vec<String> = ["--machine", "paragon", "--worst-case", "ge:960,32,diagonal,8"]
//!     .iter()
//!     .map(|s| s.to_string())
//!     .collect();
//! let args = Args::parse(&raw, &spec).unwrap();
//! assert_eq!(args.value("machine"), Some("paragon"));
//! assert!(args.flag("worst-case"));
//! assert_eq!(args.positional, ["ge:960,32,diagonal,8"]);
//! assert!(Args::parse(&raw, &[valued("machine")]).is_err(), "unknown flag");
//! ```

use loggp::{hetero, presets, registry, LogGpParams, MachineSpec};

pub mod preset_file;

/// A flag a command accepts: its name and whether it takes a value.
#[derive(Clone, Copy)]
pub struct FlagSpec {
    /// Flag name, without the leading `--`.
    pub name: &'static str,
    /// Whether the flag consumes a value (`--name VALUE` or
    /// `--name=VALUE`).
    pub takes_value: bool,
}

/// A boolean flag (`--worst-case`).
pub const fn switch(name: &'static str) -> FlagSpec {
    FlagSpec {
        name,
        takes_value: false,
    }
}

/// A flag that carries a value (`--machine NAME`).
pub const fn valued(name: &'static str) -> FlagSpec {
    FlagSpec {
        name,
        takes_value: true,
    }
}

/// Parsed arguments: the positional operands plus the accepted flags.
pub struct Args {
    /// Non-flag arguments, in order.
    pub positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parse `raw` against the command's accepted flags. Unknown flags,
    /// duplicate flags, valued flags without a value, and values given to
    /// switches are all rejected.
    pub fn parse(raw: &[String], spec: &[FlagSpec]) -> Result<Args, String> {
        let mut positional = Vec::new();
        let mut flags: Vec<(String, Option<String>)> = Vec::new();
        let mut it = raw.iter().peekable();
        while let Some(a) = it.next() {
            let Some(body) = a.strip_prefix("--") else {
                positional.push(a.clone());
                continue;
            };
            let (name, inline) = match body.split_once('=') {
                Some((n, v)) => (n, Some(v.to_string())),
                None => (body, None),
            };
            let Some(fs) = spec.iter().find(|f| f.name == name) else {
                return Err(format!(
                    "unknown flag '--{name}' (run 'predsim help' for usage)"
                ));
            };
            if flags.iter().any(|(n, _)| n == name) {
                return Err(format!("duplicate flag '--{name}'"));
            }
            let value = if fs.takes_value {
                match inline {
                    Some(v) => Some(v),
                    None => Some(
                        it.next()
                            .ok_or_else(|| format!("flag '--{name}' needs a value"))?
                            .clone(),
                    ),
                }
            } else {
                if inline.is_some() {
                    return Err(format!("flag '--{name}' takes no value"));
                }
                None
            };
            flags.push((name.to_string(), value));
        }
        Ok(Args { positional, flags })
    }

    /// Whether the flag was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    /// The flag's value, when it was given one.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// The `--machine` name, or the machine every front end defaults to.
    pub fn machine_name(&self) -> &str {
        self.value("machine").unwrap_or(presets::DEFAULT)
    }

    /// The `--jobs` worker count: defaults to one per CPU, must be ≥ 1.
    pub fn jobs(&self) -> Result<usize, String> {
        match self.value("jobs") {
            None => Ok(0), // engine resolves 0 to the CPU count
            Some(v) => match v.parse::<usize>() {
                Ok(n) if n >= 1 => Ok(n),
                Ok(_) => Err("--jobs must be at least 1".into()),
                Err(e) => Err(format!("bad --jobs: {e}")),
            },
        }
    }
}

/// Resolve a machine-preset name (as listed by `predsim presets`) to its
/// LogGP parameters for `procs` processors.
///
/// Besides the built-in names, `@FILE:NAME` loads the preset file `FILE`
/// (as written by `predsim calibrate --out`) into the
/// [`loggp::registry`] and resolves `NAME` from it; names registered
/// earlier in the process (e.g. by `serve --presets`) also resolve here
/// through [`presets::by_name`]'s registry fallback. A heterogeneous
/// preset resolves to its base parameters.
pub fn machine(name: &str, procs: usize) -> Result<LogGpParams, String> {
    match preset_reference(name)? {
        Some((_, spec)) => Ok(spec.base.with_procs(procs)),
        None => presets::by_name(name, procs).ok_or_else(|| unknown_machine(name)),
    }
}

fn unknown_machine(name: &str) -> String {
    let mut known = presets::SHORT_NAMES
        .iter()
        .map(|s| s.to_string())
        .collect::<Vec<_>>();
    known.extend(registry::registered_names());
    format!(
        "unknown machine '{name}' (expected one of: {}, or @FILE:NAME)",
        known.join(", ")
    )
}

/// Resolve a machine name to a possibly heterogeneous [`MachineSpec`]
/// describing `procs` processors.
///
/// Accepts everything [`machine`](fn@machine) does — built-in presets and
/// uniform registered names become uniform specs — but heterogeneous
/// presets keep their per-processor speed factors and per-link overrides.
/// A heterogeneous spec can only shrink to `procs`, never extend past the
/// processors it describes.
pub fn machine_spec(name: &str, procs: usize) -> Result<MachineSpec, String> {
    if let Some((preset, spec)) = preset_reference(name)? {
        return spec
            .retarget(procs)
            .map_err(|e| format!("machine '{preset}': {e}"));
    }
    match hetero::resolve(name, procs) {
        Ok(spec) => Ok(spec),
        Err(e) if e.starts_with("unknown machine") => Err(unknown_machine(name)),
        Err(e) => Err(e),
    }
}

/// The `@FILE:NAME` loader behind [`machine`](fn@machine) and
/// [`machine_spec`]: register `FILE`'s entries and look `NAME` up, at
/// the processor count it was registered with. `None` for a plain name.
fn preset_reference(name: &str) -> Result<Option<(&str, MachineSpec)>, String> {
    let Some(rest) = name.strip_prefix('@') else {
        return Ok(None);
    };
    let (path, preset) = rest
        .rsplit_once(':')
        .ok_or_else(|| format!("bad machine reference '{name}': expected @FILE:NAME"))?;
    preset_file::register_file(path).map_err(|e| format!("loading presets from {path}: {e}"))?;
    let spec = registry::registered(preset)
        .ok_or_else(|| format!("preset file {path} has no preset named '{preset}'"))?;
    Ok(Some((preset, spec)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A directory of one test's own under the system temp dir, removed
    /// with everything in it when the guard drops: when the test ends,
    /// pass or panic.
    pub(crate) struct TempDir(PathBuf);

    impl TempDir {
        pub(crate) fn new(tag: &str) -> TempDir {
            static NEXT: AtomicUsize = AtomicUsize::new(0);
            let dir = std::env::temp_dir().join(format!(
                "predsim-{tag}-{}-{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }

        /// The path of `file` in this directory, as a string.
        pub(crate) fn join(&self, file: &str) -> String {
            self.0.join(file).to_str().unwrap().to_string()
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn raw(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_switches_values_and_positionals() {
        let spec = [valued("machine"), switch("worst-case"), valued("jobs")];
        let args = Args::parse(
            &raw(&[
                "a.trace",
                "--machine=ideal",
                "--worst-case",
                "--jobs",
                "4",
                "b.trace",
            ]),
            &spec,
        )
        .unwrap();
        assert_eq!(args.positional, ["a.trace", "b.trace"]);
        assert_eq!(args.value("machine"), Some("ideal"));
        assert!(args.flag("worst-case"));
        assert_eq!(args.jobs().unwrap(), 4);
    }

    #[test]
    fn rejects_misuse() {
        let spec = [valued("machine"), switch("worst-case")];
        for (bad, why) in [
            (raw(&["--bogus"]), "unknown flag"),
            (raw(&["--machine", "x", "--machine", "y"]), "duplicate"),
            (raw(&["--machine"]), "missing value"),
            (raw(&["--worst-case=yes"]), "value on a switch"),
        ] {
            assert!(Args::parse(&bad, &spec).is_err(), "{why}");
        }
        let args = Args::parse(&raw(&["--jobs", "0"]), &[valued("jobs")]).unwrap();
        assert!(args.jobs().is_err(), "--jobs 0 is rejected");
    }

    #[test]
    fn machine_names_resolve_through_the_shared_preset_table() {
        assert_eq!(machine("meiko", 8).unwrap(), presets::meiko_cs2(8));
        assert_eq!(machine("ideal", 4).unwrap(), presets::ideal(4));
        let err = machine("cray", 8).unwrap_err();
        assert!(err.contains("meiko"), "the error names the options: {err}");
    }

    #[test]
    fn machine_file_references_load_the_registry() {
        let dir = TempDir::new("cli-machine");
        let path = dir.join("presets.json");
        let fitted = presets::meiko_cs2(4).with_latency(loggp::Time::from_us(9.0));
        preset_file::save(
            &path,
            &[preset_file::NamedSpec {
                name: "cli-test-fitted".into(),
                spec: MachineSpec::uniform(fitted),
            }],
        )
        .unwrap();

        let spec = format!("@{path}:cli-test-fitted");
        assert_eq!(machine(&spec, 8).unwrap(), fitted.with_procs(8));
        // Once loaded, the bare name resolves through the registry too.
        assert_eq!(machine("cli-test-fitted", 8).unwrap(), fitted.with_procs(8));

        assert!(machine("@no-colon", 4).is_err(), "missing :NAME");
        let err = machine(&format!("@{path}:absent"), 4).unwrap_err();
        assert!(err.contains("absent"), "{err}");
    }

    #[test]
    fn machine_spec_resolves_heterogeneous_preset_files() {
        // Built-ins resolve as uniform specs.
        let spec = machine_spec("meiko", 8).unwrap();
        assert!(spec.is_uniform());
        assert_eq!(spec.base, presets::meiko_cs2(8));
        assert!(machine_spec("cray", 8).is_err());

        // A heterogeneous preset file keeps its speed factors.
        let dir = TempDir::new("cli-machine-spec");
        let path = dir.join("hetero.json");
        let het = MachineSpec {
            base: presets::meiko_cs2(4),
            speed_permille: vec![2000, 1000, 1000, 1000],
            links: Vec::new(),
        };
        preset_file::save(
            &path,
            &[preset_file::NamedSpec {
                name: "cli-test-hetero".into(),
                spec: het.clone(),
            }],
        )
        .unwrap();

        let reference = format!("@{path}:cli-test-hetero");
        assert_eq!(machine_spec(&reference, 4).unwrap(), het);
        // Shrinking keeps the described prefix; extending is refused.
        let small = machine_spec(&reference, 2).unwrap();
        assert_eq!(small.speed_permille, vec![2000, 1000]);
        let err = machine_spec(&reference, 8).unwrap_err();
        assert!(err.contains("cannot extend"), "{err}");
    }
}
