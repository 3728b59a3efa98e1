//! The preset-file format: named machines persisted as small JSON files.
//!
//! `predsim calibrate --out FILE --name NAME` appends an entry, and
//! `--machine @FILE:NAME` and `predsim serve --presets FILE` load a file
//! into the process-wide [`loggp::registry`]. Times are integer
//! picoseconds — no floats — so an entry round-trips bit-exactly through
//! save and load:
//!
//! ```json
//! {
//!   "version": 1,
//!   "presets": [
//!     { "name": "ge-fit", "latency_ps": 9000000, "overhead_ps": 6000000,
//!       "gap_ps": 16000000, "gap_per_byte_ps": 30000, "procs": 8 }
//!   ]
//! }
//! ```
//!
//! A heterogeneous entry adds `speed_permille` (one factor per processor)
//! and `links` (objects with `src`, `dst` and the four `*_ps` times of an
//! overridden link); an entry without them is a uniform machine. Files
//! parse through the workspace's strict [`predsim_lint::json`] reader. On
//! top of it, every object must hold each expected field exactly once and
//! nothing else, and every number must be a non-negative integer.

use loggp::{registry, LinkOverride, LogGpParams, MachineSpec, Time};
use predsim_lint::json::{self, Value};
use std::fmt::Write as _;

/// Current preset-file schema version.
const FILE_VERSION: u64 = 1;

/// A named, possibly heterogeneous machine as stored in a preset file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NamedSpec {
    /// Registry name (see [`registry::check_name`]).
    pub name: String,
    /// The machine, at the processor count it was described for.
    pub spec: MachineSpec,
}

/// Parse a preset file's contents. Duplicate names within the file are
/// rejected, and every entry must validate.
pub fn parse(text: &str) -> Result<Vec<NamedSpec>, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let mut file = Fields::of(doc, "preset file")?;
    let version = file.uint("version")?;
    if version != FILE_VERSION {
        return Err(format!(
            "unsupported preset file version {version} (expected {FILE_VERSION})"
        ));
    }
    let entries = file.array("presets")?;
    file.finish()?;
    let mut out: Vec<NamedSpec> = Vec::with_capacity(entries.len());
    for (i, entry) in entries.into_iter().enumerate() {
        let entry = parse_entry(entry, &format!("presets[{i}]"))?;
        if out.iter().any(|p| p.name == entry.name) {
            return Err(format!("duplicate preset name '{}' in file", entry.name));
        }
        out.push(entry);
    }
    Ok(out)
}

fn parse_entry(value: Value, what: &str) -> Result<NamedSpec, String> {
    let mut e = Fields::of(value, what)?;
    let name = e.string("name")?;
    registry::check_name(&name)?;
    let mut spec = MachineSpec::uniform(LogGpParams {
        latency: e.time("latency_ps")?,
        overhead: e.time("overhead_ps")?,
        gap: e.time("gap_ps")?,
        gap_per_byte: e.time("gap_per_byte_ps")?,
        procs: e.index("procs")?,
    });
    if let Some(items) = e.optional_array("speed_permille")? {
        spec.speed_permille = items
            .iter()
            .map(|v| {
                uint(v).ok_or_else(|| {
                    format!("{what}: speed_permille entries must be unsigned integers")
                })
            })
            .collect::<Result<_, _>>()?;
    }
    if let Some(items) = e.optional_array("links")? {
        spec.links = items
            .into_iter()
            .enumerate()
            .map(|(j, v)| parse_link(v, &format!("{what}.links[{j}]")))
            .collect::<Result<_, _>>()?;
    }
    e.finish()?;
    spec.validate()
        .map_err(|err| format!("preset '{name}': {err}"))?;
    Ok(NamedSpec { name, spec })
}

fn parse_link(value: Value, what: &str) -> Result<LinkOverride, String> {
    let mut l = Fields::of(value, what)?;
    let link = LinkOverride {
        src: l.index("src")?,
        dst: l.index("dst")?,
        latency: l.time("latency_ps")?,
        overhead: l.time("overhead_ps")?,
        gap: l.time("gap_ps")?,
        gap_per_byte: l.time("gap_per_byte_ps")?,
    };
    l.finish()?;
    Ok(link)
}

/// Render machines in the file format (pretty-printed, one entry per
/// line, trailing newline). A uniform entry carries no `speed_permille`
/// or `links` field.
pub fn render(specs: &[NamedSpec]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"version\": {FILE_VERSION},");
    s.push_str("  \"presets\": [");
    for (i, p) in specs.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("\n    { ");
        let _ = write!(
            s,
            "\"name\": \"{}\", \"latency_ps\": {}, \"overhead_ps\": {}, \
             \"gap_ps\": {}, \"gap_per_byte_ps\": {}, \"procs\": {}",
            p.name,
            p.spec.base.latency.as_ps(),
            p.spec.base.overhead.as_ps(),
            p.spec.base.gap.as_ps(),
            p.spec.base.gap_per_byte.as_ps(),
            p.spec.base.procs
        );
        if !p.spec.speed_permille.is_empty() {
            s.push_str(", \"speed_permille\": [");
            for (j, f) in p.spec.speed_permille.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                let _ = write!(s, "{f}");
            }
            s.push(']');
        }
        if !p.spec.links.is_empty() {
            s.push_str(", \"links\": [");
            for (j, l) in p.spec.links.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                let _ = write!(
                    s,
                    "{{ \"src\": {}, \"dst\": {}, \"latency_ps\": {}, \"overhead_ps\": {}, \
                     \"gap_ps\": {}, \"gap_per_byte_ps\": {} }}",
                    l.src,
                    l.dst,
                    l.latency.as_ps(),
                    l.overhead.as_ps(),
                    l.gap.as_ps(),
                    l.gap_per_byte.as_ps()
                );
            }
            s.push(']');
        }
        s.push_str(" }");
    }
    if specs.is_empty() {
        s.push_str("]\n}\n");
    } else {
        s.push_str("\n  ]\n}\n");
    }
    s
}

/// Read and parse a preset file (nothing is registered).
pub fn load(path: &str) -> Result<Vec<NamedSpec>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read preset file {path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Write machines to a file in the canonical format.
///
/// The write is atomic: the rendered file goes to a sibling temp file
/// first and is renamed over `path` only once fully written, so a
/// process that dies mid-save can never leave a truncated preset file
/// behind — the previous contents survive untouched.
pub fn save(path: &str, specs: &[NamedSpec]) -> Result<(), String> {
    for (i, p) in specs.iter().enumerate() {
        registry::check_name(&p.name)?;
        p.spec
            .validate()
            .map_err(|e| format!("preset '{}': {e}", p.name))?;
        if specs[..i].iter().any(|q| q.name == p.name) {
            return Err(format!("duplicate preset name '{}'", p.name));
        }
    }
    let tmp = format!("{path}.tmp.{}", std::process::id());
    std::fs::write(&tmp, render(specs))
        .map_err(|e| format!("cannot write preset file {tmp}: {e}"))?;
    std::fs::rename(&tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        format!("cannot move preset file into place at {path}: {e}")
    })
}

/// Load a preset file and register every entry in the process-wide
/// [`registry`], heterogeneity intact. Returns the names registered, in
/// file order.
pub fn register_file(path: &str) -> Result<Vec<String>, String> {
    let entries = load(path)?;
    let mut names = Vec::with_capacity(entries.len());
    for entry in entries {
        registry::register(&entry.name, entry.spec).map_err(|e| format!("{path}: {e}"))?;
        names.push(entry.name);
    }
    Ok(names)
}

/// A JSON object under consumption: each field is taken by name, and a
/// field still left at [`Fields::finish`] is unknown, so an error.
struct Fields {
    what: String,
    fields: Vec<(String, Value)>,
}

impl Fields {
    fn of(value: Value, what: &str) -> Result<Fields, String> {
        let Value::Object(fields) = value else {
            return Err(format!("{what}: expected an object"));
        };
        for (i, (key, _)) in fields.iter().enumerate() {
            if fields[..i].iter().any(|(k, _)| k == key) {
                return Err(format!("{what}: duplicate key '{key}'"));
            }
        }
        Ok(Fields {
            what: what.to_string(),
            fields,
        })
    }

    fn take(&mut self, key: &str) -> Option<Value> {
        let i = self.fields.iter().position(|(k, _)| k == key)?;
        Some(self.fields.remove(i).1)
    }

    fn required(&mut self, key: &str) -> Result<Value, String> {
        self.take(key)
            .ok_or_else(|| format!("{}: missing field '{key}'", self.what))
    }

    fn uint(&mut self, key: &str) -> Result<u64, String> {
        let v = self.required(key)?;
        uint(&v).ok_or_else(|| format!("{}: field '{key}' must be an unsigned integer", self.what))
    }

    fn index(&mut self, key: &str) -> Result<usize, String> {
        let n = self.uint(key)?;
        usize::try_from(n).map_err(|_| format!("{}: field '{key}' out of range", self.what))
    }

    fn time(&mut self, key: &str) -> Result<Time, String> {
        self.uint(key).map(Time::from_ps)
    }

    fn string(&mut self, key: &str) -> Result<String, String> {
        match self.required(key)? {
            Value::Str(s) => Ok(s),
            _ => Err(format!("{}: field '{key}' must be a string", self.what)),
        }
    }

    fn optional_array(&mut self, key: &str) -> Result<Option<Vec<Value>>, String> {
        match self.take(key) {
            None => Ok(None),
            Some(Value::Array(items)) => Ok(Some(items)),
            Some(_) => Err(format!("{}: field '{key}' must be an array", self.what)),
        }
    }

    fn array(&mut self, key: &str) -> Result<Vec<Value>, String> {
        self.optional_array(key)?
            .ok_or_else(|| format!("{}: missing field '{key}'", self.what))
    }

    fn finish(self) -> Result<(), String> {
        match self.fields.first() {
            None => Ok(()),
            Some((k, _)) => Err(format!("{}: unknown field '{k}'", self.what)),
        }
    }
}

fn uint(v: &Value) -> Option<u64> {
    v.as_int().and_then(|n| u64::try_from(n).ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::tests::TempDir;

    fn fitted(latency_us: f64) -> MachineSpec {
        MachineSpec::uniform(LogGpParams::from_us(latency_us, 4.0, 12.0, 0.02, 8))
    }

    fn named(name: &str, spec: MachineSpec) -> NamedSpec {
        NamedSpec {
            name: name.into(),
            spec,
        }
    }

    fn hetero_spec() -> MachineSpec {
        let base = fitted(7.25).base;
        MachineSpec {
            base,
            speed_permille: vec![2000, 1000, 1000, 1000, 1000, 1000, 1000, 500],
            links: vec![LinkOverride {
                src: 0,
                dst: 7,
                latency: Time::from_ps(base.latency.as_ps() * 3),
                overhead: base.overhead,
                gap: base.gap,
                gap_per_byte: base.gap_per_byte,
            }],
        }
    }

    #[test]
    fn file_round_trips_bit_exactly() {
        let specs = vec![
            named("ge-fit", fitted(7.25)),
            named("stencil.v2", fitted(11.5)),
        ];
        let text = render(&specs);
        assert_eq!(parse(&text).unwrap(), specs);
        // And the empty file round-trips too.
        assert_eq!(parse(&render(&[])).unwrap(), Vec::new());
    }

    #[test]
    fn uniform_entries_render_in_the_flat_format() {
        let text = render(&[named("u1", fitted(7.25)), named("u2", fitted(11.5))]);
        let expected = "{\n  \"version\": 1,\n  \"presets\": [\n    \
            { \"name\": \"u1\", \"latency_ps\": 7250000, \"overhead_ps\": 4000000, \
            \"gap_ps\": 12000000, \"gap_per_byte_ps\": 20000, \"procs\": 8 },\n    \
            { \"name\": \"u2\", \"latency_ps\": 11500000, \"overhead_ps\": 4000000, \
            \"gap_ps\": 12000000, \"gap_per_byte_ps\": 20000, \"procs\": 8 }\n  ]\n}\n";
        assert_eq!(text, expected);
        assert_eq!(render(&[]), "{\n  \"version\": 1,\n  \"presets\": []\n}\n");
    }

    #[test]
    fn hetero_spec_files_round_trip_bit_exactly() {
        let specs = vec![
            named("flat-entry", fitted(5.0)),
            named("het-entry", hetero_spec()),
        ];
        let text = render(&specs);
        let back = parse(&text).unwrap();
        assert_eq!(back, specs);
        assert_eq!(render(&back), text, "render is canonical");
    }

    #[test]
    fn parser_rejects_malformed_files() {
        let entry = |fields: &str| {
            format!(
                "{{\"version\": 1, \"presets\": [{{ \"name\": \"x\", \"latency_ps\": 1, \
                 \"overhead_ps\": 1, \"gap_ps\": 1, \"gap_per_byte_ps\": 0, {fields} }}]}}"
            )
        };
        assert!(
            parse(&entry("\"procs\": 4")).is_ok(),
            "the template is valid"
        );
        for (bad, why) in [
            (String::new(), "empty"),
            ("{\"version\": 2, \"presets\": []}".into(), "wrong version"),
            ("{\"version\": 1}".into(), "missing presets"),
            (
                "{\"version\": 1, \"presets\": [], \"extra\": 1}".into(),
                "unknown field",
            ),
            (
                "{\"version\": 1.0, \"presets\": []}".into(),
                "floats are rejected",
            ),
            (
                "{\"version\": 1, \"presets\": [{\"name\": \"x\"}]}".into(),
                "missing params",
            ),
            (
                "{\"version\": 1, \"version\": 1, \"presets\": []}".into(),
                "duplicate key in the file object",
            ),
            (
                entry("\"procs\": 4, \"procs\": 4"),
                "duplicate key in an entry",
            ),
            (entry("\"procs\": -4"), "negative integer"),
            (
                entry("\"procs\": 9223372036854775808"),
                "integer above i64::MAX",
            ),
            (entry("\"procs\": \"4\""), "string for an integer"),
            (
                entry("\"procs\": 4, \"speed_permille\": 1000"),
                "speed not an array",
            ),
            (
                entry("\"procs\": 1, \"speed_permille\": [-1]"),
                "negative speed",
            ),
            (
                entry("\"procs\": 4, \"links\": [{}]"),
                "link without fields",
            ),
            ("[]".into(), "not an object"),
        ] {
            assert!(parse(&bad).is_err(), "{why}: {bad}");
        }
        let err = parse(&entry("\"procs\": 4, \"procs\": 4")).unwrap_err();
        assert!(err.contains("duplicate key 'procs'"), "{err}");
        let err = parse(&entry("\"procs\": -4")).unwrap_err();
        assert!(err.contains("unsigned integer"), "{err}");
    }

    #[test]
    fn duplicate_names_are_rejected_in_files_and_on_save() {
        let p = named("dup", fitted(5.0));
        let text = render(&[p.clone(), p.clone()]);
        let err = parse(&text).unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
        let err = save("/dev/null", &[p.clone(), p]).unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
    }

    #[test]
    fn invalid_machines_are_rejected_at_parse_and_save() {
        // g < o violates LogGP validation.
        let text = "{\"version\": 1, \"presets\": [{ \"name\": \"bad\", \
                    \"latency_ps\": 1, \"overhead_ps\": 10, \"gap_ps\": 5, \
                    \"gap_per_byte_ps\": 0, \"procs\": 4 }]}";
        assert!(parse(text).is_err());
        // Heterogeneity must validate too: the wrong speed arity for 8 procs.
        let mut bad = hetero_spec();
        bad.speed_permille.truncate(2);
        assert!(parse(&render(&[named("bad-het", bad.clone())])).is_err());
        assert!(save("/dev/null", &[named("bad-het", bad)]).is_err());
        assert!(save("/dev/null", &[named("meiko", fitted(5.0))]).is_err());
    }

    #[test]
    fn a_save_killed_mid_write_cannot_truncate_the_registry_file() {
        let dir = TempDir::new("preset-file");
        let path = dir.join("presets.json");
        let v1 = vec![named("survivor", fitted(5.0))];
        save(&path, &v1).unwrap();

        // A writer that died mid-save leaves only a partial sibling temp
        // file — exactly what `save` would have produced up to the kill.
        // The preset file itself must still parse as v1.
        let abandoned = format!("{path}.tmp.99999");
        std::fs::write(&abandoned, "{\"version\": 1, \"pres").unwrap();
        assert_eq!(load(&path).unwrap(), v1);

        // A later complete save replaces it whole, stale temp and all.
        let v2 = vec![
            named("replacement", fitted(9.0)),
            named("het", hetero_spec()),
        ];
        save(&path, &v2).unwrap();
        assert_eq!(load(&path).unwrap(), v2);
    }

    #[test]
    fn register_file_keeps_heterogeneity() {
        let dir = TempDir::new("preset-file");
        let path = dir.join("register.json");
        let specs = vec![
            named("pf-test-flat", fitted(5.0)),
            named("pf-test-het", hetero_spec()),
        ];
        save(&path, &specs).unwrap();
        assert_eq!(
            register_file(&path).unwrap(),
            ["pf-test-flat", "pf-test-het"]
        );
        assert_eq!(registry::registered("pf-test-het"), Some(hetero_spec()));
        // Loading the same file again is harmless.
        register_file(&path).unwrap();
        let err = load(&dir.join("absent.json")).unwrap_err();
        assert!(err.contains("cannot read preset file"), "{err}");
    }
}
