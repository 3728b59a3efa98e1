//! The process-wide registry of named machines.
//!
//! [`presets::by_name`](crate::presets::by_name) resolves the built-in
//! machines; this module adds the *fitted* ones: machines produced by
//! calibration or loaded from a preset file, kept in one process-wide map
//! from name to [`MachineSpec`]. Flat consumers see a registered name
//! through `by_name` as its base parameters;
//! [`hetero::resolve`](crate::hetero::resolve) sees the whole spec,
//! heterogeneity included.
//!
//! This crate reads no files: the preset-file format belongs to the
//! `predsim` command line, which registers a file's entries here.

use crate::hetero::MachineSpec;
use std::collections::HashMap;
use std::sync::{OnceLock, RwLock};

/// Validate a registry name: non-empty, and only characters that cannot
/// collide with the `--machine` spec grammar (`@file:name`) or the
/// serve API's comma-separated machine lists.
pub fn check_name(name: &str) -> Result<(), String> {
    if name.is_empty() {
        return Err("preset name must not be empty".into());
    }
    if let Some(c) = name
        .chars()
        .find(|c| !(c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.')))
    {
        return Err(format!(
            "preset name '{name}' contains '{c}' (allowed: letters, digits, '-', '_', '.')"
        ));
    }
    if crate::presets::SHORT_NAMES.contains(&name) {
        return Err(format!("preset name '{name}' shadows a built-in machine"));
    }
    Ok(())
}

fn global() -> &'static RwLock<HashMap<String, MachineSpec>> {
    static GLOBAL: OnceLock<RwLock<HashMap<String, MachineSpec>>> = OnceLock::new();
    GLOBAL.get_or_init(|| RwLock::new(HashMap::new()))
}

/// Register a (possibly heterogeneous) machine under `name`.
///
/// Rejects invalid names, names shadowing built-ins, specs that do not
/// validate, and re-registration under an existing name with a
/// *different* spec. Re-registering an identical spec is idempotent (so
/// loading the same preset file twice is harmless). A spec that
/// [`is_uniform`](MachineSpec::is_uniform) registers as its base alone.
pub fn register(name: &str, spec: MachineSpec) -> Result<(), String> {
    check_name(name)?;
    spec.validate()
        .map_err(|e| format!("preset '{name}': {e}"))?;
    let spec = if spec.is_uniform() {
        MachineSpec::uniform(spec.base)
    } else {
        spec
    };
    let mut map = global().write().expect("preset registry poisoned");
    match map.get(name) {
        Some(existing) if *existing != spec => Err(format!(
            "preset '{name}' is already registered with different parameters"
        )),
        _ => {
            map.insert(name.to_string(), spec);
            Ok(())
        }
    }
}

/// Look a registered machine up by name, at its *registered* processor
/// count (use [`MachineSpec::retarget`] to change it). Built-in machines
/// are *not* consulted here; use
/// [`presets::by_name`](crate::presets::by_name) or
/// [`hetero::resolve`](crate::hetero::resolve) for the combined view.
pub fn registered(name: &str) -> Option<MachineSpec> {
    let map = global().read().expect("preset registry poisoned");
    map.get(name).cloned()
}

/// The names currently registered, sorted.
pub fn registered_names() -> Vec<String> {
    let map = global().read().expect("preset registry poisoned");
    let mut names: Vec<String> = map.keys().cloned().collect();
    names.sort();
    names
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hetero::LinkOverride;
    use crate::params::LogGpParams;
    use crate::presets;
    use crate::time::Time;

    fn fitted(latency_us: f64) -> MachineSpec {
        MachineSpec::uniform(LogGpParams::from_us(latency_us, 4.0, 12.0, 0.02, 8))
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
    fn registry_rejects_shadowing_and_conflicting_registration() {
        assert!(register("meiko", fitted(5.0)).is_err(), "builtin shadow");
        assert!(register("has space", fitted(5.0)).is_err(), "bad name");
        assert!(register("a@b", fitted(5.0)).is_err(), "spec metachar");
        register("reg-test-conflict", fitted(5.0)).unwrap();
        // Idempotent re-registration is fine; different params are not.
        register("reg-test-conflict", fitted(5.0)).unwrap();
        let err = register("reg-test-conflict", fitted(6.0)).unwrap_err();
        assert!(err.contains("different parameters"), "{err}");
    }

    #[test]
    fn by_name_falls_back_to_the_registry() {
        assert!(presets::by_name("reg-test-lookup", 4).is_none());
        register("reg-test-lookup", fitted(5.0)).unwrap();
        let p = presets::by_name("reg-test-lookup", 16).expect("registered");
        assert_eq!(p.procs, 16, "re-targeted to the requested procs");
        assert_eq!(p.latency, fitted(5.0).base.latency);
        assert!(registered_names().contains(&"reg-test-lookup".to_string()));
    }

    #[test]
    fn heterogeneous_specs_round_trip_and_reject_conflicts() {
        let spec = hetero_spec();
        register("reg-test-het", spec.clone()).unwrap();
        register("reg-test-het", spec.clone()).unwrap(); // idempotent
        assert_eq!(registered("reg-test-het"), Some(spec.clone()));
        // The flat view resolves too, seeing the base parameters.
        assert_eq!(presets::by_name("reg-test-het", 8), Some(spec.base));
        // A different spec under the same name is a conflict.
        let mut other = spec.clone();
        other.speed_permille[0] = 3000;
        let err = register("reg-test-het", other).unwrap_err();
        assert!(err.contains("different parameters"), "{err}");
        // Adding heterogeneity to a name registered uniform is a conflict too.
        register("reg-test-het-flat", MachineSpec::uniform(spec.base)).unwrap();
        assert!(register("reg-test-het-flat", spec.clone()).is_err());
        assert_eq!(
            registered("reg-test-het-flat"),
            Some(MachineSpec::uniform(spec.base))
        );
    }

    #[test]
    fn uniform_specs_register_as_their_base() {
        let base = fitted(5.0).base;
        register("reg-test-uniform", MachineSpec::uniform(base)).unwrap();
        // Spelled-out unit speed factors describe the same machine.
        let spelled = MachineSpec {
            speed_permille: vec![1000; base.procs],
            ..MachineSpec::uniform(base)
        };
        register("reg-test-uniform", spelled).unwrap();
        assert_eq!(
            registered("reg-test-uniform"),
            Some(MachineSpec::uniform(base))
        );
    }

    #[test]
    fn invalid_specs_are_rejected_at_register() {
        // g < o violates LogGP validation.
        let bad = LogGpParams {
            gap: Time::from_us(1.0),
            overhead: Time::from_us(2.0),
            ..fitted(5.0).base
        };
        assert!(register("reg-test-invalid", MachineSpec::uniform(bad)).is_err());
        let mut arity = hetero_spec();
        arity.speed_permille.truncate(2);
        assert!(register("reg-test-invalid-het", arity).is_err());
        assert!(registered("reg-test-invalid-het").is_none());
    }
}
