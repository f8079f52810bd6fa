//! The MPK backend's [`IsolationBackend`] implementation.

use flexos_core::backend::IsolationBackend;
use flexos_core::compartment::{CompartmentId, DataSharing, Mechanism};
use flexos_core::component::ComponentRegistry;
use flexos_core::config::SafetyConfig;
use flexos_core::env::Env;
use flexos_core::gate::GateKind;
use flexos_core::image::MPK_MAX_COMPARTMENTS;
use flexos_machine::fault::Fault;

use crate::wxorx::{component_text, scan_text};

/// The Intel MPK backend (§4.1): 1400 LoC of the prototype's 3250-LoC
/// kernel patch.
#[derive(Debug, Default)]
pub struct MpkBackend {
    /// Extra text blobs to scan, injected by tests ("what if a component
    /// smuggled a wrpkru?").
    extra_text: Vec<(String, Vec<u8>)>,
}

impl MpkBackend {
    /// Creates the backend.
    pub fn new() -> Self {
        Self::default()
    }

    /// Injects an additional text blob into the W^X scan (test hook).
    pub fn inject_text(&mut self, component: &str, text: Vec<u8>) {
        self.extra_text.push((component.to_string(), text));
    }
}

impl IsolationBackend for MpkBackend {
    fn name(&self) -> &str {
        "intel-mpk"
    }

    fn mechanism(&self) -> Mechanism {
        Mechanism::IntelMpk
    }

    fn gate_kind(&self, sharing: DataSharing) -> GateKind {
        // `sharing` is the *callee* compartment's profile axis: the
        // light gate is only safe when the callee shares its whole
        // stack; DSS and heap conversion both need the full gate's
        // stack switch + register scrub.
        match sharing {
            DataSharing::SharedStack => GateKind::MpkLight,
            DataSharing::Dss | DataSharing::HeapConversion => GateKind::MpkDss,
        }
    }

    fn validate(&self, config: &SafetyConfig, registry: &ComponentRegistry) -> Result<(), Fault> {
        // Architectural limit: 16 keys minus shared minus default (§4.1).
        if config.compartment_count() > MPK_MAX_COMPARTMENTS {
            return Err(Fault::InvalidConfig {
                reason: format!(
                    "MPK offers 16 protection keys; at most {MPK_MAX_COMPARTMENTS} \
                     compartments are supported"
                ),
            });
        }
        // W^X static scan: no component text may write PKRU (§4.1).
        for (_, component) in registry.iter() {
            scan_text(&component.name, &component_text(&component.name))?;
        }
        for (name, text) in &self.extra_text {
            scan_text(name, text)?;
        }
        Ok(())
    }

    fn tcb_loc(&self) -> u32 {
        1400
    }

    fn on_thread_create(&self, env: &Env, _compartment: CompartmentId) {
        // §3.2: "the MPK backend leverages the thread creation hook offered
        // by the scheduler to switch a newly created thread to the right
        // protection domain" — one wrpkru.
        env.machine().clock().advance(env.machine().cost().wrpkru);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wxorx::WRPKRU_OPCODE;
    use flexos_core::compartment::CompartmentSpec;
    use flexos_core::component::{Component, ComponentKind};

    fn config(n: usize) -> SafetyConfig {
        let mut b = SafetyConfig::builder();
        for i in 0..n {
            let mut spec = CompartmentSpec::new(format!("c{i}"), Mechanism::IntelMpk);
            if i == 0 {
                spec = spec.default_compartment();
            }
            b = b.compartment(spec);
        }
        b.build().unwrap()
    }

    #[test]
    fn accepts_up_to_14_compartments() {
        let backend = MpkBackend::new();
        let registry = ComponentRegistry::new();
        assert!(backend.validate(&config(14), &registry).is_ok());
        assert!(backend.validate(&config(15), &registry).is_err());
    }

    #[test]
    fn wx_scan_covers_registered_components() {
        let backend = MpkBackend::new();
        let mut registry = ComponentRegistry::new();
        registry
            .register(Component::new("lwip", ComponentKind::Kernel))
            .unwrap();
        assert!(backend.validate(&config(2), &registry).is_ok());
    }

    #[test]
    fn rogue_wrpkru_vetoes_the_build() {
        let mut backend = MpkBackend::new();
        let mut evil = vec![0u8; 128];
        evil[10..13].copy_from_slice(&WRPKRU_OPCODE);
        backend.inject_text("libevil", evil);
        let err = backend
            .validate(&config(2), &ComponentRegistry::new())
            .unwrap_err();
        assert!(matches!(err, Fault::WxViolation { .. }));
    }

    #[test]
    fn gate_flavour_follows_data_sharing() {
        let b = MpkBackend::new();
        assert_eq!(b.gate_kind(DataSharing::Dss), GateKind::MpkDss);
        assert_eq!(b.gate_kind(DataSharing::SharedStack), GateKind::MpkLight);
        assert_eq!(b.gate_kind(DataSharing::HeapConversion), GateKind::MpkDss);
    }

    #[test]
    fn tcb_contribution_matches_prototype() {
        // §4: "1400 for the MPK backend".
        assert_eq!(MpkBackend::new().tcb_loc(), 1400);
    }
}
