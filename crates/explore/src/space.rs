//! The Figure 6 configuration space: its strategies and construction
//! rules.
//!
//! Fixed: MPK isolation with DSS. Varied: the compartmentalization
//! strategy (5 shapes over {app, newlib, uksched, lwip}: Figure 8's
//! A..E) × per-component hardening (the stack-protector+UBSan+KASan
//! bundle, on/off per component) = 5 × 2⁴ = **80 configurations** per
//! application, exactly the sweep of §6.1. The points themselves are
//! enumerated by the sweep crate's `SpaceSpec::fig6`.

use flexos_alloc::HeapKind;
use flexos_core::compartment::{CompartmentSpec, DataSharing, Mechanism};
use flexos_core::config::{SafetyConfig, SafetyConfigBuilder};
use flexos_core::hardening::Hardening;

/// The four Figure 6 components, in row order (the application slot is
/// filled with the concrete app name).
pub const FIG6_COMPONENTS: [&str; 4] = ["app", "newlib", "uksched", "lwip"];

/// The five compartmentalization strategies of Figure 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// A: everything in one compartment.
    Together,
    /// B: lwip alone (`app+newlib+sched / lwip`).
    SplitLwip,
    /// C: the scheduler alone (`app+newlib+lwip / sched`).
    SplitSched,
    /// D: app+newlib vs kernel (`app+newlib / sched+lwip`).
    SplitApp,
    /// E: three compartments (`app+newlib / sched / lwip`).
    ThreeWay,
}

impl Strategy {
    /// All five strategies, Figure 8 order.
    pub const ALL: [Strategy; 5] = [
        Strategy::Together,
        Strategy::SplitLwip,
        Strategy::SplitSched,
        Strategy::SplitApp,
        Strategy::ThreeWay,
    ];

    /// The partition this strategy induces over [`FIG6_COMPONENTS`]:
    /// the compartment index of `FIG6_COMPONENTS[component]` (the
    /// assignment does not depend on the app name).
    ///
    /// # Panics
    ///
    /// Panics if `component >= 4`.
    pub fn compartment_of(&self, component: usize) -> usize {
        match self {
            Strategy::Together => [0, 0, 0, 0][component],
            Strategy::SplitLwip => [0, 0, 0, 1][component],
            Strategy::SplitSched => [0, 0, 1, 0][component],
            Strategy::SplitApp => [0, 0, 1, 1][component],
            Strategy::ThreeWay => [0, 0, 1, 2][component],
        }
    }

    /// Number of compartments.
    pub fn compartments(&self) -> usize {
        match self {
            Strategy::Together => 1,
            Strategy::SplitLwip | Strategy::SplitSched | Strategy::SplitApp => 2,
            Strategy::ThreeWay => 3,
        }
    }

    /// Figure 8 label.
    pub fn label(&self, app: &str) -> String {
        match self {
            Strategy::Together => format!("{app}+newlib+sched+lwip"),
            Strategy::SplitLwip => format!("{app}+newlib+sched / lwip"),
            Strategy::SplitSched => format!("{app}+newlib+lwip / sched"),
            Strategy::SplitApp => format!("{app}+newlib / sched+lwip"),
            Strategy::ThreeWay => format!("{app}+newlib / sched / lwip"),
        }
    }

    /// `true` if `other`'s partition refines this one (same or more
    /// compartment cuts) — the safety assumption 1 of §5: every block of
    /// `other` lies inside one block of this partition, i.e. components
    /// that `other` keeps together, this strategy keeps together too.
    pub fn refined_by(&self, other: &Strategy) -> bool {
        (0..4).all(|i| {
            (0..4).all(|j| {
                other.compartment_of(i) != other.compartment_of(j)
                    || self.compartment_of(i) == self.compartment_of(j)
            })
        })
    }
}

/// Builds the configuration for one point of the (generalized) Figure 6
/// space: `strategy`'s partition over DSS-shared compartments guarded by
/// `mechanism`, with hardening mask `mask` over [`FIG6_COMPONENTS`]
/// (the application row resolving to `app`). Single-compartment
/// strategies always build [`Mechanism::None`] — an unsplit image has
/// no boundary for a mechanism to guard.
///
/// This is the one copy of the Figure 6 construction rules, pinned to
/// the historical axes ([`DataSharing::Dss`], [`HeapKind::Tlsf`]); the
/// `flexos_sweep` space generator goes through [`profiled_config`] to
/// open the data-sharing and allocator dimensions.
pub fn fig6_config(app: &str, strategy: Strategy, mechanism: Mechanism, mask: u8) -> SafetyConfig {
    profiled_config(
        app,
        strategy,
        mechanism,
        mask,
        DataSharing::Dss,
        HeapKind::Tlsf,
    )
}

/// [`fig6_config`] with the per-image data-sharing and allocator axes
/// opened (the `flexos_sweep` profile dimensions): every compartment of
/// the point inherits `sharing` and `allocator` as its isolation
/// profile.
///
/// Single-compartment strategies collapse the *mechanism* **and**
/// *data-sharing* axes to their defaults — an unsplit image has no
/// boundary for either to act on, so distinct axis values would mint
/// behaviourally near-identical points that tie in every §5 safety
/// dimension and break the poset's antisymmetry (the same collapse the
/// sweep engine applied to mechanisms since PR 4). The allocator axis
/// never collapses: heap behaviour is real even in a flat image
/// (Figure 10's baseline inversion is an allocator effect).
pub fn profiled_config(
    app: &str,
    strategy: Strategy,
    mechanism: Mechanism,
    mask: u8,
    sharing: DataSharing,
    allocator: HeapKind,
) -> SafetyConfig {
    let single = strategy.compartments() == 1;
    let (mechanism, sharing) = if single {
        (Mechanism::None, DataSharing::default())
    } else {
        (mechanism, sharing)
    };
    let mut builder = SafetyConfig::builder()
        .data_sharing(sharing)
        .default_allocator(allocator);
    for c in 0..strategy.compartments() {
        let mut spec = CompartmentSpec::new(format!("comp{}", c + 1), mechanism);
        if c == 0 {
            spec = spec.default_compartment();
        }
        builder = builder.compartment(spec);
    }
    place_and_harden(builder, app, strategy, mask)
}

/// The construction rules every Figure 6 builder shares: places each
/// component in its compartment under `strategy`'s partition, hardens
/// the components in `mask` with the Figure 6 bundle, and builds.
fn place_and_harden(
    mut builder: SafetyConfigBuilder,
    app: &str,
    strategy: Strategy,
    mask: u8,
) -> SafetyConfig {
    let names = FIG6_COMPONENTS.map(|row| if row == "app" { app } else { row });
    for (i, name) in names.iter().enumerate() {
        let comp_idx = strategy.compartment_of(i);
        if comp_idx > 0 {
            builder = builder.place(name, &format!("comp{}", comp_idx + 1));
        }
    }
    for (i, name) in names.iter().enumerate() {
        if mask & (1 << i) != 0 {
            builder = builder.harden_component(name, Hardening::FIG6_BUNDLE);
        }
    }
    builder.build().expect("generated config is valid")
}

/// [`profiled_config`] with a *per-compartment* profile assignment: the
/// PR 5 config API driven to its full generality. `profiles[c]` is the
/// `(data-sharing, allocator)` profile of compartment `c`; entries
/// beyond `strategy.compartments()` are ignored (they are the
/// don't-care slots a product-enumerated assignment space carries for
/// strategies with fewer compartments — the sweep's measurement memo
/// collapses such duplicates before anything is built).
///
/// Compartment 0's profile becomes the image default; other
/// compartments carry explicit overrides, so truly mixed images
/// (shared-stack lwip next to a DSS scheduler, TLSF next to Lea heaps)
/// come out of one enumeration. Single-compartment strategies collapse
/// mechanism and data-sharing exactly like [`profiled_config`] — the
/// allocator of slot 0 stays live.
///
/// # Panics
///
/// Panics if `profiles` has fewer entries than the strategy has
/// compartments.
pub fn assigned_config(
    app: &str,
    strategy: Strategy,
    mechanism: Mechanism,
    mask: u8,
    profiles: &[(DataSharing, HeapKind)],
) -> SafetyConfig {
    let n = strategy.compartments();
    assert!(profiles.len() >= n, "one profile per compartment");
    if n == 1 {
        return profiled_config(
            app,
            strategy,
            mechanism,
            mask,
            DataSharing::default(),
            profiles[0].1,
        );
    }
    let mut builder = SafetyConfig::builder()
        .data_sharing(profiles[0].0)
        .default_allocator(profiles[0].1);
    for (c, &(sharing, allocator)) in profiles.iter().enumerate().take(n) {
        let mut spec = CompartmentSpec::new(format!("comp{}", c + 1), mechanism);
        if c == 0 {
            spec = spec.default_compartment();
        } else {
            spec = spec.with_data_sharing(sharing).with_allocator(allocator);
        }
        builder = builder.compartment(spec);
    }
    place_and_harden(builder, app, strategy, mask)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_match_figure_8() {
        let cfg = fig6_config("redis", Strategy::SplitLwip, Mechanism::IntelMpk, 0);
        assert_eq!(cfg.placement("lwip"), 1);
        assert_eq!(cfg.placement("redis"), 0);
        assert_eq!(cfg.placement("uksched"), 0);
    }

    #[test]
    fn refinement_order_matches_figure_8_arrows() {
        use Strategy::*;
        // A is refined by everything.
        for s in Strategy::ALL {
            assert!(Together.refined_by(&s), "{s:?}");
        }
        // E refines B, C, D.
        assert!(SplitLwip.refined_by(&ThreeWay));
        assert!(SplitSched.refined_by(&ThreeWay));
        assert!(SplitApp.refined_by(&ThreeWay));
        // B, C, D are pairwise incomparable.
        assert!(!SplitLwip.refined_by(&SplitSched));
        assert!(!SplitSched.refined_by(&SplitLwip));
        assert!(!SplitApp.refined_by(&SplitLwip));
        assert!(!SplitLwip.refined_by(&SplitApp));
        // Nothing (but E) refines E.
        assert!(!ThreeWay.refined_by(&SplitApp));
        assert!(ThreeWay.refined_by(&ThreeWay));
    }

    #[test]
    fn profiled_config_opens_the_new_axes() {
        let cfg = profiled_config(
            "redis",
            Strategy::SplitLwip,
            Mechanism::IntelMpk,
            0,
            DataSharing::SharedStack,
            HeapKind::Lea,
        );
        assert_eq!(cfg.data_sharing(), DataSharing::SharedStack);
        assert_eq!(cfg.default_allocator, Some(HeapKind::Lea));
        assert_eq!(cfg.profile_of(1).allocator, HeapKind::Lea);
        // The pinned fig6 axes are the (Dss, Tlsf) special case.
        let pinned = fig6_config("redis", Strategy::SplitLwip, Mechanism::IntelMpk, 0);
        assert_eq!(
            pinned,
            profiled_config(
                "redis",
                Strategy::SplitLwip,
                Mechanism::IntelMpk,
                0,
                DataSharing::Dss,
                HeapKind::Tlsf,
            )
        );
    }

    #[test]
    fn single_compartment_points_collapse_mechanism_and_sharing() {
        // No boundary: data-sharing (and mechanism) axis values must not
        // mint distinguishable configs — the antisymmetry collapse.
        let a = profiled_config(
            "redis",
            Strategy::Together,
            Mechanism::VmEpt,
            3,
            DataSharing::SharedStack,
            HeapKind::Lea,
        );
        let b = profiled_config(
            "redis",
            Strategy::Together,
            Mechanism::IntelMpk,
            3,
            DataSharing::HeapConversion,
            HeapKind::Lea,
        );
        assert_eq!(a, b);
        assert_eq!(a.dominant_mechanism(), Mechanism::None);
        assert_eq!(a.data_sharing(), DataSharing::Dss);
        // The allocator axis stays open: heap behaviour is real even
        // in a flat image.
        let c = profiled_config(
            "redis",
            Strategy::Together,
            Mechanism::IntelMpk,
            3,
            DataSharing::Dss,
            HeapKind::Tlsf,
        );
        assert_ne!(a, c);
    }

    #[test]
    fn compartment_of_numbers_every_compartment() {
        for s in Strategy::ALL {
            let used: std::collections::HashSet<usize> =
                (0..4).map(|i| s.compartment_of(i)).collect();
            assert_eq!(used, (0..s.compartments()).collect(), "{s:?}");
        }
    }

    #[test]
    fn assigned_config_collapses_to_profiled_on_uniform_assignments() {
        let uniform = assigned_config(
            "redis",
            Strategy::SplitApp,
            Mechanism::IntelMpk,
            0b0110,
            &[(DataSharing::SharedStack, HeapKind::Lea); 3],
        );
        for c in 0..uniform.compartment_count() {
            assert_eq!(uniform.data_sharing_of(c), DataSharing::SharedStack);
            assert_eq!(uniform.profile_of(c).allocator, HeapKind::Lea);
        }
        // Single compartment: sharing collapses to the default exactly
        // like `profiled_config`; the slot-0 allocator stays live.
        let single = assigned_config(
            "redis",
            Strategy::Together,
            Mechanism::IntelMpk,
            0,
            &[(DataSharing::SharedStack, HeapKind::Lea); 3],
        );
        let expected = profiled_config(
            "redis",
            Strategy::Together,
            Mechanism::IntelMpk,
            0,
            DataSharing::SharedStack,
            HeapKind::Lea,
        );
        assert_eq!(single, expected);
        assert_eq!(single.data_sharing_of(0), DataSharing::Dss);
        assert_eq!(single.profile_of(0).allocator, HeapKind::Lea);
    }

    #[test]
    fn hardened_components_get_the_bundle() {
        let cfg = fig6_config("redis", Strategy::Together, Mechanism::IntelMpk, 0b0101);
        assert_eq!(cfg.hardening_of("redis"), Hardening::FIG6_BUNDLE);
        assert_eq!(cfg.hardening_of("newlib"), Hardening::NONE);
        assert_eq!(cfg.hardening_of("uksched"), Hardening::FIG6_BUNDLE);
        assert_eq!(cfg.hardening_of("lwip"), Hardening::NONE);
    }
}
