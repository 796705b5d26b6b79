//! Optimization environments and run-time bindings.

use std::collections::BTreeMap;

use dqep_algebra::HostVar;
use dqep_catalog::SystemConfig;
use dqep_interval::{Interval, ParamValue};

/// How uncertain parameters enter cost computations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanningMode {
    /// Traditional optimization: each uncertain parameter is replaced by its
    /// expected value, producing point costs and a total order on plans.
    Point,
    /// Dynamic-plan optimization: each uncertain parameter contributes its
    /// full domain interval, producing interval costs and a partial order.
    Interval,
}

/// Actual run-time bindings, available at start-up-time: the values the
/// application program supplies for host variables, and the memory the
/// system currently grants.
///
/// Host variables are bound to *values*; the selectivity they imply is
/// derived by [`crate::SelectivityModel`] from catalog statistics, exactly
/// as a real system would at start-up ("these values require a very small
/// number of system calls or catalog lookups", paper Section 4).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Bindings {
    /// Host-variable values.
    pub values: BTreeMap<HostVar, i64>,
    /// Actual memory grant in pages; `None` keeps the environment's view.
    pub memory_pages: Option<f64>,
}

impl Bindings {
    /// An empty set of bindings.
    #[must_use]
    pub fn new() -> Bindings {
        Bindings::default()
    }

    /// Adds a host-variable binding (builder style).
    #[must_use]
    pub fn with_value(mut self, var: HostVar, value: i64) -> Bindings {
        self.values.insert(var, value);
        self
    }

    /// Sets the actual memory grant (builder style).
    #[must_use]
    pub fn with_memory(mut self, pages: f64) -> Bindings {
        self.memory_pages = Some(pages);
        self
    }

    /// The value bound to `var`, if any.
    #[must_use]
    pub fn value(&self, var: HostVar) -> Option<i64> {
        self.values.get(&var).copied()
    }
}

/// The compile-time (or start-up-time) view of all uncertain cost-model
/// parameters, plus the planning mode.
#[derive(Debug, Clone, PartialEq)]
pub struct Environment {
    /// Planning mode: points (traditional / run-time optimization) or
    /// intervals (dynamic plans).
    pub mode: PlanningMode,
    /// Available memory in pages.
    pub memory: ParamValue,
    /// Host-variable values known in this environment (none at
    /// compile-time for an embedded query; all of them at start-up-time).
    pub bindings: Bindings,
    /// Default expected selectivity for unbound predicates (paper: 0.05).
    pub default_selectivity: f64,
}

impl Environment {
    /// Compile-time environment for **static** (traditional) optimization:
    /// point mode, expected memory, no bindings.
    #[must_use]
    pub fn static_compile_time(config: &SystemConfig) -> Environment {
        Environment {
            mode: PlanningMode::Point,
            memory: ParamValue::Known(config.expected_memory_pages),
            bindings: Bindings::new(),
            default_selectivity: config.default_selectivity,
        }
    }

    /// Compile-time environment for **dynamic-plan** optimization with
    /// uncertain selectivities only: memory is still the known expected
    /// value (the paper's ○-curves).
    #[must_use]
    pub fn dynamic_compile_time(config: &SystemConfig) -> Environment {
        Environment {
            mode: PlanningMode::Interval,
            memory: ParamValue::Known(config.expected_memory_pages),
            bindings: Bindings::new(),
            default_selectivity: config.default_selectivity,
        }
    }

    /// Compile-time environment for dynamic-plan optimization with
    /// uncertain selectivities **and uncertain memory** (the paper's
    /// □-curves): memory in `[memory_min_pages, memory_max_pages]`.
    #[must_use]
    pub fn dynamic_uncertain_memory(config: &SystemConfig) -> Environment {
        Environment {
            mode: PlanningMode::Interval,
            memory: ParamValue::uncertain(
                config.expected_memory_pages,
                Interval::new(config.memory_min_pages, config.memory_max_pages),
            ),
            bindings: Bindings::new(),
            default_selectivity: config.default_selectivity,
        }
    }

    /// The environment with run-time bindings applied: point mode,
    /// all host variables bound, actual memory known. Used both by the
    /// run-time-optimization scenario and by start-up-time choose-plan
    /// decisions.
    #[must_use]
    pub fn bind(&self, bindings: &Bindings) -> Environment {
        let memory = match bindings.memory_pages {
            Some(m) => ParamValue::Known(m),
            None => ParamValue::Known(self.memory.expected()),
        };
        Environment {
            mode: PlanningMode::Point,
            memory,
            bindings: bindings.clone(),
            default_selectivity: self.default_selectivity,
        }
    }

    /// The memory interval under this environment's mode.
    #[must_use]
    pub fn memory_interval(&self) -> Interval {
        match self.mode {
            PlanningMode::Point => self.memory.expected_interval(),
            PlanningMode::Interval => self.memory.planning_interval(),
        }
    }

    /// Whether any parameter is uncertain under this environment (i.e.
    /// whether dynamic plans can arise at all).
    #[must_use]
    pub fn has_uncertainty(&self) -> bool {
        self.mode == PlanningMode::Interval
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_env_is_point() {
        let cfg = SystemConfig::paper_1994();
        let env = Environment::static_compile_time(&cfg);
        assert_eq!(env.mode, PlanningMode::Point);
        assert_eq!(env.memory_interval(), Interval::point(64.0));
        assert!(!env.has_uncertainty());
    }

    #[test]
    fn dynamic_env_memory_modes() {
        let cfg = SystemConfig::paper_1994();
        let sel_only = Environment::dynamic_compile_time(&cfg);
        assert_eq!(sel_only.memory_interval(), Interval::point(64.0));
        assert!(sel_only.has_uncertainty());

        let with_mem = Environment::dynamic_uncertain_memory(&cfg);
        assert_eq!(with_mem.memory_interval(), Interval::new(16.0, 112.0));
    }

    #[test]
    fn binding_produces_point_env() {
        let cfg = SystemConfig::paper_1994();
        let env = Environment::dynamic_uncertain_memory(&cfg);
        let b = Bindings::new().with_value(HostVar(0), 42).with_memory(100.0);
        let bound = env.bind(&b);
        assert_eq!(bound.mode, PlanningMode::Point);
        assert_eq!(bound.memory_interval(), Interval::point(100.0));
        assert_eq!(bound.bindings.value(HostVar(0)), Some(42));
        assert_eq!(bound.bindings.value(HostVar(1)), None);
    }

    #[test]
    fn binding_without_memory_falls_back_to_expected() {
        let cfg = SystemConfig::paper_1994();
        let env = Environment::dynamic_uncertain_memory(&cfg);
        let bound = env.bind(&Bindings::new());
        assert_eq!(bound.memory_interval(), Interval::point(64.0));
    }
}
