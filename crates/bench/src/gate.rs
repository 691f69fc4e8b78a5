//! The one gate vocabulary: every report's pass/fail is a list of
//! named [`Check`]s, in the fixed order its `assess` returns them, and
//! `cli::finish` turns them into the exit code. A check that a JSON
//! artifact records is named after its key ([`held`]).

use pk_obs::Cell;
use std::fmt::Display;

/// One named invariant. A failed check fails its report (exit 1)
/// unless it is `strict_only`; those fail it only under `--strict`.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// The invariant, e.g. `delivered + bounced == attempted`.
    pub name: &'static str,
    /// Whether the check gates only under `--strict`.
    pub strict_only: bool,
    /// What broke (the values, where the check has them; else empty),
    /// or `None` if the invariant held.
    pub failure: Option<String>,
}

impl Check {
    /// Whether the invariant held.
    pub fn held(&self) -> bool {
        self.failure.is_none()
    }

    /// Whether the check fails the run, with or without `--strict`.
    pub fn fails(&self, strict: bool) -> bool {
        !self.held() && (strict || !self.strict_only)
    }

    /// `violation: <name>`, then `: <values>` if the failure has any.
    pub fn violation(&self) -> String {
        let why = self.failure.as_deref().filter(|w| !w.is_empty());
        let why = why.map(|w| format!(": {w}")).unwrap_or_default();
        format!("violation: {}{why}", self.name)
    }
}

/// The check builders, shared by a report's `Vec<Check>` and a chaos
/// soak row.
pub trait Gate: Sized {
    /// Appends `check`.
    fn gate(self, check: Check) -> Self;

    /// Appends the always-gating check `name`: it `held`, or failed as
    /// `why` says.
    fn check(self, name: &'static str, held: bool, why: impl FnOnce() -> String) -> Self {
        let (strict_only, failure) = (false, (!held).then(why));
        self.gate(Check {
            name,
            strict_only,
            failure,
        })
    }

    /// Appends the identity check `got == want`.
    fn eq<T: PartialEq + Display>(self, name: &'static str, got: T, want: T) -> Self {
        self.check(name, got == want, || format!("{got} != {want}"))
    }

    /// Appends the bound check `got <= cap`.
    fn le<T: PartialOrd + Display>(self, name: &'static str, got: T, cap: T) -> Self {
        self.check(name, got <= cap, || format!("{got} > {cap}"))
    }

    /// Appends the check `name` that holds when `offenders` is empty;
    /// its values are the offending lines, `; `-separated.
    fn none(self, name: &'static str, offenders: Vec<String>) -> Self {
        self.check(name, offenders.is_empty(), || offenders.join("; "))
    }
}

impl Gate for Vec<Check> {
    fn gate(mut self, check: Check) -> Self {
        self.push(check);
        self
    }
}

/// A JSON verdict field: `name`, and whether its check is among
/// `checks` and held.
pub fn held<'a>(checks: &[Check], name: &'a str) -> (&'a str, Cell) {
    (
        name,
        checks.iter().any(|c| c.name == name && c.held()).into(),
    )
}
