//! The dense, validated protocol lookup table and its builder.

use std::fmt;

use crate::action::ActionSet;
use crate::error::ProtocolError;
use crate::event::{AccessEvent, RemoteSummary};
use crate::state::StateId;

/// The output of one protocol table cell: the next line state and the
/// structural actions to perform.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Transition {
    /// The state the line moves to.
    pub next: StateId,
    /// Actions triggered by the transition.
    pub actions: ActionSet,
}

impl Transition {
    /// Creates a transition.
    pub const fn new(next: StateId, actions: ActionSet) -> Self {
        Transition { next, actions }
    }

    /// A transition to `next` with no actions.
    pub const fn to(next: StateId) -> Self {
        Transition {
            next,
            actions: ActionSet::EMPTY,
        }
    }
}

/// A complete, validated protocol lookup table.
///
/// The table is dense over `(event, state, remote-summary)` — exactly the
/// three inputs of the FPGA lookup tables in §3.2 — and is immutable once
/// built. Use [`TableBuilder`] or
/// [`ProtocolTable::parse_map_file`](crate::ProtocolTable::parse_map_file)
/// to construct one.
#[derive(Clone, PartialEq, Eq)]
pub struct ProtocolTable {
    name: String,
    state_names: Vec<String>,
    initial: StateId,
    cells: Vec<Transition>,
    /// Per state: the remote summary it reports (derived from `cells`).
    summaries: [RemoteSummary; StateId::MAX_STATES],
}

impl ProtocolTable {
    pub(crate) fn from_parts(
        name: String,
        state_names: Vec<String>,
        initial: StateId,
        cells: Vec<Transition>,
    ) -> Self {
        let mut table = ProtocolTable {
            name,
            state_names,
            initial,
            cells,
            summaries: [RemoteSummary::None; StateId::MAX_STATES],
        };
        // Dirtiness and summaries are fixed by the cells: compute them
        // once here, not on every sibling scan and victim check.
        for state in StateId::all(table.state_count()).skip(1) {
            // A state is dirty if snooping a remote read from it would
            // supply modified data or write back.
            let t = table.lookup(AccessEvent::RemoteRead, state, RemoteSummary::None);
            let dirty = t.actions.contains(crate::action::Action::InterveneModified)
                || t.actions.contains(crate::action::Action::Writeback);
            table.summaries[state.index()] = if dirty {
                RemoteSummary::Modified
            } else {
                RemoteSummary::Shared
            };
        }
        table
    }

    fn cell_index(&self, event: AccessEvent, state: StateId, remote: RemoteSummary) -> usize {
        (event.index() * self.state_names.len() + state.index()) * RemoteSummary::ALL.len()
            + remote.index()
    }

    /// The protocol's name (e.g. `"mesi"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of states the protocol defines.
    pub fn state_count(&self) -> usize {
        self.state_names.len()
    }

    /// The display name of a state.
    ///
    /// # Panics
    ///
    /// Panics if `state` is outside this table's state count.
    pub fn state_name(&self, state: StateId) -> &str {
        &self.state_names[state.index()]
    }

    /// Looks up a state by name.
    pub fn state_by_name(&self, name: &str) -> Option<StateId> {
        self.state_names
            .iter()
            .position(|n| n == name)
            .map(|i| StateId::new(i as u8))
    }

    /// The state newly allocated lines start from after their first
    /// transition source (by convention the invalid state 0).
    pub fn initial_state(&self) -> StateId {
        self.initial
    }

    /// The transition for `(event, state, remote)`.
    ///
    /// # Panics
    ///
    /// Panics if `state` is outside this table's state count.
    #[inline]
    pub fn lookup(&self, event: AccessEvent, state: StateId, remote: RemoteSummary) -> Transition {
        assert!(
            state.index() < self.state_names.len(),
            "state {state} outside protocol {} ({} states)",
            self.name,
            self.state_names.len()
        );
        self.cells[self.cell_index(event, state, remote)]
    }

    /// Whether `state` counts as "dirty with respect to memory" for this
    /// table: reaching it from a write/upgrade/castout event, or any state
    /// whose remote-read transition performs a modified intervention.
    ///
    /// Used by victim handling: evicting a dirty line costs a write-back.
    ///
    /// # Panics
    ///
    /// Panics if `state` is outside this table's state count.
    pub fn is_dirty_state(&self, state: StateId) -> bool {
        self.summarize_state(state) == RemoteSummary::Modified
    }

    /// The remote summary another node should report when it holds a line
    /// in `state`: [`RemoteSummary::Modified`] for dirty states,
    /// [`RemoteSummary::Shared`] for valid clean states,
    /// [`RemoteSummary::None`] for invalid.
    ///
    /// # Panics
    ///
    /// Panics if `state` is outside this table's state count.
    #[inline]
    pub fn summarize_state(&self, state: StateId) -> RemoteSummary {
        assert!(
            state.index() < self.state_names.len(),
            "state {state} outside protocol {} ({} states)",
            self.name,
            self.state_names.len()
        );
        self.summaries[state.index()]
    }
}

impl fmt::Debug for ProtocolTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProtocolTable")
            .field("name", &self.name)
            .field("states", &self.state_names)
            .field("initial", &self.initial)
            .field("cells", &self.cells.len())
            .finish()
    }
}

impl fmt::Display for ProtocolTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "protocol {} ({} states)",
            self.name,
            self.state_names.len()
        )
    }
}

/// Incremental builder for a [`ProtocolTable`].
///
/// Every `(event, state, remote)` cell must be defined before
/// [`TableBuilder::build`] succeeds; wildcards in the map-file format (and
/// the [`TableBuilder::on_any_remote`] helper) make that ergonomic.
///
/// # Examples
///
/// ```
/// use memories_protocol::{ActionSet, StateId, TableBuilder, Transition};
/// use memories_protocol::{AccessEvent, RemoteSummary};
///
/// let mut b = TableBuilder::new("trivial", &["I", "V"]).unwrap();
/// let (i, v) = (StateId::new(0), StateId::new(1));
/// for event in AccessEvent::ALL {
///     for state in [i, v] {
///         for remote in RemoteSummary::ALL {
///             b.on(event, state, remote, Transition::to(v));
///         }
///     }
/// }
/// let table = b.build().unwrap();
/// assert_eq!(table.state_count(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct TableBuilder {
    name: String,
    state_names: Vec<String>,
    initial: StateId,
    cells: Vec<Option<Transition>>,
}

impl TableBuilder {
    /// Starts a builder for a protocol named `name` with the given state
    /// names; state 0 is the invalid/initial state.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] if the state count is out of range or a
    /// name repeats.
    pub fn new(name: &str, state_names: &[&str]) -> Result<Self, ProtocolError> {
        if state_names.is_empty() || state_names.len() > StateId::MAX_STATES {
            return Err(ProtocolError::BadStateCount {
                count: state_names.len(),
            });
        }
        for (i, a) in state_names.iter().enumerate() {
            if state_names[..i].contains(a) {
                return Err(ProtocolError::DuplicateStateName {
                    name: (*a).to_string(),
                });
            }
        }
        let n = AccessEvent::ALL.len() * state_names.len() * RemoteSummary::ALL.len();
        Ok(TableBuilder {
            name: name.to_string(),
            state_names: state_names.iter().map(|s| (*s).to_string()).collect(),
            initial: StateId::INVALID,
            cells: vec![None; n],
        })
    }

    fn cell_index(&self, event: AccessEvent, state: StateId, remote: RemoteSummary) -> usize {
        (event.index() * self.state_names.len() + state.index()) * RemoteSummary::ALL.len()
            + remote.index()
    }

    /// Number of declared states.
    pub fn state_count(&self) -> usize {
        self.state_names.len()
    }

    /// Looks up a declared state by name.
    pub fn state_by_name(&self, name: &str) -> Option<StateId> {
        self.state_names
            .iter()
            .position(|n| n == name)
            .map(|i| StateId::new(i as u8))
    }

    /// Overrides the state newly tracked lines start from (state 0, the
    /// invalid state, by convention — and the map-file format offers no
    /// way to change it). Out-of-range values are rejected at
    /// [`build`](Self::build); non-invalid values build fine but are
    /// flagged by the `memories-verify` model checker, which is exactly
    /// what its mutation tests use this hook for.
    pub fn initial_state(&mut self, state: StateId) -> &mut Self {
        self.initial = state;
        self
    }

    /// Defines the transition for one cell, overwriting any earlier
    /// definition (later rules win, as in the map-file format).
    pub fn on(
        &mut self,
        event: AccessEvent,
        state: StateId,
        remote: RemoteSummary,
        transition: Transition,
    ) -> &mut Self {
        let idx = self.cell_index(event, state, remote);
        self.cells[idx] = Some(transition);
        self
    }

    /// Defines the same transition for all three remote summaries.
    pub fn on_any_remote(
        &mut self,
        event: AccessEvent,
        state: StateId,
        transition: Transition,
    ) -> &mut Self {
        for remote in RemoteSummary::ALL {
            self.on(event, state, remote, transition);
        }
        self
    }

    /// Defines the same transition for every state (all remotes).
    pub fn on_any_state(&mut self, event: AccessEvent, transition: Transition) -> &mut Self {
        for s in 0..self.state_names.len() {
            self.on_any_remote(event, StateId::new(s as u8), transition);
        }
        self
    }

    /// Validates and freezes the table.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::MissingTransition`] for the first undefined
    /// cell, or [`ProtocolError::UnknownNextState`] if a transition targets
    /// a state beyond the declared count.
    pub fn build(&self) -> Result<ProtocolTable, ProtocolError> {
        if self.initial.index() >= self.state_names.len() {
            return Err(ProtocolError::BadInitialState {
                initial: self.initial.value(),
            });
        }
        let mut cells = Vec::with_capacity(self.cells.len());
        for event in AccessEvent::ALL {
            for s in 0..self.state_names.len() {
                for remote in RemoteSummary::ALL {
                    let state = StateId::new(s as u8);
                    let idx = self.cell_index(event, state, remote);
                    match self.cells[idx] {
                        Some(t) => {
                            if t.next.index() >= self.state_names.len() {
                                return Err(ProtocolError::UnknownNextState {
                                    event,
                                    next: t.next.value(),
                                });
                            }
                            cells.push(t);
                        }
                        None => {
                            return Err(ProtocolError::MissingTransition {
                                event,
                                state: self.state_names[s].clone(),
                                remote,
                            })
                        }
                    }
                }
            }
        }
        // Reorder: the builder iterated in (event, state, remote) order and
        // pushed in that same order, matching ProtocolTable::cell_index.
        Ok(ProtocolTable::from_parts(
            self.name.clone(),
            self.state_names.clone(),
            self.initial,
            cells,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;

    fn complete_builder() -> TableBuilder {
        let mut b = TableBuilder::new("t", &["I", "V"]).unwrap();
        let v = StateId::new(1);
        for event in AccessEvent::ALL {
            b.on_any_state(event, Transition::to(v));
        }
        b
    }

    #[test]
    fn builder_rejects_bad_state_sets() {
        assert!(matches!(
            TableBuilder::new("x", &[]),
            Err(ProtocolError::BadStateCount { count: 0 })
        ));
        let nine = ["a", "b", "c", "d", "e", "f", "g", "h", "i"];
        assert!(matches!(
            TableBuilder::new("x", &nine),
            Err(ProtocolError::BadStateCount { count: 9 })
        ));
        assert!(matches!(
            TableBuilder::new("x", &["I", "I"]),
            Err(ProtocolError::DuplicateStateName { .. })
        ));
    }

    #[test]
    fn build_requires_every_cell() {
        let mut b = TableBuilder::new("t", &["I", "V"]).unwrap();
        assert!(matches!(
            b.build(),
            Err(ProtocolError::MissingTransition { .. })
        ));
        for event in AccessEvent::ALL {
            b.on_any_state(event, Transition::to(StateId::new(1)));
        }
        assert!(b.build().is_ok());
    }

    #[test]
    fn initial_state_override_is_validated() {
        let mut b = complete_builder();
        b.initial_state(StateId::new(1));
        assert_eq!(b.build().unwrap().initial_state(), StateId::new(1));
        b.initial_state(StateId::new(7));
        assert!(matches!(
            b.build(),
            Err(ProtocolError::BadInitialState { initial: 7 })
        ));
    }

    #[test]
    fn build_rejects_out_of_range_next_state() {
        let mut b = complete_builder();
        b.on(
            AccessEvent::Flush,
            StateId::new(0),
            RemoteSummary::None,
            Transition::to(StateId::new(5)),
        );
        assert!(matches!(
            b.build(),
            Err(ProtocolError::UnknownNextState { next: 5, .. })
        ));
    }

    #[test]
    fn later_rules_overwrite_earlier() {
        let mut b = complete_builder();
        b.on(
            AccessEvent::LocalRead,
            StateId::new(0),
            RemoteSummary::None,
            Transition::new(StateId::new(0), ActionSet::from(Action::Writeback)),
        );
        let t = b.build().unwrap();
        let tr = t.lookup(AccessEvent::LocalRead, StateId::new(0), RemoteSummary::None);
        assert_eq!(tr.next, StateId::new(0));
        assert!(tr.actions.contains(Action::Writeback));
        // Other remotes untouched.
        let tr2 = t.lookup(
            AccessEvent::LocalRead,
            StateId::new(0),
            RemoteSummary::Shared,
        );
        assert_eq!(tr2.next, StateId::new(1));
    }

    #[test]
    fn lookup_is_total_over_declared_states() {
        let t = complete_builder().build().unwrap();
        for event in AccessEvent::ALL {
            for s in StateId::all(t.state_count()) {
                for remote in RemoteSummary::ALL {
                    let _ = t.lookup(event, s, remote);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside protocol")]
    fn lookup_panics_on_undeclared_state() {
        let t = complete_builder().build().unwrap();
        let _ = t.lookup(AccessEvent::LocalRead, StateId::new(5), RemoteSummary::None);
    }

    #[test]
    fn state_lookup_by_name() {
        let t = complete_builder().build().unwrap();
        assert_eq!(t.state_by_name("V"), Some(StateId::new(1)));
        assert_eq!(t.state_by_name("Q"), None);
        assert_eq!(t.state_name(StateId::new(0)), "I");
    }
}
