//! `pk-why`: *why was this request slow?*
//!
//! `pk-trace` records what happened; `pk-obs` records how much. This
//! crate closes the remaining gap — **per-request causality**: it folds
//! a drained trace stream into one record per request context
//! ([`fold`]), pricing each in the same pass against the accounting
//! identity
//!
//! ```text
//! request latency = admission queue wait
//!                 + service
//!                 + Σ lock-class waits
//!                 + slack
//! ```
//!
//! ([`RequestCost`]), decomposes a tail quantile's cycles into
//! wait-by-lock-class basis points ([`attribute`]), and picks a
//! deterministic set of the slowest complete requests as exemplars
//! ([`exemplars`]). A record keeps the events of its request, and its
//! span tree is built from them only when asked for
//! ([`RequestTree::children`]) — which [`encode_exemplars`] does, for
//! the handful of exemplars and no other request.
//!
//! This is §5.2.1 of the paper made per-request: "the kernel time of
//! \[stock\] Exim is dominated by one lock" becomes *this* request's
//! p999 decomposed into the cycles it spent behind each named class.
//!
//! The same nesting walk also folds a stream into the paper's flat
//! "X% of cycles in function Y" tables (§4): [`Profile`] totals each
//! class's inclusive and exclusive cycles over the whole capture, the
//! attribution `report profile` prints. Span nesting is stated once,
//! for both.
//!
//! Two contracts the rest of the tree relies on:
//!
//! * **Ids in records, names in canonical bytes.** Records and costs
//!   hold class *ids*, as the events do — the way `perf` keeps
//!   addresses until it reports: a record's waits are `(lock class id,
//!   cycles)` pairs and its kind is its envelope's class. Names are
//!   resolved (`pk-lockdep` registry for lock events, the pk-trace
//!   intern table for spans) once per class wherever bytes leave the
//!   crate: span trees, [`Attribution`] rows, exemplar encodings.
//!   Raw ids are registration-order-dependent and must never reach
//!   canonical bytes — neither as a value nor as a tie-break.
//! * **Admission wait is not a lock wait.** Time in
//!   [`pk_trace::ADMISSION_CLASS`] is the identity's *queue* term: under
//!   overload it dwarfs every real lock class, so pooling it with
//!   lock-class waits would hide exactly the inversion the tables
//!   exist to show.
//!
//! Everything here is a pure function of the event stream: same
//! stream, same bytes out — and the fold is insensitive to how
//! requests were laid out across tracks (thread migration, worker
//! renumbering), as long as each track's own order is preserved.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attribution;
mod fold;
mod reservoir;

pub use attribution::{attribute, Attribution, ClassShare};
pub use fold::{
    fold, ClassTotals, FoldOutput, NodeKind, Profile, RequestCost, RequestTree, SpanNode,
};
pub use reservoir::{encode_exemplars, encode_tree, exemplars};
