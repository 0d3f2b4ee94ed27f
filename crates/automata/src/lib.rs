//! NFAs over predicate alphabets (§3, Figures 1, 2, 6 of the paper).
//!
//! * [`position()`] builds the machine every plan serves: the ε-free
//!   position automaton of an equation's right-hand side, with states
//!   that share their incoming transitions merged.  One start state, a
//!   set of final states, no `id` transition.
//! * [`Nfa::reverse`] is its inverse machine: every transition flipped,
//!   starts and finals swapped, state indices kept.
//! * [`thompson`] is the paper's standard construction `M(e)`, glued by
//!   `id` transitions: the reference the served machines are tested
//!   against, and the construction behind the explicit expansion
//!   hierarchy `EM(p, i)` ([`MachineSet`]) that reproduces Figures 2
//!   and 6.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod expand;
pub mod nfa;
pub mod position;

pub use expand::MachineSet;
pub use nfa::{thompson, Label, Nfa};
pub use position::position;
